"""The benchmark's workloads and the seeded problem files they run on.

Each workload is one full `transeig` CLI command. Seed 0 runs the shipped
problem file unchanged. Any other seed runs a variant of the same shape:
the same potential kind and nonlinearity degree, with every coefficient
multiplied by one seeded factor in [0.5, 1.5]. The built-in singular weight
has no coefficient, so a singular variant scales the nonlinearity only.

The CLI's `sweep --first K` and `validate --first K` always solve the
lowest K branches, so a seed cannot pick which branches run; the branch
set, rank and mesh, and with them the work per operation, are the same
for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One CLI command run in a closed loop.

    check names the output check: "singular" (residual decay plus an M/2
    solve, and the frozen table on seed 0), "oracle" (shooting oracle at
    tight tolerance) or "reference" (a rank-32 FD solve).
    """

    name: str
    command: str
    problem: str
    branches: int
    rank: int
    mesh: int
    check: str

    def rank_and_mesh(self, smoke: bool) -> tuple[int, int]:
        return (SMOKE_RANK, SMOKE_MESH) if smoke else (self.rank, self.mesh)

    def argv(self, problem_path: Path, out_dir: Path,
             smoke: bool = False) -> list[str]:
        rank, mesh = self.rank_and_mesh(smoke)
        args = [self.command, "--problem", str(problem_path),
                "--first", str(self.branches), "--rank", str(rank),
                "--mesh", str(mesh), "--out", str(out_dir)]
        if self.command == "sweep":
            args += ["--jobs", "1"]
        return args


# The tiny configuration the self-test runs.
SMOKE_RANK, SMOKE_MESH = 2, 64

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("singular-sweep", "sweep", "example2.json", 4, 8, 16384,
             "singular"),
    Workload("smooth-deep", "sweep", "example1.json", 6, 32, 2048, "oracle"),
    Workload("oracle-validate", "validate", "example1.json", 6, 6, 2048,
             "reference"),
)}


def variant_factor(seed: int) -> float:
    """Coefficient scale for a seed: exactly 1 for seed 0."""
    return 1.0 if seed == 0 else random.Random(seed).uniform(0.5, 1.5)


def write_problem(workload: Workload, seed: int, problems_dir: Path,
                  out_dir: Path) -> Path:
    """Write the seed's problem file into out_dir and return its path."""
    data = json.loads((problems_dir / workload.problem).read_text())
    factor = variant_factor(seed)
    if seed != 0:
        potential = data["potential"]
        if "coeffs" in potential:
            potential["coeffs"] = [factor * c for c in potential["coeffs"]]
        nonlinearity = data.get("nonlinearity")
        if nonlinearity is not None:
            nonlinearity["coeffs_from_degree_1"] = [
                factor * a for a in nonlinearity["coeffs_from_degree_1"]]
    path = out_dir / f"problem-seed{seed}.json"
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return path
