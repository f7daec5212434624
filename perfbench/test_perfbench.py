"""Self-test of the benchmark harness in its tiny configuration.

Run from the repository root with

    python3 -m pytest perfbench

Each workload runs once untraced and once traced at rank 2, M=64, with a
single timed operation (two when traced), so the harness cannot rot
between the benchmark's real runs.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, variant_factor  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_a_correct_result(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds",
                "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (3 if trace == "1" else 2)
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_seeds_draw_variants_and_seed_zero_is_the_shipped_problem():
    assert variant_factor(0) == 1.0
    factors = {variant_factor(seed) for seed in range(1, 20)}
    assert len(factors) == 19
    assert all(0.5 <= f <= 1.5 for f in factors)


def test_tracer_wraps_every_binding_and_restores_it():
    from transeig import fdcore, quadrature, residual
    from transeig.model import BranchId, PotentialSpec, TransmissionProblem

    original = quadrature.cumulative_simpson
    tracer = Tracer()
    tracer.install()
    try:
        for module in (quadrature, fdcore, residual):
            assert module.cumulative_simpson is not original
        fdcore.fd_solve(TransmissionProblem(PotentialSpec.inverse_sqrt_half()),
                        BranchId("I", 0, 1), 1, 8)
    finally:
        tracer.uninstall()
        tracer.end_operation()
    assert residual.cumulative_simpson is original
    totals = tracer.totals
    assert totals["fdcore.fd_solve.calls"] == 1
    assert totals["fdcore.steps"] == 1
    assert totals["quadrature.interp_uniform.calls"] > 0
    # weighted_cumulative runs inside fd_solve, so it is not fd_solve's own
    assert 0.0 <= totals["fdcore.fd_solve.self_s"] <= (
        totals["fdcore.fd_solve.s"]
        - totals["quadrature.weighted_cumulative.s"] + 1e-12)


def test_parse_importtime_separates_transeig_and_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.special",
        "import time:       200 |        300 |     scipy.integrate",
        "import time:        50 |        400 |   transeig.model",
        "import time:        10 |         10 |     numpy.linalg",
        "import time:        20 |        500 | transeig",
        "import time:         5 |          5 | transeig.cli",
    ])
    assert run.parse_importtime(text) == (505e-6, 300e-6)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "smooth-deep", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
