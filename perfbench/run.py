"""Benchmark entry point: one workload run, one JSON result line.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload singular-sweep --seed 0 \
        --seconds 30 --trace 0

The run writes its seeded problem file into a scratch directory under
perfbench/out/, spawns fresh single-threaded worker interpreters (see
worker.py), and prints as its last stdout line a JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones below; with --trace 1 they are the per-layer ones.
A fuller record of the run, with machine and library versions, goes to
perfbench/out/results/. --smoke runs the tiny self-test configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_problem

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-ups per untraced run; set-up time is their median.
SETUP_RUNS = 5
IMPORT_RUNS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p70": "s",
    "branches_per_s": "1/s",
    "cpu_s_per_branch": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


def _span_metrics(span: str, kinds: str) -> dict:
    units = {"calls": "count", "points": "count", "s": "s", "self_s": "s"}
    return {f"{span}.{kind}": units[kind] for kind in kinds.split()}


PER_LAYER = {
    **_span_metrics("quadrature.weighted_cumulative", "calls points s self_s"),
    **_span_metrics("quadrature.interp_uniform", "calls points s"),
    **_span_metrics("quadrature.cumulative_simpson", "calls points s"),
    **_span_metrics("fdcore.fd_solve", "calls s self_s"),
    "fdcore.steps": "count",
    "fdcore.step_s": "s",
    **_span_metrics("fdcore.adomian", "calls s"),
    **_span_metrics("residual.residual_by_rank", "calls s self_s"),
    **_span_metrics("residual.residual_report", "calls"),
    **_span_metrics("residual.count_interior_zeros", "calls s"),
    **_span_metrics("convergence.convergence_report", "calls s"),
    **_span_metrics("convergence.majorant_sequence", "s"),
    **_span_metrics("convergence.adomian", "calls"),
    **_span_metrics("oracle.find_eigenvalue", "calls s"),
    **_span_metrics("oracle.shoot", "calls s"),
    "oracle.shoot.nfev": "count",
    **_span_metrics("model.load_problem", "calls s"),
    **_span_metrics("model.l1_norm", "s"),
    **_span_metrics("basis.zero_eigenfunction", "calls"),
    **_span_metrics("cli.main", "self_s"),
    "cli.bytes_written": "B",
    "import.transeig.s": "s",
    "import.scipy.s": "s",
    "trace.ops": "count",
    "trace.overhead": "ratio",
    "scaling.example1.rank_exponent": "1",
    "scaling.example1.mesh_exponent": "1",
    "scaling.example2.rank_exponent": "1",
    "scaling.example2.mesh_exponent": "1",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="rank 2, M=64, one operation (self-test)")
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn_worker(args: list[str], env: dict) -> tuple[float, list[dict]]:
    """Run one worker; return its set-up seconds and its JSON lines."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker {' '.join(args[:2])} exited with "
                           f"code {proc.returncode}")
    return lines[0]["ready"] - start, lines


def parse_importtime(text: str) -> tuple[float, float]:
    """Seconds importing transeig and, within it, scipy.

    Reads `python -X importtime` output, in which a module's nested
    imports are listed before it, one indentation level deeper. transeig
    is the sum of the top-level transeig entries; scipy is the sum of the
    scipy entries whose importer is not itself a scipy module.
    """
    entries = []
    for line in text.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        try:
            cumulative_us = int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, cumulative_us, name.strip()))
    importer = {}
    transeig_us = scipy_us = 0
    for depth, cumulative_us, name in reversed(entries):
        importer[depth] = name
        top = name.split(".")[0]
        parent = importer.get(depth - 1, "") if depth else ""
        if depth == 0 and top == "transeig":
            transeig_us += cumulative_us
        if top == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cumulative_us
    return transeig_us / 1e6, scipy_us / 1e6


def _import_seconds(env: dict) -> dict:
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import transeig.cli"],
            env=env, cwd=ROOT, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise HarnessError("cannot import transeig.cli")
        runs.append(parse_importtime(proc.stderr))
    return {"import.transeig.s": statistics.median(r[0] for r in runs),
            "import.scipy.s": statistics.median(r[1] for r in runs)}


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _end_to_end(result: dict, setups: list[float], attempted: int,
                failed: int) -> dict:
    times = [op["s"] for op in result["ops"]]
    branches = result["branches"] * len(times)
    ok_branches = result["branches"] * sum(op["ok"] for op in result["ops"])
    # At 30 s a run holds about 40 operations of the slowest workload, so
    # the 70th percentile is the highest with ten samples beyond it.
    p70 = (statistics.quantiles(times, n=10, method="inclusive")[6]
           if len(times) > 1 else times[0])
    return {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "op_s_p70": p70,
        "branches_per_s": ok_branches / result["loop_s"],
        "cpu_s_per_branch": result["cpu_s"] / branches,
        "peak_rss_mb": result["rss_mb"],
        "ok_rate": 1.0 - failed / attempted,
    }


def _per_layer(result: dict, env: dict) -> dict:
    layers = dict(result["layers"])
    layers.update(_import_seconds(env))
    untraced = [op["s"] for op in result["ops"] if not op["traced"]]
    traced = [op["s"] for op in result["ops"] if op["traced"]]
    layers["trace.overhead"] = (statistics.median(traced)
                                / statistics.median(untraced))
    return layers


def run(args) -> tuple[dict, dict]:
    """Run the workload; return the printed summary and the full record."""
    if not (ROOT / "src" / "transeig" / "cli.py").is_file():
        raise HarnessError(f"no transeig sources under {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    env = _child_env()
    work = HERE / "out" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        problem = write_problem(workload, args.seed, ROOT / "problems", work)
        common = ["--workload", workload.name, "--problem", str(problem),
                  "--seed", str(args.seed)] + (["--smoke"] if args.smoke
                                               else [])
        setups, setup_codes = [], []
        extra_setups = 0 if args.trace or args.smoke else SETUP_RUNS - 1
        for index in range(extra_setups):
            seconds, lines = _spawn_worker(
                common + ["--work", str(work / f"setup-{index}"),
                          "--setup-only"], env)
            setups.append(seconds)
            setup_codes.append(lines[0]["code"])
        seconds, lines = _spawn_worker(
            common + ["--work", str(work / "main"),
                      "--seconds", str(args.seconds)]
            + (["--trace"] if args.trace else []), env)
        if len(lines) != 2:
            raise HarnessError("worker printed no result")
        setups.append(seconds)
        result = lines[1]
        attempted = len(setup_codes) + 1 + len(result["ops"])
        failed = (sum(code != 0 for code in setup_codes)
                  + (not result["warm_ok"])
                  + sum(not op["ok"] for op in result["ops"]))
        if args.trace:
            values = _per_layer(result, env)
            units = PER_LAYER
        else:
            values = _end_to_end(result, setups, attempted, failed)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            **result["versions"],
            "threads": {var: env[var] for var in THREAD_VARS},
            "git_sha": _git_sha(),
        },
        "setup_s": setups,
        "op_s": [op["s"] for op in result["ops"]],
        "errors": result["errors"],
        "layers": values if args.trace else None,
        "summary": summary,
    }
    return summary, record


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        summary, record = run(args)
    except (HarnessError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{time.time_ns()}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
