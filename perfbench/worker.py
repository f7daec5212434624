"""One workload run in a fresh interpreter, started by run.py.

The worker imports `transeig.cli`, loads the problem and runs one warm-up
operation, then prints a JSON line holding the monotonic clock reading at
that moment; run.py measures set-up time from its spawn up to it. A
set-up-only worker stops there. A full worker then runs the workload's
CLI command in a closed loop, one client, for the given number of
seconds, each operation writing into its own directory. After the loop
it computes the references, checks every operation's output and prints a
second JSON line with the results.

In a traced run every other operation is traced (see spans.py), so the
untraced ones in between give the tracing overhead, and the rank/mesh
scaling report follows the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--problem", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True,
                        help="directory for this worker's outputs")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _run_op(cli, argv: list[str]) -> tuple[float, int | None]:
    """Wall seconds and exit code of one CLI command; None if it raised."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc()
        code = None
    return time.perf_counter() - start, code


def _bytes_in(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.glob("*") if f.is_file())


def main(argv=None) -> int:
    args = _parse(argv)
    import transeig.cli as cli
    from transeig.model import load_problem

    workload = WORKLOADS[args.workload]
    problem, _ = load_problem(args.problem)
    rank, mesh = workload.rank_and_mesh(args.smoke)

    def argv_for(out: Path) -> list[str]:
        return workload.argv(args.problem, out, args.smoke)

    warm_dir = args.work / "warm"
    _, warm_code = _run_op(cli, argv_for(warm_dir))
    print(json.dumps({"ready": time.monotonic(), "code": warm_code}),
          flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    ops = []
    min_ops = 2 if tracer else 1
    cpu_start = time.process_time()
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < args.seconds:
        out = args.work / f"op-{len(ops)}"
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.install()
        try:
            seconds, code = _run_op(cli, argv_for(out))
        finally:
            if traced:
                tracer.uninstall()
                tracer.end_operation()
        ops.append({"dir": out, "s": seconds, "code": code,
                    "traced": traced})
    loop_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    refs = checks.references(workload, problem, rank, mesh)
    warm = {"dir": warm_dir, "code": warm_code}
    errors = []
    for op in [warm] + ops:
        found = ([f"exit code {op['code']}"] if op["code"] != 0 else
                 checks.check_output(workload, op["dir"], refs, args.seed,
                                     args.smoke))
        op["ok"] = not found
        errors += [f"{op['dir'].name}: {e}" for e in found]

    import numpy
    import scipy
    result = {
        "warm_ok": warm["ok"],
        "ops": [{"s": op["s"], "ok": op["ok"], "traced": op["traced"]}
                for op in ops],
        "errors": errors[:20],
        "loop_s": loop_s,
        "cpu_s": cpu_s,
        "rss_mb": rss_mb,
        "branches": workload.branches,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        traced = [op for op in ops if op["traced"]]
        layers = {k: v / len(traced) for k, v in tracer.totals.items()}
        steps = tracer.totals["fdcore.steps"]
        layers["fdcore.step_s"] = (
            tracer.totals["fdcore.fd_solve.self_s"] / steps if steps else 0.0)
        layers["cli.bytes_written"] = (
            sum(_bytes_in(op["dir"]) for op in traced) / len(traced))
        layers["trace.ops"] = len(traced)
        from scaling import scaling_report
        layers.update(scaling_report(
            {"example1": ROOT / "problems" / "example1.json",
             "example2": ROOT / "problems" / "example2.json"}, args.smoke))
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
