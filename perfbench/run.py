"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (a separate, traced run).  A header names the digest
of the seeded inputs, each metric is printed by name with its unit
(percentiles with their sample counts), and the last line of standard
output is the JSON result.  The exit code is 0
only when every answer passed the correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serve-mix", "sweep-exact")


def _environment() -> None:
    """Load hygiene, inherited by every process the benchmark starts."""
    # numpy reads these at import; the installed OpenBLAS would
    # otherwise start 64 threads per process on a 2-CPU box.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The cache is on only where a workload asks for it.
    for var in ("REPRO_CACHE", "REPRO_CACHE_DIR"):
        os.environ.pop(var, None)
    os.environ["PYTHONPATH"] = os.pathsep.join((ROOT, SRC))
    sys.path[:0] = [ROOT, SRC]
    os.chdir(ROOT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=int, default=30,
        help="size of the fixed input set, as seconds of timed work on"
             " a 2-CPU box (default 30)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    _environment()

    from perfbench import inputs, serve_mix, sweep_exact

    module = {"serve-mix": serve_mix, "sweep-exact": sweep_exact}[args.workload]
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    log_path = os.path.join(work, "children.log")
    try:
        with open(log_path, "wb") as log:
            fn = module.run_traced if args.trace else module.run
            report = fn(args.seed, args.seconds, work, log)
    except BaseException:
        with open(log_path, "rb") as fh:  # what the daemon/probes said
            sys.stderr.write(fh.read()[-4000:].decode(errors="replace"))
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report.digest = inputs.digest(module.PLAN(args.seed, args.seconds))
    print("\n".join(report.lines()), flush=True)
    print(json.dumps(report.result()), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
