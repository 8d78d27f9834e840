"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-c-mtabl5 --seed 1 --seconds 45 --trace 0

Run from the repository root. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it repeat every metric with its unit. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-module ones. A full record, with the machine, is written to
``perfbench/results/``; a traced run also writes its spans there.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
library cannot be imported or the arguments are wrong (nothing printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread: every workload is a single closed-loop caller, and the
# figures must not depend on how many cores happen to be idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _import_library():
    """Import numpy and mtabl from this checkout's ``src``; returns the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import mtabl

    elapsed = perf_counter() - t0
    origin = Path(mtabl.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"mtabl was imported from {origin}, not from {src}")
    return mtabl, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The library is imported first, with numpy, so that setup_s counts it.
    try:
        lib, import_s = _import_library()
    except ImportError as err:
        print(f"cannot import the library: {err}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(bench.WORKLOADS))}")

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = bench.run(lib, args.workload, args.seed, args.seconds, bool(args.trace),
                           workdir=workdir, results_dir=HERE / "results", import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bench.print_report(sys.stdout, record)
    print(json.dumps(record["result"]), flush=True)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
