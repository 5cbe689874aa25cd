"""Pipeline benchmark for vecot: one workload per run.

    python3 perfbench/run.py --workload vector-batch --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the benchmark imports vecot from ``src/``
there.  It prints a summary, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details per item go to ``perfbench/out/``.  Exit code 0 when every output
check passed, 1 when one failed, 2 when the vecot sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One BLAS/OpenMP thread (at most nproc): the run is a single closed loop and
# one thread keeps its timings steady.
THREADS = "1"
WORKLOADS = ("vector-batch", "vector-hard", "scalar-files", "grid-needles")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vecot", "__init__.py")):
        print(f"perfbench: no vecot sources in {src}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)

    # numpy loads first, outside the timed import: the speed probe uses it.
    from speed import Speedometer

    with Speedometer() as meter:
        import vecot
        import vecot.cli  # noqa: F401  (the scalar-files entry point)
    import_s = meter.reference_s
    if os.path.dirname(os.path.dirname(os.path.abspath(vecot.__file__))) != src:
        print(f"perfbench: imported vecot from {vecot.__file__}, not {src}", file=sys.stderr)
        return 2

    import bench

    result, lines = bench.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.smoke,
        import_s,
        os.path.join(HERE, "out"),
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
