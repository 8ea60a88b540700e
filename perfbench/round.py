"""One round of a workload in a process of its own: set up, run, check.

Usage (run.py starts it with PYTHONPATH pointing at the checkout's src):

    python3 perfbench/round.py --workload NAME --seed N --trace 0|1 \
        --size full|toy --out DIR

Prints one JSON object as the last line of standard output.
"""

import time

_START = time.perf_counter()  # before any import that set-up time covers

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _environment(backend: str) -> dict:
    import numpy
    import scipy
    from regen_bernstein import _backend

    return {
        "backend": backend,
        "numba": _backend.numba_available(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    operations, backend = workloads.setup(args.workload, args.size, args.seed,
                                          args.out)
    setup_s = time.perf_counter() - _START
    import regen_bernstein

    src = os.path.dirname(os.path.dirname(os.path.abspath(regen_bernstein.__file__)))
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    outputs = {}
    digest = hashlib.sha256()
    failed = 0
    cpu_start = _cpu_seconds()
    wall_start = time.perf_counter()
    for label, operation in operations:
        try:
            blob, values = operation()
        except Exception:  # one failed operation must not stop the round
            failed += 1
            print(f"operation {label} failed:", file=sys.stderr)
            traceback.print_exc()
            continue
        outputs[label] = values
        digest.update(label.encode() + b"\0" + blob)
    wall_s = time.perf_counter() - wall_start
    cpu_s = _cpu_seconds() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(wall_s)

    import checks  # after the readings: the checks load scipy.stats

    problems = checks.check(args.workload, args.size, outputs, backend)
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "attempted": len(operations),
        "failed": failed, "problems": problems, "digest": digest.hexdigest(),
        "src": src, "environment": _environment(backend), "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
