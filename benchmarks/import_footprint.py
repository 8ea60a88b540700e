"""Memory, time and modules that importing the package adds.

    python3 benchmarks/import_footprint.py [SRC_DIR]        (default: src)

Each run is a fresh child process that first imports numpy and
numpy.random (which every run of the package loads), then imports
regen_bernstein and regen_bernstein.cli from SRC_DIR. One unmeasured
run writes the bytecode caches; the medians of the next runs are
printed: the increase of ru_maxrss (peak resident set, in MB of 2^20
bytes) over the import and its wall time, followed by the modules
outside the package that the import adds. Compare the listings of two
checkouts to see what a change adds to the start of every CLI run.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 5

CHILD = """
import resource, sys, time
import numpy, numpy.random
before = set(sys.modules)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
import regen_bernstein, regen_bernstein.cli
wall = time.perf_counter() - start
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss
added = sorted(m for m in set(sys.modules) - before
               if m.partition(".")[0] != "regen_bernstein")
import json
print(json.dumps({"rss_kb": grown, "wall_s": wall, "added": added}))
"""


def measure(src: Path) -> dict:
    """One child's import footprint."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv) -> int:
    src = Path(argv[1] if len(argv) > 1 else "src").resolve()
    if not (src / "regen_bernstein" / "__init__.py").is_file():
        print(f"no regen_bernstein package under {src}", file=sys.stderr)
        return 1
    measure(src)
    runs = [measure(src) for _ in range(RUNS)]
    rss_mb = statistics.median(r["rss_kb"] for r in runs) / 1024
    wall_ms = 1e3 * statistics.median(r["wall_s"] for r in runs)
    added = runs[-1]["added"]
    print(f"import regen_bernstein, regen_bernstein.cli from {src}")
    print(f"(median of {RUNS} runs, after numpy and numpy.random)")
    print(f"ru_maxrss increase {rss_mb:8.2f} MB")
    print(f"wall time          {wall_ms:8.1f} ms")
    print(f"non-package modules added: {len(added)}")
    for name in added:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
