"""Line count and compile-time memory peak of each package module.

    python3 benchmarks/compile_peaks.py [SRC_DIR]        (default: src)

Prints one row per module of regen_bernstein, largest peak first: the
module, its line count and the tracemalloc peak of compile() over its
source, in MB (2^20 bytes). Without cached bytecode (for example with
PYTHONDONTWRITEBYTECODE=1) importing the package compiles every
module, and the largest of these peaks sets the heap that a run's
peak RSS then sits on; compare the listings of two checkouts to see
whether a change grew it.
"""

import sys
import tracemalloc
from pathlib import Path


def compile_peak(source: str, filename: str) -> int:
    """Peak bytes traced while compiling source."""
    tracemalloc.start()
    try:
        compile(source, filename, "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src") / "regen_bernstein"
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((compile_peak(source, str(path)),
                     source.count("\n"), path.name))
    if not rows:
        print(f"no modules under {package}", file=sys.stderr)
        return 1
    print(f"{'module':<18} {'lines':>6} {'peak MB':>8}")
    for peak, lines, name in sorted(rows, reverse=True):
        print(f"{name:<18} {lines:>6} {peak / 2 ** 20:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
