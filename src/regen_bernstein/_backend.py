"""Kernel backend selection.

REGEN_BERNSTEIN_BACKEND picks the implementation of the hot simulation
loops: "numba" (compiled), "numpy" (vectorized fallback), or "auto"
(numba when importable). Both backends consume pre-drawn random arrays
under the same contract, so the choice affects speed only. Whether
numba imports is decided once, when this module loads; the environment
variable is read on every resolution.
"""

from __future__ import annotations

import os

BACKEND_ENV = "REGEN_BERNSTEIN_BACKEND"

try:
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def numba_available() -> bool:
    return HAVE_NUMBA


def backend_choice() -> str:
    """Resolve the active backend name from the environment."""
    mode = os.environ.get(BACKEND_ENV, "auto").strip().lower()
    if mode not in ("auto", "numba", "numpy"):
        raise ValueError(
            f"unknown {BACKEND_ENV} value {mode!r}, expected auto, numba or numpy"
        )
    if mode == "numpy":
        return "numpy"
    if mode == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba backend requested but numba is not importable")
        return "numba"
    return "numba" if HAVE_NUMBA else "numpy"
