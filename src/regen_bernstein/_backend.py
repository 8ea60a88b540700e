"""Kernel backend, fixed when this module loads.

The hot simulation loops are compiled with numba when numba imports and
run as numpy code otherwise; nothing else chooses. Both consume
pre-drawn random arrays under the same contract, so the backend affects
speed only.
"""

from __future__ import annotations

try:
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def numba_available() -> bool:
    return HAVE_NUMBA


def backend_choice() -> str:
    """Name of the backend in use: "numba" or "numpy"."""
    return "numba" if HAVE_NUMBA else "numpy"
