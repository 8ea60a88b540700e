"""Kernel backend name, recorded in run metadata.

Every kernel is numpy or plain Python, so the name is fixed.
"""

from __future__ import annotations

import importlib.util


def numba_available() -> bool:
    """Whether numba is installed (found, not imported). The package does
    not use numba; this only reports the environment."""
    return importlib.util.find_spec("numba") is not None


def backend_choice() -> str:
    """Name of the kernel backend: always "numpy"."""
    return "numpy"
