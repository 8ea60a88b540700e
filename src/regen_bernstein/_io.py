"""Atomic text output shared by every file the package writes, the one
JSON text of its reports, and the plain-data form of the records
written into them."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np


def plain(obj):
    """obj as JSON-ready plain data.

    A dataclass becomes the dict of its fields, arrays and tuples become
    lists and numpy scalars Python scalars, recursively through dicts,
    lists and tuples; anything else is returned as it is.
    """
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path through a unique temporary file beside it.

    The temporary file is created with mode 0o666 less the umask, the
    mode open(path, "w") gives a new file, and replaces path only once
    complete, so readers never see a partial file and concurrent writers
    never share a temporary. Text is written as UTF-8 with no newline
    translation.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(obj) -> str:
    """obj as the package's JSON text: sorted keys, two-space indent and
    a final newline, so equal data give equal bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(payload: dict, path: str) -> None:
    """Deterministic JSON dump (sorted keys, no timestamps), atomic."""
    atomic_write_text(path, json_text(payload))
