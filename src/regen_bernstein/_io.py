"""Atomic text output shared by every file the package writes."""

from __future__ import annotations

import os


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
