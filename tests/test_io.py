"""The atomic writer's failure path: the target is never left half written."""

import os

import pytest

from regen_bernstein import _io


def _fail_replace(src, dst):
    raise OSError("replace failed")


@pytest.mark.parametrize("old", [b"old bytes\n", None])
def test_atomic_write_failure_keeps_target(tmp_path, monkeypatch, old):
    target = tmp_path / "report.json"
    if old is not None:
        target.write_bytes(old)
    monkeypatch.setattr(_io.os, "replace", _fail_replace)
    with pytest.raises(OSError, match="replace failed"):
        _io.atomic_write_text(str(target), "new text")
    if old is None:
        assert not target.exists()
    else:
        assert target.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []
    assert os.listdir(tmp_path) == ([] if old is None else ["report.json"])
