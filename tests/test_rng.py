"""substream is numpy's own SeedSequence derivation, bit for bit.

The reference is np.random.default_rng(np.random.SeedSequence(entropy))
for the entropy (seed masked to 64 bits, *path).
"""

import numpy as np
import pytest

from regen_bernstein._rng import substream

_MASK64 = 2**64 - 1


def _reference(seed, *path):
    return np.random.default_rng(np.random.SeedSequence((seed & _MASK64, *path)))


def _draws(rng):
    return (rng.random(5), rng.integers(0, 256, 7, dtype=np.uint8),
            rng.integers(0, 2**64, 3, dtype=np.uint64), rng.standard_normal(5))


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 1, 2**64 + 5, -1])
@pytest.mark.parametrize("path", [
    (),                              # the seed alone
    (0,), (2**40,),                  # a one-element path
    (3, 0), (3, 255), (3, 256), (3, 257), (3, 70_000),
    (3, 2**32 - 1), (3, 2**32), (3, 2**64 + 3),  # 1, 2 and 3 index words
    (5, 2**33, 17),                  # a two-word prefix element
    (5, 3, 4, 5, 6, 7, 8, 9),        # entropy longer than the 4-word pool
])
def test_substream_matches_numpy(seed, path):
    got, want = _draws(substream(seed, *path)), _draws(_reference(seed, *path))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("path", [(-1,), (3, -1), (3, -257), (-2, 5)])
def test_substream_rejects_negative_path(path):
    with pytest.raises(ValueError):
        _reference(7, *path)
    with pytest.raises(ValueError):
        substream(7, *path)
