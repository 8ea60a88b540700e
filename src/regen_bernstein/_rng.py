"""Deterministic substream derivation for replicated simulation.

``substream(seed, *path)`` is the generator
``np.random.default_rng(np.random.SeedSequence((seed mod 2^64, *path)))``,
bit for bit. NEP 19 freezes the SeedSequence and PCG64 algorithms, so
the SeedSequence hash (pool mixing, then ``generate_state(4, uint64)``)
is computed here in one numpy pass for a block of 256 consecutive
values of the entropy's last element (the replica index, or the seed
when the path is empty), and PCG64 seeds itself from the row of its
value. Replicated loops ask for consecutive indices, so each block is
hashed once; a small memo holds the last blocks.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Fixed derivation tags keep independent tasks on disjoint streams even
# when they share a master seed.
TAG_PATH = 1
TAG_SPLIT = 2
TAG_TAIL = 3
TAG_FIT_EXCURSION = 4
TAG_FIT_FIRST_BLOCK = 5
TAG_PITMAN = 6
TAG_STRUCTURE = 7
TAG_TWO_BLOCK = 8
TAG_TV = 9
TAG_BOOTSTRAP = 10
TAG_COLLECT = 11

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# Replica indices hashed together. A multiple of 256 divides 2^32, so a
# block never straddles a change in an index's uint32 word count.
_BLOCK = 256
# Blocks kept: 16 blocks of 256 four-word states are 128 KB.
_MEMO_BLOCKS = 16

# numpy's SeedSequence: pool size and hash constants (NEP 19 frozen).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from one entropy integer."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _pcg64_states(entropy: list[np.ndarray]) -> np.ndarray:
    """(rows, 4) uint64 PCG64 seeds of SeedSequence(entropy row).

    entropy[j] is the uint32 column of every row's j-th entropy word.
    The steps are SeedSequence.mix_entropy on a 4-word pool, then
    generate_state(4, uint64); uint32 arrays wrap modulo 2^32 as the
    reference's uint32_t arithmetic does.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        return value

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        result ^= result >> _XSHIFT
        return result

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = np.empty((len(zero), 2 * _POOL_SIZE), dtype=np.uint64)
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        state[:, i_dst] = value
    # uint32 word pairs, low word first, as generate_state's '<u8' view
    out = state[:, 0::2] | (state[:, 1::2] << np.uint64(32))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=_MEMO_BLOCKS)
def _block_states(head: tuple[int, ...], block: int) -> np.ndarray:
    """PCG64 seeds of the entropies (*head, index), one row per index of block."""
    entropy = [np.full(_BLOCK, w, dtype=np.uint32)
               for value in head for w in _words(value)]
    # block * 256 has zero low bits: its indices differ in the low word only
    low, *high = _words(block * _BLOCK)
    entropy.append(np.arange(low, low + _BLOCK, dtype=np.uint32))
    entropy += [np.full(_BLOCK, w, dtype=np.uint32) for w in high]
    return _pcg64_states(entropy)


class _StateWords(ISeedSequence):
    """The words a SeedSequence's generate_state(4, uint64) would return.

    PCG64 seeds itself from them and keeps this object as its
    ``seed_seq``; it holds no entropy, so it cannot spawn.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or (
                dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("holds the 4 uint64 words PCG64 seeds from only")
        return self.words


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator owned by the (master seed, derivation path) pair.

    Distinct paths give statistically independent streams, and the
    derivation does not depend on how work is chunked, so any replica
    can be resimulated in isolation. Replicated tasks pass
    (task tag, replica index) as the path. Path elements must be
    non-negative, as SeedSequence requires.
    """
    entropy = (int(master_seed) & _MASK64, *map(int, path))
    block, offset = divmod(entropy[-1], _BLOCK)
    words = _block_states(entropy[:-1], block)[offset]
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def stream_description(master_seed: int) -> str:
    """One-line account of the derivation, for run metadata."""
    return (
        "per-replica numpy SeedSequence with entropy "
        f"({int(master_seed)}, task_tag, replica_index)"
    )
