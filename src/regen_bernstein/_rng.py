"""Deterministic substream derivation for replicated simulation.

``substream(seed, *path)`` is the generator
``np.random.default_rng(np.random.SeedSequence((seed mod 2^64, *path)))``.
Replicated routines make one per aligned block of BLOCK replicas and
draw block-major, so a run makes a few hundred of them at most.
"""

from __future__ import annotations

# imported at load: numpy loads numpy.random lazily, on first use
from numpy.random import Generator, SeedSequence, default_rng

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

# Replicas that share one generator: replica r belongs to block r // BLOCK
BLOCK = 256

_MASK64 = (1 << 64) - 1


def substream(master_seed: int, *path: int) -> Generator:
    """Generator owned by the (master seed, derivation path) pair.

    Distinct paths give statistically independent streams. Replicated
    tasks pass (task tag, block index) as the path, so any block of
    replicas can be resimulated in isolation. Path elements must be
    non-negative, as SeedSequence requires.
    """
    entropy = (int(master_seed) & _MASK64, *map(int, path))
    return default_rng(SeedSequence(entropy))


def stream_description(master_seed: int, *, replicated: bool = False,
                       step_major: bool = False) -> str:
    """One-line account of the derivation, for run metadata.

    Single runs (simulate, variance) draw from substreams of their own;
    replicated tasks (verify) draw block-major from one substream per
    block of BLOCK replicas. step_major marks a run whose Monte Carlo
    tail drew each block's moves step-major (mc_tail on a finite chain).
    """
    if replicated:
        return (f"numpy SeedSequence with entropy ({int(master_seed)}, "
                f"task_tag, block_index), one per block of {BLOCK} "
                "replicas, drawn block-major"
                + (", the tail's moves step-major in each block"
                   if step_major else ""))
    return ("per-replica numpy SeedSequence with entropy "
            f"({int(master_seed)}, task_tag, replica_index)")
