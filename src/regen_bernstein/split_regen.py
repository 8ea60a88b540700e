"""Split-chain simulation, regeneration blocks and the block decomposition.

The split chain runs the base chain in m-step blocks. At the start of
each block the path is drawn first; the block's level is then 1 with
probability 1_C(start) * r(start, endpoint), using one dedicated uniform
per block (always consumed, so draw counts depend only on the horizon).
For the mod-1 chain the level is latent: a two-step block regenerates
exactly when its two driving coins differ.

Regeneration times are the block starts with level 1. Gaps between them
are iid, and the excursion values over consecutive gaps form a
stationary 1-dependent sequence (independent when m = 1).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._io import atomic_write_text
from .chain_models import ChainInstance, Functional, resolve_functional, resolve_start
from .errors import GuardError

# Blocks drawn per request: the first request covers the horizon. When
# extending to a regeneration, each further request draws twice the
# previous one, at least _EXTEND_CHUNK_MIN and at most _EXTEND_CHUNK_CAP.
_EXTEND_CHUNK_MIN = 128
_EXTEND_CHUNK_CAP = 65536
# Blocks one run may draw: a request past it raises GuardError undrawn
_MAX_BLOCKS = 10_000_000
# States one group of rows draws at a time within a request (part of
# the stream: a group's rows draw their uniforms together)
_GROUP_STATES = 1 << 17


def _extension_chunk(blocks: int) -> int:
    """Blocks of the request that follows a request of blocks blocks."""
    return min(max(_EXTEND_CHUNK_MIN, 2 * blocks), _EXTEND_CHUNK_CAP)


def _guard_blocks(done_blocks: int, max_blocks: int) -> None:
    if done_blocks > max_blocks:
        raise GuardError(
            f"no regeneration covering the horizon within {max_blocks} blocks")


@dataclass(frozen=True, eq=False)
class SplitTrajectory:
    """A realized split-chain path.

    states and levels have equal length n; levels are constant within
    each m-block. sigma lists the regeneration times, i.e. the block
    starts k with level 1 (and m | k by construction).
    """

    states: np.ndarray
    levels: np.ndarray
    m: int
    init_label: str = ""
    chain_name: str = ""
    sigma: np.ndarray = field(init=False)

    def __post_init__(self):
        states = np.asarray(self.states)
        levels = np.asarray(self.levels, dtype=np.uint8)
        if states.shape != levels.shape or states.ndim != 1:
            raise ValueError("states and levels must be 1-d arrays of equal length")
        if levels.max(initial=0) > 1:
            raise ValueError("levels must be 0/1")
        m = int(self.m)
        if m < 1:
            raise ValueError("m must be a positive integer")
        n = len(levels)
        full = (n // m) * m
        if full:
            blocks = levels[:full].reshape(-1, m)
            if np.any(blocks[:, 1:] != blocks[:, :1]):
                raise ValueError("levels must be constant within each m-block")
        if n > full and np.any(levels[full:] != levels[full]):
            raise ValueError("levels must be constant within the trailing block")
        sigma = np.flatnonzero(levels[::m]).astype(np.int64, copy=False)
        sigma *= m
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sigma", sigma)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def no_regeneration(self) -> bool:
        return len(self.sigma) == 0


def _finite_split_inputs(chain):
    """The split kernels' chain arguments (cum_rows, in_c, r_mat, m)."""
    spec = chain.minorization
    return (chain.kernel.cumulative_rows(), np.asarray(spec.small_set, dtype=bool),
            np.asarray(spec.r, dtype=np.float64), spec.m)


def _split_request(chain, x0, blocks, rng, first):
    """One request of blocks blocks for every row: (paths, levels).

    Row i starts from x0[i]. The rows draw from rng together: all their
    blocks * m state uniforms (row by row), then all their level
    uniforms; on the mod-1 chain, the moves of all their steps. A row
    is set through its first level-1 block at or after block first, and
    through its end state (blocks * m + 1 states) when it has none:
    paths holds its start and then its states, levels one uint8 level
    per block. Several rows share arrays of blocks * m + 1 and blocks
    columns; a finite chain's rows step in lockstep up to the block in
    which every row has its level-1 block. One row's path ends where
    the row is set: on a finite chain the scalar path loop stops after
    that block (its endpoint and levels included), and on the mod-1
    chain _mod1_row builds no state past it.
    """
    rows = len(x0)
    steps = blocks * chain.m
    mod1 = chain.mod1
    if mod1 is not None:
        if rows == 1:
            return _mod1_row(mod1, x0[0], blocks, rng, first)
        eps, words = mod1.draw_moves(rng, (rows, steps))
        return mod1.path(x0, eps, words), _mod1_levels(eps)
    state_u = rng.random((rows, steps))
    level_u = rng.random((rows, blocks))
    inputs = _finite_split_inputs(chain)
    if rows == 1:
        states, levels = _kernels.finite_split_path(
            *inputs, int(x0[0]), state_u[0], level_u[0], first)
        return states[None], levels[None]
    return _kernels.finite_split_first_hits(*inputs, x0, state_u, level_u,
                                            first)


def _mod1_levels(eps):
    # a two-step block regenerates exactly when its two coins differ
    return (eps[..., 0::2] != eps[..., 1::2]).astype(np.uint8)


def _mod1_row(mod1, x0, blocks, rng, first):
    """_split_request's one mod-1 row, drawn as draw_moves draws it.

    The coins alone set the levels, so the row's first level-1 block at
    or after block first is known before any word is drawn. The words
    then come in tiles of _kernels._MOD1_TILE_STATES, which draw the
    values one call would, and the path is built tile by tile only
    through that block (without its endpoint), or through the end state
    when there is none.
    """
    steps = 2 * blocks
    eps = mod1.draw_coins(rng, steps)
    levels = _mod1_levels(eps)
    hit = int(_first_hit(levels, first))
    size = 2 * (hit + 1) if hit >= 0 else steps + 1
    path = np.empty(size, dtype=np.uint64)
    path[0] = x0
    tile = _kernels._MOD1_TILE_STATES
    for lo in range(0, steps, tile):
        words = mod1.draw_words(rng, min(tile, steps - lo))
        hi = min(lo + tile, size - 1)
        if lo < hi:
            path[lo + 1:hi + 1] = mod1.path(path[lo], eps[lo:hi],
                                            words[:hi - lo])[1:]
        del words  # before the next tile is drawn
    return path[None], levels[None]


def _first_hit(levels: np.ndarray, first: int) -> np.ndarray:
    """Index of the first level-1 block at or after block first along
    the last axis of levels, -1 where there is none."""
    counted = levels[..., first:]
    return np.where(counted.any(axis=-1), first + counted.argmax(axis=-1), -1)


def _prefixes(array: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Row i's first kept[i] entries, row after row (a view for one row)."""
    if len(kept) == 1:
        return array[0, :kept[0]]
    return array[np.arange(array.shape[1]) < kept[:, None]]


def _split_runs(chain: ChainInstance, start, rng, rows: int, n: int,
                extend: bool = True):
    """Split runs of rows replicas in lockstep, all drawing from rng.

    start is a resolved Start. The replicas draw their starts, then one
    request of ceil(n / m) blocks each and, when extending, the
    extension schedule's requests for the replicas still running: each
    runs until a level-1 block starts at or after n - m and stops at the
    end of that block. Without extension a run is the first request cut
    to n states. A request takes the running replicas in order, in
    groups of max(1, _GROUP_STATES // (blocks * m)) rows; each group is
    one draw and one batched kernel call. GuardError is raised before a
    request that would take the runs past _MAX_BLOCKS blocks. One row
    is simulate_split's run.

    Returns (states, levels, lengths): the runs' states (indices, or
    floats on the mod-1 chain) and per-state levels, concatenated in
    replica order, and each run's length. A run that one request holds
    is that request's path, not a copy; the pieces of several are
    released before the mod-1 states become floats, which are then the
    one array of states.
    """
    m = chain.m
    mod1 = chain.mod1
    x = np.empty(rows, dtype=np.int64 if mod1 is None else np.uint64)
    x[:] = start.draw(rng, rows)
    pieces = []  # (rows of a group, states each keeps, their states, levels)
    lengths = np.zeros(rows, dtype=np.int64)
    active = np.arange(rows)
    done_blocks = 0
    blocks = -(-n // m)
    first = blocks - 1  # the first block that starts at or after n - m
    while active.size:
        _guard_blocks(done_blocks + blocks, _MAX_BLOCKS)
        group = max(1, _GROUP_STATES // (blocks * m))
        running = []
        for lo in range(0, active.size, group):
            ids = active[lo:lo + group]
            paths, levels = _split_request(chain, x[ids], blocks, rng, first)
            hit = _first_hit(levels, first)
            if extend:
                kept = np.where(hit >= 0, (hit + 1) * m, blocks * m)
            else:
                kept = np.full(ids.size, n)
            # a row keeps its start and then its path's first states
            levels = np.repeat(levels[:, :-(-kept.max() // m)], m, axis=1)
            pieces.append((ids, kept, _prefixes(paths, kept),
                           _prefixes(levels, kept)))
            lengths[ids] += kept
            alive = hit < 0
            x[ids[alive]] = paths[alive, -1]
            running.append(ids[alive])
        if not extend:
            break
        done_blocks += blocks
        active = np.concatenate(running)
        blocks = _extension_chunk(blocks)
        first = 0
    del paths, levels
    if len(pieces) == 1:
        states, levels = pieces.pop()[2:]
    elif rows == 1:
        states = np.concatenate([piece[2] for piece in pieces])
        levels = np.concatenate([piece[3] for piece in pieces])
    else:
        # each piece's rows go after what their replicas already hold
        filled = np.cumsum(lengths) - lengths
        states = np.empty(lengths.sum(), dtype=x.dtype)
        levels = np.empty(lengths.sum(), dtype=np.uint8)
        for ids, kept, piece_states, piece_levels in pieces:
            at = (np.repeat(filled[ids] - (np.cumsum(kept) - kept), kept)
                  + np.arange(kept.sum()))
            states[at], levels[at] = piece_states, piece_levels
            filled[ids] += kept
    del pieces
    if mod1 is not None:
        states = mod1.bits_to_float_owned(states)
    return states, levels, lengths


def simulate_split(chain: ChainInstance, init, n: int, rng: np.random.Generator,
                   *, extend_to_regeneration: bool = False) -> SplitTrajectory:
    """Simulate the split chain for at least n states.

    init is anything resolve_start accepts: a state, ("point", x), "nu"
    or "pi". Without extension the trajectory has ceil(n / m) complete
    blocks truncated to exactly n states. With
    extend_to_regeneration=True, simulation continues block by block
    until a regeneration time sigma >= n - m exists and stops at the end
    of that block, which is exactly the coverage the block decomposition
    needs. GuardError is raised before drawing a request that would take
    the run past _MAX_BLOCKS blocks. The run is _split_runs' with one
    row: an extension builds only the blocks it keeps, and at its peak
    the run holds its path once (twice while mod-1 states become
    floats) next to the request's random draws (on the mod-1 chain its
    coins and one tile of words).
    """
    n = int(n)
    m = chain.m
    if n < m:
        raise ValueError(f"n < m: need n >= {m}, got {n}")
    start = resolve_start(chain, init)
    states, levels, _ = _split_runs(chain, start, rng, 1, n,
                                    extend=extend_to_regeneration)
    return SplitTrajectory(states=states, levels=levels, m=m,
                           init_label=start.label, chain_name=chain.name)


# ---------------------------------------------------------------------------
# split measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SplitMeasure:
    """A law mu lifted to the split space, as per-level vectors."""

    level0: np.ndarray
    level1: np.ndarray

    def mass(self, mask, level: int) -> float:
        vec = self.level1 if level == 1 else self.level0
        return float(vec[np.asarray(mask, dtype=bool)].sum())


def split_measure(mu, spec) -> SplitMeasure:
    """Lift a law on the state space to the split space.

    Level 1 carries delta * mu restricted to the small set, level 0 the
    rest: mu(A x {1}) = delta * mu(A on C).
    """
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(mu < 0) or abs(mu.sum() - 1.0) > 1e-12:
        raise ValueError("mu must be a probability vector")
    mask = np.asarray(spec.small_set, dtype=bool)
    if mask.shape != mu.shape:
        raise ValueError("mu and the small-set mask must have equal length")
    level1 = np.where(mask, spec.delta * mu, 0.0)
    level0 = mu - level1
    return SplitMeasure(level0=level0, level1=level1)


# ---------------------------------------------------------------------------
# blocks, excursions, decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Block:
    """One regeneration block of states, as a half-open index range."""

    index: int
    start: int
    stop: int
    states: np.ndarray

    def __len__(self) -> int:
        return self.stop - self.start


def regeneration_times(traj: SplitTrajectory) -> np.ndarray:
    return traj.sigma.copy()


def gap_lengths(traj: SplitTrajectory) -> np.ndarray:
    """Differences of consecutive regeneration times, iid by construction."""
    return np.diff(traj.sigma)


def extract_blocks(traj: SplitTrajectory) -> list:
    """Blocks up to the last regeneration.

    Block 0 runs from time 0 through sigma_0 + m - 1; block i >= 1 from
    sigma_{i-1} + m through sigma_i + m - 1. Together they partition
    the trajectory up to the end of the last regenerating block; any
    trailing states past it are not part of a complete block.
    """
    sigma = traj.sigma
    if sigma.size == 0:
        return []
    m = traj.m
    bounds = np.concatenate([[0], sigma + m])
    out = []
    for i in range(len(sigma)):
        start, stop = int(bounds[i]), int(bounds[i + 1])
        if stop > len(traj):
            break
        out.append(Block(index=i, start=start, stop=stop,
                         states=traj.states[start:stop]))
    return out


def excursions(traj: SplitTrajectory, f) -> np.ndarray:
    """Excursion values chi_i(f) = sum of f over block i + 1.

    chi_i sums f(state) for indices sigma_i + m .. sigma_{i+1} + m - 1,
    for every i whose range the trajectory covers. The sequence is
    stationary and 1-dependent; adjacent entries share nothing when
    m = 1. chi_i is the difference of the running sums of f at the
    block's last state and at the state before its first (which exists:
    blocks after the first start at m or later). The running sums
    overwrite f's values when those are excursions' own, and take a
    new array when f is a callable, whose result may be its input or an
    array it keeps.
    """
    values, own = _functional_values(traj, f)
    sigma = traj.sigma
    m = traj.m
    if sigma.size < 2:
        return np.empty(0, dtype=np.float64)
    # the count blocks that end by len(traj) lie between the first
    # count + 1 regeneration times
    count = max(int(np.searchsorted(sigma, len(traj) - m, side="right")) - 1, 0)
    sums = np.cumsum(values, out=values if own else None)
    cut = sums[m - 1:][sigma[:count + 1]]
    del values, sums  # released before the differences are taken
    return np.subtract(cut[1:], cut[:-1], dtype=np.float64)


def _functional_values(traj: SplitTrajectory, f):
    """(f along traj, whether excursions may overwrite that array): it
    may when it holds floats and is new, which a callable's result need
    not be."""
    if isinstance(f, Functional):
        values = f.apply(traj.states)
        new = not np.may_share_memory(values, traj.states)
    elif isinstance(f, np.ndarray):
        values, new = f[np.asarray(traj.states, dtype=np.int64)], True
    elif callable(f):
        values, new = np.asarray(f(traj.states), dtype=np.float64), False
    else:
        raise ValueError(
            "f must be a Functional, a per-state value array or a callable")
    return values, new and values.dtype == np.float64


def functional_values(chain: ChainInstance, traj: SplitTrajectory, fspec) -> np.ndarray:
    """Per-state f values for a named or tabulated functional."""
    return resolve_functional(chain, fspec).apply(traj.states)


def count_regenerations(traj: SplitTrajectory, n: int) -> int:
    """N = first index i with sigma_i >= n - m, as a count.

    Equals the number of regeneration times strictly before n - m,
    which is well defined as soon as the trajectory covers the horizon.
    If the trajectory shows no regeneration at all the count is 0 and
    traj.no_regeneration flags the run.
    """
    n = int(n)
    if n > len(traj):
        raise ValueError("horizon n exceeds the trajectory length")
    if n < traj.m:
        raise ValueError("horizon n must be at least m")
    return int(np.sum(traj.sigma < n - traj.m))


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Exact split of a path sum into head, middle and tail pieces.

    For m | n the path sum of f over the first n states equals
    head_signed + middle_signed - tail_signed, where the head covers
    blocks through the first regeneration (or everything when N = 0),
    the middle stacks the N excursions up to sigma_N, and the tail
    removes the overshoot past n. H, M, T are the absolute values.
    """

    n: int
    m: int
    count: int
    head_signed: float
    middle_signed: float
    tail_signed: float
    direct_sum: float

    @property
    def H(self) -> float:
        return abs(self.head_signed)

    @property
    def M(self) -> float:
        return abs(self.middle_signed)

    @property
    def T(self) -> float:
        return abs(self.tail_signed)

    def reconstruct(self) -> float:
        return self.head_signed + self.middle_signed - self.tail_signed

    def max_abs_error(self) -> float:
        return abs(self.reconstruct() - self.direct_sum)


def block_decompose(traj: SplitTrajectory, f, n: int) -> BlockDecomposition:
    """Decompose the sum of f over the first n states, m | n required."""
    n = int(n)
    m = traj.m
    if n % m != 0 or n <= 0:
        raise ValueError(f"m | n required, got n = {n} with m = {m}")
    if n > len(traj):
        raise ValueError("horizon n exceeds the trajectory length")
    values, _ = _functional_values(traj, f)
    sigma = traj.sigma
    count = int(np.sum(sigma < n - m))
    direct = float(math.fsum(values[:n]))
    if count == 0:
        head = float(math.fsum(values[:n]))
        return BlockDecomposition(n=n, m=m, count=0, head_signed=head,
                                  middle_signed=0.0, tail_signed=0.0,
                                  direct_sum=direct)
    after = sigma[sigma >= n - m]
    if after.size == 0:
        raise ValueError(
            "trajectory does not cover the decomposition horizon; simulate with "
            "extend_to_regeneration=True")
    sigma_last = int(after[0])
    if sigma_last + m > len(traj):
        raise ValueError(
            "trajectory does not cover the final block of the decomposition")
    sigma0 = int(sigma[0])
    head = float(math.fsum(values[:sigma0 + m]))
    middle = float(math.fsum(values[sigma0 + m:sigma_last + m]))
    tail = float(math.fsum(values[n:sigma_last + m]))
    return BlockDecomposition(n=n, m=m, count=count, head_signed=head,
                              middle_signed=middle, tail_signed=tail,
                              direct_sum=direct)


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def trajectory_to_csv(traj: SplitTrajectory, path: str) -> None:
    """index,state,level,is_regeneration rows, written atomically."""
    import csv
    sigma = set(int(s) for s in traj.sigma)
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["index", "state", "level", "is_regeneration"])
    for i, (x, y) in enumerate(zip(traj.states, traj.levels)):
        val = repr(float(x)) if isinstance(x, (float, np.floating)) else int(x)
        writer.writerow([i, val, int(y), int(i in sigma)])
    atomic_write_text(path, buffer.getvalue())


def trajectory_summary(traj: SplitTrajectory, f=None) -> dict:
    """JSON-ready block summary with explicit flags."""
    gaps = gap_lengths(traj)
    out = {
        "n": len(traj),
        "m": traj.m,
        "chain": traj.chain_name,
        "init": traj.init_label,
        "n_regenerations": int(len(traj.sigma)),
        "regeneration_times": [int(s) for s in traj.sigma],
        "gaps": [int(g) for g in gaps],
        "flags": (["no regeneration observed"] if traj.no_regeneration else []),
    }
    if f is not None:
        chi = excursions(traj, f)
        out["excursions"] = [float(c) for c in chi]
    return out
