"""Verification harness: tail estimation, domination checks, structure tests.

Everything here either estimates a tail probability by Monte Carlo over
independent replica substreams (the exact references are in exact),
fits the norm parameters the bound evaluators consume, or tests a
structural claim of the regeneration construction: i.i.d. gaps,
1-dependent excursions and the occupation-measure identity.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._io import atomic_write_text, plain
from ._rng import (BLOCK, TAG_COLLECT, TAG_FIT_EXCURSION,
                   TAG_FIT_FIRST_BLOCK, TAG_PITMAN, TAG_STRUCTURE, TAG_TAIL,
                   TAG_TWO_BLOCK, stream_description, substream)
from .bounds import (BernsteinParams, _check_alpha, _check_horizon, _check_pos,
                     thm_bi, thm_bi2, thm_sbi)
from .chain_models import (ChainInstance, resolve_functional, resolve_point,
                           resolve_start)
from .errors import GuardError
from .exact import TailCurve, _validated_grid, exact_tail
from .orlicz import psi_norm_empirical
from .split_regen import (_split_runs, excursions, gap_lengths,
                          simulate_split, split_measure)
from .variance import sigma_mrv_exact, sigma_mrv_regenerative

# noise values per tile of the two-block statistic (256 KB)
_TWO_BLOCK_TILE_FLOATS = 1 << 15
# uniforms per step tile of the finite replica sums (1 MB, cache-sized)
_STEP_TILE_FLOATS = 1 << 17
# replicas per chunk of a replicated tail, at most: 32 blocks
_CHUNK_ROWS = 8192
# bytes of one block's mod-1 moves (a coin and a word each) that a
# thread holds, at most: n <= 116,509
_MOD1_MOVE_BYTES = 1 << 28


# ---------------------------------------------------------------------------
# curves and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationVerdict:
    """Outcome of bound >= estimate - z * se over a whole grid."""

    passed: bool
    worst_margin: float
    worst_t: float
    n_points: int
    z: float


def check_domination(tail: TailCurve, bound_values, *, z: float = 3.0
                     ) -> DominationVerdict:
    """Verdict on bound(t) >= estimate(t) - z * se(t) at every grid point.

    bound_values may hold floats or BoundValue objects. Exact curves
    carry se = 0 and must be dominated outright (up to 1e-12 slack).
    """
    bounds = np.asarray([float(b) for b in bound_values], dtype=np.float64)
    if bounds.shape != tail.t.shape:
        raise ValueError("grid mismatch between tail and bound curves")
    _check_z(z)
    se = tail.se if tail.se is not None else np.zeros_like(tail.estimate)
    margins = bounds - (tail.estimate - z * se)
    worst = int(np.argmin(margins))
    return DominationVerdict(
        passed=bool(margins[worst] >= -1e-12),
        worst_margin=float(margins[worst]),
        worst_t=float(tail.t[worst]),
        n_points=int(tail.t.size),
        z=float(z),
    )


def _check_z(z: float) -> None:
    if not (0.0 <= z < math.inf):
        raise ValueError("z must be non-negative and finite")


# ---------------------------------------------------------------------------
# Monte Carlo tails
# ---------------------------------------------------------------------------


def _chunk_rows(replicas: int, threads: int) -> int:
    """Replicas per chunk, in whole blocks: the smaller of _CHUNK_ROWS
    rounded down to whole blocks (one block at least) and a thread's
    share ceil(replicas / threads) rounded up to whole blocks."""
    share = -(-replicas // threads)
    return min(share + -share % BLOCK,
               max(BLOCK, _CHUNK_ROWS - _CHUNK_ROWS % BLOCK))


def _step_tile(rows: int, steps: int) -> int:
    """Steps per tile of the finite replica sums over rows replicas: at
    most _STEP_TILE_FLOATS uniforms and steps steps, one at least."""
    return max(1, min(steps, _STEP_TILE_FLOATS // rows))


def _block_rows(lo: int, hi: int):
    """(block index, rows) of each block of BLOCK replicas in lo..hi-1.

    lo is a block edge; rows is a slice relative to lo, and the last
    block is short when hi is not a block edge.
    """
    for first in range(lo, hi, BLOCK):
        yield first // BLOCK, slice(first - lo, min(first + BLOCK, hi) - lo)


def _replica_args(n, replicas, t_grid):
    """(n, replicas, t) of a replicated tail, checked."""
    n, replicas = int(n), int(replicas)
    if n < 1:
        raise ValueError("n must be at least 1")
    if replicas < 1000:
        raise ValueError("need at least 1000 replicas")
    return n, replicas, _validated_grid(t_grid)


def _replicated_tail(statistics, t: np.ndarray, n: int, replicas: int,
                     threads: int) -> TailCurve:
    """Monte Carlo TailCurve of |statistic| over replicas 0..replicas-1.

    statistics(lo, hi) returns the statistic of replicas lo..hi-1, each
    block of BLOCK replicas drawn from its own substream. Chunks are
    whole blocks (_chunk_rows), so the counts do not depend on the
    chunk size or on the thread count.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    chunk = _chunk_rows(replicas, threads)
    pairs = [(lo, min(lo + chunk, replicas))
             for lo in range(0, replicas, chunk)]

    def counts_of(pair):
        return _tail_counts(statistics(*pair), t)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            parts = list(pool.map(counts_of, pairs))
    else:
        parts = [counts_of(p) for p in pairs]
    counts = np.sum(parts, axis=0, dtype=np.int64)
    estimate = counts / replicas
    se = np.sqrt(estimate * (1.0 - estimate) / replicas)
    return TailCurve(t=t, estimate=estimate, se=se, provenance="monte_carlo",
                     n=n, replicas=replicas)


def mc_tail(chain: ChainInstance, f, init, n: int, t_grid, replicas: int,
            seed: int, *, threads: int = 1) -> TailCurve:
    """Empirical tail of |sum of f over n states| across replicas.

    Block b of BLOCK replicas (the last one possibly short) owns the
    substream (seed, TAG_TAIL, b) and draws its replicas' starts first.
    On a finite chain it then draws its moves step-major: for each of
    the n - 1 steps in turn, one uniform per replica. A chunk's blocks
    fill one tile of at most _STEP_TILE_FLOATS uniforms (whole steps)
    in turn, and the kernel steps every replica of the chunk through
    it, so memory does not grow with n. On the mod-1 chain a block
    draws its moves replica-major, all its coins and then all its
    words, and sums its replicas before the next block draws, so a
    chunk holds one block's moves at a time, 9 * BLOCK * (n - 1) bytes;
    above _MOD1_MOVE_BYTES it raises GuardError before drawing. Either
    way the result is
    bit-identical for a fixed (seed, replicas) no matter how the work
    is chunked, tiled or threaded. init is anything resolve_start
    accepts: a point state, "nu", or "pi".
    """
    n, replicas, t = _replica_args(n, replicas, t_grid)
    fspec = resolve_functional(chain, f)
    start = resolve_start(chain, init)
    steps = n - 1
    mod1 = chain.mod1

    if mod1 is None:
        cum_rows = chain.kernel.cumulative_rows()
        f_vals = fspec.values

        def sums(lo, hi):
            # each block's generator and rows, once it has drawn its starts
            states = np.empty(hi - lo, dtype=np.int64)
            blocks = []
            for block, rows in _block_rows(lo, hi):
                rng = substream(seed, TAG_TAIL, block)
                states[rows] = start.draw(rng, rows.stop - rows.start)
                blocks.append((rng, rows))
            total = f_vals[states]
            tile = np.empty((_step_tile(hi - lo, steps), hi - lo))
            drawn = np.empty(len(tile) * BLOCK)  # a block's share of a tile
            for s in range(0, steps, len(tile)):
                part = tile[:steps - s]
                for rng, rows in blocks:
                    own = drawn[:len(part) * (rows.stop - rows.start)]
                    rng.random(out=own)
                    part[:, rows] = own.reshape(len(part), -1)
                _kernels.finite_chain_sums(cum_rows, f_vals, states, part,
                                           total)
            return total

        return _replicated_tail(sums, t, n, replicas, threads)

    moves = 9 * BLOCK * steps
    if moves > _MOD1_MOVE_BYTES:
        raise GuardError(
            f"a block's moves take {moves} bytes (9 * {BLOCK} * (n - 1)), "
            f"above the {_MOD1_MOVE_BYTES} byte mod-1 move guard")

    def sums(lo, hi):
        out = np.empty(hi - lo)
        for block, rows in _block_rows(lo, hi):
            rng = substream(seed, TAG_TAIL, block)
            count = rows.stop - rows.start
            x0 = start.draw(rng, count)
            # the moves die with the call, before the next block draws
            out[rows] = _kernels.mod1_chain_sums(
                mod1.odd_mask, mod1.even_mask, mod1.wrap_mask, mod1.shift,
                mod1.scale, fspec.fn, x0, *mod1.draw_moves(rng, (count, steps)))
        return out

    return _replicated_tail(sums, t, n, replicas, threads)


def _tail_counts(sums: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-grid-point counts of |sum| strictly above t."""
    ordered = np.sort(np.abs(sums))
    return (ordered.size - np.searchsorted(ordered, t, side="right")
            ).astype(np.int64)


# ---------------------------------------------------------------------------
# block structure tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuralTestResult:
    """One named check; untested entries are informational only."""

    name: str
    passed: bool
    tested: bool
    statistic: float
    threshold: float
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class BlockStructureReport:
    results: tuple
    n_gaps: int
    mean_gap: float
    mean_gap_se: float
    level: float
    lags: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results if r.tested)


def _autocorr(values: np.ndarray, lag: int) -> float:
    centered = values - values.mean()
    var = float(np.mean(centered * centered))
    if var == 0.0:
        return 0.0
    return float(np.mean(centered[:-lag] * centered[lag:]) / var)


def _ks_two_sample_equal(x: np.ndarray, y: np.ndarray) -> tuple:
    """(D, p) of the two-sided two-sample KS test of equal-size samples.

    D = h / n, h the largest gap between the samples' right-continuous
    empirical counts, and p = P(D_nn >= h / n) exactly under the null,
    by the Horner form of the alternating lattice-path sum
    2 sum_k (-1)^(k+1) C(2n, n - kh) / C(2n, n). Ties are allowed. This
    is the arithmetic of scipy.stats.ks_2samp(method="exact"), step for
    step, so both values match it bitwise.
    """
    x = np.sort(x)
    y = np.sort(y)
    n = x.size
    both = np.concatenate((x, y))
    h = int(np.max(np.abs(np.searchsorted(x, both, side="right")
                          - np.searchsorted(y, both, side="right"))))
    if h == 0:
        return 0.0, 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        kh = k * h
        p1 = 1.0
        for j in range(h):
            p1 = (n - kh - j) * p1 / (n + kh + j + 1)
        p = p1 * (1.0 - p)
    return h / n, min(max(2.0 * p, 0.0), 1.0)


def block_structure_tests(gaps, excursions_by_name: dict, *, lags: int = 10,
                          level: float = 0.01, expected_mean_gap=None
                          ) -> BlockStructureReport:
    """Tests of i.i.d. gaps and 1-dependent excursions.

    Gap autocorrelations at lags 1..L sit in a Bonferroni-adjusted
    normal band (quantiles from the standard library's NormalDist), the
    two equal halves of the gap sample pass an exact two-sided two-sample
    KS test (a last gap of an odd count is left out of it), and each
    excursion series has vanishing autocorrelation from lag 2 on (lag 1
    is reported but never tested; adjacent excursions may share a block
    boundary). Excursion bands carry the lag-1 inflation factor
    sqrt(1 + 2 r1^2). L must lie below the number of gaps and below the
    length of every excursion series.
    """
    from statistics import NormalDist
    gaps = np.asarray(gaps, dtype=np.float64)
    n_gaps = gaps.size
    if n_gaps < 1000:
        raise ValueError("need at least 1000 gaps for the structure tests")
    if not (0.0 < level < 0.5):
        raise ValueError("level must lie in (0, 0.5)")
    lags = int(lags)
    if lags < 1:
        raise ValueError("lags must be at least 1")
    if lags >= n_gaps:
        raise ValueError(f"lags must be below the number of gaps ({n_gaps})")
    results = []
    z_gap = NormalDist().inv_cdf(1.0 - 0.5 * level / lags)
    band = z_gap / math.sqrt(n_gaps)
    for lag in range(1, lags + 1):
        r = _autocorr(gaps, lag)
        results.append(StructuralTestResult(
            name=f"gap_acf_lag{lag}", passed=abs(r) <= band, tested=True,
            statistic=r, threshold=band))
    half = n_gaps // 2
    ks_d, ks_p = _ks_two_sample_equal(gaps[:half], gaps[half:2 * half])
    results.append(StructuralTestResult(
        name="gap_ks_split", passed=ks_p >= level, tested=True,
        statistic=ks_d, threshold=level, detail={"pvalue": ks_p}))
    mean_gap = float(gaps.mean())
    mean_se = float(gaps.std(ddof=1) / math.sqrt(n_gaps))
    if expected_mean_gap is not None:
        dev = abs(mean_gap - float(expected_mean_gap))
        results.append(StructuralTestResult(
            name="mean_gap", passed=dev <= 4.0 * mean_se, tested=True,
            statistic=mean_gap, threshold=4.0 * mean_se,
            detail={"expected": float(expected_mean_gap), "se": mean_se}))
    for name, chi in excursions_by_name.items():
        chi = np.asarray(chi, dtype=np.float64)
        if chi.size < 1000:
            raise ValueError(
                f"need at least 1000 excursions for {name}, got {chi.size}")
        if lags >= chi.size:
            raise ValueError(
                f"lags must be below the length of {name} ({chi.size})")
        r1 = _autocorr(chi, 1)
        inflation = math.sqrt(1.0 + 2.0 * r1 * r1)
        z_exc = NormalDist().inv_cdf(1.0 - 0.5 * level / max(lags - 1, 1))
        band_exc = z_exc * inflation / math.sqrt(chi.size)
        results.append(StructuralTestResult(
            name=f"{name}_acf_lag1", passed=True, tested=False,
            statistic=r1, threshold=band_exc))
        for lag in range(2, lags + 1):
            r = _autocorr(chi, lag)
            results.append(StructuralTestResult(
                name=f"{name}_acf_lag{lag}", passed=abs(r) <= band_exc,
                tested=True, statistic=r, threshold=band_exc))
    return BlockStructureReport(
        results=tuple(results), n_gaps=int(n_gaps), mean_gap=mean_gap,
        mean_gap_se=mean_se, level=float(level), lags=lags)


def _buffered_horizon(chain: ChainInstance, n_regen: int) -> int:
    buffer = n_regen + 5.0 * math.sqrt(n_regen) + 10.0
    return int(math.ceil(buffer * chain.mean_gap())) + chain.m


def _regenerative_run(chain: ChainInstance, fspecs, horizon: int, rng):
    """([excursions of each resolved functional], gaps) of one long
    split run from nu drawn from rng, extended to the first regeneration
    at or after horizon - m. The run itself is dropped on return."""
    traj = simulate_split(chain, "nu", horizon, rng,
                          extend_to_regeneration=True)
    return [excursions(traj, fspec) for fspec in fspecs], gap_lengths(traj)


def collect_excursions(chain: ChainInstance, f, n_regen: int, seed: int):
    """(chi, gaps) arrays of exactly n_regen excursions from one long run.

    The horizon is buffered five standard deviations above the expected
    block count and the run retries with a doubled buffer if a short
    realization still comes up light.
    """
    n_regen = int(n_regen)
    if n_regen < 1:
        raise ValueError("n_regen must be positive")
    fspec = resolve_functional(chain, f)
    horizon = _buffered_horizon(chain, n_regen)
    for attempt in range(6):
        (chi,), gaps = _regenerative_run(chain, [fspec], horizon,
                                         substream(seed, TAG_COLLECT, attempt))
        if chi.size >= n_regen:
            return chi[:n_regen], gaps[:n_regen]
        horizon *= 2
    raise GuardError(f"could not collect {n_regen} excursions in 6 attempts")


def check_block_structure(chain: ChainInstance, *, n_blocks: int = 20000,
                          lags: int = 10, level: float = 0.01,
                          functionals=None, seed: int = 0
                          ) -> BlockStructureReport:
    """Structure tests on a fresh long split run of the given chain."""
    if functionals is None:
        functionals = (("cos2pi", "identity_centered") if chain.mod1 is not None
                       else ("indicator_centered", "identity_centered"))
    fspecs = [resolve_functional(chain, name) for name in functionals]
    chis, gaps = _regenerative_run(chain, fspecs,
                                   _buffered_horizon(chain, n_blocks),
                                   substream(seed, TAG_STRUCTURE, 0))
    by_name = {fspec.name: chi for fspec, chi in zip(fspecs, chis)}
    return block_structure_tests(gaps, by_name, lags=lags, level=level,
                                 expected_mean_gap=chain.mean_gap())


# ---------------------------------------------------------------------------
# occupation-measure identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PitmanCheck:
    """Monte Carlo vs closed form for the occupation identity."""

    name: str
    lhs: float
    se: float
    rhs: float
    replicas: int
    passed: bool


_PITMAN_G = {
    "one": lambda s, lev: np.ones(np.asarray(lev).shape, dtype=np.float64),
    "level": lambda s, lev: np.asarray(lev, dtype=np.float64),
}


def _pitman_g(chain: ChainInstance, g_spec):
    """(G, name): a state indicator ("state", x), or as _resolve_named
    reads g_spec against _PITMAN_G."""
    if isinstance(g_spec, tuple) and len(g_spec) == 2 and g_spec[0] == "state":
        if not chain.is_finite:
            raise ValueError("state-indicator G needs a finite chain")
        target = resolve_point(chain, g_spec[1])
        return (lambda s, lev: (np.asarray(s) == target).astype(np.float64),
                f"state:{target}")
    return _resolve_named(g_spec, _PITMAN_G, "G")


def _pitman_rhs(chain: ChainInstance, g_fn, g_name: str) -> float:
    delta = chain.delta
    pi_c = chain.pi_small_set()
    if chain.is_finite:
        sm = split_measure(chain.pi_vector(), chain.minorization)
        k = chain.kernel.n_states
        idx = np.arange(k)
        ones = np.ones(k)
        zeros = np.zeros(k)
        mean = float(sm.level1 @ np.asarray(g_fn(idx, ones), dtype=np.float64)
                     + sm.level0 @ np.asarray(g_fn(idx, zeros),
                                              dtype=np.float64))
        return mean / (delta * pi_c)
    if g_name == "one":
        return 1.0 / (delta * pi_c)
    if g_name == "level":
        return 1.0
    raise ValueError(
        "the mod-1 chain supports G values 'one' and 'level' only")


def _first_blocks(chain: ChainInstance, init, replicas: int, seed: int,
                  *path):
    """Runs up to the first regeneration, one block of replicas at a time.

    Block b of BLOCK replicas (the last one possibly short) runs from
    init in split_regen._split_runs at n = m, drawing from substream
    (seed, *path, b); each block yields its runs' states and levels and
    each run's sigma0.
    """
    start = resolve_start(chain, init)
    for block, rows in _block_rows(0, replicas):
        states, levels, lengths = _split_runs(
            chain, start, substream(seed, *path, block),
            rows.stop - rows.start, chain.m)
        yield states, levels, lengths - chain.m


def _run_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of values, counts[i] >= 1 values for run i."""
    return np.add.reduceat(values, np.cumsum(counts) - counts)


def check_pitman(chain: ChainInstance, g_spec, replicas: int = 20000,
                 seed: int = 0) -> PitmanCheck:
    """Tests E_nu sum of G over block starts 0..sigma_0 vs its closed form.

    The closed form is E(G under the split stationary law) divided by
    delta pi(C). G acts elementwise on arrays of block-start states and
    levels; it is applied to a whole block of runs at once. Passing
    means agreement within 4 SE; the level indicator sums to exactly 1
    on every path, so its SE is zero and the comparison is exact.
    """
    replicas = int(replicas)
    if replicas < 100:
        raise ValueError("need at least 100 replicas")
    g_fn, g_name = _pitman_g(chain, g_spec)
    rhs = _pitman_rhs(chain, g_fn, g_name)
    m = chain.m
    totals = np.concatenate([
        _run_sums(np.asarray(g_fn(states[::m], levels[::m]), dtype=np.float64),
                  sigma0 // m + 1)
        for states, levels, sigma0 in _first_blocks(chain, "nu", replicas,
                                                    seed, TAG_PITMAN)])
    lhs = float(totals.mean())
    se = float(totals.std(ddof=1) / math.sqrt(replicas))
    passed = abs(lhs - rhs) <= max(4.0 * se, 1e-9)
    return PitmanCheck(name=g_name, lhs=lhs, se=se, rhs=rhs,
                       replicas=replicas, passed=passed)


# ---------------------------------------------------------------------------
# two-block factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TwoBlockSample:
    """X_i = h(xi_i, xi_{i+1}) stream with its driving noise."""

    x: np.ndarray
    xi: np.ndarray
    h_name: str
    law_name: str


_TWO_BLOCK_H = {
    "product": lambda u, v: u * v,
    "difference": lambda u, v: v - u,
}
_XI_LAWS = {
    "uniform": lambda rng, size: rng.uniform(-1.0, 1.0, size),
    "normal": lambda rng, size: rng.standard_normal(size),
    "exponential": lambda rng, size: rng.exponential(1.0, size),
    "rademacher": lambda rng, size: (
        rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0),
}


def _resolve_named(spec, table: dict, what: str):
    """(callable, name): spec itself if callable, else the entry of the
    name spec in table."""
    if callable(spec):
        return spec, "callable"
    if isinstance(spec, str) and spec in table:
        return table[spec], spec
    raise ValueError(f"unknown {what} {spec!r}")


def _draw_xi(law_fn, rng, size: int) -> np.ndarray:
    """size noise values from the law, checked to be a 1-d array of them."""
    xi = np.asarray(law_fn(rng, size), dtype=np.float64)
    if xi.shape != (size,):
        raise ValueError("noise law must return a 1-d array of the asked size")
    return xi


def _apply_h(h_fn, xi: np.ndarray) -> np.ndarray:
    """h of each consecutive noise pair along the last axis, checked to
    return one value per pair."""
    x = np.asarray(h_fn(xi[..., :-1], xi[..., 1:]), dtype=np.float64)
    if x.shape != xi[..., 1:].shape:
        raise ValueError("two-block map must return one value per noise pair")
    return x


def two_block_factor(h, xi_law, length: int, seed: int) -> TwoBlockSample:
    """One realization of the canonical 1-dependent process.

    h is "product", "difference", or a vectorized callable of (u, v)
    returning one value per pair, elementwise; xi_law is "uniform" (on (-1, 1)), "normal", "exponential",
    "rademacher", or a callable (rng, size) -> array.
    """
    length = int(length)
    if length < 1:
        raise ValueError("length must be positive")
    h_fn, h_name = _resolve_named(h, _TWO_BLOCK_H, "two-block map")
    law_fn, law_name = _resolve_named(xi_law, _XI_LAWS, "noise law")
    rng = substream(seed, TAG_TWO_BLOCK, 0)
    xi = _draw_xi(law_fn, rng, length + 1)
    x = _apply_h(h_fn, xi)
    return TwoBlockSample(x=x, xi=xi, h_name=h_name, law_name=law_name)


def two_block_sup_tail(h, xi_law, n: int, t_grid, replicas: int, seed: int,
                       *, threads: int = 1) -> TailCurve:
    """Empirical tail of max_k |S_k| for two-block-factor partial sums.

    Block b of BLOCK replicas (the last one possibly short) draws from
    substream (seed, TAG_TWO_BLOCK, 1 + b), so the single-sample path of
    two_block_factor (path index 0) never collides with the replicated
    ones. A block draws its replicas' n + 1 noise values each, replica
    by replica, in tiles of whole replicas; the built-in laws draw the
    same values in one call as in several, so the tile size does not
    change the result.
    """
    n, replicas, t = _replica_args(n, replicas, t_grid)
    h_fn, _ = _resolve_named(h, _TWO_BLOCK_H, "two-block map")
    law_fn, _ = _resolve_named(xi_law, _XI_LAWS, "noise law")

    tile = max(1, _TWO_BLOCK_TILE_FLOATS // (n + 1))

    def sup_stats(lo, hi):
        out = np.empty(hi - lo, dtype=np.float64)
        for block, rows in _block_rows(lo, hi):
            rng = substream(seed, TAG_TWO_BLOCK, 1 + block)
            for first in range(rows.start, rows.stop, tile):
                count = min(tile, rows.stop - first)
                xi = _draw_xi(law_fn, rng, count * (n + 1)).reshape(count, -1)
                x = _apply_h(h_fn, xi)
                out[first:first + count] = np.abs(np.cumsum(x, axis=1)).max(axis=1)
        return out

    return _replicated_tail(sup_stats, t, n, replicas, threads)


# ---------------------------------------------------------------------------
# parameter fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FittedParams:
    """Safety-inflated bound parameters plus fitting diagnostics."""

    params: BernsteinParams
    diagnostics: dict


def _check_fit_options(chain, alpha, safety, n_excursions, n_first_blocks,
                       x_star, **_):
    _check_alpha(alpha)
    if not (1.0 <= safety < math.inf):
        raise ValueError("safety must be at least 1 and finite")
    if n_excursions < 100 or n_first_blocks < 100:
        raise ValueError("need at least 100 excursions and first blocks")
    if x_star is not None:
        resolve_point(chain, ("point", x_star))


def fit_bernstein_params(chain: ChainInstance, f, alpha: float = 1.0, *,
                         x_star=None, n_excursions: int = 4000,
                         n_first_blocks: int = 2000, seed: int = 0,
                         safety: float = 1.2, sigma2=None) -> FittedParams:
    """Empirical psi-norm fit of the bound parameters a, b, c, d and D.

    c and d come from one long run's excursions and gaps; a and b from
    replicated first blocks under the point start x_star and the
    stationary start, as the psi_alpha norm of the absolute block-sum
    total up to the first regeneration. D is the largest of the three
    fitted psi_1 gap norms. Every fitted norm is inflated by the
    multiplicative safety factor; sigma2 defaults to the exact value on
    finite chains and to the regenerative estimate otherwise.
    """
    _check_fit_options(chain, alpha, safety, n_excursions, n_first_blocks,
                       x_star)
    fspec = resolve_functional(chain, f)
    m = chain.m
    if x_star is None:
        x_star = chain.first_small_set_state()

    (chi,), gaps = _regenerative_run(chain, [fspec],
                                     _buffered_horizon(chain, n_excursions),
                                     substream(seed, TAG_FIT_EXCURSION, 0))
    if chi.size < 100:
        raise ValueError(f"long run produced only {chi.size} excursions")
    c_est = psi_norm_empirical(chi, alpha).value
    d_est = psi_norm_empirical(gaps, 1.0).value

    def first_blocks(init, tag_offset):
        totals, sigma0 = [], []
        for states, _, s0 in _first_blocks(chain, init, n_first_blocks, seed,
                                           TAG_FIT_FIRST_BLOCK, tag_offset):
            block_sums = np.abs(fspec.apply(states).reshape(-1, m).sum(axis=1))
            totals.append(_run_sums(block_sums, s0 // m + 1))
            sigma0.append(s0)
        return np.concatenate(totals), np.concatenate(sigma0).astype(np.float64)

    totals_x, sigma0_x = first_blocks(("point", x_star), 0)
    totals_pi, sigma0_pi = first_blocks("pi", 1)
    a_est = psi_norm_empirical(totals_x, alpha).value
    b_est = psi_norm_empirical(totals_pi, alpha).value
    s0x_est = psi_norm_empirical(sigma0_x, 1.0).value
    s0pi_est = psi_norm_empirical(sigma0_pi, 1.0).value
    d_cap_est = max(d_est, s0x_est, s0pi_est)

    if sigma2 is not None:
        sigma2_value = float(sigma2)
        sigma2_source = "given"
    elif chain.is_finite:
        sigma2_value = sigma_mrv_exact(chain, fspec.values)
        sigma2_source = "exact"
    else:
        sigma2_value = sigma_mrv_regenerative(chi, gaps).value
        sigma2_source = "regenerative"

    params = BernsteinParams(
        a=safety * a_est, b=safety * b_est, c=safety * c_est,
        d=safety * d_est, alpha=alpha, sigma2_mrv=sigma2_value,
        delta=chain.delta, pi_C=chain.pi_small_set(), m=m,
        D=safety * d_cap_est, f_sup=fspec.sup_bound)
    diagnostics = {
        "raw": {"a": a_est, "b": b_est, "c": c_est, "d": d_est,
                "sigma0_xstar": s0x_est, "sigma0_pi": s0pi_est,
                "D": d_cap_est},
        "safety": float(safety),
        "n_excursions": int(chi.size),
        "n_first_blocks": int(n_first_blocks),
        "x_star": x_star,
        "sigma2_source": sigma2_source,
        "seed": int(seed),
    }
    return FittedParams(params=params, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# assembled reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundCurve:
    """One bound evaluated along the tail grid."""

    name: str
    values: np.ndarray
    flags: tuple


@dataclass(frozen=True, eq=False)
class VerificationReport:
    chain_label: str
    functional: str
    n: int
    seed: int
    z: float
    tail: TailCurve
    curves: dict
    verdicts: dict
    params: BernsteinParams
    diagnostics: dict
    p: float
    rng: str
    structure: BlockStructureReport | None = None

    @property
    def passed(self) -> bool:
        ok = all(v.passed for v in self.verdicts.values())
        if self.structure is not None:
            ok = ok and self.structure.passed
        return ok


_FORMULA_CHOICES = ("thm_bi", "thm_bi2", "thm_sbi")


def _check_formulas(formulas) -> None:
    for name in formulas:
        if name not in _FORMULA_CHOICES:
            raise ValueError(
                f"unknown formula {name!r}; choose from {_FORMULA_CHOICES}")


def _eval_formula(name: str, params: BernsteinParams, n: int, t: float,
                  p: float):
    """One bound at t; name is one of _FORMULA_CHOICES."""
    if name == "thm_bi":
        return thm_bi(params, n, t)
    if name == "thm_bi2":
        return thm_bi2(params, n, p, t)
    if params.f_sup is None or params.D is None:
        raise ValueError("thm_sbi needs f_sup and D in the parameters")
    return thm_sbi(n, t, params.sigma2_mrv, params.f_sup, params.D,
                   params.delta, params.pi_C)


def bound_curves(params: BernsteinParams, n: int, t_grid, *,
                 formulas=_FORMULA_CHOICES, p: float = 2.0 / 3.0) -> dict:
    """Evaluate each named bound along the grid, collecting flags."""
    _check_formulas(formulas)
    t = _validated_grid(t_grid)
    out = {}
    for name in formulas:
        values = np.empty(t.size, dtype=np.float64)
        flags = set()
        for j, tj in enumerate(t):
            bv = _eval_formula(name, params, n, float(tj), p)
            values[j] = float(bv)
            flags.update(bv.flags)
        out[name] = BoundCurve(name=name, values=values,
                               flags=tuple(sorted(flags)))
    return out


def run_verification(chain: ChainInstance, f, *, n: int, t_grid, seed: int,
                     init="pi", replicas: int = 100000,
                     formulas=_FORMULA_CHOICES, z: float = 3.0,
                     exact: bool = False, x0=None, p: float = 2.0 / 3.0,
                     alpha: float = 1.0, threads: int = 1, fitted=None,
                     fit_options=None, structure: bool = False
                     ) -> VerificationReport:
    """Tail estimation plus bound domination in one report.

    With exact=True the tail comes from enumeration started at x0
    (default: the first small-set state); otherwise from replicas
    Monte Carlo runs started from init. Bound parameters are fitted
    from (seed-derived) simulation unless a FittedParams is supplied.
    Arguments that the bounds, the verdicts or the fit would reject are
    rejected before anything is drawn.
    """
    fspec = resolve_functional(chain, f)
    formulas = tuple(formulas)
    _check_formulas(formulas)
    if formulas:
        _check_z(z)
    if "thm_bi2" in formulas:
        _check_pos(p=p)
    if "thm_bi" in formulas or "thm_bi2" in formulas:
        _check_horizon(n, (chain if fitted is None else fitted.params).m)
    if "thm_sbi" in formulas and (
            fspec.sup_bound is None if fitted is None
            else fitted.params.f_sup is None or fitted.params.D is None):
        raise ValueError("thm_sbi needs f_sup and D in the parameters")
    if fitted is None:
        fit = inspect.signature(fit_bernstein_params).bind(
            chain, fspec, alpha=alpha, seed=seed, **(fit_options or {}))
        fit.apply_defaults()
        _check_fit_options(**fit.arguments)
    if exact:
        if x0 is None:
            x0 = chain.first_small_set_state()
        tail = exact_tail(chain, fspec, x0, n, t_grid)
    else:
        tail = mc_tail(chain, fspec, init, n, t_grid, replicas, seed,
                       threads=threads)
    if fitted is None:
        fitted = fit_bernstein_params(chain, fspec, alpha=alpha, seed=seed,
                                      **(fit_options or {}))
    curves = bound_curves(fitted.params, n, tail.t, formulas=formulas, p=p)
    verdicts = {name: check_domination(tail, curve.values, z=z)
                for name, curve in curves.items()}
    structure_report = None
    if structure:
        structure_report = check_block_structure(chain, seed=seed)
    return VerificationReport(
        chain_label=chain.label(), functional=fspec.name, n=int(n),
        seed=int(seed), z=float(z), tail=tail, curves=curves,
        verdicts=verdicts, params=fitted.params,
        diagnostics=fitted.diagnostics, p=float(p),
        rng=stream_description(seed, replicated=True,
                               step_major=chain.is_finite and not exact),
        structure=structure_report)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def tail_curve_to_dict(tail: TailCurve) -> dict:
    return plain(tail)


def structure_report_to_dict(report: BlockStructureReport) -> dict:
    return {**plain(report), "passed": report.passed}


def report_to_dict(report: VerificationReport) -> dict:
    params = report.params
    return {
        "chain": report.chain_label,
        "functional": report.functional,
        "n": report.n,
        "seed": report.seed,
        "z": report.z,
        "p": report.p,
        "rng": report.rng,
        "tail": tail_curve_to_dict(report.tail),
        "bounds": {
            name: {"values": [float(v) for v in curve.values],
                   "flags": list(curve.flags)}
            for name, curve in sorted(report.curves.items())
        },
        "verdicts": {name: plain(v)
                     for name, v in sorted(report.verdicts.items())},
        "params": {**plain(params),
                   "warnings": list(params.consistency_warnings())},
        "diagnostics": report.diagnostics,
        "structure": (None if report.structure is None
                      else structure_report_to_dict(report.structure)),
        "passed": report.passed,
    }


def curves_csv_text(report: VerificationReport) -> str:
    """t, estimate, se, bound_... rows for external plotting."""
    names = sorted(report.curves)
    header = "t,estimate,se," + ",".join(f"bound_{name}" for name in names)
    lines = [header]
    tail = report.tail
    for j in range(len(tail)):
        row = [repr(float(tail.t[j])), repr(float(tail.estimate[j])),
               "" if tail.se is None else repr(float(tail.se[j]))]
        row.extend(repr(float(report.curves[name].values[j]))
                   for name in names)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_curves_csv(report: VerificationReport, path: str) -> None:
    """The curves_csv_text rows, written atomically."""
    atomic_write_text(path, curves_csv_text(report))
