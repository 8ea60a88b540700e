"""Exact references on finite chains: tails, regeneration counts, gap laws.

Nothing here draws a random number. The tail of an additive functional
comes from a dynamic program over exact sums, the regeneration-count
tail and the gap law from the split chain's block kernel, and the
block-Markov check from an all-histories count. Each routine raises
GuardError before it would spend more than its cost guard.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain_models import (ChainInstance, resolve_functional, resolve_point,
                           resolve_start)
from .errors import GuardError
from .orlicz import _psi_root

_LATTICE_WIDTH_CAP = 5_000_000
_LATTICE_COST_GUARD = 2e9
_COUNT_DP_GUARD = 1e9
# word operations of a rational DP (the exact tail's rational route and
# the regeneration count), at most
_RATIONAL_DP_GUARD = 1e7


# ---------------------------------------------------------------------------
# exact tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TailCurve:
    """P(|sum| > t) on a grid, estimated or exact.

    se is None exactly when the curve comes from enumeration. The grid
    is strictly increasing and the estimates non-increasing along it.
    """

    t: np.ndarray
    estimate: np.ndarray
    se: np.ndarray | None
    provenance: str
    n: int
    replicas: int | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        est = np.asarray(self.estimate, dtype=np.float64)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("empty t grid")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("t grid must be strictly increasing")
        if t.shape != est.shape:
            raise ValueError("t grid and estimates must align")
        if np.any(est < -1e-12) or np.any(est > 1.0 + 1e-12):
            raise ValueError("tail estimates must lie in [0, 1]")
        if np.any(np.diff(est) > 1e-12):
            raise ValueError("tail estimates must be non-increasing in t")
        if self.provenance not in ("monte_carlo", "enumeration"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        se = self.se
        if se is not None:
            se = np.asarray(se, dtype=np.float64)
            if se.shape != t.shape or np.any(se < 0.0):
                raise ValueError("se must be a non-negative array on the grid")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "estimate", np.clip(est, 0.0, 1.0))
        object.__setattr__(self, "se", se)

    def __len__(self) -> int:
        return len(self.t)


def _validated_grid(t_grid) -> np.ndarray:
    t = np.sort(np.asarray(t_grid, dtype=np.float64).ravel())
    if t.size == 0:
        raise ValueError("empty t grid")
    # np.unique would import numpy.ma on the first grid
    t = t[np.concatenate(([True], t[1:] != t[:-1]))]
    if not np.all(np.isfinite(t)):
        raise ValueError("t grid must be finite")
    if np.any(t < 0.0):
        raise ValueError("t grid must be non-negative")
    return t


def _strict_cutoff(t: float, lcm_den: int) -> int:
    """Smallest integer M with M / lcm_den > t, exactly."""
    thr = Fraction(t) * lcm_den
    return thr.numerator // thr.denominator + 1


def exact_tail(chain: ChainInstance, f, x0: int, n: int, t_grid) -> TailCurve:
    """Exact P_x(|sum of f over n states| > t) by dynamic programming.

    Sums are tracked exactly: on an integer lattice after clearing the
    (binary-rational) denominators of f when that lattice is small
    enough, otherwise as exact rationals keyed per (state, sum) pair.
    Strictness at the threshold is decided in exact arithmetic.

    The lattice route holds the probabilities in float64. Its terms are
    non-negative, so a tail value carries a relative rounding error of
    about ((n - 1)(k + 1) + width) * 2^-53 at most, with width the span
    of the lattice of sums (below 1e-12 at n = 1000 on two states); it
    raises RuntimeError if the total mass ends more than 1e-9 from 1.
    The rational route is exact up to the final rounding to float.

    Each route is guarded on what it costs. The lattice DP makes
    (n - 1) * k^2 * width multiply-adds; above _LATTICE_COST_GUARD (2e9)
    it raises GuardError before allocating anything. The rational
    route keeps at most k * C(n + k - 2, k - 1) (state, sum) pairs, so a
    step makes k^2 C(n + k - 2, k - 1) operations on integers that grow
    by the bits of the rows' common denominator; above _RATIONAL_DP_GUARD
    (1e7) word operations in all it raises GuardError before the first
    step.
    """
    if not chain.is_finite:
        raise ValueError("exact tails need a finite chain")
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    k = chain.kernel.n_states
    x0 = resolve_point(chain, x0)
    t = _validated_grid(t_grid)
    fspec = resolve_functional(chain, f)
    fracs = [Fraction(float(v)) for v in fspec.values]
    lcm_den = _denominator(fracs)
    f_int = [int(fr * lcm_den) for fr in fracs]
    lo, hi = min(f_int), max(f_int)
    base = min(lo, n * lo)
    top = max(hi, n * hi)
    width = top - base + 1
    matrix = chain.kernel.matrix
    if lcm_den <= 2 ** 40 and width <= _LATTICE_WIDTH_CAP \
            and max(abs(base), abs(top)) < 2 ** 62:
        cost = (n - 1) * k * k * width
        if cost > _LATTICE_COST_GUARD:
            raise GuardError(
                f"lattice DP cost {cost:.1e} ((n - 1) * k^2 * width) exceeds "
                f"the {_LATTICE_COST_GUARD:.0e} lattice cost guard")
        probs = _exact_tail_lattice(matrix, f_int, x0, n, base, width,
                                    lcm_den, t)
    else:
        p_frac = _fraction_rows(matrix)
        _check_integer_growth(
            "rational tail DP", n - 1, k * k * math.comb(n + k - 2, k - 1), 0,
            math.log2(_denominator(p_frac.ravel())), _RATIONAL_DP_GUARD)
        probs = _exact_tail_fractions(p_frac, fracs, x0, n, t)
    return TailCurve(t=t, estimate=probs, se=None, provenance="enumeration",
                     n=n)


def _exact_tail_lattice(matrix, f_int, x0, n, base, width, lcm_den, t):
    k = matrix.shape[0]
    dp = np.zeros((k, width), dtype=np.float64)
    dp[x0, f_int[x0] - base] = 1.0
    for _ in range(n - 1):
        new = np.zeros_like(dp)
        for y in range(k):
            vec = matrix[:, y] @ dp
            # n >= 2 here, so width > |shift|: base <= min(lo, 2 lo)
            # and top >= max(hi, 2 hi)
            shift = f_int[y]
            if shift >= 0:
                new[y, shift:] += vec[:width - shift]
            else:
                new[y, :width + shift] += vec[-shift:]
        dp = new
    total = float(dp.sum())
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"lattice DP lost probability mass: total {total!r}")
    weight = dp.sum(axis=0)
    sums_int = base + np.arange(width, dtype=np.int64)
    order = np.argsort(np.abs(sums_int), kind="stable")
    abs_sorted = np.abs(sums_int)[order]
    suffix = np.concatenate([np.cumsum(weight[order][::-1])[::-1], [0.0]])
    cuts = np.array([_strict_cutoff(tj, lcm_den) for tj in t], dtype=np.int64)
    idx = np.searchsorted(abs_sorted, cuts, side="left")
    return np.clip(suffix[idx], 0.0, 1.0)


def _exact_tail_fractions(p_frac, fracs, x0, n, t):
    """The rational route. Its (state, sum) pairs need no guard of their
    own: with ops = k^2 C(n + k - 2, k - 1) there are at most ops / k of
    them, and exact_tail takes this route only when (n - 1) * ops * words
    <= 1e7 with words >= 1, so at most 1e7 / ((n - 1) k). That is above
    2e6 only when (n - 1) k < 5, where there are at most 4 C(4, 3) = 16
    pairs; so there are never more than 2e6."""
    dp = {(x0, fracs[x0]): Fraction(1)}
    for _ in range(n - 1):
        new = defaultdict(Fraction)
        for (x, total), p in dp.items():
            for y, p_xy in enumerate(p_frac[x]):
                if p_xy:
                    new[(y, total + fracs[y])] += p * p_xy
        dp = dict(new)
    if sum(dp.values()) != 1:
        raise RuntimeError("fraction DP lost probability mass")
    probs = []
    for tj in t:
        thr = Fraction(tj)
        probs.append(float(sum(p for (_, total), p in dp.items()
                               if abs(total) > thr)))
    return np.asarray(probs, dtype=np.float64)


# ---------------------------------------------------------------------------
# the block kernel, exact regeneration-count tails and gap law
# ---------------------------------------------------------------------------


def _fraction_vector(weights) -> list:
    vec = [Fraction(float(w)) for w in weights]
    total = sum(vec)
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    return [w / total for w in vec]


def _fraction_rows(matrix) -> np.ndarray:
    # float rows such as 0.7 + 0.3 do not sum to exactly 1 as rationals,
    # so each row is divided by its exact sum (a no-op on dyadic rows)
    return np.array([_fraction_vector(row) for row in matrix], dtype=object)


def _denominator(fracs) -> int:
    """Least common denominator of exact fractions."""
    return math.lcm(*(fr.denominator for fr in fracs))


def _block_kernel(chain: ChainInstance, exact: bool = False):
    """(B0, u, nu): the m-step block kernel B0 = P^m - u nu, u = delta 1_C.

    In floats by default. With exact=True the rows and nu are exact
    Fractions, each divided by its exact sum, and B0 >= 0 is checked;
    the same numpy operations serve both.
    """
    spec = chain.minorization
    rows, nu = chain.kernel.matrix, np.asarray(spec.nu, dtype=np.float64)
    delta = spec.delta
    if exact:
        rows, delta = _fraction_rows(rows), Fraction(delta)
        nu = np.array(_fraction_vector(nu), dtype=object)
    u = np.where(np.asarray(spec.small_set, dtype=bool), delta, 0 * delta)
    b0 = np.linalg.matrix_power(rows, chain.m) - u[:, None] * nu[None, :]
    if exact and np.any(b0 < 0):
        x, y = np.argwhere(b0 < 0)[0]
        raise ValueError(
            "minorization fails in exact arithmetic at "
            f"({x}, {y}): P^m - delta nu = {float(b0[x, y]):.3e}")
    return b0, u, nu


def _check_integer_growth(what: str, rounds: int, ops: int, bits0: float,
                          bits_per_round: float, guard: float) -> None:
    """GuardError when rounds rounds of ops operations on integers of
    bits0 bits growing by bits_per_round bits a round, rounds * ops
    * (final size in 64-bit words, at least 1) word operations, exceed
    guard."""
    words = max(1, math.ceil((bits0 + rounds * bits_per_round) / 64))
    cost = rounds * ops * words
    if cost > guard:
        raise GuardError(
            f"{what} cost {cost:.1e} ({rounds} rounds of {ops} operations "
            f"on {words}-word integers) exceeds the {guard:.0e} count guard")


def exact_regeneration_count_tail(chain: ChainInstance, n: int,
                                  threshold: int, init=0) -> float:
    """Exact P(N > threshold) where N counts regenerations before n - m.

    N is the number of level-1 block starts sigma_i < n - m, matching
    the block-decomposition count. Exact rational dynamic programming
    over (state, capped count) across the m-step block transitions.
    init is anything resolve_start accepts: a state index, "pi", or "nu".

    The masses' denominators divide den(start) * den(B0, u nu)^blocks,
    so a block costs k^2 (threshold + 2) operations on integers of that
    size; above _RATIONAL_DP_GUARD (1e7) word operations in all it
    raises GuardError before the first block.
    """
    if not chain.is_finite:
        raise ValueError("exact regeneration counts need a finite chain")
    n = int(n)
    m = chain.m
    if n < m:
        raise ValueError("horizon n must be at least m")
    threshold = int(threshold)
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    blocks = -((n - m) // -m) if n > m else 0
    b0, u, nu = _block_kernel(chain, exact=True)
    k = chain.kernel.n_states
    plan = resolve_start(chain, init)
    start = _fraction_vector(np.eye(k)[plan.point] if plan.weights is None
                             else plan.weights)
    cap = threshold + 1
    _check_integer_growth(
        "regeneration count DP", blocks, k * k * (cap + 1),
        math.log2(_denominator(start)),
        math.log2(_denominator([*b0.ravel(), *(u[:, None] * nu).ravel()])),
        _RATIONAL_DP_GUARD)
    # dp[y, c]: mass at state y after min(count, cap) regenerations
    dp = np.full((k, cap + 1), Fraction(0), dtype=object)
    dp[:, 0] = start
    for _ in range(blocks):
        regen = nu[:, None] * (u @ dp)[None, :]
        dp = b0.T @ dp
        dp[:, 1:] += regen[:, :-1]
        dp[:, cap] += regen[:, cap]
    return float(dp[:, cap].sum())


def exact_gap_distribution(chain: ChainInstance, *, gmax: int = 4096,
                           tol: float = 1e-15):
    """(gap lengths in steps, probabilities, remaining mass), from nu.

    P(gap = g m) = nu B0^(g-1) u with u = delta 1_C, evaluated
    iteratively until the unregenerated mass drops below tol or gmax
    block steps are reached.
    """
    if not chain.is_finite:
        raise ValueError("exact gap laws need a finite chain")
    b0, u, nu = _block_kernel(chain)
    w = nu.copy()
    probs = []
    for _ in range(int(gmax)):
        probs.append(float(w @ u))
        w = w @ b0
        if float(w.sum()) < tol:
            break
    gaps = chain.m * np.arange(1, len(probs) + 1, dtype=np.int64)
    return gaps, np.asarray(probs), float(w.sum())


def exact_gap_psi1(chain: ChainInstance, *, tol: float = 1e-12) -> float:
    """Exact psi_1 norm of the regeneration gap via its closed-form MGF.

    E exp(gap / c) = z nu (I - z B0)^{-1} u with z = exp(m / c) and
    u = delta 1_C, finite exactly when z rho(B0) < 1. Bisection to
    relative tolerance tol on the root of E = 2.
    """
    if not chain.is_finite:
        raise ValueError("exact gap norms need a finite chain")
    b0, u, nu = _block_kernel(chain)
    rho = float(np.max(np.abs(np.linalg.eigvals(b0))))
    m = float(chain.m)

    def mgf(c):
        z = math.exp(m / c)
        if z * rho >= 1.0 - 1e-13:
            return math.inf
        sol = np.linalg.solve(np.eye(len(u)) - z * b0, u)
        return z * float(nu @ sol)

    lo = m / math.log(1.0 / rho) if rho > 0.0 else 1e-12
    hi = max(2.0 * lo, m / math.log(2.0), 1.0)
    while mgf(hi) > 2.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("gap MGF root exceeds 1e12")
    return _psi_root(mgf, lo, hi, tol)


# ---------------------------------------------------------------------------
# conditional block-Markov identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlockMarkovCheck:
    """All-histories conditional excursion means vs the regeneration value."""

    passed: bool
    constant: float
    max_deviation: float
    per_state: dict
    n_contexts: int
    n_histories: int
    routes_agree: bool
    route_gap: float


def check_block_markov(chain: ChainInstance, n: int = 8,
                       f="indicator_centered", *,
                       tol: float = 1e-10) -> BlockMarkovCheck:
    """Exact check that every regeneration history gives the same
    conditional excursion mean.

    For a one-step minorization the post-regeneration state has law nu
    regardless of the history, so E(chi | whole past) must equal the
    single number nu . h with h the excursion-sum potential solving
    h = f + B0 h. The routine enumerates every attainable history of
    length <= n ending in a regeneration (counted exactly), evaluates
    the conditional through the law the split simulator gives the state
    after a regeneration at x, P(x, .) r(x, .) normalized, and compares.
    A residual ratio r that does not split off delta nu makes that law
    differ from nu, and the check fails. h is computed twice, by direct
    solve and by Neumann summation, so the reference value is not a
    single-route artifact.
    """
    if not chain.is_finite:
        raise ValueError("the conditional identity check needs a finite chain")
    if chain.m != 1:
        raise ValueError(
            "the all-histories conditional check is defined for one-step "
            "minorizations; higher m conditions on within-block states")
    n = int(n)
    if n < 2:
        raise ValueError("horizon n must be at least 2")
    k = chain.kernel.n_states
    # counts stay below (2k)^(n-1): (n - 1) rounds of k^2 additions
    _check_integer_growth("history count", n - 1, k * k, 0,
                          math.log2(2 * k), _COUNT_DP_GUARD)
    spec = chain.minorization
    f_vec = resolve_functional(chain, f).values
    in_c = np.asarray(spec.small_set, dtype=bool)
    matrix = chain.kernel.matrix
    b0, _, nu = _block_kernel(chain)
    h = np.linalg.solve(np.eye(k) - b0, f_vec)
    # second route: Neumann series sum of B0^j f
    h_series = f_vec.copy()
    term = f_vec.copy()
    for _ in range(100000):
        term = b0 @ term
        h_series = h_series + term
        if float(np.abs(term).max()) < 1e-16 * max(1.0, float(np.abs(h_series).max())):
            break
    else:
        raise GuardError("Neumann series for the potential did not converge")
    route_gap = float(np.abs(h - h_series).max())
    routes_agree = route_gap <= 1e-10

    r_mat = np.asarray(spec.r, dtype=np.float64)
    constant = float(nu @ h)
    support = matrix > 0.0
    capable = in_c & np.any(support & (r_mat > 0.0), axis=1)
    # the simulator's law of the state after a regeneration at x:
    # P(x, .) r(x, .), normalized; it is nu when r is the minorization's
    next_laws = {}
    for x in np.flatnonzero(capable).tolist():
        law = matrix[x] * r_mat[x]
        law /= law.sum()
        next_laws[x] = law

    # exact big-integer count of attainable (states, levels) histories
    # ending in a regeneration, and of regeneration contexts: a step
    # x -> y branches on the level when x is in C and 0 < r(x, y) < 1
    split = (r_mat > 0.0).astype(np.int64) + (r_mat < 1.0)
    branches = np.where(support, np.where(in_c[:, None], split, 1), 0)
    branches = branches.astype(object)  # Python ints: exact products
    counts = np.ones(k, dtype=object)
    n_contexts = 0
    n_histories = 0
    for _ in range(n - 1):
        live = counts[capable]
        n_contexts += int(np.count_nonzero(live))
        n_histories += int(live.sum())
        counts = counts @ branches

    # every capable state is seen at step 0, where each count is 1
    per_state = {x: float(law @ h) for x, law in next_laws.items()}
    if not per_state:
        raise ValueError("no attainable regeneration context at this horizon")
    max_dev = max(abs(v - constant) for v in per_state.values())
    passed = routes_agree and max_dev <= tol
    return BlockMarkovCheck(
        passed=passed, constant=constant, max_deviation=float(max_dev),
        per_state=per_state, n_contexts=n_contexts, n_histories=n_histories,
        routes_agree=routes_agree, route_gap=route_gap)
