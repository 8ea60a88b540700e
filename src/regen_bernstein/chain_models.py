"""Transition kernels, minorization data and the built-in example chains.

Two chains ship with the package. A two-state chain whose state 0 is an
atom carrying the minorization, and a singular mod-1 chain whose one-step
kernel has no minorization at all while its two-step kernel is uniformly
minorized with delta = 1/2 against Lebesgue measure.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import _kernels
from ._io import write_json
from ._rng import TAG_TV, substream

_U64_MAX = np.iinfo(np.uint64).max


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Finite row-stochastic matrix over labelled states.

    states defaults to the indices 0..k-1. The mod-1 chain carries no
    kernel; its transitions live in SingularMod1Chain.
    """

    matrix: np.ndarray
    states: tuple | None = None

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.all(np.isfinite(mat)) or np.any(mat < 0.0):
            raise ValueError("transition matrix entries must be finite and nonnegative")
        row_err = float(np.abs(mat.sum(axis=1) - 1.0).max())
        if row_err > 1e-12:
            raise ValueError(f"non-stochastic matrix, worst row-sum deviation {row_err:.3e}")
        object.__setattr__(self, "matrix", mat)
        states = self.states if self.states is not None else tuple(range(mat.shape[0]))
        if len(states) != mat.shape[0]:
            raise ValueError("states and matrix size disagree")
        object.__setattr__(self, "states", tuple(states))

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def cumulative_rows(self) -> np.ndarray:
        return np.cumsum(self.matrix, axis=1)


@dataclass(frozen=True, eq=False)
class MinorizationSpec:
    """Data of a minorization P^m(x, .) >= delta * nu(.) on a small set.

    For finite chains small_set is a boolean mask over state indices,
    nu a probability vector, and r the residual-ratio matrix with rows
    meaningful on the small set only. The mod-1 chain leaves r unset:
    its level comes from the chain's own driving coins.
    """

    small_set: object
    m: int
    delta: float
    nu: object
    r: object = None

    def __post_init__(self):
        if int(self.m) < 1:
            raise ValueError("m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))
        if not (0.0 < float(self.delta) <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        object.__setattr__(self, "delta", float(self.delta))


@dataclass(frozen=True, eq=False)
class SingularMod1Chain:
    """Unit-interval chain driven by bit-sparse increments.

    The state is a B-bit fixed-point fraction. One increment family
    places random bits on the even fractional positions, the other on
    the odd positions, and a fair coin picks the family each step. The
    families occupy disjoint positions and together fill every position,
    so a pair of opposite moves lands exactly uniformly on the B-bit
    grid. That makes the two-step kernel uniformly minorized with
    delta = 1/2 even though every one-step move is singular.

    A move is one coin and one 64-bit word: draw_moves draws them and
    path applies them. Every mod-1 simulator goes through these two.
    """

    precision: int = 64
    odd_mask: int = field(init=False)
    even_mask: int = field(init=False)
    wrap_mask: int = field(init=False)

    def __post_init__(self):
        b = int(self.precision)
        if not (16 <= b <= 64):
            raise ValueError("precision must lie in [16, 64]")
        object.__setattr__(self, "precision", b)
        odd = 0
        even = 0
        for j in range(1, b + 1):
            bit = 1 << (b - j)
            if j % 2 == 1:
                odd |= bit
            else:
                even |= bit
        object.__setattr__(self, "odd_mask", odd)
        object.__setattr__(self, "even_mask", even)
        object.__setattr__(self, "wrap_mask", (1 << b) - 1)

    def draw_moves(self, rng: np.random.Generator, size):
        """(coins, words) for size moves: all coins first, then all words."""
        coins = rng.integers(0, 2, size=size, dtype=np.uint8)
        words = rng.integers(0, _U64_MAX, size=size, dtype=np.uint64,
                             endpoint=True)
        return coins, words

    def path(self, x0_bits, eps, words) -> np.ndarray:
        """Fixed-point states from x0_bits under the moves, along the last axis."""
        return _kernels.mod1_chain_path(self.odd_mask, self.even_mask,
                                        self.wrap_mask, x0_bits, eps, words)

    def float_params(self):
        return _kernels.mod1_float_params(self.precision)

    def bits_to_float(self, bits):
        return _kernels.mod1_bits_to_float(bits, self.precision)

    def float_to_bits(self, x) -> int:
        x = float(x)
        if not (0.0 <= x < 1.0):
            raise ValueError("mod-1 states live in [0, 1)")
        return int(x * 2.0 ** self.precision) & self.wrap_mask


@dataclass(frozen=True, eq=False)
class ChainInstance:
    """A chain bundled with its minorization and known stationary law.

    Exactly one of kernel (a finite chain) and mod1 (the singular mod-1
    chain) is given. stationary is a probability vector for finite
    chains, the string "lebesgue" for the mod-1 chain, or None when
    unknown.
    """

    kernel: TransitionKernel | None
    minorization: MinorizationSpec
    stationary: object = None
    name: str = ""
    params: dict = field(default_factory=dict)
    mod1: SingularMod1Chain | None = None

    def __post_init__(self):
        if (self.kernel is None) == (self.mod1 is None):
            raise ValueError("exactly one of kernel and mod1 must be given")
        if self.kernel is not None:
            k = self.kernel.n_states
            mask = np.asarray(self.minorization.small_set, dtype=bool)
            if mask.shape != (k,):
                raise ValueError("small-set mask must match the state count")
            if self.stationary is not None:
                pi = np.asarray(self.stationary, dtype=np.float64)
                if pi.shape != (k,) or np.any(pi < 0):
                    raise ValueError("stationary law must be a probability vector")
                if abs(pi.sum() - 1.0) > 1e-12:
                    raise ValueError("stationary law must sum to 1")
                err = float(np.abs(pi @ self.kernel.matrix - pi).max())
                if err > 1e-10:
                    raise ValueError(f"stationary law fails pi P = pi by {err:.3e}")
                if float(pi[mask].sum()) <= 0.0:
                    raise ValueError("stationary mass of the small set must be positive")
                object.__setattr__(self, "stationary", pi)

    @property
    def is_finite(self) -> bool:
        return self.kernel is not None

    @property
    def m(self) -> int:
        return self.minorization.m

    @property
    def delta(self) -> float:
        return self.minorization.delta

    def pi_vector(self) -> np.ndarray:
        if not self.is_finite:
            raise ValueError("finite chain required")
        if self.stationary is not None:
            return self.stationary
        return stationary_distribution(self.kernel)

    def pi_small_set(self) -> float:
        """Stationary mass of the small set."""
        if self.mod1 is not None:
            return 1.0
        mask = np.asarray(self.minorization.small_set, dtype=bool)
        return float(self.pi_vector()[mask].sum())

    def first_small_set_state(self):
        """Default point start: the first small-set state (0.0 on mod-1)."""
        if self.mod1 is not None:
            return 0.0
        return int(np.flatnonzero(
            np.asarray(self.minorization.small_set, dtype=bool))[0])

    def mean_gap(self) -> float:
        """Exact stationary mean regeneration gap m / (delta * pi(C))."""
        return self.m / (self.delta * self.pi_small_set())

    def label(self) -> str:
        bits = [self.name or ("finite" if self.is_finite else "generic")]
        for key in sorted(self.params):
            bits.append(f"{key}={self.params[key]}")
        return ",".join(bits)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Functional:
    """A real functional of the chain state, resolved per chain.

    values tabulates f over state indices for finite chains. code names
    one of the mod-1 kernel functionals and fn evaluates the same
    functional on float states. sup_bound is an exact bound on |f| when
    known. apply is the one evaluator of f along a path.
    """

    name: str
    values: np.ndarray | None = None
    code: int | None = None
    fn: Callable | None = None
    sup_bound: float | None = None

    def apply(self, states) -> np.ndarray:
        if self.values is not None:
            return self.values[np.asarray(states, dtype=np.int64)]
        if self.fn is not None:
            return np.asarray(self.fn(np.asarray(states, dtype=np.float64)))
        raise ValueError(f"functional {self.name} has no direct evaluator")


def resolve_functional(chain: ChainInstance, spec) -> Functional:
    """Turn a functional request into per-chain evaluation data.

    spec is one of the names "indicator_centered", "identity_centered",
    "cos2pi", a tabulated array of per-state values (finite chains), or
    an already resolved Functional. The named ones are exactly centered
    under the stationary law.
    """
    if isinstance(spec, Functional):
        return spec
    if isinstance(spec, str):
        name = spec
        if chain.mod1 is not None:
            table = {
                "cos2pi": (_kernels.F_COS2PI, 1.0),
                "identity_centered": (_kernels.F_IDENTITY_CENTERED, 0.5),
                "indicator_centered": (_kernels.F_INDICATOR_CENTERED, 0.5),
            }
            if name not in table:
                raise ValueError(f"unknown functional {name!r} for the mod-1 chain")
            code, sup = table[name]
            return Functional(name=name, code=code,
                              fn=partial(_kernels.mod1_f, f_code=code),
                              sup_bound=sup)
        pi = chain.pi_vector()
        k = chain.kernel.n_states
        if name == "indicator_centered":
            target = 1 if k > 1 else 0
            vals = np.zeros(k)
            vals[target] = 1.0
            vals -= pi[target]
        elif name == "identity_centered":
            idx = np.arange(k, dtype=np.float64)
            vals = idx - float(pi @ idx)
        else:
            raise ValueError(f"unknown functional {name!r} for a finite chain")
        return Functional(name=name, values=vals, sup_bound=float(np.abs(vals).max()))
    vals = np.asarray(spec, dtype=np.float64)
    if not chain.is_finite:
        raise ValueError("tabulated functionals need a finite chain")
    if vals.shape != (chain.kernel.n_states,):
        raise ValueError("tabulated functional must give one value per state")
    if not np.all(np.isfinite(vals)):
        raise ValueError("tabulated functional must be finite")
    return Functional(name="tabulated", values=vals,
                      sup_bound=float(np.abs(vals).max()))


# ---------------------------------------------------------------------------
# stationary law, minorization checks, TV decay
# ---------------------------------------------------------------------------


def _bfs_levels(adj) -> np.ndarray:
    """Edge distance of each state from state 0 along adj, -1 if unreached."""
    level = np.full(adj.shape[0], -1, dtype=np.int64)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(adj[u]):
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    return level


def _period(support, level) -> int:
    # gcd of (level(u) + 1 - level(v)) over support edges
    g = 0
    for u in range(support.shape[0]):
        for v in np.flatnonzero(support[u]):
            g = math.gcd(g, int(level[u] + 1 - level[v]))
    return g if g > 0 else 1


def stationary_distribution(kernel) -> np.ndarray:
    """Unique stationary law of an irreducible aperiodic finite kernel."""
    if isinstance(kernel, np.ndarray):
        kernel = TransitionKernel(matrix=kernel)
    mat = kernel.matrix
    support = mat > 0.0
    level = _bfs_levels(support)
    if level.min() < 0 or _bfs_levels(support.T).min() < 0:
        raise ValueError("reducible transition matrix, the stationary law is not unique")
    if _period(support, level) > 1:
        raise ValueError("periodic transition matrix")
    k = mat.shape[0]
    a = np.vstack([mat.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[k] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    return pi


@dataclass(frozen=True)
class MinorizationReport:
    """Outcome of a minorization check.

    mode is "exact" (finite matrix arithmetic), "construction" (latent
    scheme valid by design) or "support" (exact refutation from
    reachable bins). margin is the smallest value of P^m - delta * nu
    seen, negative on failure.
    """

    mode: str
    passed: bool
    margin: float
    warnings: tuple = ()
    detail: dict = field(default_factory=dict)


def _mod1_one_step_bins(chain: SingularMod1Chain, x_bits: int, resolution: int):
    """Set of dyadic bins of width 4^-resolution reachable in one step."""
    b = chain.precision
    width = 2 * resolution
    if width >= b:
        raise ValueError("resolution too fine for the chain precision")
    reachable = set()
    total = 1 << width
    for mask in (chain.even_mask, chain.odd_mask):
        prefix_positions = [j for j in range(1, width + 1) if (mask >> (b - j)) & 1]
        for pattern in range(1 << len(prefix_positions)):
            inc = 0
            for idx, j in enumerate(prefix_positions):
                if (pattern >> idx) & 1:
                    inc |= 1 << (b - j)
            base = (x_bits + inc) & chain.wrap_mask
            lo_bin = base >> (b - width)
            # tail bits below the prefix can carry at most one unit into it
            reachable.add(lo_bin)
            reachable.add((lo_bin + 1) % total)
    return reachable, total


def validate_minorization(chain: ChainInstance, spec: MinorizationSpec | None = None,
                          *, resolution: int = 3) -> MinorizationReport:
    """Check P^m(x, .) >= delta * nu(.) for x in the small set.

    Finite chains are checked exactly. The mod-1 chain is accepted by
    construction at its native m = 2 and refuted exactly at m = 1 by
    exhibiting a dyadic bin that one step cannot reach.
    """
    spec = spec if spec is not None else chain.minorization
    warnings = []
    if chain.is_finite:
        mat = chain.kernel.matrix
        k = mat.shape[0]
        mask = np.asarray(spec.small_set, dtype=bool)
        nu = np.asarray(spec.nu, dtype=np.float64)
        if nu.shape != (k,) or np.any(nu < 0) or abs(nu.sum() - 1.0) > 1e-12:
            raise ValueError("nu must be a probability vector over the states")
        nu_c = float(nu[mask].sum())
        if abs(nu_c - 1.0) > 1e-12:
            warnings.append(
                f"nu({{small set}}) = {nu_c:.6g} is below 1, the split-chain "
                "level sequence is then not itself Markov")
        pm = np.linalg.matrix_power(mat, spec.m)
        gaps = pm[mask] - spec.delta * nu[None, :]
        margin = float(gaps.min()) if gaps.size else math.inf
        detail = {"m": spec.m, "delta": spec.delta}
        if spec.r is not None:
            r = np.asarray(spec.r, dtype=np.float64)
            rows = np.flatnonzero(mask)
            if np.any(r[rows] < -1e-12) or np.any(r[rows] > 1.0 + 1e-12):
                raise ValueError("r must take values in [0, 1] on the small set")
            recon = r[rows] * pm[rows]
            err = float(np.abs(recon - spec.delta * nu[None, :]).max())
            if err > 1e-10:
                warnings.append(
                    f"r is inconsistent with delta * nu by {err:.3e} somewhere")
                detail["r_error"] = err
        return MinorizationReport(
            mode="exact", passed=bool(margin >= -1e-12), margin=margin,
            warnings=tuple(warnings), detail=detail)
    if spec.m == 2:
        return MinorizationReport(
            mode="construction", passed=True, margin=0.0,
            detail={
                "m": 2, "delta": spec.delta,
                "note": "a mixed pair of moves lands uniformly, so the "
                        "two-step kernel is a delta-weighted mixture "
                        "with the uniform law"})
    if spec.m == 1:
        x_bits = 0
        bins, total = _mod1_one_step_bins(chain.mod1, x_bits, resolution)
        missing = next(i for i in range(total) if i not in bins)
        margin = -spec.delta / total
        return MinorizationReport(
            mode="support", passed=False, margin=margin,
            detail={
                "m": 1, "delta": spec.delta, "resolution_bits": 2 * resolution,
                "reachable_bins": len(bins), "total_bins": total,
                "witness_bin": missing,
                "note": "one step from 0 misses this bin entirely while "
                        "delta * lebesgue gives it positive mass"})
    raise ValueError("mod-1 minorization checks support m = 1 and m = 2 only")


@dataclass(frozen=True, eq=False)
class TVCurve:
    """Total-variation distance to stationarity along the path."""

    n: np.ndarray
    tv: np.ndarray
    se: np.ndarray | None
    mode: str


def tv_decay_curve(chain: ChainInstance, x0, n_max: int, *, bins: int = 16,
                   replicas: int = 100_000, seed: int = 0,
                   bootstrap: int = 200) -> TVCurve:
    """TV(P^n(x0, .), pi) for n = 1..n_max.

    Finite chains are evaluated exactly. The mod-1 chain gets a binned
    empirical lower bound (a histogram can only lose mass differences),
    with a multinomial bootstrap standard error.
    """
    if n_max < 1:
        raise ValueError("n_max >= 1 required")
    steps = np.arange(1, n_max + 1)
    x0 = resolve_point(chain, x0)
    if chain.is_finite:
        pi = chain.pi_vector()
        row = np.zeros_like(pi)
        row[x0] = 1.0
        out = np.empty(n_max)
        for i in range(n_max):
            row = row @ chain.kernel.matrix
            out[i] = 0.5 * float(np.abs(row - pi).sum())
        return TVCurve(n=steps, tv=out, se=None, mode="exact")
    if bins < 2:
        raise ValueError("bins >= 2 required")
    mod1 = chain.mod1
    bits = mod1.path(x0, *mod1.draw_moves(substream(seed, TAG_TV, 1),
                                          (replicas, n_max)))
    boot_rng = substream(seed, TAG_TV, 2)
    tv = np.empty(n_max)
    se = np.empty(n_max)
    uniform_mass = 1.0 / bins
    for i in range(n_max):
        vals = mod1.bits_to_float(bits[:, i + 1])
        counts = np.bincount((vals * bins).astype(np.int64), minlength=bins)
        freq = counts / replicas
        tv[i] = 0.5 * float(np.abs(freq - uniform_mass).sum())
        resamples = boot_rng.multinomial(replicas, freq, size=bootstrap) / replicas
        boot = 0.5 * np.abs(resamples - uniform_mass).sum(axis=1)
        se[i] = float(boot.std(ddof=1))
    return TVCurve(n=steps, tv=tv, se=se, mode="binned-lower-bound")


# ---------------------------------------------------------------------------
# constructors and path sampling
# ---------------------------------------------------------------------------


def make_two_state(a: float = 0.5, b: float = 0.5,
                   delta: float = 1.0) -> ChainInstance:
    """Two-state chain [[1-a, a], [b, 1-b]] with an atom at state 0.

    The minorization takes C = {0}, m = 1, nu equal to the row at 0, so
    the residual ratio is constant and every visit to 0 regenerates with
    probability delta. Stationary law (b, a) / (a + b).
    """
    a = float(a)
    b = float(b)
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("a and b must lie strictly inside (0, 1)")
    mat = np.array([[1.0 - a, a], [b, 1.0 - b]])
    kernel = TransitionKernel(matrix=mat)
    nu = mat[0].copy()
    r = np.zeros((2, 2))
    r[0, :] = delta
    spec = MinorizationSpec(small_set=np.array([True, False]), m=1,
                            delta=float(delta), nu=nu, r=r)
    pi = np.array([b, a]) / (a + b)
    return ChainInstance(kernel=kernel, minorization=spec, stationary=pi,
                         name="two-state",
                         params={"a": a, "b": b, "delta": float(delta)})


def make_singular_mod1(precision: int = 64) -> ChainInstance:
    """Singular mod-1 chain with the latent two-step splitting."""
    mod1 = SingularMod1Chain(precision=precision)
    spec = MinorizationSpec(small_set=lambda x: True, m=2, delta=0.5,
                            nu="lebesgue")
    return ChainInstance(kernel=None, minorization=spec,
                         stationary="lebesgue", name="singular-mod1",
                         params={"precision": int(precision)}, mod1=mod1)


_BUILTINS = {
    "two-state": make_two_state,
    "singular-mod1": make_singular_mod1,
}


def make_chain(name: str, **params) -> ChainInstance:
    """Build a built-in chain by name with keyword overrides."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown chain {name!r}, expected one of {sorted(_BUILTINS)}")
    return _BUILTINS[name](**params)


@dataclass(frozen=True, eq=False)
class Start:
    """A resolved initial condition in native form.

    Native states are indices on finite chains and fixed-point bits on
    the mod-1 chain. A point start has point set and draws nothing. A
    random start takes one uniform, inverted through the cumulative
    start law weights (finite), or one 64-bit word masked to the chain's
    precision (mod-1, where nu and pi are both Lebesgue measure).
    """

    label: str
    point: int | None = None
    weights: np.ndarray | None = None
    wrap_mask: int | None = None

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.cumsum(self.weights)

    def draw(self, rng: np.random.Generator, size=None):
        """One native start, or an array of size of them (a point start
        returns its one state either way)."""
        if self.point is not None:
            return self.point
        if self.weights is not None:
            idx = np.searchsorted(self._cum, rng.random(size), side="right")
            return np.minimum(idx, len(self._cum) - 1)
        words = rng.integers(0, _U64_MAX, size=size, dtype=np.uint64,
                             endpoint=True)
        return words & np.uint64(self.wrap_mask)


def resolve_start(chain: ChainInstance, init) -> Start:
    """Validate an initial condition: a state, ("point", x), "nu" or "pi".

    "pi-approx" is accepted as "pi", and the mod-1 chain also accepts
    "lebesgue". Finite point starts must be state indices in range (an
    integral float such as 1.0 counts); mod-1 point starts must lie in
    [0, 1). Booleans are not states, and ("point", x) needs x a state,
    not a start token.
    """
    if isinstance(init, tuple) and len(init) == 2 and init[0] == "point":
        init = init[1]
        if isinstance(init, str):
            raise ValueError(f"need a point start, got {init!r}")
    if isinstance(init, (bool, np.bool_)):
        raise ValueError(f"initial state {init!r} is not a state index")
    if isinstance(init, str):
        token = init.lower()
        if chain.mod1 is not None and token in ("nu", "pi", "pi-approx", "lebesgue"):
            return Start(label=token, wrap_mask=chain.mod1.wrap_mask)
        if chain.mod1 is None and token in ("nu", "pi", "pi-approx"):
            weights = (np.asarray(chain.minorization.nu, dtype=np.float64)
                       if token == "nu" else chain.pi_vector())
            return Start(label=token, weights=weights)
        raise ValueError(f"unknown init {init!r}")
    if chain.mod1 is not None:
        return Start(label=f"point:{init}",
                     point=chain.mod1.float_to_bits(float(init)))
    try:
        x = operator.index(init)
    except TypeError:
        if not (isinstance(init, (float, np.floating)) and float(init).is_integer()):
            raise ValueError(f"initial state {init!r} is not a state index") from None
        x = int(init)
    if not (0 <= x < chain.kernel.n_states):
        raise ValueError(f"initial state {x} out of range")
    return Start(label=f"point:{init}", point=x)


def resolve_point(chain: ChainInstance, x0) -> int:
    """Native form of a point start, validated as resolve_start does."""
    point = resolve_start(chain, x0).point
    if point is None:
        raise ValueError(f"need a point start, got {x0!r}")
    return point


def sample_path(chain: ChainInstance, x0, n: int,
                rng: np.random.Generator) -> np.ndarray:
    """States of a base-chain path of length n started from x0.

    x0 is anything resolve_start accepts; a random start draws first.
    Finite chains return index arrays, the mod-1 chain floats in [0, 1).
    The path consumes one uniform per transition (finite) or one coin
    and one 64-bit word per transition (mod-1).
    """
    n = int(n)
    if n < 1:
        raise ValueError("n >= 1 required")
    start = resolve_start(chain, x0).draw(rng)
    if chain.mod1 is None:
        uniforms = rng.random(n - 1)
        return _kernels.finite_chain_path(chain.kernel.cumulative_rows(),
                                          start, uniforms)
    mod1 = chain.mod1
    return mod1.bits_to_float(mod1.path(start, *mod1.draw_moves(rng, n - 1)))


# ---------------------------------------------------------------------------
# chain files
# ---------------------------------------------------------------------------


def chain_to_dict(chain: ChainInstance) -> dict:
    """JSON-ready description of a finite chain."""
    if not chain.is_finite:
        raise ValueError("only finite chains serialize to chain files")
    spec = chain.minorization
    return {
        "states": list(chain.kernel.states),
        "matrix": chain.kernel.matrix.tolist(),
        "small_set": np.asarray(spec.small_set, dtype=bool).astype(int).tolist(),
        "m": spec.m,
        "delta": spec.delta,
        "nu": np.asarray(spec.nu, dtype=np.float64).tolist(),
        "r": None if spec.r is None else np.asarray(spec.r).tolist(),
        "name": chain.name or "custom",
    }


def chain_from_dict(data: dict) -> ChainInstance:
    """Inverse of chain_to_dict, with full validation."""
    for key in ("matrix", "small_set", "m", "delta", "nu"):
        if key not in data:
            raise ValueError(f"chain file misses required field {key!r}")
    kernel = TransitionKernel(matrix=np.asarray(data["matrix"], dtype=np.float64),
                              states=tuple(data["states"]) if "states" in data else None)
    mask = np.asarray(data["small_set"], dtype=bool)
    nu = np.asarray(data["nu"], dtype=np.float64)
    r = None if data.get("r") is None else np.asarray(data["r"], dtype=np.float64)
    if r is None:
        # residual ratio of the minorization, rows meaningful on C only
        pm = np.linalg.matrix_power(kernel.matrix, int(data["m"]))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(pm > 0.0, float(data["delta"]) * nu[None, :] / pm, 0.0)
        r = np.clip(r, 0.0, 1.0)
    spec = MinorizationSpec(small_set=mask, m=int(data["m"]),
                            delta=float(data["delta"]), nu=nu, r=r)
    chain = ChainInstance(kernel=kernel, minorization=spec,
                          stationary=stationary_distribution(kernel),
                          name=str(data.get("name", "custom")))
    report = validate_minorization(chain)
    if not report.passed:
        raise ValueError(
            f"chain file minorization fails with margin {report.margin:.3e}")
    if "r_error" in report.detail:
        # such an r regenerates into P^m(x, .) r(x, .) normalized, not nu
        raise ValueError("chain file r is inconsistent with delta * nu by "
                         f"{report.detail['r_error']:.3e}")
    return chain


def load_chain(path: str) -> ChainInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return chain_from_dict(json.load(fh))


def save_chain(chain: ChainInstance, path: str) -> None:
    write_json(chain_to_dict(chain), path)
