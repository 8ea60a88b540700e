"""Kernel references: every numpy kernel must match a scalar loop bitwise."""

import importlib.util
import itertools
import math

import numpy as np
import pytest

from regen_bernstein import (make_singular_mod1, make_two_state,
                             resolve_functional)
from regen_bernstein._backend import numba_available
from regen_bernstein import _kernels
from regen_bernstein._kernels import (finite_chain_path, finite_chain_sums,
                                      finite_split_first_hits,
                                      finite_split_path, mod1_chain_path,
                                      mod1_chain_sums, warm_up)
from regen_bernstein._rng import substream

U64_MAX = np.iinfo(np.uint64).max


@pytest.fixture(scope="module")
def chain():
    return make_two_state(0.3, 0.6)


def test_backend_choice_env():
    # one backend whatever is installed; numba is only reported
    assert numba_available() is (importlib.util.find_spec("numba")
                                 is not None)
    assert warm_up() == "numpy"


# dyadic rows, so uniforms can sit exactly on cumulative boundaries
DYADIC_ROWS = {
    3: [[0.5, 0.25, 0.25], [0.125, 0.375, 0.5], [0.0, 0.75, 0.25]],
    4: [[0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.375, 0.125],
        [0.0, 0.0, 0.5, 0.5], [0.125, 0.625, 0.0, 0.25]],
    1: [[1.0]],  # no threshold column
}


@pytest.mark.parametrize("ns", sorted(DYADIC_ROWS))
def test_path_loop_reproduces_searchsorted(ns):
    cum = np.cumsum(np.array(DYADIC_ROWS[ns]), axis=1)
    ties = np.append(np.unique(cum[:, :-1]), 0.0)
    rng = substream(0, 1, ns)
    u = rng.random(256)
    on_edge = rng.random(256) < 0.25
    u[on_edge] = rng.choice(ties, size=int(on_edge.sum()))
    # a first move on every boundary from every state (zero-probability
    # columns repeat a boundary), then a mix of boundaries and randoms
    for x0, tie in itertools.product(range(ns), ties):
        moves = np.append(tie, u)
        path = finite_chain_path(cum, x0, moves)
        assert path[0] == x0
        x = x0
        for i, ui in enumerate(moves):
            x = min(int(np.searchsorted(cum[x], ui, side="right")), ns - 1)
            assert path[i + 1] == x, (ns, x0, tie, i)


def _finite_sums_loop(cum_rows, f_vals, x0, uniforms):
    """Scalar reference for finite_chain_sums: replica r moves by
    uniforms[i, r] at step i (step-major), stopping at the first
    cumulative entry above u, and adds f in visit order."""
    ns = cum_rows.shape[1]
    out = []
    for r in range(uniforms.shape[1]):
        x = int(x0[r])
        acc = f_vals[x]
        for u in uniforms[:, r]:
            j = 0
            while j < ns - 1 and u >= cum_rows[x, j]:
                j += 1
            x = j
            acc += f_vals[x]
        out.append(acc)
    return np.array(out)


def _finite_sums_tiled(cum, f, x0, u, tile):
    """finite_chain_sums fed tile steps at a time, sums from f[x0]."""
    states = x0.copy()
    sums = f[x0]
    for s in range(0, u.shape[0], tile):
        finite_chain_sums(cum, f, states, u[s:s + tile], sums)
    return sums, states


def _check_finite_sums_parity(cum, f, x0, u):
    want = _finite_sums_loop(cum, f, x0, u)
    last = [finite_chain_path(cum, x0[r], u[:, r])[-1]
            for r in range(x0.size)]
    for tile in (1, 7, max(1, u.shape[0])):
        sums, states = _finite_sums_tiled(cum, f, x0, u, tile)
        assert sums.tobytes() == want.tobytes(), (cum.shape, u.shape, tile)
        assert np.array_equal(states, last), (cum.shape, u.shape, tile)


def test_finite_sums_numpy_matches_scalar_loop(chain):
    cum = chain.kernel.cumulative_rows()
    rng = substream(2, 1, 0)
    u = rng.random((300, 40))
    x0 = rng.integers(0, 2, size=40).astype(np.int64)
    _check_finite_sums_parity(cum, np.array([0.7, -0.4]), x0, u)
    # 1, 3 and 4 states; step counts of 0, 1 and odd ones, fed whole and
    # in tiles of 1 and 7 steps
    for ns, rows in DYADIC_ROWS.items():
        cum = np.cumsum(np.array(rows), axis=1)
        f = rng.standard_normal(ns)
        ties = np.append(np.unique(cum[:, :-1]), 0.0)
        for nrep, steps in itertools.product((1, 7, 300), (0, 1, 97)):
            u = rng.random((steps, nrep))
            on_edge = rng.random((steps, nrep)) < 0.25
            u[on_edge] = rng.choice(ties, size=int(on_edge.sum()))
            x0 = rng.integers(0, ns, size=nrep).astype(np.int64)
            _check_finite_sums_parity(cum, f, x0, u)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_finite_split_first_hits_matches_scalar_path(m):
    rng = substream(2, 2, m)
    for (ns, rows), first in itertools.product(DYADIC_ROWS.items(), [0, 7]):
        cum = np.cumsum(np.array(rows), axis=1)
        in_c = np.arange(ns) % 2 == 0
        r_mat = rng.choice([0.0, 0.125, 0.5, 1.0], size=(ns, ns))
        # state 0 lies in C: its blocks reach level 1 on some draws and
        # not on others, even on the one-state chain
        r_mat[0, 0] = 0.5
        nrep, blocks = 60, 30
        state_u = rng.random((nrep, blocks * m))
        on_edge = rng.random(state_u.shape) < 0.25
        ties = np.append(np.unique(cum[:, :-1]), 0.0)
        state_u[on_edge] = rng.choice(ties, size=int(on_edge.sum()))
        level_u = rng.choice([0.0, 0.125, 0.3, 0.5, 0.9], size=(nrep, blocks))
        level_u[:3] = 1.0  # rows without a level-1 block
        x0 = rng.integers(0, ns, size=nrep).astype(np.int64)
        states, levels = finite_split_first_hits(cum, in_c, r_mat, m, x0,
                                                 state_u, level_u, first)
        assert states.shape == (nrep, blocks * m + 1)
        assert levels.shape == (nrep, blocks) and levels.dtype == np.uint8
        hits = []
        for i in range(nrep):
            path, want = finite_split_path(cum, in_c, r_mat, m, x0[i],
                                           state_u[i], level_u[i])
            assert want.dtype == np.uint8 and want.size == blocks
            for k in range(blocks):
                start, end = path[k * m], path[(k + 1) * m]
                lev = in_c[start] and level_u[i, k] < r_mat[start, end]
                assert want[k] == lev, (i, k)
            # the row is set through its first level-1 block at or
            # after block first
            counted = np.flatnonzero(want[first:] == 1)
            hit = first + counted[0] if counted.size else blocks - 1
            hits.append(hit if counted.size else -1)
            assert np.array_equal(states[i, :(hit + 1) * m + 1],
                                  path[:(hit + 1) * m + 1])
            assert np.array_equal(levels[i, :hit + 1], want[:hit + 1])
        assert min(hits) < 0 and max(hits) > first
        if first:  # some row has a level-1 block before first
            assert any(levels[i, :first].any() for i in range(nrep))


def _mod1_sums_loop(mod1, name, x0, eps, words):
    """Scalar reference for mod1_chain_sums: one state and one f value
    per step, added in visit order."""
    shift, scale = mod1.shift, mod1.scale
    f = {"cos2pi": lambda x: np.cos(2.0 * math.pi * x),  # numpy's cos
         "identity_centered": lambda x: x - 0.5,
         "indicator_centered": lambda x: 0.5 if x < 0.5 else -0.5}[name]
    out = []
    for r in range(eps.shape[0]):
        x = int(x0[r])
        acc = f((x >> shift) * scale)
        for i in range(eps.shape[1]):
            mask = mod1.odd_mask if eps[r, i] == 1 else mod1.even_mask
            x = (x + (int(words[r, i]) & mask)) & mod1.wrap_mask
            acc += f((x >> shift) * scale)
        out.append(acc)
    return np.array(out)


MOD1_NAMES = ("cos2pi", "identity_centered", "indicator_centered")


@pytest.mark.parametrize("precision", [64, 40, 16])
# ids 0, 1, 2: the case numbers these runs have always had, so that
# their results compare across versions
@pytest.mark.parametrize("name", MOD1_NAMES, ids=["0", "1", "2"])
def test_mod1_sums_match_scalar_loop(monkeypatch, name, precision):
    chain = make_singular_mod1(precision)
    mod1 = chain.mod1
    f = resolve_functional(chain, name).fn
    rng = substream(4, precision, MOD1_NAMES.index(name))
    # 0 steps, 1 step and an odd count, each in one tile and then in
    # 8-state tiles (8, 4 and 1 rows), so the 30 rows span many tiles
    for steps, tile in itertools.product((0, 1, 37),
                                         (_kernels._MOD1_TILE_STATES, 8)):
        eps = rng.integers(0, 2, size=(30, steps), dtype=np.uint8)
        words = rng.integers(0, U64_MAX, size=(30, steps), dtype=np.uint64,
                             endpoint=True)
        x0 = rng.integers(0, U64_MAX, size=30, dtype=np.uint64,
                          endpoint=True) & np.uint64(mod1.wrap_mask)
        monkeypatch.setattr(_kernels, "_MOD1_TILE_STATES", tile)
        got = mod1_chain_sums(mod1.odd_mask, mod1.even_mask, mod1.wrap_mask,
                              mod1.shift, mod1.scale, f, x0, eps, words)
        want = _mod1_sums_loop(mod1, name, x0, eps, words)
        assert got.tobytes() == want.tobytes(), (steps, tile)


def test_mod1_f_rejects_unknown_codes():
    # the kernel reads the indicator's +-0.5 off the states 1/4 and 3/4;
    # a functional given as a bare code, not a name, is no mod-1 functional
    chain = make_singular_mod1()
    mod1 = chain.mod1
    f = resolve_functional(chain, "indicator_centered").fn
    x0 = np.array([mod1.float_to_bits(0.25), mod1.float_to_bits(0.75)],
                  dtype=np.uint64)
    none = np.empty((2, 0), dtype=np.uint8)
    got = mod1_chain_sums(mod1.odd_mask, mod1.even_mask, mod1.wrap_mask,
                          mod1.shift, mod1.scale, f, x0, none,
                          none.astype(np.uint64))
    assert np.array_equal(got, [0.5, -0.5])
    for code in (3, 7, -1, None):
        with pytest.raises(ValueError, match="need a finite chain"):
            resolve_functional(chain, code)
    with pytest.raises(ValueError, match="unknown functional"):
        resolve_functional(chain, "3")


def _place_masks(precision):
    """(odd, even) masks by definition: place j = 1..B is bit B - j and
    belongs to the odd or the even family as j does."""
    odd = even = 0
    for j in range(1, precision + 1):
        if j % 2:
            odd |= 1 << (precision - j)
        else:
            even |= 1 << (precision - j)
    return odd, even


def test_mod1_masks_match_place_definition():
    for precision in range(16, 65):
        mod1 = make_singular_mod1(precision).mod1
        assert (mod1.odd_mask, mod1.even_mask) == _place_masks(precision)
        assert mod1.wrap_mask == (1 << precision) - 1


@pytest.mark.parametrize("precision", [64, 40, 16])
def test_mod1_path_matches_scalar_loop(precision):
    mod1 = make_singular_mod1(precision).mod1
    odd, even = _place_masks(precision)
    rng = substream(5, 1, precision)
    eps = rng.integers(0, 2, size=256, dtype=np.uint8)
    words = rng.integers(0, U64_MAX, size=256, dtype=np.uint64, endpoint=True)
    x = int(words[0]) & mod1.wrap_mask
    path = mod1_chain_path(mod1.odd_mask, mod1.even_mask, mod1.wrap_mask,
                           x, eps, words)
    assert path.dtype == np.uint64
    assert int(path[0]) == x
    for i in range(256):
        mask = odd if eps[i] == 1 else even
        x = (x + (int(words[i]) & mask)) & ((1 << precision) - 1)
        assert int(path[i + 1]) == x
    # a 2-d batch runs along its last axis, one row per path
    x0 = words[:4] & np.uint64(mod1.wrap_mask)
    batch = mod1_chain_path(mod1.odd_mask, mod1.even_mask, mod1.wrap_mask,
                            x0, eps.reshape(4, 64), words.reshape(4, 64))
    assert batch.shape == (4, 65)
    for r in range(4):
        row = mod1_chain_path(mod1.odd_mask, mod1.even_mask, mod1.wrap_mask,
                              int(x0[r]), eps[64 * r:64 * (r + 1)],
                              words[64 * r:64 * (r + 1)])
        assert np.array_equal(batch[r], row)


def test_mod1_float_params_precisions():
    # (shift, scale) of the chain's bits-to-float format: B = 53 is the
    # last precision converted unshifted, B = 54 the first that drops a bit
    for precision, shift, scale in ((64, 11, 2.0 ** -53), (54, 1, 2.0 ** -53),
                                    (53, 0, 2.0 ** -53), (32, 0, 2.0 ** -32)):
        mod1 = make_singular_mod1(precision).mod1
        assert (mod1.shift, mod1.scale) == (shift, scale)


def test_bits_to_float_range():
    for precision in (64, 54, 53):
        top = 2 ** precision - 1
        bits = np.array([0, 1, 2 ** (precision - 1), top], dtype=np.uint64)
        vals = make_singular_mod1(precision).mod1.bits_to_float(bits)
        assert np.all((vals >= 0.0) & (vals < 1.0))
        assert vals[0] == 0.0
        # the lowest bit survives only when B <= 53
        assert vals[1] == (2.0 ** -53 if precision == 53 else 0.0)
        # the top bit is worth exactly one half
        assert vals[2] == 0.5
        # the largest state keeps its leading 53 bits
        assert vals[3] == 1.0 - 2.0 ** -53


def test_finite_sums_counts_first_state(chain):
    # with no steps the replicas stay at their starts and the sums at
    # f(x0)
    cum = chain.kernel.cumulative_rows()
    f = np.array([2.0, -3.0])
    x0 = np.array([0, 1], dtype=np.int64)
    sums, states = _finite_sums_tiled(cum, f, x0, np.empty((0, 2)), 1)
    assert np.array_equal(sums, f[x0])
    assert np.array_equal(states, x0)
