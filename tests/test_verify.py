"""Tail estimation, domination verdicts, structure checks, reports.

Anchors are hand-enumerated: two-state path sums over tiny horizons,
the Geometric(1/2) gap law of the fully atomic symmetric chain, and
its psi_1 gap norm 1 / log(4/3).
"""

import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import regen_bernstein.exact as exact_mod
import regen_bernstein.verify as verify_mod
from regen_bernstein import (
    BernsteinParams,
    ChainInstance,
    Functional,
    GuardError,
    MinorizationSpec,
    SplitTrajectory,
    TailCurve,
    TransitionKernel,
    block_structure_tests,
    bound_curves,
    chain_from_dict,
    check_block_markov,
    check_block_structure,
    check_domination,
    check_pitman,
    collect_excursions,
    count_regenerations,
    exact_gap_distribution,
    exact_gap_psi1,
    exact_regeneration_count_tail,
    exact_tail,
    fit_bernstein_params,
    make_singular_mod1,
    make_two_state,
    mc_tail,
    psi_norm_empirical,
    report_to_dict,
    resolve_functional,
    run_verification,
    simulate_split,
    stationary_distribution,
    two_block_factor,
    two_block_sup_tail,
    write_curves_csv,
)
from regen_bernstein import split_regen
from regen_bernstein._kernels import finite_split_path
from regen_bernstein._rng import (TAG_FIT_FIRST_BLOCK, TAG_PITMAN, TAG_TAIL,
                                  TAG_TWO_BLOCK, substream)
from regen_bernstein.chain_models import resolve_start


def close(got, want, rel=1e-12):
    return got == pytest.approx(want, rel=rel, abs=1e-300)


# ---------------------------------------------------------------------------
# TailCurve and domination verdicts
# ---------------------------------------------------------------------------


def test_tail_curve_validation():
    good = TailCurve(t=[1.0, 2.0], estimate=[0.5, 0.25], se=None,
                     provenance="enumeration", n=4)
    assert len(good) == 2
    with pytest.raises(ValueError, match="empty"):
        TailCurve(t=[], estimate=[], se=None, provenance="enumeration", n=4)
    with pytest.raises(ValueError, match="strictly increasing"):
        TailCurve(t=[2.0, 1.0], estimate=[0.5, 0.5], se=None,
                  provenance="enumeration", n=4)
    with pytest.raises(ValueError, match="align"):
        TailCurve(t=[1.0, 2.0], estimate=[0.5], se=None,
                  provenance="enumeration", n=4)
    with pytest.raises(ValueError, match="lie in"):
        TailCurve(t=[1.0], estimate=[1.5], se=None,
                  provenance="enumeration", n=4)
    with pytest.raises(ValueError, match="non-increasing"):
        TailCurve(t=[1.0, 2.0], estimate=[0.25, 0.5], se=None,
                  provenance="enumeration", n=4)
    with pytest.raises(ValueError, match="provenance"):
        TailCurve(t=[1.0], estimate=[0.5], se=None, provenance="guess", n=4)
    with pytest.raises(ValueError, match="non-negative"):
        TailCurve(t=[1.0], estimate=[0.5], se=[-0.1],
                  provenance="monte_carlo", n=4, replicas=1000)


def test_domination_verdicts():
    tail = TailCurve(t=[1.0, 2.0], estimate=[0.5, 0.25], se=None,
                     provenance="enumeration", n=4)
    ok = check_domination(tail, [1.0, 1.0])
    assert ok.passed and ok.n_points == 2
    bad = check_domination(tail, [0.4, 0.3])
    assert not bad.passed
    assert close(bad.worst_margin, -0.1, rel=1e-9)
    assert bad.worst_t == 1.0
    with pytest.raises(ValueError, match="grid mismatch"):
        check_domination(tail, [1.0])
    with pytest.raises(ValueError, match="non-negative"):
        check_domination(tail, [1.0, 1.0], z=-1.0)


def test_domination_uses_se_band():
    tail = TailCurve(t=[1.0], estimate=[0.5], se=[0.05],
                     provenance="monte_carlo", n=4, replicas=1000)
    assert check_domination(tail, [0.36], z=3.0).passed
    assert not check_domination(tail, [0.34], z=3.0).passed


# ---------------------------------------------------------------------------
# exact tails
# ---------------------------------------------------------------------------


def test_exact_tail_two_step_by_hand():
    # from state 0 the two equally likely paths (0,0) and (0,1) give
    # centered sums -1 and 0
    chain = make_two_state(0.5, 0.5)
    curve = exact_tail(chain, "indicator_centered", 0, 2,
                       [0.0, 0.5, 1.0, 2.0])
    assert curve.provenance == "enumeration"
    assert curve.se is None
    assert np.allclose(curve.estimate, [0.5, 0.5, 0.0, 0.0], atol=0.0)


def test_exact_tail_binomial_horizon_four():
    # ones among X_1..X_3 are Binomial(3, 1/2); |sum| > 0.5 misses only
    # the middle count and |sum| > 1.5 needs all zeros
    chain = make_two_state(0.5, 0.5)
    curve = exact_tail(chain, "indicator_centered", 0, 4, [0.5, 1.5])
    assert close(curve.estimate[0], 5.0 / 8.0)
    assert close(curve.estimate[1], 1.0 / 8.0)


def test_exact_tail_fraction_route_matches_lattice_route():
    # f / 3 has non-dyadic-looking denominators past the lattice cap,
    # forcing the rational DP; thresholds scale by the same factor
    chain = make_two_state(0.5, 0.5)
    q = 0.5 / 3.0
    assert float(q).as_integer_ratio()[1] > 2 ** 40
    lattice = exact_tail(chain, np.array([-0.5, 0.5]), 0, 6, [0.5, 1.5])
    fractions = exact_tail(chain, np.array([-q, q]), 0, 6, [q, 3.0 * q])
    assert np.array_equal(lattice.estimate, fractions.estimate)


def test_exact_tail_fraction_route_with_float_rows():
    # 0.7 + 0.3 is not exactly 1 as rationals, and pi = (2/3, 1/3)
    # centers the indicator off the lattice, so the rational DP runs;
    # it must agree with brute-force enumeration of all 2^7 paths
    chain = make_two_state(0.3, 0.6)
    f = resolve_functional(chain, "indicator_centered").values
    assert float(f[0]).as_integer_ratio()[1] > 2 ** 40
    n, grid = 8, [0.0, 0.5, 1.0, 2.0, 3.0]
    want = np.zeros(len(grid))
    for tail in itertools.product((0, 1), repeat=n - 1):
        path = (0,) + tail
        prob = math.prod(chain.kernel.matrix[x, y]
                         for x, y in zip(path, path[1:]))
        total = abs(sum(f[x] for x in path))
        want += prob * (total > np.asarray(grid))
    got = exact_tail(chain, "indicator_centered", 0, n, grid).estimate
    assert np.abs(got - want).max() < 1e-12


def test_exact_tail_vanishes_past_range():
    chain = make_two_state(0.5, 0.5)
    curve = exact_tail(chain, "indicator_centered", 0, 5, [2.5, 10.0])
    assert np.array_equal(curve.estimate, [0.0, 0.0])


def test_exact_tail_guards():
    chain = make_two_state(0.5, 0.5)
    # the lattice DP costs (n - 1) * k^2 * width = 8e10 at n = 10^5
    with pytest.raises(GuardError, match="lattice cost guard"):
        exact_tail(chain, "indicator_centered", 0, 100_000, [1.0])
    # the rational route (non-dyadic f) is guarded on its modelled cost:
    # it runs at n = 27 and refuses n = 200 before the first step
    rational = make_two_state(0.3, 0.6)
    curve = exact_tail(rational, "indicator_centered", 0, 27, [0.0, 1.0, 3.0])
    assert np.all(np.diff(curve.estimate) <= 0.0)
    start = time.perf_counter()
    with pytest.raises(GuardError, match="rational tail DP cost"):
        exact_tail(rational, "indicator_centered", 0, 200, [1.0])
    assert time.perf_counter() - start < 1.0
    for x0 in (-1, 5):
        with pytest.raises(ValueError, match="initial state .* out of range"):
            exact_tail(chain, "indicator_centered", x0, 4, [1.0])
    with pytest.raises(ValueError, match="at least 1"):
        exact_tail(chain, "indicator_centered", 0, 0, [1.0])
    with pytest.raises(ValueError, match="non-negative"):
        exact_tail(chain, "indicator_centered", 0, 4, [-1.0])
    with pytest.raises(ValueError, match="finite"):
        exact_tail(make_singular_mod1(), "cos2pi", 0, 4, [1.0])


# ---------------------------------------------------------------------------
# Monte Carlo tails
# ---------------------------------------------------------------------------


def test_mc_tail_matches_exact_tail():
    chain = make_two_state(0.5, 0.5)
    grid = [0.5, 1.5, 2.5]
    want = exact_tail(chain, "indicator_centered", 0, 8, grid).estimate
    got = mc_tail(chain, "indicator_centered", 0, 8, grid, 20000, seed=5)
    band = 4.0 * got.se + 1e-9
    assert np.all(np.abs(got.estimate - want) <= band)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.25, 0.25)])
def test_mc_tail_matches_exact_tail_at_long_horizons(a, b):
    # every grid count is an exact two-sided binomial test against the
    # exact tail, Bonferroni-corrected over the grid; at n = 1000 the
    # 4000-replica chunk spans several kernel tiles
    chain = make_two_state(a, b)
    for n in (100, 1000):
        grid = np.linspace(0.0, 3.0 * math.sqrt(n), 25)
        p = exact_tail(chain, "indicator_centered", 0, n, grid).estimate
        got = mc_tail(chain, "indicator_centered", 0, n, grid, 4000, seed=11)
        counts = np.rint(got.estimate * 4000)
        level = 1e-6 / (2 * grid.size)
        low = stats.binom.cdf(counts, 4000, p)
        high = stats.binom.sf(counts - 1, 4000, p)
        assert np.all((low >= level) & (high >= level)), (n, counts, p)


def test_mc_tail_deterministic_and_chunk_invariant(monkeypatch):
    chain = make_two_state(0.5, 0.5)
    grid = [0.5, 1.5]
    one = mc_tail(chain, "indicator_centered", "pi", 8, grid, 1200, seed=7)
    two = mc_tail(chain, "indicator_centered", "pi", 8, grid, 1200, seed=7)
    assert np.array_equal(one.estimate, two.estimate)
    monkeypatch.setattr(verify_mod, "_CHUNK_ROWS", 300)
    chunked = mc_tail(chain, "indicator_centered", "pi", 8, grid, 1200,
                      seed=7)
    threaded = mc_tail(chain, "indicator_centered", "pi", 8, grid, 1200,
                       seed=7, threads=3)
    assert np.array_equal(one.estimate, chunked.estimate)
    assert np.array_equal(one.estimate, threaded.estimate)
    # the mod-1 chain and the two-block factors share the same driver
    mod1 = make_singular_mod1()
    runs = (
        lambda **kw: mc_tail(mod1, "cos2pi", "pi", 8, [0.5, 2.0], 1200,
                             seed=7, **kw),
        lambda **kw: mc_tail(mod1, "cos2pi", 0.25, 8, [0.5, 2.0], 1200,
                             seed=7, **kw),
        lambda **kw: two_block_sup_tail("product", "uniform", 8, [0.5, 1.5],
                                        1200, seed=7, **kw),
    )
    for run in runs:
        chunked = run()
        threaded = run(threads=3)
        monkeypatch.setattr(verify_mod, "_CHUNK_ROWS", 8192)
        whole = run()
        monkeypatch.setattr(verify_mod, "_CHUNK_ROWS", 300)
        assert np.array_equal(whole.estimate, chunked.estimate)
        assert np.array_equal(whole.estimate, threaded.estimate)
        assert np.array_equal(whole.se, threaded.se)


def test_chunk_rows_rule():
    # whole blocks, at most 8192 rows and a thread's share rounded up
    # to whole blocks
    rule = verify_mod._chunk_rows
    assert rule(4000, 1) == 4096
    assert rule(4000, 2) == 2048  # two chunks, one per thread
    assert rule(4000, 3) == 1536
    assert rule(100000, 1) == 8192
    assert rule(1000, 7) == 256


def test_tail_counts_do_not_depend_on_threads_chunks_or_tiles(monkeypatch):
    # threads 1, 2 and 3, chunks of 256, 300 (cut to 256) and 8192 rows
    # and step tiles of 1 and 7 steps and the default: the same counts
    two = make_two_state(0.3, 0.6)
    mod1 = make_singular_mod1()
    runs = (
        lambda threads: mc_tail(two, "indicator_centered", "pi", 40,
                                np.linspace(0.0, 8.0, 17), 1000, seed=5,
                                threads=threads),
        lambda threads: mc_tail(mod1, "cos2pi", "pi", 40,
                                np.linspace(0.0, 8.0, 17), 1000, seed=5,
                                threads=threads),
    )
    want = [run(1).estimate for run in runs]
    tiles = (lambda rows, steps: 1, lambda rows, steps: 7,
             verify_mod._step_tile)
    for threads, rows, tile in itertools.product((1, 2, 3), (256, 300, 8192),
                                                 tiles):
        with monkeypatch.context() as patch:
            patch.setattr(verify_mod, "_CHUNK_ROWS", rows)
            patch.setattr(verify_mod, "_step_tile", tile)
            for run, estimate in zip(runs, want):
                assert np.array_equal(run(threads).estimate, estimate), \
                    (threads, rows, tile)


def _chunk_statistics(monkeypatch, run):
    # the statistic of every replica, in replica order, read where the
    # driver counts it, with one block per chunk
    seen = []

    def counts(stat, t):
        seen.append(np.array(stat))
        return tail_counts(stat, t)

    tail_counts = verify_mod._tail_counts
    monkeypatch.setattr(verify_mod, "_tail_counts", counts)
    monkeypatch.setattr(verify_mod, "_CHUNK_ROWS", 256)
    run()
    monkeypatch.undo()
    return np.concatenate(seen)


def test_one_block_reproduced_from_its_substream(monkeypatch):
    # block b of 256 replicas (here the short last one, 232 replicas of
    # 1000) follows from substream(seed, tag, b) alone: its starts, then
    # its moves (finite chains: step-major, one uniform per replica for
    # each step in turn; mod-1: replica-major)
    seed, n, rows = 12, 9, 1000 - 768
    two = make_two_state(0.3, 0.6)
    mod1 = make_singular_mod1()
    moves = mod1.mod1
    finite = resolve_functional(two, "indicator_centered")
    centred = resolve_functional(mod1, "identity_centered")

    got = _chunk_statistics(monkeypatch, lambda: mc_tail(
        two, finite, "pi", n, [1.0], 1000, seed))
    rng = substream(seed, TAG_TAIL, 3)
    x0 = [resolve_start(two, "pi").draw(rng) for _ in range(rows)]
    steps = [rng.random(rows) for _ in range(n - 1)]
    want = []
    for r, x in enumerate(x0):
        path = two.kernel.cumulative_rows(), x, [u[r] for u in steps]
        total = 0.0
        for state in verify_mod._kernels.finite_chain_path(*path):
            total += finite.values[state]
        want.append(total)
    assert np.array_equal(got[768:], want)

    got = _chunk_statistics(monkeypatch, lambda: mc_tail(
        mod1, centred, "pi", n, [1.0], 1000, seed))
    rng = substream(seed, TAG_TAIL, 3)
    x0 = [resolve_start(mod1, "pi").draw(rng) for _ in range(rows)]
    eps, words = moves.draw_moves(rng, (rows, n - 1))
    want = []
    for x, e, w in zip(x0, eps, words):
        total = 0.0
        for value in centred.apply(moves.bits_to_float(moves.path(x, e, w))):
            total += value
        want.append(total)
    assert np.array_equal(got[768:], want)

    got = _chunk_statistics(monkeypatch, lambda: two_block_sup_tail(
        "product", "normal", n, [1.0], 1000, seed))
    rng = substream(seed, TAG_TWO_BLOCK, 1 + 3)
    want = []
    for _ in range(rows):
        xi = rng.standard_normal(n + 1)
        want.append(np.abs(np.cumsum(xi[:-1] * xi[1:])).max())
    assert np.array_equal(got[768:], want)

    for chain in (two, mod1):
        blocks = list(verify_mod._first_blocks(chain, "nu", 1000, seed, 4, 1))
        states, levels, sigma0 = blocks[3]
        runs = _reference_split(chain, "nu", chain.m, substream(seed, 4, 1, 3),
                                True, rows)
        assert np.array_equal(states, np.concatenate([r.states for r in runs]))
        assert np.array_equal(levels, np.concatenate([r.levels for r in runs]))
        assert np.array_equal(sigma0, [r.sigma[0] for r in runs])


def test_tails_do_not_depend_on_tiles(monkeypatch):
    # the replica kernels' step tiles and the two-block statistic's row
    # tiles change how the work is cut, never what is drawn
    chain = make_two_state(0.3, 0.6)
    mod1 = make_singular_mod1()
    runs = [
        lambda: mc_tail(chain, "indicator_centered", "pi", 300,
                        np.linspace(0.0, 30.0, 31), 1000, seed=2),
        lambda: mc_tail(mod1, "cos2pi", "pi", 40, np.linspace(0.0, 8.0, 17),
                        1000, seed=2),
    ] + [
        lambda law=law: two_block_sup_tail(
            "difference", law, 50, np.linspace(0.0, 4.0, 21), 1000, seed=2)
        for law in ("uniform", "normal", "exponential", "rademacher")]
    want = [run().estimate for run in runs]
    for owner, name, value in ((verify_mod, "_STEP_TILE_FLOATS", 1),
                               (verify_mod, "_STEP_TILE_FLOATS", 700),
                               (verify_mod._kernels, "_MOD1_TILE_STATES", 1),
                               (verify_mod._kernels, "_MOD1_TILE_STATES", 123),
                               (verify_mod, "_TWO_BLOCK_TILE_FLOATS", 1),
                               (verify_mod, "_TWO_BLOCK_TILE_FLOATS", 150),
                               (verify_mod, "_TWO_BLOCK_TILE_FLOATS", 1 << 30)):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, value)
            for run, estimate in zip(runs, want):
                assert np.array_equal(run().estimate, estimate), (name, value)


@pytest.mark.parametrize("n", [2000, 20000])
def test_mc_tail_finite_memory_is_one_tile(n):
    # a finite chunk holds one step tile of _STEP_TILE_FLOATS uniforms
    # (1 MB) and a block's share of it, whatever n is; replica-major
    # buffers would take 16 MB and 160 MB at these n
    chain = make_two_state(0.3, 0.6)
    tracemalloc.start()
    try:
        mc_tail(chain, "indicator_centered", "pi", n, [1.0], 1000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile = 8 * verify_mod._STEP_TILE_FLOATS
    assert peak < tile + tile // 2, peak


@pytest.mark.parametrize("chain, n, replicas", [
    (make_two_state(0.25, 0.25, delta=1.0), 10000, 4000),
    (make_two_state(0.5, 0.5), 100, 32768),
])
def test_mc_tail_finite_memory_is_cache_sized(chain, n, replicas):
    # the verify-long and verify-wide shapes stay under 2 MB: a 1 MB
    # step tile, the chunk's states and sums, and the tail counts
    tracemalloc.start()
    try:
        mc_tail(chain, "indicator_centered", "pi", n, [1.0], replicas, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_mc_tail_mod1_memory_is_one_block():
    # a mod-1 chunk draws and sums one block of 256 replicas at a time:
    # one block's moves (a coin and a word per move) bound the peak,
    # not a chunk's (1000 replicas, 18 MB here)
    chain = make_singular_mod1()
    n = 2000
    tracemalloc.start()
    try:
        mc_tail(chain, "cos2pi", "pi", n, [1.0], 1000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    moves = 256 * (n - 1) * 9
    assert peak < moves + moves // 2, peak


def test_mc_tail_mod1_curve():
    chain = make_singular_mod1()
    curve = mc_tail(chain, "cos2pi", "pi", 16, [0.5, 2.0, 6.0], 2000, seed=9)
    assert curve.replicas == 2000
    assert curve.estimate[0] >= curve.estimate[-1]
    assert np.all(curve.estimate <= 1.0)


def test_mc_tail_guards():
    chain = make_two_state(0.5, 0.5)
    with pytest.raises(ValueError, match="1000 replicas"):
        mc_tail(chain, "indicator_centered", 0, 8, [1.0], 500, seed=0)
    with pytest.raises(ValueError, match="unknown init"):
        mc_tail(chain, "indicator_centered", "bogus", 8, [1.0], 1000, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        mc_tail(chain, "indicator_centered", 7, 8, [1.0], 1000, seed=0)


def _no_draw(*args):
    raise AssertionError("drew a substream")


@pytest.mark.parametrize("threads", [0, -3])
def test_replicated_tail_rejects_threads_below_one(monkeypatch, threads):
    # rejected before any replica is drawn, not run serially
    monkeypatch.setattr(verify_mod, "substream", _no_draw)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        mc_tail(make_two_state(0.5, 0.5), "indicator_centered", "pi", 8,
                [1.0], 1000, seed=0, threads=threads)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        two_block_sup_tail("product", "uniform", 8, [1.0], 1000, seed=0,
                           threads=threads)


@pytest.mark.parametrize("code", [7, None])
def test_mc_tail_mod1_rejects_unknown_codes(monkeypatch, code):
    # a functional given as a bare code, not a name, is an error before
    # any replica is drawn, never the indicator's tail
    monkeypatch.setattr(verify_mod, "substream", _no_draw)
    with pytest.raises(ValueError, match="need a finite chain"):
        mc_tail(make_singular_mod1(), code, "pi", 8, [1.0, 3.0], 1000, seed=0)


def test_mc_tail_mod1_rejects_a_functional_without_fn(monkeypatch):
    # a functional with no evaluator on float states is an error before
    # any replica is drawn
    monkeypatch.setattr(verify_mod, "substream", _no_draw)
    f = Functional(name="custom", values=np.array([0.5, -0.5]))
    with pytest.raises(ValueError, match="no evaluator on mod-1 states"):
        mc_tail(make_singular_mod1(), f, "pi", 8, [1.0, 3.0], 1000, seed=0)


def test_mc_tail_mod1_guards_a_blocks_moves(monkeypatch):
    # a block's moves take 9 * 256 * (n - 1) bytes, 2.3 GB at n = 10^6:
    # rejected before any replica is drawn
    monkeypatch.setattr(verify_mod, "substream", _no_draw)
    with pytest.raises(GuardError, match="mod-1 move guard"):
        mc_tail(make_singular_mod1(), "cos2pi", "pi", 10 ** 6, [1.0], 1000,
                seed=0)


# ---------------------------------------------------------------------------
# exact regeneration counts and the gap law
# ---------------------------------------------------------------------------


def test_regen_count_tail_atomic_by_hand():
    # delta = 1: every small-set visit regenerates, so N > 1 over
    # horizon 3 needs X_1 = 0 back-to-back with the forced start regen
    chain = make_two_state(0.5, 0.5, delta=1.0)
    assert close(exact_regeneration_count_tail(chain, 3, 0, init=0), 1.0)
    assert close(exact_regeneration_count_tail(chain, 3, 1, init=0), 0.5)
    assert exact_regeneration_count_tail(chain, 3, 5, init=0) == 0.0


def test_regen_count_tail_split_by_hand():
    # delta = 1/2 halves each regeneration chance: P(N > 0) = 5/8 and
    # P(N > 1) = 1/8 from the two-step block DP
    chain = make_two_state(0.5, 0.5, delta=0.5)
    assert close(exact_regeneration_count_tail(chain, 3, 0, init=0), 5.0 / 8.0)
    assert close(exact_regeneration_count_tail(chain, 3, 1, init=0), 1.0 / 8.0)


def test_regen_count_tail_non_dyadic_rows():
    # 0.7 + 0.3 is not exactly 1 as a rational; with delta = 1 every
    # visit to 0 at times 0..8 regenerates, so enumerate the 2^9 paths
    a, b = 0.3, 0.6
    p = np.array([[1.0 - a, a], [b, 1.0 - b]])
    want = 0.0
    for tail in itertools.product((0, 1), repeat=9):
        path = (0,) + tail
        prob = math.prod(p[x, y] for x, y in zip(path, path[1:]))
        if path[:9].count(0) > 2:
            want += prob
    got = exact_regeneration_count_tail(make_two_state(a, b), 10, 2, init=0)
    assert abs(got - want) < 1e-12


def _check_count_tail_by_simulation(chain, n, threshold, stream):
    # the exact count tail lies within 4 SE of 4000 simulated replicas
    replicas = 4000
    want = exact_regeneration_count_tail(chain, n, threshold, init=0)
    hits = 0
    for r in range(replicas):
        traj = simulate_split(chain, 0, n, substream(17, stream, r),
                              extend_to_regeneration=True)
        hits += count_regenerations(traj, n) > threshold
    got = hits / replicas
    se = math.sqrt(want * (1.0 - want) / replicas)
    assert abs(got - want) <= 4.0 * se


def test_regen_count_tail_matches_simulation():
    _check_count_tail_by_simulation(make_two_state(0.5, 0.5, delta=0.5),
                                    8, 2, 3)


def _three_state(m):
    # dyadic rows with P^m >= delta nu on C = {0, 1} for m = 2 and 3
    return chain_from_dict({
        "matrix": [[0.5, 0.25, 0.25], [0.125, 0.375, 0.5],
                   [0.25, 0.5, 0.25]],
        "small_set": [1, 1, 0], "m": m, "delta": 0.5,
        "nu": [0.25, 0.5, 0.25]})


@pytest.mark.parametrize("m", [2, 3])
def test_block_kernel_exact_matches_float(m):
    chain = _three_state(m)
    spec = chain.minorization
    b0, u, _ = exact_mod._block_kernel(chain)
    b0_exact, u_exact, _ = exact_mod._block_kernel(chain, exact=True)
    assert b0_exact.dtype == object and np.all(b0_exact >= 0)
    assert np.max(np.abs(b0 - b0_exact.astype(np.float64))) <= 1e-15
    assert np.array_equal(u, u_exact.astype(np.float64))
    pm = np.linalg.matrix_power(chain.kernel.matrix, m)
    assert np.allclose(b0 + np.outer(u, spec.nu), pm, rtol=0.0, atol=1e-15)


def test_exact_gap_law_at_m2():
    chain = _three_state(2)
    gaps, probs, remaining = exact_gap_distribution(chain)
    assert np.all(gaps % 2 == 0) and remaining < 1e-14
    assert close(float(gaps @ probs), chain.mean_gap(), rel=1e-9)
    d = exact_gap_psi1(chain)
    assert abs(float(probs @ np.exp(gaps / d)) - 2.0) <= 1e-6


def test_regen_count_tail_matches_simulation_at_m2():
    _check_count_tail_by_simulation(_three_state(2), 12, 2, 4)


def test_regen_count_tail_guards():
    chain = make_two_state(0.5, 0.5)
    with pytest.raises(ValueError, match="at least m"):
        exact_regeneration_count_tail(chain, 0, 1)
    with pytest.raises(ValueError, match="non-negative"):
        exact_regeneration_count_tail(chain, 4, -1)
    with pytest.raises(ValueError, match="unknown init"):
        exact_regeneration_count_tail(chain, 4, 1, init="maybe")
    with pytest.raises(ValueError, match="finite"):
        exact_regeneration_count_tail(make_singular_mod1(), 4, 1)


def test_regen_count_tail_cost_guard():
    # on non-dyadic rows the rationals grow by about 107 bits a block:
    # 399 blocks of 2^2 * 122 operations on 668-word integers
    chain = make_two_state(0.3, 0.6, delta=0.5)
    start = time.perf_counter()
    with pytest.raises(GuardError, match="count guard"):
        exact_regeneration_count_tail(chain, 400, 120)
    assert time.perf_counter() - start < 1.0


def test_integer_growth_counts_at_least_one_word():
    # integers that never grow past 0 bits still cost a word an operation
    with pytest.raises(GuardError, match="count guard"):
        exact_mod._check_integer_growth("x", 10 ** 8, 1, 0, 0.0, 1e7)
    # on one state every mass is 1: 9999 blocks of 10^4 + 2 count slots
    # and, with f = 0.1 (off the lattice), 2 * 10^7 rational steps
    one = chain_from_dict({"matrix": [[1.0]], "small_set": [1], "m": 1,
                           "delta": 1.0, "nu": [1.0]})
    start = time.perf_counter()
    with pytest.raises(GuardError, match="count guard"):
        exact_regeneration_count_tail(one, 10 ** 4, 10 ** 4)
    with pytest.raises(GuardError, match="rational tail DP cost"):
        exact_tail(one, np.array([0.1]), 0, 2 * 10 ** 7, [1.0])
    assert time.perf_counter() - start < 1.0


def test_exact_gap_distribution_geometric():
    chain = make_two_state(0.5, 0.5, delta=1.0)
    gaps, probs, remaining = exact_gap_distribution(chain)
    assert gaps[0] == 1 and np.all(np.diff(gaps) == 1)
    for g in range(20):
        assert close(probs[g], 0.5 ** (g + 1))
    assert remaining < 1e-14
    mean = float(gaps @ probs)
    assert close(mean, chain.mean_gap(), rel=1e-9)


def test_exact_gap_distribution_needs_finite():
    with pytest.raises(ValueError, match="finite"):
        exact_gap_distribution(make_singular_mod1())


def test_exact_gap_psi1_geometric_anchor():
    # Geometric(1/2) gaps solve E exp(gap / c) = 2 at c = 1 / log(4/3)
    chain = make_two_state(0.5, 0.5, delta=1.0)
    assert close(exact_gap_psi1(chain), 1.0 / math.log(4.0 / 3.0), rel=1e-10)


def test_exact_gap_psi1_matches_empirical_norm():
    chain = make_two_state(0.5, 0.5, delta=0.5)
    want = exact_gap_psi1(chain)
    _, gaps = collect_excursions(chain, "indicator_centered", 20000, 19)
    got = psi_norm_empirical(gaps, 1.0).value
    assert abs(got - want) <= 0.08 * want


# ---------------------------------------------------------------------------
# block structure tests
# ---------------------------------------------------------------------------


def test_structure_tests_iid_control_passes():
    rng = np.random.default_rng(23)
    gaps = rng.geometric(0.5, size=5000)
    chi = rng.standard_normal(5000)
    report = block_structure_tests(gaps, {"noise": chi}, lags=5,
                                   expected_mean_gap=2.0)
    assert report.passed
    assert report.n_gaps == 5000
    lag1 = [r for r in report.results if r.name == "noise_acf_lag1"]
    assert len(lag1) == 1 and not lag1[0].tested
    assert any(r.name == "mean_gap" and r.tested for r in report.results)


def test_structure_tests_flag_lag2_correlation():
    rng = np.random.default_rng(24)
    z = rng.standard_normal(5002)
    chi = z[:-2] + z[2:]
    gaps = rng.geometric(0.5, size=5000)
    report = block_structure_tests(gaps, {"ma2": chi}, lags=4)
    bad = [r for r in report.results if r.name == "ma2_acf_lag2"]
    assert len(bad) == 1 and not bad[0].passed
    assert not report.passed


def test_structure_tests_guards():
    gaps = np.ones(500)
    with pytest.raises(ValueError, match="1000 gaps"):
        block_structure_tests(gaps, {})
    full = np.ones(2000)
    with pytest.raises(ValueError, match="level"):
        block_structure_tests(full, {}, level=0.7)
    with pytest.raises(ValueError, match="lags"):
        block_structure_tests(full, {}, lags=0)
    with pytest.raises(ValueError, match="1000 excursions"):
        block_structure_tests(full, {"short": np.ones(10)})
    # a lag at or past the sample length has no pairs to correlate
    gaps = np.random.default_rng(25).geometric(0.5, size=2000)
    for lags in (2000, 3000):
        with pytest.raises(ValueError, match="lags must be below the number"):
            block_structure_tests(gaps, {}, lags=lags)
    with pytest.raises(ValueError, match="lags must be below the length"):
        block_structure_tests(gaps, {"chi": np.ones(1500)}, lags=1500)
    assert block_structure_tests(gaps, {}, lags=1999).lags == 1999


@pytest.mark.parametrize("n", [500, 5000, 10000, 10452, 50000])
def test_ks_two_sample_matches_scipy_exact_bitwise(n):
    # geometric (tied) samples under the null and two alternatives, then
    # identical samples (D = 0, p = 1) and separated ones (D = 1, p = 0)
    rng = np.random.default_rng(n)
    x = rng.geometric(0.5, size=n).astype(np.float64)
    pairs = [(x, rng.geometric(q, size=n).astype(np.float64))
             for q in (0.5, 0.49, 0.4)]
    pairs += [(x, x.copy()), (x, x + x.max())]
    for a, b in pairs:
        got = verify_mod._ks_two_sample_equal(a, b)
        want = stats.ks_2samp(a, b, method="exact")
        assert got == (float(want.statistic), float(want.pvalue))
    assert verify_mod._ks_two_sample_equal(x, x) == (0.0, 1.0)
    # full separation: one lattice path in C(2n, n) on each side
    d, p = verify_mod._ks_two_sample_equal(x, x + x.max())
    assert d == 1.0
    assert p == pytest.approx(2 / math.comb(2 * n, n), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("level", [0.01, 1e-5])
@pytest.mark.parametrize("lags", [1, 4, 5, 9, 10])
def test_structure_bands_match_normal_quantile(level, lags):
    rng = np.random.default_rng(26)
    n = 4000
    report = block_structure_tests(rng.geometric(0.5, size=n),
                                   {"chi": rng.standard_normal(n)},
                                   lags=lags, level=level)
    by_name = {r.name: r for r in report.results}
    z_gap = stats.norm.ppf(1.0 - 0.5 * level / lags)
    z_exc = stats.norm.ppf(1.0 - 0.5 * level / max(lags - 1, 1))
    r1 = by_name["chi_acf_lag1"].statistic
    for got, want in (
            (by_name["gap_acf_lag1"].threshold, z_gap / math.sqrt(n)),
            (by_name["chi_acf_lag1"].threshold,
             z_exc * math.sqrt(1.0 + 2.0 * r1 * r1) / math.sqrt(n))):
        assert abs(got - want) <= 4 * np.spacing(want)


def test_check_block_structure_two_state():
    chain = make_two_state(0.5, 0.5, delta=0.5)
    report = check_block_structure(chain, n_blocks=4000, lags=5, seed=29)
    assert report.passed
    assert abs(report.mean_gap - chain.mean_gap()) <= 4.0 * report.mean_gap_se


# ---------------------------------------------------------------------------
# occupation identity and conditional block-Markov identity
# ---------------------------------------------------------------------------


def test_pitman_level_is_exact():
    chain = make_two_state(0.5, 0.5, delta=0.5)
    res = check_pitman(chain, "level", replicas=500, seed=31)
    assert res.passed
    assert res.lhs == 1.0 and res.rhs == 1.0 and res.se == 0.0


def test_pitman_one_and_state_indicators():
    chain = make_two_state(0.5, 0.5, delta=0.5)
    res_one = check_pitman(chain, "one", replicas=3000, seed=33)
    assert res_one.passed
    assert close(res_one.rhs, 1.0 / (0.5 * 0.5))
    for target, weight in ((0, 0.5), (1, 0.5)):
        res = check_pitman(chain, ("state", target), replicas=3000, seed=33)
        assert res.passed
        assert close(res.rhs, weight / (0.5 * 0.5))


def test_pitman_mod1_level():
    chain = make_singular_mod1()
    res = check_pitman(chain, "level", replicas=300, seed=35)
    assert res.passed and res.rhs == 1.0
    with pytest.raises(ValueError, match="finite chain"):
        check_pitman(chain, ("state", 0), replicas=300)


def test_pitman_guards():
    chain = make_two_state(0.5, 0.5)
    with pytest.raises(ValueError, match="100 replicas"):
        check_pitman(chain, "one", replicas=50)
    with pytest.raises(ValueError, match="unknown G"):
        check_pitman(chain, "nope", replicas=200)
    # a state indicator names a state index, as a point start does
    with pytest.raises(ValueError, match="not a state index"):
        check_pitman(chain, ("state", 0.5), replicas=200)
    with pytest.raises(ValueError, match="out of range"):
        check_pitman(chain, ("state", 2), replicas=200)
    assert check_pitman(chain, ("state", 1.0), replicas=200, seed=3) == \
        check_pitman(chain, ("state", 1), replicas=200, seed=3)


def test_block_markov_identity_holds():
    chain = make_two_state(0.5, 0.5, delta=1.0)
    res = check_block_markov(chain, n=6)
    assert res.passed and res.routes_agree
    assert abs(res.constant) <= 1e-14
    assert res.max_deviation <= 1e-12
    assert res.n_contexts == 5
    assert res.n_histories == 31


def test_block_markov_counts_split_branches():
    # delta < 1 doubles the history count at every small-set visit, so
    # the identity must hold over strictly more conditioning events
    chain = make_two_state(0.5, 0.5, delta=0.5)
    res = check_block_markov(chain, n=6)
    assert res.passed
    assert res.n_histories > 31


def test_block_markov_guards():
    with pytest.raises(ValueError, match="finite chain"):
        check_block_markov(make_singular_mod1())
    from regen_bernstein import chain_from_dict
    two_step = chain_from_dict({
        "states": [0, 1], "matrix": [[0.5, 0.5], [0.5, 0.5]],
        "small_set": [1, 0], "m": 2, "delta": 1.0, "nu": [0.5, 0.5],
        "name": "two-step-atom"})
    with pytest.raises(ValueError, match="one-step"):
        check_block_markov(two_step)
    chain = make_two_state(0.5, 0.5)
    with pytest.raises(ValueError, match="at least 2"):
        check_block_markov(chain, n=1)
    # the history counts cost (n - 1) k^2 big-integer additions, not k^n
    assert check_block_markov(chain, n=27).passed
    assert check_block_markov(chain, n=10 ** 4).passed
    with pytest.raises(GuardError, match="count guard"):
        check_block_markov(chain, n=10 ** 6)


def test_block_markov_uses_the_simulated_post_regeneration_law():
    # r(0, .) = (1, 1/2) does not split off delta nu = (1/4, 1/4): the
    # simulator regenerates into P(0, .) r(0, .) normalized = (2/3, 1/3).
    # chain_from_dict rejects such an r, so the chain is built directly.
    kernel = TransitionKernel(matrix=np.array([[0.5, 0.5], [0.5, 0.5]]))
    spec = MinorizationSpec(small_set=np.array([True, False]), m=1, delta=0.5,
                            nu=np.array([0.5, 0.5]),
                            r=np.array([[1.0, 0.5], [0.0, 0.0]]))
    chain = ChainInstance(kernel=kernel, minorization=spec,
                          stationary=stationary_distribution(kernel))
    res = check_block_markov(chain, n=6)
    assert res.routes_agree and not res.passed
    assert res.max_deviation > 0.1
    # the two-state chains' split regenerates into nu exactly
    for a, b, delta in ((0.5, 0.5, 1.0), (0.5, 0.5, 0.5), (0.25, 0.25, 1.0)):
        res = check_block_markov(make_two_state(a, b, delta=delta), n=6)
        assert res.passed and res.max_deviation == 0.0


# ---------------------------------------------------------------------------
# first-regeneration runs in lockstep
# ---------------------------------------------------------------------------

_LOCKSTEP_CHAINS = {
    "three-m2": lambda: _three_state(2),
    "three-m3": lambda: _three_state(3),
    # sigma_0 reaches past 129 blocks: two or more extension requests
    "two-state-slow": lambda: make_two_state(0.1, 0.1, delta=0.05),
    "mod1-64": lambda: make_singular_mod1(64),
    "mod1-16": lambda: make_singular_mod1(16),
}


def _reference_split(chain, init, n, rng, extend, rows=None):
    # the split chain in plain Python, one request at a time for the rows
    # still running, all drawing from rng: every row's start, then
    # ceil(n / m) blocks, then requests of max(128, 2 * previous) blocks
    # (at most 65536) until a level-1 block starts at or after n - m. A
    # request takes the running rows in groups of split_regen's
    # _GROUP_STATES // (blocks * m) rows (at least one); a group draws
    # each of its rows' state uniforms, then each one's level uniforms
    # (on the mod-1 chain all their coins, then all their words).
    # rows=None is one run, returned as a trajectory; otherwise a list
    # of rows runs
    m = chain.m
    mod1 = chain.mod1
    spec = chain.minorization
    start = resolve_start(chain, init)
    states = [[start.draw(rng)] for _ in range(rows or 1)]
    levels = [[] for _ in states]
    running = list(range(len(states)))
    blocks = -(-n // m)
    while running:
        size = max(1, split_regen._GROUP_STATES // (blocks * m))
        for group in (running[lo:lo + size]
                      for lo in range(0, len(running), size)):
            if mod1 is None:
                state_u = [rng.random(blocks * m) for _ in group]
                level_u = [rng.random(blocks) for _ in group]
                paths = [finite_split_path(
                    chain.kernel.cumulative_rows(),
                    np.asarray(spec.small_set, dtype=bool),
                    np.asarray(spec.r, dtype=np.float64), m, states[i][-1],
                    su, lu)
                    for i, su, lu in zip(group, state_u, level_u)]
            else:
                eps, words = mod1.draw_moves(rng, (len(group), blocks * m))
                paths = [(mod1.path(states[i][-1], e, w),
                          [e[2 * k] != e[2 * k + 1] for k in range(blocks)])
                         for i, e, w in zip(group, eps, words)]
            for i, (path, block_levels) in zip(group, paths):
                states[i] += path[1:].tolist()
                levels[i] += [int(v) for v in block_levels]
        if not extend:
            break
        running = [i for i in running
                   if not any(v and k * m >= n - m for k, v in enumerate(levels[i]))]
        blocks = min(max(128, 2 * blocks), 65536)
    runs = []
    for run_states, run_levels in zip(states, levels):
        hits = [k * m for k, v in enumerate(run_levels) if v and k * m >= n - m]
        stop = hits[0] + m if extend else n
        per_state = [v for v in run_levels for _ in range(m)]
        run_states = (np.array(run_states[:stop], dtype=np.int64) if mod1 is None
                      else mod1.bits_to_float(np.array(run_states[:stop],
                                                       dtype=np.uint64)))
        runs.append(SplitTrajectory(
            states=run_states, levels=np.array(per_state[:stop], dtype=np.uint8),
            m=m))
    return runs if rows is not None else runs[0]


def _block_runs(chain, init, replicas, seed, *path):
    # first-regeneration runs, one shared generator per block of 256
    return [run for block, lo in enumerate(range(0, replicas, 256))
            for run in _reference_split(chain, init, chain.m,
                                        substream(seed, *path, block), True,
                                        min(256, replicas - lo))]


@pytest.mark.parametrize("extend", [False, True])
@pytest.mark.parametrize("name", sorted(_LOCKSTEP_CHAINS) + ["two-state"])
def test_simulate_split_matches_reference(name, extend):
    # one-generator runs at m = 1, 2, 3 and on the mod-1 chain, over
    # horizons that m does not divide; the generator ends where the
    # reference leaves it
    chain = (make_two_state(0.3, 0.6) if name == "two-state"
             else _LOCKSTEP_CHAINS[name]())
    point = ("point", 0.3 if chain.mod1 is not None else 1)
    for n, init in itertools.product([chain.m, 37, 1000], ["pi", point]):
        rng, ref_rng = substream(8, n, 0), substream(8, n, 0)
        got = simulate_split(chain, init, n, rng, extend_to_regeneration=extend)
        want = _reference_split(chain, init, n, ref_rng, extend)
        assert got.states.dtype == want.states.dtype
        assert np.array_equal(got.states, want.states), (n, init)
        assert np.array_equal(got.levels, want.levels), (n, init)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("group_states", [1 << 17, 64])
@pytest.mark.parametrize("init", ["nu", "pi", "point"])
@pytest.mark.parametrize("name", sorted(_LOCKSTEP_CHAINS))
def test_first_regenerations_match_simulate_split(monkeypatch, name, init,
                                                  group_states):
    # first-regeneration runs (n = m) of a block of replicas in lockstep
    # equal the reference's runs from the same generator, with every
    # request in one group of rows or (64 states a group) in many
    monkeypatch.setattr(split_regen, "_GROUP_STATES", group_states)
    chain = _LOCKSTEP_CHAINS[name]()
    if init == "point":
        init = ("point", 0.3 if chain.mod1 is not None else 1)
    rows = 256 if name == "two-state-slow" else 150
    rng, ref_rng = substream(21, 5, 0), substream(21, 5, 0)
    want = _reference_split(chain, init, chain.m, ref_rng, True, rows)
    states, levels, lengths = split_regen._split_runs(
        chain, resolve_start(chain, init), rng, rows, chain.m)
    want_states = np.concatenate([run.states for run in want])
    want_levels = np.concatenate([run.levels for run in want])
    assert states.dtype == want_states.dtype
    assert levels.dtype == want_levels.dtype and lengths.dtype == np.int64
    assert np.array_equal(states, want_states)
    assert np.array_equal(levels, want_levels)
    assert np.array_equal(lengths, [len(run) for run in want])
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if name == "two-state-slow":
        assert lengths.max() >= 130


@pytest.mark.parametrize("name", sorted(_LOCKSTEP_CHAINS))
def test_lockstep_runs_at_a_horizon_match_reference(name):
    # several replicas past a horizon of many blocks: in the first
    # request a level-1 block counts only from the one starting at n - m
    chain = _LOCKSTEP_CHAINS[name]()
    n, rows = 37, 60
    want = _reference_split(chain, "pi", n, substream(6, 0), True, rows)
    states, levels, lengths = split_regen._split_runs(
        chain, resolve_start(chain, "pi"), substream(6, 0), rows, n)
    assert np.array_equal(states, np.concatenate([run.states for run in want]))
    assert np.array_equal(levels, np.concatenate([run.levels for run in want]))
    assert np.array_equal(lengths, [len(run) for run in want])
    assert any(run.sigma[0] < n - chain.m for run in want)


def test_first_regenerations_guard(monkeypatch):
    monkeypatch.setattr(split_regen, "_MAX_BLOCKS", 8)
    chain = make_two_state(0.5, 0.5, delta=0.01)
    with pytest.raises(GuardError,
                       match="no regeneration covering the horizon within 8 blocks"):
        split_regen._split_runs(chain, resolve_start(chain, "pi"),
                                substream(1, 2, 0), 50, chain.m)


def _pitman_by_replica(chain, g_spec, replicas, seed):
    g_fn, _ = verify_mod._pitman_g(chain, g_spec)
    totals = np.empty(replicas)
    for r, run in enumerate(_block_runs(chain, "nu", replicas, seed,
                                        TAG_PITMAN)):
        starts = np.arange(0, run.sigma[0] + 1, chain.m)
        totals[r] = np.asarray(g_fn(run.states[starts], run.levels[starts]),
                               dtype=np.float64).sum()
    return float(totals.mean()), float(totals.std(ddof=1) / math.sqrt(replicas))


def _first_block_norms_by_replica(chain, f, x_star, replicas, seed):
    fspec = resolve_functional(chain, f)
    norms = []
    for offset, init in enumerate((("point", x_star), "pi")):
        runs = _block_runs(chain, init, replicas, seed, TAG_FIT_FIRST_BLOCK,
                           offset)
        # each run's block sums totalled by the reduction the fit uses
        totals = [np.add.reduceat(np.abs(fspec.apply(run.states).reshape(
            -1, chain.m).sum(axis=1)), [0])[0] for run in runs]
        sigma0 = [float(run.sigma[0]) for run in runs]
        norms += [psi_norm_empirical(np.array(totals), 1.0).value,
                  psi_norm_empirical(np.array(sigma0), 1.0).value]
    return norms


@pytest.mark.parametrize("name", sorted(_LOCKSTEP_CHAINS))
def test_pitman_and_fit_match_per_replica_runs(name):
    # two blocks per call, the second one short; every figure equals the
    # reference's block-by-block runs
    chain = _LOCKSTEP_CHAINS[name]()
    g_specs = ["one", "level"] + ([("state", 1)] if chain.is_finite else [])
    for g_spec in g_specs:
        res = check_pitman(chain, g_spec, replicas=300, seed=9)
        assert (res.lhs, res.se) == _pitman_by_replica(chain, g_spec, 300, 9)
    f = "cos2pi" if chain.mod1 is not None else "indicator_centered"
    fitted = fit_bernstein_params(chain, f, n_excursions=200,
                                  n_first_blocks=300, seed=9)
    raw = fitted.diagnostics["raw"]
    assert [raw["a"], raw["sigma0_xstar"], raw["b"], raw["sigma0_pi"]] == \
        _first_block_norms_by_replica(chain, f, fitted.diagnostics["x_star"],
                                      300, 9)


def test_pitman_holds_one_slab_of_generators():
    # 20000 replicas run one block of 256 at a time, from one generator
    # per block: the peak stays under 1 MB
    chain = make_two_state(0.5, 0.5)
    tracemalloc.start()
    try:
        check_pitman(chain, "one", replicas=20000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


# ---------------------------------------------------------------------------
# two-block factors
# ---------------------------------------------------------------------------


def test_two_block_factor_shapes_and_names():
    sample = two_block_factor("product", "rademacher", 64, seed=41)
    assert sample.x.shape == (64,) and sample.xi.shape == (65,)
    assert sample.h_name == "product" and sample.law_name == "rademacher"
    assert set(np.unique(sample.x)) <= {-1.0, 1.0}
    again = two_block_factor("product", "rademacher", 64, seed=41)
    assert np.array_equal(sample.xi, again.xi)


def test_two_block_difference_telescopes():
    sample = two_block_factor("difference", "normal", 128, seed=43)
    partial = np.cumsum(sample.x)
    assert np.allclose(partial, sample.xi[1:] - sample.xi[0], atol=1e-12)


def test_two_block_sup_tail_difference_bounded_by_two():
    # partial sums of the difference factor telescope, so with uniform
    # noise on (-1, 1) the running maximum can never exceed 2
    curve = two_block_sup_tail("difference", "uniform", 50, [1.99, 2.0],
                               1000, seed=45)
    assert curve.estimate[1] == 0.0
    assert curve.estimate[0] <= 0.02


def test_two_block_sup_tail_rademacher_difference_hits_two():
    curve = two_block_sup_tail("difference", "rademacher", 10, [1.5],
                               2000, seed=47)
    want = 1.0 - 0.5 ** 10
    assert abs(curve.estimate[0] - want) <= 4.0 * curve.se[0] + 1e-9


def test_two_block_guards():
    with pytest.raises(ValueError, match="unknown two-block map"):
        two_block_factor("ratio", "normal", 16, seed=0)
    with pytest.raises(ValueError, match="unknown noise law"):
        two_block_factor("product", "cauchy", 16, seed=0)
    with pytest.raises(ValueError, match="positive"):
        two_block_factor("product", "normal", 0, seed=0)
    with pytest.raises(ValueError, match="1000 replicas"):
        two_block_sup_tail("product", "normal", 16, [1.0], 10, seed=0)


@pytest.mark.parametrize("law", [
    lambda rng, size: rng.uniform(-1.0, 1.0, size - 1),  # one value short
    lambda rng, size: rng.uniform(-1.0, 1.0),  # a scalar
])
def test_two_block_noise_law_shape_checked(law):
    # both the single sample and the replicated tail reject a law that
    # does not return size values, rather than summing fewer terms
    with pytest.raises(ValueError, match="asked size"):
        two_block_factor("product", law, 16, seed=0)
    with pytest.raises(ValueError, match="asked size"):
        two_block_sup_tail("product", law, 16, [0.5, 1.0], 1000, seed=0)


@pytest.mark.parametrize("h", [
    lambda u, v: (u * v)[:1],  # the first replica's row, which broadcasts
    lambda u, v: np.sum(u * v),  # a scalar
    lambda u, v: (u * v)[..., :-1],  # one value short
])
def test_two_block_map_shape_checked(h):
    # a map that reduces or broadcasts its pairs is rejected, rather than
    # giving every replica a wrong statistic
    with pytest.raises(ValueError, match="one value per noise pair"):
        two_block_sup_tail(h, "uniform", 16, [0.5, 1.0], 1000, seed=0)
    with pytest.raises(ValueError, match="one value per noise pair"):
        two_block_factor(h, "uniform", 16, seed=0)


# ---------------------------------------------------------------------------
# fitting and assembled reports
# ---------------------------------------------------------------------------


def test_fit_params_shape_and_safety():
    chain = make_two_state(0.5, 0.5, delta=1.0)
    fitted = fit_bernstein_params(chain, "indicator_centered", seed=3,
                                  n_excursions=1500, n_first_blocks=300,
                                  safety=1.2)
    raw = fitted.diagnostics["raw"]
    p = fitted.params
    for key, got in (("a", p.a), ("b", p.b), ("c", p.c), ("d", p.d),
                     ("D", p.D)):
        assert close(got, 1.2 * raw[key], rel=1e-12)
    assert p.D >= p.d - 1e-12
    assert fitted.diagnostics["sigma2_source"] == "exact"
    assert close(p.sigma2_mrv, 0.25)
    # the fitted gap norm should sit near its exact counterpart
    assert abs(raw["d"] - exact_gap_psi1(chain)) <= 0.1 * exact_gap_psi1(chain)


def test_fit_params_given_sigma2_and_guards():
    chain = make_two_state(0.5, 0.5)
    fitted = fit_bernstein_params(chain, "indicator_centered", seed=3,
                                  n_excursions=200, n_first_blocks=100,
                                  sigma2=0.3)
    assert fitted.params.sigma2_mrv == 0.3
    assert fitted.diagnostics["sigma2_source"] == "given"
    with pytest.raises(ValueError, match="safety"):
        fit_bernstein_params(chain, "indicator_centered", safety=0.9)
    with pytest.raises(ValueError, match="at least 100"):
        fit_bernstein_params(chain, "indicator_centered", n_excursions=50)


def test_bound_curves_formula_handling():
    params = BernsteinParams(a=1.0, b=1.0, c=1.0, d=2.0, alpha=1.0,
                             sigma2_mrv=0.25, delta=0.5, pi_C=0.5, m=1)
    curves = bound_curves(params, 64, [1.0, 4.0], formulas=("thm_bi",))
    assert set(curves) == {"thm_bi"}
    assert curves["thm_bi"].values.shape == (2,)
    with pytest.raises(ValueError, match="unknown formula"):
        bound_curves(params, 64, [1.0], formulas=("thm_zz",))
    with pytest.raises(ValueError, match="needs f_sup and D"):
        bound_curves(params, 64, [1.0], formulas=("thm_sbi",))


def test_run_verification_exact_report():
    chain = make_two_state(0.5, 0.5, delta=0.5)
    report = run_verification(
        chain, "indicator_centered", n=12, t_grid=np.linspace(0.5, 6.0, 8),
        seed=3, exact=True,
        fit_options={"n_excursions": 1500, "n_first_blocks": 300})
    assert report.passed
    assert set(report.verdicts) == {"thm_bi", "thm_bi2", "thm_sbi"}
    assert report.tail.provenance == "enumeration"
    assert report.functional == "indicator_centered"


@pytest.mark.parametrize("chain, kwargs, message", [
    (make_two_state(0.5, 0.5), {"formulas": ("thm_bi", "bogus")},
     "unknown formula"),
    (make_two_state(0.5, 0.5), {"z": -1.0}, "z must be non-negative"),
    (make_two_state(0.5, 0.5), {"p": 0.0}, "p must be positive"),
    (make_two_state(0.5, 0.5), {"alpha": 2.0}, "alpha must lie in"),
    (make_two_state(0.5, 0.5), {"alpha": 0.0}, "alpha must lie in"),
    (make_two_state(0.5, 0.5), {"fit_options": {"safety": 0.5}},
     "safety must be at least 1"),
    (make_two_state(0.5, 0.5), {"fit_options": {"n_excursions": 10}},
     "at least 100 excursions"),
    (make_singular_mod1(), {"n": 41}, "m | n"),
    (make_singular_mod1(), {"n": 41, "formulas": ("thm_bi2",)}, "m | n"),
    (make_two_state(0.5, 0.5), {"z": math.nan}, "z must be non-negative"),
    (make_two_state(0.5, 0.5), {"z": math.inf}, "z must be non-negative"),
    (make_two_state(0.5, 0.5), {"fit_options": {"safety": math.nan}},
     "safety must be at least 1"),
    (make_two_state(0.5, 0.5), {"fit_options": {"safety": math.inf}},
     "safety must be at least 1"),
    (make_two_state(0.5, 0.5), {"fit_options": {"x_star": 7}},
     "initial state 7 out of range"),
    (make_two_state(0.5, 0.5), {"fit_options": {"x_star": "pi"}},
     "need a point start"),
    (make_two_state(0.5, 0.5), {"fit_options": {"x_star": True}},
     "not a state index"),
    (make_singular_mod1(), {"n": 40, "fit_options": {"x_star": "nu"}},
     "need a point start"),
])
def test_run_verification_checks_arguments_before_drawing(
        monkeypatch, chain, kwargs, message):
    # rejected before the tail (Monte Carlo or exact) and the fit run
    monkeypatch.setattr(verify_mod, "substream", _no_draw)
    f = "cos2pi" if chain.mod1 else "indicator_centered"
    args = dict(n=40, t_grid=[1.0, 2.0], seed=0, replicas=1000)
    args.update(kwargs)
    for exact in {False, chain.is_finite}:
        with pytest.raises(ValueError, match=message):
            run_verification(chain, f, exact=exact, **args)


def test_run_verification_needs_f_sup_for_thm_sbi_before_drawing(
        monkeypatch):
    # a functional without sup_bound, or a given fit without f_sup, has
    # no thm_sbi curve: rejected before the tail and the fit run
    chain = make_two_state(0.5, 0.5)
    bare = Functional(name="bare", values=np.array([0.5, -0.5]))
    params = BernsteinParams(a=1.0, b=1.0, c=1.0, d=2.0, alpha=1.0,
                             sigma2_mrv=0.25, delta=1.0, pi_C=0.5, m=1, D=2.0)
    fitted = verify_mod.FittedParams(params=params, diagnostics={})
    monkeypatch.setattr(verify_mod, "substream", _no_draw)
    args = dict(n=40, t_grid=[1.0, 2.0], seed=0, replicas=1000)
    for f, fit in ((bare, None), ("indicator_centered", fitted)):
        for exact in (False, True):
            with pytest.raises(ValueError, match="thm_sbi needs f_sup"):
                run_verification(chain, f, exact=exact, fitted=fit, **args)


def test_run_verification_checks_only_what_is_used():
    # thm_sbi needs neither p nor m | n, and a given fit needs no fit
    # options: these runs succeed as before
    chain = make_singular_mod1()
    fitted = fit_bernstein_params(chain, "cos2pi", n_excursions=400,
                                  n_first_blocks=200, seed=1)
    report = run_verification(
        chain, "cos2pi", n=41, t_grid=[4.0, 8.0], seed=1, replicas=1000,
        formulas=("thm_sbi",), p=-1.0, alpha=2.0, fitted=fitted,
        fit_options={"safety": 0.5})
    assert set(report.verdicts) == {"thm_sbi"}
    report = run_verification(
        chain, "cos2pi", n=41, t_grid=[4.0, 8.0], seed=1, replicas=1000,
        formulas=(), z=-1.0, fitted=fitted)
    assert report.verdicts == {}


def test_run_verification_monte_carlo_with_structure(tmp_path):
    chain = make_two_state(0.5, 0.5, delta=0.5)
    report = run_verification(
        chain, "indicator_centered", n=64, t_grid=[2.0, 6.0, 12.0],
        seed=3, replicas=2000, structure=True,
        fit_options={"n_excursions": 1500, "n_first_blocks": 300})
    assert report.passed
    assert report.structure is not None and report.structure.passed

    payload = report_to_dict(report)
    text = json.dumps(payload, sort_keys=True, indent=2)
    assert "thm_sbi" in payload["bounds"]
    assert payload["passed"] is True
    assert json.loads(text)["structure"]["n_gaps"] >= 1000

    path = tmp_path / "curves.csv"
    write_curves_csv(report, str(path))
    first = path.read_text()
    write_curves_csv(report, str(path))
    assert path.read_text() == first
    header = first.splitlines()[0].split(",")
    assert header[:3] == ["t", "estimate", "se"]
    assert "bound_thm_bi" in header and "bound_thm_sbi" in header
    assert len(first.splitlines()) == 1 + len(report.tail)
