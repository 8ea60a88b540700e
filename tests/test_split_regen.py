"""Split-chain simulation, regeneration blocks, excursions, decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regen_bernstein import (GuardError, block_decompose, count_regenerations,
                             excursions, extract_blocks, functional_values,
                             gap_lengths, make_singular_mod1, make_two_state,
                             regeneration_times, resolve_functional,
                             sample_path, simulate_split, split_measure,
                             trajectory_summary, trajectory_to_csv,
                             write_json)
from regen_bernstein import split_regen
from regen_bernstein.split_regen import SplitTrajectory
from regen_bernstein._rng import TAG_SPLIT, substream


def _rng(seed, idx=0):
    return substream(seed, TAG_SPLIT, idx)


def test_n_below_m_rejected():
    chain = make_singular_mod1()
    with pytest.raises(ValueError, match="n < m"):
        simulate_split(chain, "pi", 1, _rng(0))
    # point starts outside the state space are rejected the same way
    two_state = make_two_state(0.5, 0.5)
    for bad_chain, x0 in ((two_state, -1), (two_state, 5), (chain, 1.5),
                          (chain, -0.25)):
        with pytest.raises(ValueError, match="out of range|0, 1"):
            simulate_split(bad_chain, x0, 8, _rng(0))
        with pytest.raises(ValueError, match="out of range|0, 1"):
            simulate_split(bad_chain, ("point", x0), 8, _rng(0))
        with pytest.raises(ValueError, match="out of range|0, 1"):
            sample_path(bad_chain, x0, 8, _rng(0))


def test_atom_regenerates_at_every_visit():
    # delta = 1 with an atom at 0 means every block start at state 0 is
    # a regeneration
    chain = make_two_state(0.5, 0.5)
    traj = simulate_split(chain, "pi", 500, _rng(1))
    at_zero = np.flatnonzero(traj.states == 0)
    assert np.array_equal(traj.sigma, at_zero)
    assert np.array_equal(traj.levels, (traj.states == 0).astype(np.uint8))


def test_gap_law_geometric():
    chain = make_two_state(0.5, 0.5)
    traj = simulate_split(chain, "pi", 60_000, _rng(2))
    gaps = gap_lengths(traj)
    assert gaps.min() >= 1
    se = gaps.std(ddof=1) / math.sqrt(gaps.size)
    assert abs(gaps.mean() - 2.0) < 4.0 * se
    # geometric(1/2) frequencies at the first few values
    for g, p in ((1, 0.5), (2, 0.25), (3, 0.125)):
        freq = float(np.mean(gaps == g))
        assert abs(freq - p) < 4.0 * math.sqrt(p * (1 - p) / gaps.size)


def test_levels_constant_within_mod1_blocks():
    chain = make_singular_mod1()
    traj = simulate_split(chain, "pi", 2000, _rng(3))
    assert traj.m == 2
    lev = traj.levels[: (len(traj) // 2) * 2].reshape(-1, 2)
    assert np.all(lev[:, 0] == lev[:, 1])
    assert np.all(traj.sigma % 2 == 0)


def test_mod1_random_start_matches_integer_replay():
    # a drawn start keeps every bit of its word: replay the start word,
    # then the coins, then the words with plain Python integers
    chain = make_singular_mod1()
    mod1 = chain.mod1
    u64_max = np.iinfo(np.uint64).max
    n = 24
    for seed in range(6):
        traj = simulate_split(chain, "pi", n, _rng(seed))
        rng = _rng(seed)
        x = int(rng.integers(0, u64_max, dtype=np.uint64, endpoint=True))
        x &= mod1.wrap_mask
        eps = rng.integers(0, 2, size=n, dtype=np.uint8)
        words = rng.integers(0, u64_max, size=n, dtype=np.uint64,
                             endpoint=True)
        bits = [x]
        for e, w in zip(eps[:-1], words[:-1]):
            mask = mod1.odd_mask if e == 1 else mod1.even_mask
            x = (x + (int(w) & mask)) & mod1.wrap_mask
            bits.append(x)
        assert np.array_equal(
            traj.states, mod1.bits_to_float(np.array(bits, dtype=np.uint64)))
        assert np.array_equal(traj.levels, np.repeat(eps[0::2] != eps[1::2], 2))


def test_mod1_level_frequency_half():
    # delta * pi(C) = 1/2 * 1, the block-start level-1 frequency
    chain = make_singular_mod1()
    traj = simulate_split(chain, "pi", 100_000, _rng(4))
    starts = np.arange(0, len(traj), 2)
    freq = float(traj.levels[starts].mean())
    se = math.sqrt(0.25 / starts.size)
    assert abs(freq - 0.5) < 4.0 * se


def test_stationary_level_frequency_two_state():
    chain = make_two_state(0.5, 0.5, delta=0.5)
    traj = simulate_split(chain, "pi", 100_000, _rng(5))
    freq = float(traj.levels.mean())
    target = chain.delta * chain.pi_small_set()
    se = math.sqrt(target * (1 - target) / len(traj))
    assert abs(freq - target) < 4.0 * se


def test_split_measure_whole_space():
    chain = make_two_state(0.3, 0.4)
    from regen_bernstein import MinorizationSpec
    spec = MinorizationSpec(small_set=np.array([True, True]), m=1, delta=1.0,
                            nu=np.array([0.5, 0.5]))
    mu = np.array([0.6, 0.4])
    sm = split_measure(mu, spec)
    assert np.allclose(sm.level1, mu)
    assert np.allclose(sm.level0, 0.0)


def test_split_measure_atom_quarter():
    chain = make_two_state(0.5, 0.5, delta=0.5)
    sm = split_measure(chain.pi_vector(), chain.minorization)
    assert sm.mass([True, False], 1) == pytest.approx(0.25)
    assert sm.level0.sum() + sm.level1.sum() == pytest.approx(1.0)


def test_split_measure_zero_mass_small_set():
    from regen_bernstein import MinorizationSpec
    spec = MinorizationSpec(small_set=np.array([True, False]), m=1, delta=1.0,
                            nu=np.array([1.0, 0.0]))
    sm = split_measure(np.array([0.0, 1.0]), spec)
    assert sm.level1.sum() == 0.0


def test_centered_excursion_mean_vanishes():
    chain = make_two_state(0.5, 0.5)
    traj = simulate_split(chain, "pi", 80_000, _rng(6))
    f = resolve_functional(chain, "indicator_centered")
    chi = excursions(traj, f.values)
    assert chi.size > 1000
    se = chi.std(ddof=1) / math.sqrt(chi.size)
    assert abs(chi.mean()) < 4.0 * se


def test_excursions_match_python_loop():
    chain = make_two_state(0.3, 0.6)
    traj = simulate_split(chain, 0, 400, _rng(7))
    f = resolve_functional(chain, "identity_centered").values
    chi = excursions(traj, f)
    sigma = traj.sigma
    vals = f[traj.states]
    manual = []
    for i in range(len(sigma) - 1):
        lo, hi = sigma[i] + 1, sigma[i + 1] + 1
        if hi <= len(traj):
            manual.append(vals[lo:hi].sum())
    assert np.allclose(chi, manual, rtol=0, atol=1e-12)


def test_blocks_partition_trajectory():
    chain = make_two_state(0.4, 0.5)
    traj = simulate_split(chain, "nu", 300, _rng(8))
    blocks = extract_blocks(traj)
    assert blocks, "expected at least one complete block"
    assert blocks[0].start == 0
    for left, right in zip(blocks, blocks[1:]):
        assert left.stop == right.start
    assert blocks[-1].stop == traj.sigma[len(blocks) - 1] + traj.m


def test_count_regenerations_definition():
    chain = make_two_state(0.5, 0.5)
    traj = simulate_split(chain, "pi", 200, _rng(9))
    for n in (50, 100, 200):
        assert count_regenerations(traj, n) == int(np.sum(traj.sigma < n - 1))
    with pytest.raises(ValueError):
        count_regenerations(traj, 201)


def test_no_regeneration_flagged():
    traj = SplitTrajectory(states=np.array([1, 1, 1, 1]),
                           levels=np.zeros(4, dtype=np.uint8), m=1)
    assert traj.no_regeneration
    assert regeneration_times(traj).size == 0
    summary = trajectory_summary(traj)
    assert "no regeneration observed" in summary["flags"]


def test_levels_varying_within_block_rejected():
    with pytest.raises(ValueError, match="constant within"):
        SplitTrajectory(states=np.zeros(4), levels=np.array([1, 0, 0, 0],
                        dtype=np.uint8), m=2)


def test_extend_to_regeneration_covers_horizon():
    chain = make_two_state(0.5, 0.5, delta=0.3)
    n = 120
    traj = simulate_split(chain, "pi", n, _rng(10), extend_to_regeneration=True)
    assert len(traj) >= n
    assert traj.sigma.size > 0
    assert traj.sigma.max() >= n - traj.m
    # the trajectory stops right at the end of that covering block
    assert len(traj) == traj.sigma.max() + traj.m


def test_extend_guard_trips(monkeypatch):
    monkeypatch.setattr(split_regen, "_MAX_BLOCKS", 8)
    chain = make_two_state(0.5, 0.5, delta=0.01)
    with pytest.raises(GuardError, match="no regeneration"):
        simulate_split(chain, "pi", 64, _rng(11), extend_to_regeneration=True)


def test_guard_trips_before_drawing(monkeypatch):
    # a request past the block limit raises before it draws anything (a
    # point start draws nothing either)
    monkeypatch.setattr(split_regen, "_MAX_BLOCKS", 8)
    rng = _rng(12)
    before = rng.bit_generator.state
    with pytest.raises(GuardError, match="within 8 blocks"):
        simulate_split(make_two_state(0.5, 0.5), 0, 64, rng)
    assert rng.bit_generator.state == before


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.2, max_value=1.0),
       st.integers(min_value=0, max_value=10_000))
def test_decomposition_identity_property(a, b, delta, seed):
    chain = make_two_state(a, b, delta=delta)
    n = 64
    traj = simulate_split(chain, "pi", n, _rng(seed, 1),
                          extend_to_regeneration=True)
    f = resolve_functional(chain, "indicator_centered").values
    dec = block_decompose(traj, f, n)
    direct = float(f[traj.states[:n]].sum())
    assert dec.direct_sum == pytest.approx(direct, abs=1e-12)
    scale = max(1.0, abs(direct))
    assert dec.max_abs_error() <= 1e-10 * scale
    assert dec.count == count_regenerations(traj, n)


def test_decomposition_requires_m_divides_n():
    chain = make_singular_mod1()
    traj = simulate_split(chain, "pi", 40, _rng(12), extend_to_regeneration=True)
    f = resolve_functional(chain, "cos2pi")
    with pytest.raises(ValueError, match="m"):
        block_decompose(traj, f.fn, 39)


def test_mod1_decomposition_identity():
    chain = make_singular_mod1()
    n = 400
    traj = simulate_split(chain, "pi", n, _rng(13), extend_to_regeneration=True)
    f = resolve_functional(chain, "cos2pi")
    dec = block_decompose(traj, f.fn, n)
    assert dec.max_abs_error() <= 1e-10 * max(1.0, abs(dec.direct_sum))


def test_functional_values_named_and_tabulated():
    chain = make_two_state(0.5, 0.5)
    traj = simulate_split(chain, 0, 50, _rng(14))
    by_name = functional_values(chain, traj, "indicator_centered")
    table = resolve_functional(chain, "indicator_centered").values
    assert np.array_equal(by_name, table[traj.states])


def test_trajectory_csv_and_summary(tmp_path):
    chain = make_two_state(0.5, 0.5)
    traj = simulate_split(chain, "pi", 64, _rng(15))
    path = str(tmp_path / "traj.csv")
    trajectory_to_csv(traj, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape[0] == 64
    assert np.array_equal(rows[:, 1].astype(np.int64), traj.states)
    assert np.array_equal(rows[:, 2].astype(np.uint8), traj.levels)
    summary = trajectory_summary(traj, resolve_functional(
        chain, "indicator_centered").values)
    assert summary["n"] == 64
    assert summary["n_regenerations"] == len(traj.sigma)


def test_write_json_deterministic(tmp_path):
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    payload = {"b": 1, "a": [1.5, 2.5], "nested": {"z": 0, "y": 1}}
    write_json(payload, p1)
    write_json(payload, p2)
    t1 = open(p1).read()
    assert t1 == open(p2).read()
    assert t1.endswith("\n")
    assert t1.index('"a"') < t1.index('"b"')
