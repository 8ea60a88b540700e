"""Kernels, stationary laws, minorization checks and the built-in chains."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regen_bernstein import (TransitionKernel, chain_from_dict, load_chain,
                             make_chain, make_singular_mod1, make_two_state,
                             resolve_functional, sample_path, save_chain,
                             stationary_distribution, tv_decay_curve,
                             validate_minorization)
from regen_bernstein._rng import TAG_TV, substream
from regen_bernstein.chain_models import resolve_point, resolve_start


@st.composite
def stochastic_matrices(draw):
    # strictly positive integer weights keep the chain irreducible and
    # aperiodic, so the stationary law is unique
    k = draw(st.integers(min_value=2, max_value=5))
    rows = draw(st.lists(
        st.lists(st.integers(min_value=1, max_value=12), min_size=k, max_size=k),
        min_size=k, max_size=k))
    mat = np.asarray(rows, dtype=np.float64)
    return mat / mat.sum(axis=1, keepdims=True)


def test_two_state_symmetric_stationary():
    pi = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(pi, [0.5, 0.5], atol=1e-14)


def test_two_state_asymmetric_stationary():
    # pi = (b, a) / (a + b), frozen from the hand solve of pi P = pi
    pi = stationary_distribution(np.array([[0.75, 0.25], [0.75, 0.25]]))
    assert np.allclose(pi, [0.75, 0.25], atol=1e-12)


def test_identity_matrix_rejected():
    with pytest.raises(ValueError, match="reducible"):
        stationary_distribution(np.eye(3))


def test_periodic_matrix_rejected():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="periodic"):
        stationary_distribution(flip)


@settings(max_examples=60, deadline=None)
@given(stochastic_matrices())
def test_stationary_fixed_point(mat):
    pi = stationary_distribution(mat)
    assert pi.shape == (mat.shape[0],)
    assert np.all(pi >= 0.0)
    assert abs(pi.sum() - 1.0) < 1e-10
    assert np.abs(pi @ mat - pi).max() < 1e-10


def test_kernel_validation_errors():
    with pytest.raises(ValueError, match="square"):
        TransitionKernel(matrix=np.ones((2, 3)) / 3.0)
    with pytest.raises(ValueError, match="row-sum"):
        TransitionKernel(matrix=np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="nonnegative"):
        TransitionKernel(matrix=np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="square"):
        TransitionKernel(matrix=None)
    two, mod1 = make_two_state(), make_singular_mod1()
    from regen_bernstein import ChainInstance
    for kernel, chain in ((None, None), (two.kernel, mod1.mod1)):
        with pytest.raises(ValueError, match="exactly one"):
            ChainInstance(kernel=kernel, minorization=two.minorization,
                          mod1=chain)


def test_atom_minorization_passes():
    chain = make_two_state(0.5, 0.5)
    report = validate_minorization(chain)
    assert report.mode == "exact"
    assert report.passed
    assert report.margin >= -1e-12


def test_whole_space_minorization_from_column_minima():
    # C = {0, 1}, delta nu = entrywise column minima of P
    chain = make_two_state(0.4, 0.3)
    mat = chain.kernel.matrix
    col_min = mat.min(axis=0)
    delta = float(col_min.sum())
    nu = col_min / delta
    from regen_bernstein import MinorizationSpec
    spec = MinorizationSpec(small_set=np.array([True, True]), m=1,
                            delta=delta, nu=nu)
    report = validate_minorization(chain, spec)
    assert report.passed
    assert report.margin >= -1e-12


def test_mod1_one_step_minorization_refuted():
    chain = make_singular_mod1()
    from regen_bernstein import MinorizationSpec
    spec = MinorizationSpec(small_set=lambda x: True, m=1, delta=0.25,
                            nu="lebesgue")
    report = validate_minorization(chain, spec)
    assert report.mode == "support"
    assert not report.passed
    assert report.margin < 0.0
    assert "witness_bin" in report.detail


def test_mod1_two_step_minorization_by_construction():
    report = validate_minorization(make_singular_mod1())
    assert report.mode == "construction"
    assert report.passed


def test_tv_two_state_symmetric_is_zero():
    chain = make_two_state(0.5, 0.5)
    curve = tv_decay_curve(chain, 0, 4)
    assert curve.mode == "exact"
    assert np.all(curve.tv < 1e-15)


def test_tv_eigenvalue_formula():
    # exact decay |1 - a - b|^n * a / (a + b) from state 0
    a, b = 0.3, 0.5
    chain = make_two_state(a, b)
    curve = tv_decay_curve(chain, 0, 8)
    lam = abs(1.0 - a - b)
    expected = lam ** curve.n * a / (a + b)
    assert np.abs(curve.tv - expected).max() < 1e-12
    for x0 in (-1, 5):
        with pytest.raises(ValueError, match="initial state .* out of range"):
            tv_decay_curve(make_two_state(0.3, 0.6), x0, 2)


def test_finite_point_starts_are_state_indices():
    chain = make_two_state(0.5, 0.5)
    for init in (1, np.int64(1), 1.0, np.float64(1.0), ("point", 1.0)):
        assert resolve_start(chain, init).point == 1
        assert resolve_point(chain, init) == 1
    mod1 = make_singular_mod1()
    # booleans are not states, on either chain
    bools = (True, False, np.True_, np.False_, ("point", True))
    for ch, init in ([(chain, init) for init in (1.5, 0.9, np.float64(0.5),
                                                 ("point", 1.7), float("nan"))]
                     + [(ch, init) for ch in (chain, mod1) for init in bools]):
        with pytest.raises(ValueError, match="not a state index"):
            resolve_start(ch, init)
        with pytest.raises(ValueError, match="not a state index"):
            resolve_point(ch, init)
    # a ("point", x) start takes a state, never a start token
    for ch in (chain, mod1):
        for token in ("pi", "nu", "lebesgue"):
            with pytest.raises(ValueError, match="need a point start"):
                resolve_start(ch, ("point", token))
            with pytest.raises(ValueError, match="need a point start"):
                resolve_point(ch, ("point", token))


def test_tv_sum_one_collapses_immediately():
    chain = make_two_state(0.25, 0.75)
    curve = tv_decay_curve(chain, 0, 3)
    assert np.all(curve.tv < 1e-14)


def test_tv_mod1_matches_integer_replay():
    # replay the same moves with plain Python integers and the same
    # bootstrap stream; the curve must agree bitwise
    chain = make_singular_mod1()
    mod1 = chain.mod1
    replicas, n_max, bins, bootstrap, seed = 1000, 3, 8, 20, 6
    curve = tv_decay_curve(chain, 0.375, n_max, bins=bins, replicas=replicas,
                           seed=seed, bootstrap=bootstrap)
    rng = substream(seed, TAG_TV, 1)
    eps = rng.integers(0, 2, size=(replicas, n_max), dtype=np.uint8)
    words = rng.integers(0, np.iinfo(np.uint64).max, size=(replicas, n_max),
                         dtype=np.uint64, endpoint=True)
    boot_rng = substream(seed, TAG_TV, 2)
    x = [mod1.float_to_bits(0.375)] * replicas
    for i in range(n_max):
        for r in range(replicas):
            mask = mod1.odd_mask if eps[r, i] == 1 else mod1.even_mask
            x[r] = (x[r] + (int(words[r, i]) & mask)) & mod1.wrap_mask
        vals = mod1.bits_to_float(np.array(x, dtype=np.uint64))
        freq = np.bincount((vals * bins).astype(np.int64),
                           minlength=bins) / replicas
        assert curve.tv[i] == 0.5 * float(np.abs(freq - 1.0 / bins).sum())
        boot = boot_rng.multinomial(replicas, freq, size=bootstrap) / replicas
        boot_tv = 0.5 * np.abs(boot - 1.0 / bins).sum(axis=1)
        assert curve.se[i] == float(boot_tv.std(ddof=1))
    assert curve.mode == "binned-lower-bound"


def test_make_two_state_basics():
    chain = make_two_state(0.5, 0.5)
    assert np.allclose(chain.pi_vector(), [0.5, 0.5])
    assert chain.pi_small_set() == pytest.approx(0.5)
    assert chain.mean_gap() == pytest.approx(2.0)
    assert chain.label() == "two-state,a=0.5,b=0.5,delta=1.0"


def test_make_two_state_rejects_degenerate():
    with pytest.raises(ValueError):
        make_two_state(0.0, 0.5)
    with pytest.raises(ValueError):
        make_two_state(0.5, 1.0)
    with pytest.raises(ValueError):
        make_two_state(0.5, 0.5, delta=0.0)


def test_make_chain_dispatch():
    chain = make_chain("two-state", a=0.25, b=0.25)
    assert chain.params["a"] == 0.25
    with pytest.raises(ValueError, match="unknown chain"):
        make_chain("nope")


def test_mean_return_time_to_atom():
    # E(return time to 0) = 1 / pi(0) = 2 by Kac's formula, checked by
    # direct simulation as the independent route
    chain = make_two_state(0.5, 0.5)
    path = sample_path(chain, 0, 400_001, substream(13, 1, 0))
    visits = np.flatnonzero(path == 0)
    gaps = np.diff(visits)
    assert abs(gaps.mean() - 2.0) < 4.0 * gaps.std() / math.sqrt(gaps.size)


def test_sample_path_errors_and_shape():
    chain = make_two_state(0.5, 0.5)
    with pytest.raises(ValueError, match="n >= 1"):
        sample_path(chain, 0, 0, substream(0, 1, 0))
    path = sample_path(chain, 1, 17, substream(0, 1, 0))
    assert path.shape == (17,)
    assert path[0] == 1
    again = sample_path(chain, 1, 17, substream(0, 1, 0))
    assert np.array_equal(path, again)


def test_mod1_path_matches_manual_bit_arithmetic():
    # replay the same randomness through plain Python integer ops
    chain = make_singular_mod1()
    mod1 = chain.mod1
    rng = substream(21, 1, 0)
    n = 50
    path = sample_path(chain, 0.375, n, substream(21, 1, 0))
    eps = rng.integers(0, 2, size=n - 1, dtype=np.uint8)
    words = rng.integers(0, np.iinfo(np.uint64).max, size=n - 1,
                         dtype=np.uint64, endpoint=True)
    bits = mod1.float_to_bits(0.375)
    manual = [mod1.bits_to_float(np.uint64(bits))]
    for e, w in zip(eps, words):
        mask = mod1.odd_mask if e == 1 else mod1.even_mask
        bits = (bits + (int(w) & mask)) & mod1.wrap_mask
        manual.append(mod1.bits_to_float(np.uint64(bits)))
    assert np.array_equal(path, np.asarray(manual))
    assert np.all((path >= 0.0) & (path < 1.0))


def test_mod1_bits_roundtrip():
    chain = make_singular_mod1(precision=32)
    rng = substream(4, 1, 1)
    bits = rng.integers(0, 2 ** 32, size=200, dtype=np.uint64)
    back = np.array([chain.mod1.float_to_bits(chain.mod1.bits_to_float(b))
                     for b in bits], dtype=np.uint64)
    assert np.array_equal(back, bits)


def test_mod1_masks_partition_positions():
    mod1 = make_singular_mod1().mod1
    assert mod1.odd_mask & mod1.even_mask == 0
    assert mod1.odd_mask | mod1.even_mask == mod1.wrap_mask


def test_functionals_centered_exactly():
    for a, b in ((0.5, 0.5), (0.25, 0.25), (0.3, 0.6)):
        chain = make_two_state(a, b)
        pi = chain.pi_vector()
        for name in ("indicator_centered", "identity_centered"):
            f = resolve_functional(chain, name)
            assert abs(float(pi @ f.values)) < 1e-14
            assert f.sup_bound == pytest.approx(float(np.abs(f.values).max()))


def test_functional_tabulated_and_errors():
    chain = make_two_state(0.5, 0.5)
    f = resolve_functional(chain, np.array([1.0, -1.0]))
    assert f.name == "tabulated"
    assert f.sup_bound == 1.0
    with pytest.raises(ValueError):
        resolve_functional(chain, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="unknown functional"):
        resolve_functional(chain, "cos2pi")


def test_mod1_functionals():
    chain = make_singular_mod1()
    f = resolve_functional(chain, "cos2pi")
    assert f.code is not None and f.sup_bound == 1.0
    x = np.array([0.0, 0.25, 0.5])
    assert np.allclose(f.apply(x), np.cos(2.0 * np.pi * x))
    with pytest.raises(ValueError):
        resolve_functional(chain, "not-a-functional")


def test_chain_file_roundtrip(tmp_path):
    chain = make_two_state(0.3, 0.6, delta=0.8)
    path = str(tmp_path / "chain.json")
    save_chain(chain, path)
    loaded = load_chain(path)
    assert np.allclose(loaded.kernel.matrix, chain.kernel.matrix)
    assert loaded.minorization.m == 1
    assert loaded.minorization.delta == pytest.approx(0.8)
    assert np.allclose(loaded.pi_vector(), chain.pi_vector())


def test_chain_from_dict_missing_field():
    with pytest.raises(ValueError, match="misses required field"):
        chain_from_dict({"matrix": [[1.0]]})


def test_chain_from_dict_bad_minorization(tmp_path):
    data = {
        "states": [0, 1],
        "matrix": [[0.5, 0.5], [0.5, 0.5]],
        "small_set": [1, 0],
        "m": 1,
        "delta": 1.0,
        "nu": [1.0, 0.0],  # claims P(0, .) >= point mass at 0, false
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="minorization fails"):
        load_chain(str(path))


def test_chain_from_dict_rejects_inconsistent_r():
    # r(0, .) = (1, 1/2) does not split off delta nu = (1/4, 1/4); the
    # split chain would regenerate into (2/3, 1/3) instead of nu
    with pytest.raises(ValueError, match="chain file r is inconsistent"):
        chain_from_dict({
            "matrix": [[0.5, 0.5], [0.5, 0.5]], "small_set": [1, 0], "m": 1,
            "delta": 0.5, "nu": [0.5, 0.5], "r": [[1.0, 0.5], [0.0, 0.0]]})
