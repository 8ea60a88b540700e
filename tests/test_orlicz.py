"""Exponential Orlicz quasi-norm estimation and the lemmas on top of it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regen_bernstein import (conditional_mean_norm_factor, lemma_bp_bridge,
                             moment_bound, product_norm_bound,
                             psi_alpha_via_psi1, psi_norm_empirical,
                             quasi_triangle, tail_conditional, tail_from_norm)
from regen_bernstein._rng import substream

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def test_constant_ln2_norm_is_one():
    est = psi_norm_empirical(np.full(100, LN2), 1.0)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_constant_norm_closed_form():
    # E exp(K / c) = 2 solves to c = K / ln 2
    for k in (0.5, 1.0, 7.25):
        est = psi_norm_empirical(np.full(64, k), 1.0)
        assert est.value == pytest.approx(k / LN2, rel=1e-8)


def test_two_point_norm_closed_form():
    # (1 + exp(K/c)) / 2 = 2 solves to c = K / ln 3
    k = 3.0
    samples = np.array([0.0, k] * 500)
    est = psi_norm_empirical(samples, 1.0)
    assert est.value == pytest.approx(k / LN3, rel=1e-8)


def test_all_zero_samples():
    est = psi_norm_empirical(np.zeros(10), 1.0)
    assert est.value == 0.0
    assert est.exp_moment(np.zeros(10)) == 1.0


def test_exponential_norm_is_two():
    # E exp(X / c) = c / (c - 1) = 2 at c = 2 for Exp(1)
    x = substream(100, 3, 0).exponential(size=1_000_000)
    est = psi_norm_empirical(x, 1.0)
    assert abs(est.value - 2.0) < 0.05
    assert est.exp_moment(x) == pytest.approx(2.0, rel=1e-6)


def test_norm_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        psi_norm_empirical(np.array([]), 1.0)
    with pytest.raises(ValueError, match="finite"):
        psi_norm_empirical(np.array([1.0, np.inf]), 1.0)
    with pytest.raises(ValueError, match="alpha"):
        psi_norm_empirical(np.ones(3), 1.5)


def test_bp_identity_routes_agree():
    # computing the alpha-norm directly and through the psi_1 norm of
    # |X|^alpha must coincide, they solve the same equation
    x = substream(101, 3, 0).exponential(size=20_000)
    for alpha in (1.0, 0.5, 0.3):
        direct = psi_norm_empirical(x, alpha).value
        via = psi_alpha_via_psi1(x, alpha)
        assert via == pytest.approx(direct, rel=2e-2)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=50.0),
       st.integers(min_value=0, max_value=1000))
def test_norm_scale_equivariance(scale, seed):
    x = substream(seed, 3, 1).exponential(size=256)
    base = psi_norm_empirical(x, 1.0).value
    scaled = psi_norm_empirical(scale * x, 1.0).value
    assert scaled == pytest.approx(scale * base, rel=1e-6)


def test_bridge_factors():
    assert lemma_bp_bridge(3.0, 1.0) == pytest.approx(3.0)
    assert lemma_bp_bridge(1.0, 0.5) == pytest.approx(1.0 / LN2)
    # frozen arithmetic value of (1/ln2)^((1-alpha)/alpha) at alpha=1/2
    assert lemma_bp_bridge(1.0, 0.5) == pytest.approx(1.4426950408889634)


def test_bridge_dominates_empirically():
    x = substream(102, 3, 0).exponential(size=50_000)
    norm1 = psi_norm_empirical(x, 1.0).value
    for alpha in (0.5, 0.75):
        assert psi_norm_empirical(x, alpha).value <= \
            lemma_bp_bridge(norm1, alpha) * (1.0 + 1e-9)


def test_product_norm_bound():
    assert product_norm_bound(2.0, 3.0, 2.0, 2.0) == 6.0
    with pytest.raises(ValueError, match="conjugate"):
        product_norm_bound(1.0, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        product_norm_bound(1.0, 1.0, 1.0, 2.0)


def test_quasi_triangle_values():
    assert quasi_triangle(1.0, 0.0, 0.7) == pytest.approx(1.0)
    assert quasi_triangle(1.0, 1.0, 0.5) == pytest.approx(4.0)
    assert quasi_triangle(3.0, 4.0, 1.0) == pytest.approx(7.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.05, max_value=1.0))
def test_quasi_triangle_envelope(a, b, alpha):
    val = quasi_triangle(a, b, alpha)
    cap = 2.0 ** (1.0 / alpha - 1.0) * (a + b)
    assert val <= cap * (1.0 + 1e-12)
    assert val >= max(a, b) * (1.0 - 1e-12)


def test_triangle_inequality_alpha_one_empirical():
    rng = substream(103, 3, 0)
    x = rng.exponential(size=40_000)
    y = rng.exponential(size=40_000)
    nx = psi_norm_empirical(x, 1.0).value
    ny = psi_norm_empirical(y, 1.0).value
    assert psi_norm_empirical(x + y, 1.0).value <= (nx + ny) * (1.0 + 1e-6)


def test_conditional_factors():
    tight, loose = conditional_mean_norm_factor(1.0)
    assert tight == pytest.approx(1.0)
    assert loose == pytest.approx(2.0)
    tight_h, loose_h = conditional_mean_norm_factor(0.5)
    assert tight_h == pytest.approx((1.0 / LN2) ** 2)
    assert tight_h == pytest.approx(2.0813689810056077)
    assert loose_h == pytest.approx(16.0)
    for alpha in np.linspace(0.1, 1.0, 19):
        t, l = conditional_mean_norm_factor(float(alpha))
        assert t <= l * (1.0 + 1e-12)


def test_moment_bound_values():
    assert moment_bound(1.0, 2.0) == pytest.approx(2.0)
    assert moment_bound(1.0, 0.5) == pytest.approx(math.sqrt(math.pi))
    assert moment_bound(3.0, 1.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        moment_bound(1.0, 0.0)


def test_moment_bound_dominates_exponential():
    # Exp(1) has psi_1 norm exactly 2; its beta-moments are Gamma(beta+1)
    x = substream(104, 3, 0).exponential(size=200_000)
    for beta in (0.5, 1.0, 1.5, 2.0, 3.0):
        emp = float(np.mean(x ** beta))
        assert emp <= moment_bound(2.0, beta)
        assert math.gamma(beta + 1.0) <= moment_bound(2.0, beta)


def test_tail_from_norm():
    at_zero = tail_from_norm(1.0, 1.0, 0.0)
    assert at_zero.value == 1.0 and at_zero.raw == 2.0
    assert "vacuous" in at_zero.flags
    half = tail_from_norm(1.0, 1.0, math.log(4.0))
    assert half.value == pytest.approx(0.5)
    # domination against the exact Exp(1) tail e^-t with norm 2
    for t in np.linspace(0.0, 20.0, 21):
        assert math.exp(-t) <= float(tail_from_norm(2.0, 1.0, t)) + 1e-15


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_tails_at_norm_zero(alpha):
    # the norm-zero limits: the whole coefficient at t = 0, 0 above
    assert tail_from_norm(0.0, alpha, 0.0).raw == 2.0
    assert tail_conditional(0.0, alpha, 0.0).raw == 6.0
    for t in (5e-324, 1.0, 1e300):
        assert tail_from_norm(0.0, alpha, t).raw == 0.0
        assert tail_conditional(0.0, alpha, t).raw == 0.0


def test_tail_conditional_regimes():
    below = tail_conditional(1.0, 1.0, 1.0)
    assert below.value == 1.0 and below.raw == 1.0
    # the trivial bound 1 is vacuous like every other raw value >= 1
    assert below.flags == ("t below validity threshold", "vacuous")
    at_two = tail_conditional(1.0, 1.0, 2.0)
    assert at_two.value == 1.0
    assert at_two.raw == pytest.approx(6.0 * math.exp(-1.0))
    assert "vacuous" in at_two.flags
    valid = tail_conditional(1.0, 1.0, 8.0)
    assert valid.value == pytest.approx(6.0 * math.exp(-4.0))
    assert valid.flags == ()
