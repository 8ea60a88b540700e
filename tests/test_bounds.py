"""Closed-form bound evaluators against frozen values and a 50-digit oracle.

Each catalogued example carries a literal frozen from a one-off run of
tests/_oracles.py, and the float64 evaluator is additionally compared
against a live mpmath recomputation at 1e-12 relative tolerance, so the
two precision routes stay independent.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as oracle
from regen_bernstein import (BernsteinParams, bbi_constants,
                             classical_bernstein, iid_unbounded, kp_constant,
                             m_cutoff, one_dep_bounded, one_dep_stopped,
                             one_dep_sup, param_bounds_from_drift,
                             psi1_bernstein, random_sum_bound,
                             regen_count_psi1, regen_count_psi1_coarse,
                             regen_count_tail, regen_count_threshold,
                             stopped_b_factor, thm_bi, thm_bi2, thm_sbi)

E = math.e
REL = 1e-12


def close(got, want, rel=REL):
    return got == pytest.approx(want, rel=rel, abs=1e-300)


# ---------------------------------------------------------------------------
# truncation cutoffs
# ---------------------------------------------------------------------------


def test_m_cutoff_log_floor_convention():
    # log n means ln(max(n, e)), so n = 1 uses log = 1
    assert m_cutoff(1.0, 1.0, 1.0, "main") == 24.0
    assert m_cutoff(1.0, 1.0, 0.5, "main") == 24.0


def test_m_cutoff_examples():
    assert close(m_cutoff(2.0, 1.0, E ** 2, "main"), 96.0)
    assert close(m_cutoff(1.0, 1.0, E ** 3, "iid"), 9.0)


def test_m_cutoff_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        m_cutoff(1.0, 1.0, 10.0, "other")


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.1, max_value=1.0),
       st.floats(min_value=1.0, max_value=1e6))
def test_m_cutoff_matches_oracle(c, alpha, n):
    for variant in ("main", "iid"):
        got = m_cutoff(c, alpha, n, variant)
        want = float(oracle.m_cutoff(c, alpha, n, variant))
        assert close(got, want, rel=1e-11)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def test_classical_bernstein_frozen():
    assert classical_bernstein(1, 1, 1, 0).value == 1.0
    assert close(classical_bernstein(100, 1, 1, 10).raw, 0.616392731327227)
    assert close(classical_bernstein(100, 0, 1, 10).raw, 3.059023205018258e-07)
    sup = classical_bernstein(100, 1, 1, 10, sup_version=True)
    assert close(sup.raw, 2 * 0.616392731327227)
    assert sup.value == 1.0 and "vacuous" in sup.flags


def test_psi1_bernstein_frozen():
    assert psi1_bernstein(25, 1, 0).value == 1.0
    assert close(psi1_bernstein(25, 1, 10).raw, 0.4345982085070782)
    assert close(psi1_bernstein(25, 2, 10).raw, 0.7967034698934616)


def test_iid_unbounded_frozen():
    at_zero = iid_unbounded(E ** 3, 1, 1, 1, 0)
    assert at_zero.value == 1.0
    assert close(at_zero.raw, math.exp(8.0) + 2.0)
    assert close(iid_unbounded(E ** 3, 1, 1, 1, 30).raw, 245.01042243824585)


def test_random_sum_frozen():
    assert random_sum_bound(E ** 3, 1, 1, 1, 10, 9, 0).value == 1.0
    assert close(random_sum_bound(E ** 3, 1, 1, 1, 10, 9, 50).raw,
                 3.3465657740391794)


def test_one_dep_bounded_frozen():
    # 4 exp(-400 / (80 + 120)) = 4 exp(-2)
    got = one_dep_bounded(8, 1, 1, 1, 20)
    assert close(got.raw, 0.5413411329464508)
    assert close(got.raw, 4.0 * math.exp(-2.0))
    assert close(one_dep_bounded(8, 2, 1, 1, 40).raw, 0.353419713641786)
    with pytest.raises(ValueError, match="m_dep"):
        one_dep_bounded(8, 3, 1, 1, 1)


def test_one_dep_bounded_zero_variance():
    got = one_dep_bounded(8, 1, 0.0, 1.0, 5.0)
    assert close(got.raw, 4.0 * math.exp(-5.0 / 6.0))


def test_one_dep_sup_frozen():
    v = one_dep_sup(E, 2, 1, 1, 1, 100)
    assert close(v.raw, 13788.097770820475)
    assert v.value == 1.0


def test_one_dep_stopped_frozen():
    v = one_dep_stopped(E, 1, 1, 1, 5, 2, 200)
    assert close(v.raw, 7379.2865479640905)
    assert stopped_b_factor(0.0) == 2.0
    assert stopped_b_factor(9.0) == 3.0
    flagged = one_dep_stopped(E, 0.5, 1, 1, 5, 1.0, 10)
    assert any("c < 1" in f for f in flagged.flags)
    assert any("b_factor" in f for f in flagged.flags)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e5),
       st.floats(min_value=0.0, allow_subnormal=False, max_value=10.0),
       st.floats(min_value=0.0, allow_subnormal=False, max_value=5.0),
       st.floats(min_value=0.0, allow_subnormal=False, max_value=100.0))
# M t underflows to zero; t^2 is subnormal; t^2 and M t overflow. All
# three are exp(-1.5).
@example(1.0, 0.0, 5.009725211071133e-296, 5.009725211071133e-296)
@example(1.0, 0.0, 1e-160, 1e-160)
@example(1.0, 0.0, 1e160, 1e160)
def test_classical_bernstein_matches_oracle(n, sigma2, big_m, t):
    got = classical_bernstein(n, sigma2, big_m, t).raw
    want = float(oracle.classical_bernstein(n, sigma2, big_m, t))
    assert close(got, want, rel=1e-11)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e4),
       st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=0.1, max_value=1.0),
       st.floats(min_value=0.0, allow_subnormal=False, max_value=4.0),
       st.floats(min_value=0.0, allow_subnormal=False, max_value=200.0))
def test_iid_unbounded_matches_oracle(n, c, alpha, sigma2, t):
    got = iid_unbounded(n, c, alpha, sigma2, t).raw
    want = float(oracle.iid_unbounded(n, c, alpha, sigma2, t))
    assert close(got, want, rel=1e-11)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=2),
       st.floats(min_value=1.0, max_value=1e4),
       st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=0.1, max_value=1.0),
       st.floats(min_value=0.0, allow_subnormal=False, max_value=4.0),
       st.floats(min_value=0.0, allow_subnormal=False, max_value=300.0))
def test_one_dep_sup_matches_oracle(m_dep, n, c, alpha, sigma_inf2, t):
    got = one_dep_sup(n, m_dep, c, alpha, sigma_inf2, t).raw
    want = float(oracle.one_dep_sup(n, m_dep, c, alpha, sigma_inf2, t))
    assert close(got, want, rel=1e-11)


# ---------------------------------------------------------------------------
# regeneration counts
# ---------------------------------------------------------------------------


def test_kp_constants_exact():
    assert abs(kp_constant(2.0 / 3.0) - 488.0 / 11.0) < 1e-12
    assert abs(1.5 * kp_constant(2.0 / 3.0) - 732.0 / 11.0) < 1e-12
    assert 1.5 * kp_constant(2.0 / 3.0) <= 67.0
    assert abs(kp_constant(1.0) - 328.0 / 9.0) < 1e-12
    assert kp_constant(float("inf")) == pytest.approx(20.8, abs=1e-12)


def test_kp_decreasing():
    grid = np.linspace(0.05, 50.0, 200)
    vals = [kp_constant(float(p)) for p in grid]
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
    assert all(v >= 20.8 for v in vals)


def test_regen_count_threshold():
    assert regen_count_threshold(100, 0.5, 2.0) == 75
    assert regen_count_threshold(10, 1.0, 3.0) == 7


def test_regen_count_tail_frozen():
    got = regen_count_tail(1331, 2.0 / 3.0, 2, 2)
    assert close(got.raw, 0.0001233255365555836)
    assert got.flags == ()
    small = regen_count_tail(4, 0.5, 2, 2)
    assert small.value == 1.0 and "vacuous" in small.flags
    flagged = regen_count_tail(10, 0.5, 1.0, 2.0)
    assert any("mean gap" in f for f in flagged.flags)


def test_regen_count_psi1_values():
    assert close(regen_count_psi1(2.0 / 3.0, 2.0, 2.0), 4.0 * 488.0 / 11.0)
    # d = mean_gap cancels to 4 K_p
    assert close(regen_count_psi1(1.0, 3.0, 3.0), 4.0 * 328.0 / 9.0)
    assert close(regen_count_psi1_coarse(1.0, 3.0, 1.0),
                 9.0 * 4.0 * 328.0 / 9.0)


# ---------------------------------------------------------------------------
# assembled bounds
# ---------------------------------------------------------------------------


@pytest.fixture
def unit_params():
    return BernsteinParams(a=1.0, b=1.0, c=1.0, d=2.0, alpha=1.0,
                           sigma2_mrv=0.25, delta=1.0, pi_C=0.5, m=1)


def test_params_validation():
    with pytest.raises(ValueError):
        BernsteinParams(a=-1, b=1, c=1, d=1, alpha=1, sigma2_mrv=1,
                        delta=1, pi_C=0.5, m=1)
    with pytest.raises(ValueError, match="delta"):
        BernsteinParams(a=1, b=1, c=1, d=1, alpha=1, sigma2_mrv=1,
                        delta=1.5, pi_C=0.5, m=1)
    with pytest.raises(ValueError, match="alpha"):
        BernsteinParams(a=1, b=1, c=1, d=1, alpha=0.0, sigma2_mrv=1,
                        delta=1, pi_C=0.5, m=1)


def test_params_consistency_warnings():
    p = BernsteinParams(a=5.0, b=1.0, c=3.0, d=1.0, alpha=1.0, sigma2_mrv=1.0,
                        delta=1.0, pi_C=0.5, m=1, D=2.0, f_sup=1.0)
    warnings = p.consistency_warnings()
    assert any(w.startswith("c =") for w in warnings)
    assert any(w.startswith("a =") for w in warnings)
    clean = BernsteinParams(a=1.0, b=1.0, c=1.0, d=1.0, alpha=1.0,
                            sigma2_mrv=1.0, delta=1.0, pi_C=0.5, m=1,
                            D=2.0, f_sup=1.0)
    assert clean.consistency_warnings() == ()


def test_thm_bi_frozen(unit_params):
    assert thm_bi(unit_params, E, 0.0).value == 1.0
    got = thm_bi(unit_params, E, 100.0)
    assert close(got.raw, 14196.09766523115)
    assert any("proof threshold" in f for f in got.flags)


def test_thm_bi_requires_m_divides_n():
    p = BernsteinParams(a=1, b=1, c=1, d=1, alpha=1, sigma2_mrv=1,
                        delta=0.5, pi_C=1.0, m=2)
    with pytest.raises(ValueError, match="m | n"):
        thm_bi(p, 7, 1.0)
    thm_bi(p, 8, 1.0)  # divisible horizons pass


def test_thm_bi_matches_oracle(unit_params):
    for t in (0.0, 1.0, 10.0, 100.0, 1000.0, 5000.0):
        got = thm_bi(unit_params, E, t).raw
        want = float(oracle.thm_bi(1, 1, 1, 2, 1, 0.25, 1, 0.5, 1, E, t))
        assert close(got, want, rel=1e-11)


def test_thm_bi2_frozen(unit_params):
    assert thm_bi2(unit_params, E, 2.0 / 3.0, 0.0).value == 1.0
    got = thm_bi2(unit_params, E, 2.0 / 3.0, 100.0)
    assert close(got.raw, 9466.698483608781)


def test_thm_bi2_matches_oracle(unit_params):
    for t in (0.0, 1.0, 10.0, 100.0, 2000.0):
        got = thm_bi2(unit_params, E, 2.0 / 3.0, t).raw
        want = float(oracle.thm_bi2(1, 1, 1, 2, 1, 0.25, 1, 0.5, E,
                                    2.0 / 3.0, t))
        assert close(got, want, rel=1e-11)


def test_thm_bi2_vanishes_at_infinity(unit_params):
    # unlike thm_bi, whose count term never decays in t
    assert thm_bi2(unit_params, E, 2.0 / 3.0, 1e8).raw < 1e-300
    assert thm_bi(unit_params, E, 1e8).raw > 0.0


def _zero_scale_params(**kw):
    return BernsteinParams(**{**dict(a=1.0, b=1.0, c=0.0, d=0.0, alpha=1.0,
                                     sigma2_mrv=0.0, delta=1.0, pi_C=0.5,
                                     m=1), **kw})


@pytest.mark.parametrize("theorem, k_ab, c_lead", [
    (lambda p, t: thm_bi(p, E, t), 23.0, 6.0),
    (lambda p, t: thm_bi2(p, E, 2.0 / 3.0, t), 54.0, 4.0)])
def test_bundle_theorems_at_c_zero(theorem, k_ab, c_lead):
    # c = 0: the excursion term is its whole coefficient c_lead e^8 at
    # t = 0 and nothing above. With sigma2 = d = 0 and M = 0 the other
    # terms are the head 2, the tail 2 (delta pi_C)^-1 = 4 and, at t = 0,
    # the Gaussian 6.
    params = _zero_scale_params()
    at_zero = theorem(params, 0.0).raw
    assert at_zero == math.fsum((2.0, 4.0, c_lead * math.exp(8.0), 6.0))
    for t in (5e-324, 1.0, 1e300):
        head = math.exp(-(t / k_ab))
        assert theorem(params, t).raw == math.fsum((2.0 * head, 4.0 * head))


def test_thm_bi_count_term_at_d_zero(unit_params):
    # far out every t-dependent term underflows, so what is left is the
    # count term e exp(-n m / (67 delta pi_C d^2)), and nothing at d = 0
    assert thm_bi(unit_params, E, 1e6).raw == E * math.exp(-(E / 134.0))
    assert thm_bi(_zero_scale_params(c=1.0, sigma2_mrv=0.25), E, 1e6).raw == 0.0


def test_m_cutoff_past_float_range():
    # (24 ln 100 / 0.02^3)^50 overflows: the cutoff is inf, 0 at c = 0
    assert m_cutoff(1, 0.02, 100) == math.inf
    assert m_cutoff(1, 0.01, 100, "iid") == math.inf
    assert m_cutoff(0, 0.02, 100) == 0.0


def test_m_cutoff_past_alpha_range():
    # alpha^3 (and alpha^2) underflow to 0, or are subnormal and the
    # quotient overflows: the cutoff is inf, 0 at c = 0
    for alpha in (1e-110, 1e-107):
        assert m_cutoff(1, alpha, 100) == math.inf
        assert m_cutoff(0, alpha, 100) == 0.0
    assert m_cutoff(1, 1e-170, 100, "iid") == math.inf
    assert m_cutoff(0, 1e-170, 100, "iid") == 0.0


def test_thm_bi2_at_zero_d_and_infinite_cutoff():
    # M = inf and d = 0: the M d term is 0, so the quadratic term keeps
    # 6 exp(-t^2 / (37 (1 + p) n sigma2)); a = b = 0 drop their terms
    params = BernsteinParams(a=0.0, b=0.0, c=1.0, d=0.0, alpha=0.02,
                             sigma2_mrv=0.5, delta=0.5, pi_C=0.5, m=1)
    assert m_cutoff(1.0, 0.02, 100) == math.inf
    t, p, n = 5.0, 0.5, 100
    want = (4.0 * math.exp(8.0)
            * math.exp(-t ** 0.02 / ((16.0 / 0.02) * 27.0 ** 0.02))
            + 6.0 * math.exp(-t * t / (37.0 * (1.0 + p) * n * 0.5)))
    got = thm_bi2(params, n, p, t).raw
    assert close(got, want)
    assert round(got, 2) == 11915.38


def test_one_dep_stopped_at_zero_b_factor_and_infinite_cutoff():
    # the same limit for the 14 M t b_factor term
    t = 5.0
    got = one_dep_stopped(100, 1.0, 0.02, 0.5, 1.0, 0.0, t)
    want = (4.0 * math.exp(8.0)
            * math.exp(-t ** 0.02 / ((16.0 / 0.02) * 26.0 ** 0.02))
            + 9.0 * math.exp(-t * t / (102.0 * 0.5)))
    assert close(got.raw, want)
    assert "b_factor below its floor of 2" in got.flags


def test_thm_bi_at_infinite_cutoff():
    # M = inf: the quadratic term takes its overflow limit 6, and t lies
    # below the proof threshold
    params = BernsteinParams(a=1.0, b=1.0, c=1.0, d=1.0, alpha=0.02,
                             sigma2_mrv=0.5, delta=0.5, pi_C=0.5, m=1)
    got = thm_bi(params, 100, 50.0)
    assert "t below the proof threshold 8 ln(6) M" in got.flags
    assert got.raw > 6.0


def test_thm_bi_count_term_at_huge_d():
    # d^2 overflows: an infinite count-term denominator leaves e, and
    # every other term underflows at t = 1e300
    params = BernsteinParams(a=1, b=1, c=1, d=1e300, alpha=1, sigma2_mrv=0.5,
                             delta=0.5, pi_C=0.5, m=1)
    assert thm_bi(params, 100, 1e300).raw == math.e


def test_regen_count_tail_at_tiny_d():
    # d * d underflows to 0: the exponent argument is inf, the term 0
    assert regen_count_tail(100, 0.5, 1e-200, 1e-300).raw == 0.0


def test_thm_sbi_any_horizon():
    v = thm_sbi(7, 0.0, 0.25, 1.0, 2.0, 1.0, 0.5)
    assert v.value == 1.0
    # odd n is fine here, the sup-version padding handles it
    w = thm_sbi(7, 5.0, 0.25, 1.0, 2.0, 1.0, 0.5)
    assert 0.0 < w.raw
    want = float(oracle.thm_sbi(7, 5.0, 0.25, 1.0, 2.0, 1.0, 0.5))
    assert close(w.raw, want, rel=1e-11)


def test_bbi_constants():
    k, tau = bbi_constants(1.0, 0.5, 2.0)
    assert close(k, math.exp(10.0) + 4.0)
    assert close(tau, 433.0 * 0.5 * 4.0)
    lead = thm_sbi(100, 0.0, 1.0, 1.0, 2.0, 1.0, 0.5)
    assert close(lead.raw, k)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, allow_subnormal=False, max_value=500.0),
       st.floats(min_value=0.0, allow_subnormal=False, max_value=500.0))
def test_bounds_monotone_in_t(t1, t2):
    lo, hi = sorted((t1, t2))
    p = BernsteinParams(a=1.0, b=1.5, c=1.2, d=2.0, alpha=0.8,
                        sigma2_mrv=0.5, delta=0.6, pi_C=0.4, m=2)
    assert thm_bi(p, 100, hi).raw <= thm_bi(p, 100, lo).raw + 1e-15
    assert thm_bi2(p, 100, 1.0, hi).raw <= thm_bi2(p, 100, 1.0, lo).raw + 1e-15
    assert thm_sbi(100, hi, 0.5, 1.0, 2.0, 0.6, 0.4).raw <= \
        thm_sbi(100, lo, 0.5, 1.0, 2.0, 0.6, 0.4).raw + 1e-15
    assert classical_bernstein(100, 1.0, 1.0, hi).raw <= \
        classical_bernstein(100, 1.0, 1.0, lo).raw + 1e-15


# ---------------------------------------------------------------------------
# drift scenarios
# ---------------------------------------------------------------------------


def test_drift_scenario_iii():
    out = param_bounds_from_drift({"scenario": "iii", "D": 2.0, "f_sup": 1.0})
    assert out["c"] == 2.0
    assert out["a"] == 4.0 and out["b"] == 4.0
    # a missing field is a ValueError that names it
    with pytest.raises(ValueError, match="misses required field 'D'"):
        param_bounds_from_drift({"scenario": "iii"})
    with pytest.raises(ValueError, match="misses required field 'f_sup'"):
        param_bounds_from_drift({"scenario": "III", "D": 2.0})


def test_drift_scenario_i_floor():
    # all max arguments at the 2 ln 2 floor, delta = 1
    out = param_bounds_from_drift({
        "scenario": "i", "delta": 1.0, "alpha": 1.0, "l": 3.0,
        "k": 0.0, "K": 0.0, "V_x": 0.0, "pi_exp_half": 1.0})
    expected = 2.0 * (math.log(6.0) / math.log(2.0)) * 3.0
    assert close(out["a"], expected)
    assert out["a"] == out["b"] == out["c"]


def test_drift_scenario_ii_requires_beta_above_alpha():
    base = {"scenario": "ii", "delta": 0.5, "alpha": 0.5, "l": 2.0,
            "k": 1.0, "K": 1.0, "V_x": 0.0, "pi_V": 1.0,
            "sup_tau_norm": 1.0, "pi_tau_norm": 1.0}
    with pytest.raises(ValueError, match="beta"):
        param_bounds_from_drift({**base, "beta": 0.5})
    with pytest.raises(ValueError, match="misses required field 'beta'"):
        param_bounds_from_drift(base)
    out = param_bounds_from_drift({**base, "beta": 1.0})
    assert out["a"] > 0.0


def test_drift_unknown_scenario():
    with pytest.raises(ValueError, match="scenario"):
        param_bounds_from_drift({"scenario": "iv"})
