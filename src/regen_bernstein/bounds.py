"""Closed-form tail bounds for regenerative Markov chain sums.

Every evaluator returns a BoundValue holding the raw formula value, the
value capped at 1 (a tail probability never exceeds 1), and regime
flags. Flags never change the numbers, they only surface when an
assumption behind the formula is not met or when the cap engaged.

Sample-size logarithms are floored at 1, i.e. log(n) means ln(max(n, e)),
so the truncation cutoffs stay monotone for small n. Plain constants
inside formulas use the natural log as written.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

_LN2 = math.log(2.0)
_E1 = math.e
_E8 = math.exp(8.0)
_E10 = math.exp(10.0)
_SQRT2 = math.sqrt(2.0)
_TINY = sys.float_info.min  # smallest normal float


@dataclass(frozen=True)
class BoundValue:
    """A bound evaluation: capped value, raw formula value, regime flags."""

    value: float
    raw: float
    flags: tuple = ()

    def __float__(self) -> float:
        return self.value


def capped(raw: float, flags: tuple = ()) -> BoundValue:
    raw = float(raw)
    if raw >= 1.0:
        flags = tuple(flags) + ("vacuous",)
    return BoundValue(value=min(raw, 1.0), raw=raw, flags=tuple(flags))


def _check_nonneg(**kwargs):
    for name, val in kwargs.items():
        v = float(val)
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"{name} must be finite and nonnegative, got {val}")


def _check_pos(**kwargs):
    for name, val in kwargs.items():
        v = float(val)
        if not v > 0.0:
            raise ValueError(f"{name} must be positive, got {val}")


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    return alpha


def _check_split_mass(delta: float, pi_C: float) -> None:
    """Rejects a minorization constant delta or small-set mass pi_C
    outside (0, 1]."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    if not (0.0 < pi_C <= 1.0):
        raise ValueError("pi_C must lie in (0, 1]")


def _log_n(n: float) -> float:
    return math.log(max(float(n), _E1))


def _exp_ratio_pow(t: float, scale: float, alpha: float) -> float:
    """exp(-(t / scale)^alpha) with the scale-zero limit."""
    if scale <= 0.0:
        return 0.0 if t > 0.0 else 1.0
    return math.exp(-((t / scale) ** alpha))


def _exp_quad(t: float, a: float, bt: float, b: float) -> float:
    """exp(-t^2 / (a + b t)) for a, b, t >= 0, with the denominator-zero limit.

    bt is b t as the formula rounds it, so ordinary values keep every
    bit. Where t^2 or the denominator is zero or subnormal, or the
    denominator overflows, the ratio is taken as t / (a / t + b), which
    neither underflow nor inf / inf loses.
    """
    t2 = t * t
    denom = a + bt
    if t2 >= _TINY and _TINY <= denom < math.inf:
        return math.exp(-t2 / denom)
    if t == 0.0:
        return 1.0
    scaled = a / t + b
    return math.exp(-t / scaled) if scaled > 0.0 else 0.0


# ---------------------------------------------------------------------------
# truncation cutoffs
# ---------------------------------------------------------------------------


def m_cutoff(c: float, alpha: float, n: float, variant: str = "main") -> float:
    """Truncation level for a psi_alpha-bounded summand.

    main: c * (24 alpha^-3 log n)^(1/alpha); iid: c * (3 alpha^-2 log n)^(1/alpha),
    with log n = ln(max(n, e)).
    """
    alpha = _check_alpha(alpha)
    _check_nonneg(c=c)
    _check_pos(n=n)
    logn = _log_n(n)
    if variant == "main":
        return c * (24.0 * logn / alpha ** 3) ** (1.0 / alpha)
    if variant == "iid":
        return c * (3.0 * logn / alpha ** 2) ** (1.0 / alpha)
    raise ValueError(f"unknown variant {variant!r}, expected main or iid")


# ---------------------------------------------------------------------------
# building-block inequalities
# ---------------------------------------------------------------------------


def classical_bernstein(n: float, sigma2: float, M: float, t: float,
                        sup_version: bool = False) -> BoundValue:
    """Bernstein bound exp(-t^2 / (2 n sigma2 + (2/3) M t)) for bounded iid sums.

    sup_version doubles the constant and then covers the running
    maximum of the partial sums.
    """
    _check_pos(n=n)
    _check_nonneg(sigma2=sigma2, M=M, t=t)
    factor = 2.0 if sup_version else 1.0
    b = (2.0 / 3.0) * M
    return capped(factor * _exp_quad(t, 2.0 * n * sigma2, b * t, b))


def psi1_bernstein(n: float, tau: float, t: float) -> BoundValue:
    """exp(-t^2 / (4 n tau^2 + 2 tau t)) for centered psi_1 summands."""
    _check_pos(n=n, tau=tau)
    _check_nonneg(t=t)
    b = 2.0 * tau
    return capped(_exp_quad(t, 4.0 * n * tau * tau, b * t, b))


def iid_unbounded(n: float, c: float, alpha: float, sigma2: float,
                  t: float) -> BoundValue:
    """Two-piece bound for iid sums with a finite psi_alpha norm c.

    e^8 exp(-t^alpha / (2 (6c)^alpha))
    + 2 exp(-t^2 / ((72/25) n sigma2 + (8/5) t M)), M the iid cutoff.
    """
    alpha = _check_alpha(alpha)
    _check_pos(n=n, c=c)
    _check_nonneg(sigma2=sigma2, t=t)
    m_trunc = m_cutoff(c, alpha, n, "iid")
    first = _E8 * math.exp(-(t ** alpha) / (2.0 * (6.0 * c) ** alpha))
    second = 2.0 * _exp_quad(t, (72.0 / 25.0) * n * sigma2,
                             (8.0 / 5.0) * t * m_trunc, (8.0 / 5.0) * m_trunc)
    return capped(math.fsum((first, second)))


def random_sum_bound(l: float, v: float, alpha: float, sigma2: float,
                     a: float, psi1_excess: float, t: float) -> BoundValue:
    """Bound for a sum with a random psi_1-controlled number of terms.

    With B = v (3 alpha^-2 log l)^(1/alpha) and
    mu = max(8B/3, 2 sigma sqrt(psi1_excess)):
    e^8 exp(-t^alpha / (2 ((2 + sqrt 2) v)^alpha))
    + 2^(3/2) exp(-t^2 / (8 a sigma2 + 2 sqrt(2) mu t)).
    psi1_excess is the psi_1 norm of the positive part of the count
    overshoot past a.
    """
    alpha = _check_alpha(alpha)
    _check_pos(l=l, v=v, a=a)
    _check_nonneg(sigma2=sigma2, psi1_excess=psi1_excess, t=t)
    big_b = v * (3.0 * _log_n(l) / alpha ** 2) ** (1.0 / alpha)
    mu = max(8.0 * big_b / 3.0, 2.0 * math.sqrt(sigma2) * math.sqrt(psi1_excess))
    first = _E8 * math.exp(-(t ** alpha) / (2.0 * ((2.0 + _SQRT2) * v) ** alpha))
    b = 2.0 * _SQRT2 * mu
    second = 2.0 ** 1.5 * _exp_quad(t, 8.0 * a * sigma2, b * t, b)
    return capped(math.fsum((first, second)))


_ONE_DEP_C = {1: 8.0, 2: 15.0}
_ONE_DEP_D = {1: 6.0, 2: 10.0}


def one_dep_bounded(n: float, m_dep: int, sigma_inf2: float, M: float,
                    t: float) -> BoundValue:
    """Bernstein bound for bounded m-dependent sums, m_dep in {1, 2}.

    2 (m+1) exp(-t^2 / (c_m (n+1+m) sigma_inf2 + d_m t M)) with
    (c_1, d_1) = (8, 6) and (c_2, d_2) = (15, 10). sigma_inf2 = 0 is
    allowed, the variance term just drops out.
    """
    m_dep = int(m_dep)
    if m_dep not in _ONE_DEP_C:
        raise ValueError("m_dep must be 1 or 2")
    _check_pos(n=n)
    _check_nonneg(sigma_inf2=sigma_inf2, M=M, t=t)
    d_m = _ONE_DEP_D[m_dep]
    return capped(2.0 * (m_dep + 1.0) * _exp_quad(
        t, _ONE_DEP_C[m_dep] * (n + 1.0 + m_dep) * sigma_inf2, d_m * t * M,
        d_m * M))


def one_dep_sup(n: float, m_dep: int, c: float, alpha: float,
                sigma_inf2: float, t: float) -> BoundValue:
    """Sup-of-partial-sums bound for unbounded m-dependent sequences.

    With a_m = 8(m+1), b_m = 5(m+1), c_m = 2(m+1) and M the main
    cutoff for n:
    2(m+1) e^8 exp(-t^alpha / ((16/alpha) (a_m c)^alpha))
    + 2(m+1) exp(-t^2 / (b_m (n+m+1) sigma_inf2 + c_m t M)).
    """
    m_dep = int(m_dep)
    if m_dep not in (1, 2):
        raise ValueError("m_dep must be 1 or 2")
    alpha = _check_alpha(alpha)
    _check_pos(n=n, c=c)
    _check_nonneg(sigma_inf2=sigma_inf2, t=t)
    a_m = 8.0 * (m_dep + 1.0)
    b_m = 5.0 * (m_dep + 1.0)
    c_m = 2.0 * (m_dep + 1.0)
    m_trunc = m_cutoff(c, alpha, n, "main")
    first = (2.0 * (m_dep + 1.0) * _E8
             * math.exp(-(t ** alpha) / ((16.0 / alpha) * (a_m * c) ** alpha)))
    second = 2.0 * (m_dep + 1.0) * _exp_quad(
        t, b_m * (n + m_dep + 1.0) * sigma_inf2, c_m * t * m_trunc,
        c_m * m_trunc)
    return capped(math.fsum((first, second)))


def stopped_b_factor(psi1_excess: float) -> float:
    """b = max(2, sqrt(psi1_excess)) entering the stopped-sum bound."""
    _check_nonneg(psi1_excess=psi1_excess)
    return max(2.0, math.sqrt(psi1_excess))


def one_dep_stopped(n: float, c: float, alpha: float, sigma_inf2: float,
                    a: float, b_factor: float, t: float) -> BoundValue:
    """Bound for 1-dependent sums stopped at a random count.

    4 e^8 exp(-t^alpha / ((16/alpha) (26 c)^alpha))
    + 9 exp(-t^2 / (102 a sigma_inf2 + 14 M t b_factor)), M the main
    cutoff. Stated for c >= 1; smaller c gets a flag, not an error.
    """
    alpha = _check_alpha(alpha)
    _check_pos(n=n, c=c, a=a)
    _check_nonneg(sigma_inf2=sigma_inf2, t=t, b_factor=b_factor)
    flags = []
    if c < 1.0:
        flags.append("below lemma regime: c < 1")
    if b_factor < 2.0:
        flags.append("b_factor below its floor of 2")
    m_trunc = m_cutoff(c, alpha, n, "main")
    first = 4.0 * _E8 * math.exp(-(t ** alpha) / ((16.0 / alpha) * (26.0 * c) ** alpha))
    second = 9.0 * _exp_quad(t, 102.0 * a * sigma_inf2,
                             14.0 * m_trunc * t * b_factor,
                             14.0 * m_trunc * b_factor)
    return capped(math.fsum((first, second)), tuple(flags))


# ---------------------------------------------------------------------------
# regeneration counts
# ---------------------------------------------------------------------------


def kp_constant(p: float) -> float:
    """K_p = L_p + 16 / L_p with L_p = 16/p + 20.

    Decreasing in p, with limit 104/5 = 20.8 as p grows. p = 2/3 gives
    exactly 488/11.
    """
    p = float(p)
    if not p > 0.0:
        raise ValueError("p must be positive")
    big_l = 16.0 / p + 20.0
    return big_l + 16.0 / big_l


def regen_count_threshold(n: float, p: float, mean_gap: float) -> int:
    """The count level ceil((1 + p) n / mean_gap) that the tail bound targets."""
    _check_pos(n=n, p=p, mean_gap=mean_gap)
    return int(math.ceil((1.0 + p) * n / mean_gap))


def regen_count_tail(n: float, p: float, d: float, mean_gap: float) -> BoundValue:
    """P(N > ceil((1+p) n / mean_gap)) <= min(1, e exp(-p n mean_gap / (K_p d^2))).

    d is the psi_1 norm of the regeneration gap and must dominate the
    mean gap for the derivation to apply; a violation is flagged.
    """
    _check_pos(n=n, p=p, d=d)
    if not float(mean_gap) > 0.0:
        raise ValueError("mean_gap must be positive")
    flags = []
    if d < mean_gap:
        flags.append("d below the mean gap")
    kp = kp_constant(p)
    raw = _E1 * math.exp(-(p * n * mean_gap) / (kp * d * d))
    return capped(raw, tuple(flags))


def regen_count_psi1(p: float, d: float, mean_gap: float) -> float:
    """psi_1 bound 4 K_p d^2 / mean_gap^2 for the overshoot (N - a)_+.

    Here a = (1 + p) n / mean_gap is the centering the tail bound uses;
    the bound itself does not depend on n.
    """
    _check_pos(p=p, d=d, mean_gap=mean_gap)
    return 4.0 * kp_constant(p) * d * d / (mean_gap * mean_gap)


def regen_count_psi1_coarse(p: float, d: float, m_order: float) -> float:
    """Coarser overshoot bound 4 K_p d^2 / m^2 using gap >= m only."""
    _check_pos(p=p, d=d, m_order=m_order)
    return 4.0 * kp_constant(p) * d * d / (float(m_order) ** 2)


# ---------------------------------------------------------------------------
# assembled chain bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BernsteinParams:
    """Inputs of the assembled chain bounds.

    a and b are psi_alpha norms of the first-block sum of |block sums|
    under the point start and the stationary split start, c the
    psi_alpha norm of one excursion, d the psi_1 norm of one gap.
    sigma2_mrv is the asymptotic variance of the time average, delta
    and pi_C the minorization weight and small-set mass, m the block
    length. D bounds the three gap-type psi_1 norms at once; f_sup
    bounds |f|. Both are optional and only feed consistency warnings
    and the simplified bound.
    """

    a: float
    b: float
    c: float
    d: float
    alpha: float
    sigma2_mrv: float
    delta: float
    pi_C: float
    m: int
    D: float | None = None
    f_sup: float | None = None

    def __post_init__(self):
        _check_nonneg(a=self.a, b=self.b, c=self.c, d=self.d,
                      sigma2_mrv=self.sigma2_mrv)
        _check_alpha(self.alpha)
        _check_split_mass(self.delta, self.pi_C)
        if int(self.m) < 1:
            raise ValueError("m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))
        if self.D is not None:
            _check_nonneg(D=self.D)
        if self.f_sup is not None:
            _check_nonneg(f_sup=self.f_sup)

    def consistency_warnings(self) -> tuple:
        """Checks c <= D f_sup and a, b <= 2 D f_sup for bounded f."""
        if self.D is None or self.f_sup is None:
            return ()
        warnings = []
        cap_c = self.D * self.f_sup
        cap_ab = 2.0 * self.D * self.f_sup
        if self.c > cap_c * (1.0 + 1e-12):
            warnings.append(f"c = {self.c:.6g} exceeds D * f_sup = {cap_c:.6g}")
        if self.a > cap_ab * (1.0 + 1e-12):
            warnings.append(f"a = {self.a:.6g} exceeds 2 D * f_sup = {cap_ab:.6g}")
        if self.b > cap_ab * (1.0 + 1e-12):
            warnings.append(f"b = {self.b:.6g} exceeds 2 D * f_sup = {cap_ab:.6g}")
        return tuple(warnings)


def _check_horizon(n: float, m: int):
    nf = float(n)
    if not nf > 0.0:
        raise ValueError("n must be positive")
    if nf.is_integer() and int(nf) % m != 0:
        raise ValueError(f"m | n required for integer horizons, got n = {int(nf)} "
                         f"with m = {m}")


def thm_bi(params: BernsteinParams, n: float, t: float) -> BoundValue:
    """Five-term Bernstein-type bound for the centered path sum.

    Head and tail blocks contribute the a and b terms, the excursion
    stack the c terms, and the regeneration count the final
    t-independent term. Needs m | n for integer horizons. The quadratic
    term matches 2 exp(-t^2 / (30 n sigma2 + 8 t M)) scaled by 6, M the
    main cutoff at c.
    """
    _check_horizon(n, params.m)
    _check_nonneg(t=t)
    al = params.alpha
    inv_dpc = 1.0 / (params.delta * params.pi_C)
    m_trunc = m_cutoff(params.c, al, n, "main")
    t1 = 2.0 * _exp_ratio_pow(t, 23.0 * params.a, al)
    t2 = 2.0 * inv_dpc * _exp_ratio_pow(t, 23.0 * params.b, al)
    if params.c > 0.0:
        t3 = 6.0 * _E8 * math.exp(-(t ** al) / ((16.0 / al) * (27.0 * params.c) ** al))
    else:
        t3 = 0.0 if t > 0.0 else 6.0 * _E8
    t4 = 6.0 * _exp_quad(t, 30.0 * n * params.sigma2_mrv, 8.0 * t * m_trunc,
                         8.0 * m_trunc)
    if params.d > 0.0:
        t5 = _E1 * math.exp(-(n * params.m)
                            / (67.0 * params.delta * params.pi_C * params.d ** 2))
    else:
        t5 = 0.0
    flags = list(params.consistency_warnings())
    if t < 8.0 * math.log(6.0) * m_trunc:
        flags.append("t below the proof threshold 8 ln(6) M")
    return capped(math.fsum((t1, t2, t3, t4, t5)), tuple(flags))


def thm_bi2(params: BernsteinParams, n: float, p: float, t: float) -> BoundValue:
    """Four-term variant trading the count tail for a K_p-weighted term.

    2 exp(-(t/(54a))^alpha) + 2 (delta pi_C)^-1 exp(-(t/(54b))^alpha)
    + 4 e^8 exp(-t^alpha / ((16/alpha)(27c)^alpha))
    + 6 exp(-t^2 / (37 (1+p) n sigma2 + 18 M d t sqrt(K_p))).
    """
    _check_horizon(n, params.m)
    _check_nonneg(t=t)
    _check_pos(p=p)
    al = params.alpha
    inv_dpc = 1.0 / (params.delta * params.pi_C)
    m_trunc = m_cutoff(params.c, al, n, "main")
    kp = kp_constant(p)
    t1 = 2.0 * _exp_ratio_pow(t, 54.0 * params.a, al)
    t2 = 2.0 * inv_dpc * _exp_ratio_pow(t, 54.0 * params.b, al)
    if params.c > 0.0:
        t3 = 4.0 * _E8 * math.exp(-(t ** al) / ((16.0 / al) * (27.0 * params.c) ** al))
    else:
        t3 = 0.0 if t > 0.0 else 4.0 * _E8
    lin = 18.0 * m_trunc * params.d
    t4 = 6.0 * _exp_quad(t, 37.0 * (1.0 + p) * n * params.sigma2_mrv,
                         lin * t * math.sqrt(kp), lin * math.sqrt(kp))
    flags = list(params.consistency_warnings())
    return capped(math.fsum((t1, t2, t3, t4)), tuple(flags))


def thm_sbi(n: float, t: float, sigma2_mrv: float, f_sup: float, D: float,
            delta: float, pi_C: float) -> BoundValue:
    """Single-exponential simplified bound for bounded f, any horizon.

    (e^10 + 2 (delta pi_C)^-1)
    * exp(-t^2 / (32 n sigma2 + 433 t delta pi_C f_sup D^2 log n)).
    D jointly bounds the gap and first-gap psi_1 norms.
    """
    _check_pos(n=n)
    _check_nonneg(t=t, sigma2_mrv=sigma2_mrv, f_sup=f_sup, D=D)
    _check_split_mass(delta, pi_C)
    lead = _E10 + 2.0 / (delta * pi_C)
    return capped(lead * _exp_quad(
        t, 32.0 * n * sigma2_mrv,
        433.0 * t * delta * pi_C * f_sup * D * D * _log_n(n),
        433.0 * delta * pi_C * f_sup * D * D * _log_n(n)))


def bbi_constants(delta: float, pi_C: float, D: float) -> tuple:
    """(K, tau) with K = e^10 + 2 (delta pi_C)^-1 and tau = 433 delta pi_C D^2.

    thm_sbi then reads K exp(-t^2 / (32 n sigma2 + tau t f_sup log n)).
    """
    _check_split_mass(delta, pi_C)
    _check_nonneg(D=D)
    return _E10 + 2.0 / (delta * pi_C), 433.0 * delta * pi_C * D * D


def param_bounds_from_drift(drift_data: dict) -> dict:
    """Norm bounds a, b, c from drift-condition summaries.

    Scenario "i" (bounded f, drift with constants k, K, level V_x at
    the start, stationary exp(V)/2 mass), scenario "ii" (unbounded f
    with a beta-moment envelope, beta > alpha required), scenario "iii"
    (direct caps c <= D f_sup, a, b <= 2 D f_sup).
    """
    data = dict(drift_data)
    scenario = str(data.pop("scenario", "")).lower()
    if scenario == "iii":
        d_cap = float(data["D"])
        f_sup = float(data["f_sup"])
        _check_nonneg(D=d_cap, f_sup=f_sup)
        return {"scenario": "iii", "a": 2.0 * d_cap * f_sup,
                "b": 2.0 * d_cap * f_sup, "c": d_cap * f_sup}
    if scenario not in ("i", "ii"):
        raise ValueError("scenario must be one of i, ii, iii")
    delta = float(data["delta"])
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    alpha = _check_alpha(data["alpha"])
    lead = math.log(6.0 / (2.0 - delta)) / math.log(2.0 / (2.0 - delta))
    l_val = float(data["l"])
    k_val = float(data["k"])
    big_k = float(data["K"])
    v_x = float(data["V_x"])
    _check_pos(l=l_val)
    if scenario == "i":
        pi_exp_half = float(data["pi_exp_half"])
        _check_pos(pi_exp_half=pi_exp_half)
        inner = max(2.0 * k_val + v_x + 2.0 * big_k + 2.0 * math.log(pi_exp_half),
                    2.0 * _LN2) / (2.0 * _LN2)
        bound = (2.0 * lead * inner * l_val) ** (1.0 / alpha)
        return {"scenario": "i", "a": bound, "b": bound, "c": bound}
    beta = float(data["beta"])
    if beta <= alpha:
        raise ValueError("beta must exceed alpha")
    gamma = alpha * beta / (beta - alpha)
    pi_v = float(data["pi_V"])
    sup_tau = float(data["sup_tau_norm"])
    pi_tau = float(data["pi_tau_norm"])
    _check_nonneg(sup_tau_norm=sup_tau, pi_tau_norm=pi_tau)
    inner = max(k_val + v_x + big_k + math.log(pi_v + k_val), _LN2) / _LN2
    bound = ((2.0 * lead) ** (1.0 / alpha) * l_val * (sup_tau + pi_tau)
             * inner ** (1.0 / gamma))
    return {"scenario": "ii", "a": bound, "b": bound, "c": bound}


# Named registry for the command line; thm_bi and thm_bi2 get adapters
# there because they take a parameter bundle.
EVALUATORS = {
    "m_cutoff": m_cutoff,
    "classical_bernstein": classical_bernstein,
    "psi1_bernstein": psi1_bernstein,
    "iid_unbounded": iid_unbounded,
    "random_sum_bound": random_sum_bound,
    "one_dep_bounded": one_dep_bounded,
    "one_dep_sup": one_dep_sup,
    "one_dep_stopped": one_dep_stopped,
    "kp_constant": kp_constant,
    "regen_count_tail": regen_count_tail,
    "regen_count_psi1": regen_count_psi1,
    "thm_sbi": thm_sbi,
}
