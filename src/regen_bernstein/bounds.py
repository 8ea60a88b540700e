"""Closed-form tail bounds for regenerative Markov chain sums.

Each bound is a short sum of terms c exp(-x) that its evaluator lists
as (coefficient, exponent argument) pairs. _bound assembles them into a
BoundValue: the raw fsum, the value capped at 1 (a tail probability
never exceeds 1) and regime flags, "vacuous" on every raw value of 1 or
more. Flags never change the numbers. Three helpers give the arguments,
each with its zero-denominator limit (inf for t > 0, 0 at t = 0):
_ratio_pow (t / s)^alpha, where s = 0 when a, b or an Orlicz norm is 0,
_pow_over t^alpha / D, where D = 0 when c, d or an Orlicz norm is 0,
and _quad t^2 / (a + b t), guarded also against underflow and inf / inf.
thm_bi and thm_bi2 take their a, b and c terms from _block_terms.
EVALUATORS is the one registry the `bounds` command reads, the two
bundle theorems included.

Sample-size logarithms are floored at 1, i.e. log(n) means ln(max(n, e)),
so the truncation cutoffs stay monotone for small n. Plain constants
inside formulas use the natural log as written.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields

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


def _bound(terms, flags: tuple = ()) -> BoundValue:
    """The BoundValue of the sum of c exp(-x) over the (c, x) terms."""
    raw = math.fsum(c * math.exp(-x) for c, x in terms)
    flags = tuple(flags) + (("vacuous",) if raw >= 1.0 else ())
    return BoundValue(value=min(raw, 1.0), raw=raw, flags=flags)


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


def _ratio_pow(t: float, scale: float, alpha: float) -> float:
    """(t / scale)^alpha, with the limit inf (0 at t = 0) at scale 0."""
    if scale <= 0.0:
        return math.inf if t > 0.0 else 0.0
    return (t / scale) ** alpha


def _pow_over(t: float, alpha: float, den: float) -> float:
    """t^alpha / den, with the limit inf (0 at t = 0) at den 0."""
    if den <= 0.0:
        return math.inf if t > 0.0 else 0.0
    return t ** alpha / den


def _quad(t: float, a: float, bt: float, b: float) -> float:
    """t^2 / (a + b t) for a, b, t >= 0; inf (0 at t = 0) where a + b t = 0.

    bt is b t as the formula rounds it, so ordinary values keep every
    bit. Where t^2 or the denominator is zero or subnormal, or the
    denominator overflows, the ratio is taken as t / (a / t + b), which
    neither underflow nor inf / inf loses.
    """
    t2 = t * t
    denom = a + bt
    if t2 >= _TINY and _TINY <= denom < math.inf:
        return t2 / denom
    if t == 0.0:
        return 0.0
    scaled = a / t + b
    return t / scaled if scaled > 0.0 else math.inf


# ---------------------------------------------------------------------------
# truncation cutoffs
# ---------------------------------------------------------------------------


def m_cutoff(c: float, alpha: float, n: float, variant: str = "main") -> float:
    """Truncation level for a psi_alpha-bounded summand.

    main: c * (24 alpha^-3 log n)^(1/alpha); iid: c * (3 alpha^-2 log n)^(1/alpha),
    with log n = ln(max(n, e)). Where the power leaves float range the
    cutoff is inf (0 at c = 0).
    """
    alpha = _check_alpha(alpha)
    _check_nonneg(c=c)
    _check_pos(n=n)
    logn = _log_n(n)
    try:
        if variant == "main":
            return c * (24.0 * logn / alpha ** 3) ** (1.0 / alpha)
        if variant == "iid":
            return c * (3.0 * logn / alpha ** 2) ** (1.0 / alpha)
    except OverflowError:
        return math.inf if c else 0.0
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
    return _bound([(factor, _quad(t, 2.0 * n * sigma2, b * t, b))])


def psi1_bernstein(n: float, tau: float, t: float) -> BoundValue:
    """exp(-t^2 / (4 n tau^2 + 2 tau t)) for centered psi_1 summands."""
    _check_pos(n=n, tau=tau)
    _check_nonneg(t=t)
    b = 2.0 * tau
    return _bound([(1.0, _quad(t, 4.0 * n * tau * tau, b * t, b))])


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
    return _bound([
        (_E8, _pow_over(t, alpha, 2.0 * (6.0 * c) ** alpha)),
        (2.0, _quad(t, (72.0 / 25.0) * n * sigma2, (8.0 / 5.0) * t * m_trunc,
                    (8.0 / 5.0) * m_trunc))])


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
    b = 2.0 * _SQRT2 * mu
    return _bound([
        (_E8, _pow_over(t, alpha, 2.0 * ((2.0 + _SQRT2) * v) ** alpha)),
        (2.0 ** 1.5, _quad(t, 8.0 * a * sigma2, b * t, b))])


_ONE_DEP_C = {1: 8.0, 2: 15.0}
_ONE_DEP_D = {1: 6.0, 2: 10.0}


def _check_m_dep(m_dep) -> int:
    m_dep = int(m_dep)
    if m_dep not in _ONE_DEP_C:
        raise ValueError("m_dep must be 1 or 2")
    return m_dep


def one_dep_bounded(n: float, m_dep: int, sigma_inf2: float, M: float,
                    t: float) -> BoundValue:
    """Bernstein bound for bounded m-dependent sums, m_dep in {1, 2}.

    2 (m+1) exp(-t^2 / (c_m (n+1+m) sigma_inf2 + d_m t M)) with
    (c_1, d_1) = (8, 6) and (c_2, d_2) = (15, 10). sigma_inf2 = 0 is
    allowed, the variance term just drops out.
    """
    m_dep = _check_m_dep(m_dep)
    _check_pos(n=n)
    _check_nonneg(sigma_inf2=sigma_inf2, M=M, t=t)
    d_m = _ONE_DEP_D[m_dep]
    return _bound([(2.0 * (m_dep + 1.0), _quad(
        t, _ONE_DEP_C[m_dep] * (n + 1.0 + m_dep) * sigma_inf2, d_m * t * M,
        d_m * M))])


def one_dep_sup(n: float, m_dep: int, c: float, alpha: float,
                sigma_inf2: float, t: float) -> BoundValue:
    """Sup-of-partial-sums bound for unbounded m-dependent sequences.

    With a_m = 8(m+1), b_m = 5(m+1), c_m = 2(m+1) and M the main
    cutoff for n:
    2(m+1) e^8 exp(-t^alpha / ((16/alpha) (a_m c)^alpha))
    + 2(m+1) exp(-t^2 / (b_m (n+m+1) sigma_inf2 + c_m t M)).
    """
    m_dep = _check_m_dep(m_dep)
    alpha = _check_alpha(alpha)
    _check_pos(n=n, c=c)
    _check_nonneg(sigma_inf2=sigma_inf2, t=t)
    a_m = 8.0 * (m_dep + 1.0)
    b_m = 5.0 * (m_dep + 1.0)
    c_m = 2.0 * (m_dep + 1.0)
    m_trunc = m_cutoff(c, alpha, n, "main")
    return _bound([
        (2.0 * (m_dep + 1.0) * _E8,
         _pow_over(t, alpha, (16.0 / alpha) * (a_m * c) ** alpha)),
        (2.0 * (m_dep + 1.0),
         _quad(t, b_m * (n + m_dep + 1.0) * sigma_inf2, c_m * t * m_trunc,
               c_m * m_trunc))])


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
    return _bound([
        (4.0 * _E8, _pow_over(t, alpha, (16.0 / alpha) * (26.0 * c) ** alpha)),
        (9.0, _quad(t, 102.0 * a * sigma_inf2, 14.0 * m_trunc * t * b_factor,
                    14.0 * m_trunc * b_factor))], flags)


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
    flags = ("d below the mean gap",) if d < mean_gap else ()
    return _bound([(_E1, _pow_over(p * n * mean_gap, 1.0, kp_constant(p) * d * d))],
                  flags)


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


def _block_terms(params, t: float, k_ab: float, c_lead: float) -> list:
    """2 exp(-(t/(k_ab a))^alpha) + 2 (delta pi_C)^-1 exp(-(t/(k_ab b))^alpha)
    + c_lead e^8 exp(-t^alpha / ((16/alpha)(27c)^alpha)), the head, tail
    and excursion terms of thm_bi and thm_bi2."""
    al = params.alpha
    inv_dpc = 1.0 / (params.delta * params.pi_C)
    return [(2.0, _ratio_pow(t, k_ab * params.a, al)),
            (2.0 * inv_dpc, _ratio_pow(t, k_ab * params.b, al)),
            (c_lead * _E8, _pow_over(t, al, (16.0 / al) * (27.0 * params.c) ** al))]


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
    m_trunc = m_cutoff(params.c, params.alpha, n, "main")
    try:
        d2 = params.d ** 2
    except OverflowError:  # an infinite denominator: the count term is e
        d2 = math.inf
    terms = _block_terms(params, t, 23.0, 6.0) + [
        (6.0, _quad(t, 30.0 * n * params.sigma2_mrv, 8.0 * t * m_trunc,
                    8.0 * m_trunc)),
        (_E1, _pow_over(n * params.m, 1.0, 67.0 * params.delta * params.pi_C * d2))]
    flags = params.consistency_warnings()
    if t < 8.0 * math.log(6.0) * m_trunc:
        flags += ("t below the proof threshold 8 ln(6) M",)
    return _bound(terms, flags)


def thm_bi2(params: BernsteinParams, n: float, p: float, t: float) -> BoundValue:
    """Four-term variant trading the count tail for a K_p-weighted term.

    2 exp(-(t/(54a))^alpha) + 2 (delta pi_C)^-1 exp(-(t/(54b))^alpha)
    + 4 e^8 exp(-t^alpha / ((16/alpha)(27c)^alpha))
    + 6 exp(-t^2 / (37 (1+p) n sigma2 + 18 M d t sqrt(K_p))).
    """
    _check_horizon(n, params.m)
    _check_nonneg(t=t)
    _check_pos(p=p)
    m_trunc = m_cutoff(params.c, params.alpha, n, "main")
    root_kp = math.sqrt(kp_constant(p))
    lin = 18.0 * m_trunc * params.d
    terms = _block_terms(params, t, 54.0, 4.0) + [
        (6.0, _quad(t, 37.0 * (1.0 + p) * n * params.sigma2_mrv,
                    lin * t * root_kp, lin * root_kp))]
    return _bound(terms, params.consistency_warnings())


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
    return _bound([(lead, _quad(
        t, 32.0 * n * sigma2_mrv,
        433.0 * t * delta * pi_C * f_sup * D * D * _log_n(n),
        433.0 * delta * pi_C * f_sup * D * D * _log_n(n)))])


def bbi_constants(delta: float, pi_C: float, D: float) -> tuple:
    """(K, tau) with K = e^10 + 2 (delta pi_C)^-1 and tau = 433 delta pi_C D^2.

    thm_sbi then reads K exp(-t^2 / (32 n sigma2 + tau t f_sup log n)).
    """
    _check_split_mass(delta, pi_C)
    _check_nonneg(D=D)
    return _E10 + 2.0 / (delta * pi_C), 433.0 * delta * pi_C * D * D


_DRIFT_FIELDS = {
    "i": ("delta", "alpha", "l", "k", "K", "V_x", "pi_exp_half"),
    "ii": ("delta", "alpha", "l", "k", "K", "V_x", "beta", "pi_V",
           "sup_tau_norm", "pi_tau_norm"),
    "iii": ("D", "f_sup")}


def param_bounds_from_drift(drift_data: dict) -> dict:
    """Norm bounds a, b, c from drift-condition summaries.

    Scenario "i" (bounded f, drift with constants k, K, level V_x at
    the start, stationary exp(V)/2 mass), scenario "ii" (unbounded f
    with a beta-moment envelope, beta > alpha required), scenario "iii"
    (direct caps c <= D f_sup, a, b <= 2 D f_sup).
    """
    data = dict(drift_data)
    scenario = str(data.pop("scenario", "")).lower()
    if scenario not in _DRIFT_FIELDS:
        raise ValueError("scenario must be one of i, ii, iii")
    for key in _DRIFT_FIELDS[scenario]:
        if key not in data:
            raise ValueError(f"drift scenario {scenario} misses required "
                             f"field {key!r}")
    if scenario == "iii":
        d_cap, f_sup = float(data["D"]), float(data["f_sup"])
        _check_nonneg(D=d_cap, f_sup=f_sup)
        return {"scenario": "iii", "a": 2.0 * d_cap * f_sup,
                "b": 2.0 * d_cap * f_sup, "c": d_cap * f_sup}
    delta = float(data["delta"])
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    alpha = _check_alpha(data["alpha"])
    lead = math.log(6.0 / (2.0 - delta)) / math.log(2.0 / (2.0 - delta))
    l_val, k_val, big_k, v_x = (float(data[key]) for key in ("l", "k", "K", "V_x"))
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
    pi_v, sup_tau, pi_tau = (float(data[key]) for key in
                             ("pi_V", "sup_tau_norm", "pi_tau_norm"))
    _check_nonneg(sup_tau_norm=sup_tau, pi_tau_norm=pi_tau)
    inner = max(k_val + v_x + big_k + math.log(pi_v + k_val), _LN2) / _LN2
    bound = ((2.0 * lead) ** (1.0 / alpha) * l_val * (sup_tau + pi_tau)
             * inner ** (1.0 / gamma))
    return {"scenario": "ii", "a": bound, "b": bound, "c": bound}


def _keyword_bundle(theorem, **defaults):
    """theorem(params, n, t, ...) on keyword arguments: the BernsteinParams
    fields, n, t and the theorem's other arguments, else their defaults."""
    name, bundle = theorem.__name__, fields(BernsteinParams)

    def evaluate(**kv):
        missing = [f.name for f in bundle
                   if f.default is MISSING and f.name not in kv]
        if missing:
            raise ValueError(f"missing parameters {missing} for the bundle bound")
        params = BernsteinParams(**{f.name: kv.pop(f.name) for f in bundle
                                    if f.name in kv})
        n, t = kv.pop("n", None), kv.pop("t", None)
        if n is None or t is None:
            raise ValueError(f"{name} needs n and t")
        extra = {key: kv.pop(key, value) for key, value in defaults.items()}
        result = theorem(params, n, t=t, **extra)
        if kv:
            raise ValueError(f"unknown arguments {sorted(kv)} for {name}")
        return result

    evaluate.__name__ = name
    return evaluate


# The keyword-argument evaluators by name, the registry the command line reads
EVALUATORS = {fn.__name__: fn for fn in (
    m_cutoff, classical_bernstein, psi1_bernstein, iid_unbounded,
    random_sum_bound, one_dep_bounded, one_dep_sup, one_dep_stopped,
    kp_constant, regen_count_tail, regen_count_psi1, _keyword_bundle(thm_bi),
    _keyword_bundle(thm_bi2, p=2.0 / 3.0), thm_sbi)}
