"""Exponential Orlicz quasi-norms and the small lemmas built on them.

The psi_alpha quasi-norm of X is the smallest c > 0 with
E exp(|X|^alpha / c^alpha) <= 2. For alpha in (0, 1) the triangle
inequality only holds up to a constant, which is why the bridging and
quasi-triangle helpers below exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundValue, _bound, _check_alpha, _pow_over, _ratio_pow

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class OrliczEstimate:
    """Empirical psi_alpha quasi-norm with its bisection bracket."""

    alpha: float
    value: float
    bracket: tuple
    n_samples: int

    def exp_moment(self, samples) -> float:
        """Empirical mean of exp(|x|^alpha / value^alpha) at the estimate."""
        if self.value == 0.0:
            return 1.0
        x = np.abs(np.asarray(samples, dtype=np.float64))
        return float(np.mean(np.exp((x / self.value) ** self.alpha)))


def psi_norm_empirical(samples, alpha: float, tol: float = 1e-9) -> OrliczEstimate:
    """Bisection solve of mean exp(|x|^alpha / c^alpha) = 2.

    The starting bracket [max|x| / ln(2n)^(1/alpha),
    max|x| / ln(2)^(1/alpha)] always contains the root: at the upper end
    every exponent is at most ln 2, at the lower end the largest sample
    alone contributes 2n to the sum. Bisection runs to relative width
    tol on c.
    """
    alpha = _check_alpha(alpha)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    x = np.abs(x)
    xmax = float(x.max())
    if xmax == 0.0:
        return OrliczEstimate(alpha=alpha, value=0.0, bracket=(0.0, 0.0),
                              n_samples=int(x.size))
    n = x.size
    pow_x = x ** alpha

    def mean_exp(c):
        with np.errstate(over="ignore"):
            return float(np.mean(np.exp(pow_x / c ** alpha)))

    lo = xmax / math.log(2.0 * n) ** (1.0 / alpha)
    hi = xmax / _LN2 ** (1.0 / alpha)
    # numerical safety only, the bracket is valid by construction
    while mean_exp(hi) > 2.0:
        hi *= 2.0
    while mean_exp(lo) < 2.0 and lo > 1e-300:
        lo *= 0.5
    return OrliczEstimate(alpha=alpha, value=_psi_root(mean_exp, lo, hi, tol),
                          bracket=(lo, hi), n_samples=int(n))


def _psi_root(mean_exp, lo: float, hi: float, tol: float) -> float:
    """The c in [lo, hi] with mean_exp(c) = 2, by bisection.

    mean_exp is non-increasing in c, at least 2 at lo and below 2 at hi.
    Halves the bracket until its width is at most tol times its upper
    end (200 halvings at most) and returns the midpoint.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_exp(mid) >= 2.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * hi:
            break
    return 0.5 * (lo + hi)


def psi_alpha_via_psi1(samples, alpha: float, tol: float = 1e-9) -> float:
    """psi_alpha norm computed as the psi_1 norm of |X|^alpha to 1/alpha.

    Identical in exact arithmetic to psi_norm_empirical, so the pair
    gives an internal consistency check of the estimator.
    """
    alpha = _check_alpha(alpha)
    x = np.abs(np.asarray(samples, dtype=np.float64)) ** alpha
    inner = psi_norm_empirical(x, 1.0, tol=tol)
    return inner.value ** (1.0 / alpha)


def lemma_bp_bridge(norm_psi1: float, alpha: float) -> float:
    """Upper bound of a psi_alpha norm by a psi_1 norm.

    ||X||_{psi_alpha} <= (1 / ln 2)^((1 - alpha) / alpha) ||X||_{psi_1}.
    At alpha = 1 the factor is 1.
    """
    alpha = _check_alpha(alpha)
    if norm_psi1 < 0.0:
        raise ValueError("norms are nonnegative")
    return (1.0 / _LN2) ** ((1.0 - alpha) / alpha) * float(norm_psi1)


def product_norm_bound(norm_p: float, norm_q: float, p: float, q: float) -> float:
    """||XY||_{psi_1} <= ||X||_{psi_p} ||Y||_{psi_q} for 1/p + 1/q = 1."""
    if p <= 1.0 or q <= 1.0:
        raise ValueError("p and q must exceed 1")
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
        raise ValueError("p and q must be conjugate, 1/p + 1/q = 1")
    return float(norm_p) * float(norm_q)


def quasi_triangle(norm_a: float, norm_b: float, alpha: float) -> float:
    """(a^alpha + b^alpha)^(1/alpha), at most 2^(1/alpha - 1) (a + b)."""
    alpha = _check_alpha(alpha)
    a = float(norm_a)
    b = float(norm_b)
    if a < 0.0 or b < 0.0:
        raise ValueError("norms are nonnegative")
    return (a ** alpha + b ** alpha) ** (1.0 / alpha)


def conditional_mean_norm_factor(alpha: float) -> tuple:
    """(tight, loose) growth factors for conditional means in psi_alpha.

    tight = (1 + ln(alpha e^((1 - alpha) / alpha)) / ln 2)^(1/alpha),
    loose = (2 / alpha)^(1/alpha). Both equal what they should at the
    endpoints: tight(1) = 1, loose(1) = 2.
    """
    alpha = _check_alpha(alpha)
    tight = (1.0 + math.log(alpha * math.exp((1.0 - alpha) / alpha)) / _LN2) \
        ** (1.0 / alpha)
    loose = (2.0 / alpha) ** (1.0 / alpha)
    return tight, loose


def moment_bound(norm: float, beta: float) -> float:
    """E |X|^beta <= norm^beta * 2 Gamma(beta + 1) when ||X||_{psi_1} = norm.

    For integer beta the sharper factor Gamma(beta + 1) applies.
    """
    beta = float(beta)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if norm < 0.0:
        raise ValueError("norms are nonnegative")
    factor = math.gamma(beta + 1.0)
    if not beta.is_integer():
        factor *= 2.0
    return norm ** beta * factor


def tail_from_norm(norm: float, alpha: float, t: float) -> BoundValue:
    """P(|X| > t) <= min(1, 2 exp(-(t / norm)^alpha))."""
    alpha = _check_alpha(alpha)
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if norm < 0.0:
        raise ValueError("norms are nonnegative")
    return _bound([(2.0, _ratio_pow(t, norm, alpha))])


def tail_conditional(norm: float, alpha: float, t: float) -> BoundValue:
    """Tail bound surviving conditioning, min(1, 6 exp(-t^alpha / (2 norm^alpha))).

    Valid for t >= (2 / alpha)^(1/alpha) * norm. Below that threshold
    the bound is the trivial 1, flagged as such and as vacuous.
    """
    alpha = _check_alpha(alpha)
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if norm < 0.0:
        raise ValueError("norms are nonnegative")
    if t < (2.0 / alpha) ** (1.0 / alpha) * norm:
        return _bound([(1.0, 0.0)], ("t below validity threshold",))
    return _bound([(6.0, _pow_over(t, alpha, 2.0 * norm ** alpha))])
