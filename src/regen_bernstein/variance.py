"""Asymptotic variance of time averages, exact and estimated.

Two asymptotic variances appear. sigma2_mrv normalizes the path sum of
a centered f over n steps; sigma2_inf normalizes the excursion sum over
the number of regenerations. They are linked through the mean gap:
sigma2_inf = sigma2_mrv * m / (delta * pi(C)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import TAG_BOOTSTRAP, substream
from .bounds import _check_split_mass
from .chain_models import ChainInstance, resolve_functional


@dataclass(frozen=True)
class VarianceEstimate:
    """A variance value with its estimation pedigree.

    kind names the estimator. se is None for exact computations. value
    is clamped at 0; raw_value keeps the unclamped plug-in number.
    """

    kind: str
    value: float
    se: float | None = None
    n_samples: int = 0
    raw_value: float = 0.0
    detail: dict = field(default_factory=dict)


def _centered_values(chain: ChainInstance, f) -> tuple:
    func = resolve_functional(chain, f)
    if func.values is None:
        raise ValueError("exact variance needs a finite chain with tabulated f")
    pi = chain.pi_vector()
    vals = func.values
    return vals - float(pi @ vals), pi


def sigma_mrv_exact(chain: ChainInstance, f) -> float:
    """Exact asymptotic variance through the fundamental matrix.

    With fbar the centered functional and g solving the Poisson
    equation via Z = (I - P + Pi)^-1, the variance is
    2 pi(fbar g) - pi(fbar^2). Finite chains only.
    """
    fbar, pi = _centered_values(chain, f)
    mat = chain.kernel.matrix
    k = mat.shape[0]
    z_inv = np.eye(k) - mat + np.outer(np.ones(k), pi)
    g = np.linalg.solve(z_inv, fbar)
    value = 2.0 * float(pi @ (fbar * g)) - float(pi @ (fbar * fbar))
    return max(value, 0.0)


def sigma_mrv_cov_series(chain: ChainInstance, f, tol: float = 1e-12,
                         max_lag: int = 100_000) -> float:
    """Same variance summed as Var + 2 sum_k Cov(f(X_0), f(X_k)).

    An independent route to sigma_mrv_exact, kept separate so the two
    can cross-check each other. Truncates when a lag contributes less
    than tol twice in a row.
    """
    fbar, pi = _centered_values(chain, f)
    mat = chain.kernel.matrix
    total = float(pi @ (fbar * fbar))
    w = fbar.copy()
    small = 0
    for _ in range(max_lag):
        w = mat @ w
        cov = float(pi @ (fbar * w))
        total += 2.0 * cov
        if abs(cov) < tol:
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return max(total, 0.0)


def two_state_sigma_mrv(a: float, b: float) -> float:
    """Closed form a b (2 - a - b) / (a + b)^3 for the centered state indicator."""
    return a * b * (2.0 - a - b) / (a + b) ** 3


def _excursion_plug_in(chi) -> float:
    """E chi^2 + 2 E chi_i chi_{i+1} over one excursion series."""
    m2 = float(np.mean(chi * chi))
    m11 = float(np.mean(chi[:-1] * chi[1:]))
    return m2 + 2.0 * m11


def _block_bootstrap_se(statistic, samples: tuple, bootstrap: int,
                        rng) -> tuple:
    """(standard error, block length) of statistic(*samples), moving blocks.

    Each resample takes the same indices of every aligned sample: blocks
    of length max(4, round(k^(1/3))) at uniform starts, cut to the
    sample size k, so a block spans the 1-dependence of adjacent
    excursions.
    """
    k = samples[0].size
    block = max(4, int(round(k ** (1.0 / 3.0))))
    n_blocks = -(-k // block)
    boot = np.empty(bootstrap)
    for i in range(bootstrap):
        starts = rng.integers(0, k - block + 1, size=n_blocks)
        idx = (starts[:, None] + np.arange(block)[None, :]).ravel()[:k]
        boot[i] = statistic(*(sample[idx] for sample in samples))
    return float(boot.std(ddof=1)), block


def sigma_inf_from_excursions(chi, *, bootstrap: int = 200,
                              seed: int = 0) -> VarianceEstimate:
    """Plug-in excursion variance E chi^2 + 2 E chi_i chi_{i+1}.

    chi must come from the stationary regime (blocks after the first
    regeneration) of a centered functional; the estimator does not
    subtract a mean. Adjacent products capture the 1-dependence; terms
    two or more apart vanish. The standard error comes from a moving
    block bootstrap with blocks long enough to span the dependence.
    """
    chi = np.asarray(chi, dtype=np.float64)
    k = chi.size
    if k < 2:
        raise ValueError("need at least 2 excursions")
    raw = _excursion_plug_in(chi)
    se, block = _block_bootstrap_se(_excursion_plug_in, (chi,), bootstrap,
                                    substream(seed, TAG_BOOTSTRAP, 1))
    return VarianceEstimate(kind="excursion_plug_in", value=max(raw, 0.0),
                            se=se, n_samples=int(k), raw_value=raw,
                            detail={"bootstrap": bootstrap, "block": block})


def sigma_mrv_regenerative(chi, gaps, *, bootstrap: int = 200,
                           seed: int = 0) -> VarianceEstimate:
    """Regenerative estimate sigma2_inf_hat / mean gap.

    chi and gaps must be aligned per excursion. The standard error
    bootstraps the ratio jointly so numerator and denominator noise
    stay coupled.
    """
    chi = np.asarray(chi, dtype=np.float64)
    gaps = np.asarray(gaps, dtype=np.float64)
    if chi.size != gaps.size:
        raise ValueError("chi and gaps must be aligned per excursion")
    k = chi.size
    if k < 2:
        raise ValueError("need at least 2 excursions")
    mean_gap = float(gaps.mean())
    if mean_gap <= 0.0:
        raise ValueError("mean gap must be positive")

    def ratio(x, g):
        return _excursion_plug_in(x) / float(g.mean())

    raw = ratio(chi, gaps)
    se, block = _block_bootstrap_se(ratio, (chi, gaps), bootstrap,
                                    substream(seed, TAG_BOOTSTRAP, 2))
    return VarianceEstimate(kind="mrv_regenerative", value=max(raw, 0.0),
                            se=se, n_samples=int(k), raw_value=raw,
                            detail={"mean_gap": mean_gap, "block": block,
                                    "bootstrap": bootstrap})


def sigma_mrv_batch(series, batch_length: int, *,
                    cumulative: bool = False) -> VarianceEstimate:
    """Batch-means estimate b * Var(batch means).

    series holds per-step f values, or cumulative partial sums when
    cumulative=True (length n + 1 with a leading 0). Needs at least 20
    batches. The standard error uses the chi-square spread of a
    variance over a - 1 degrees of freedom.
    """
    series = np.asarray(series, dtype=np.float64)
    b = int(batch_length)
    if b < 1:
        raise ValueError("batch length must be positive")
    if cumulative:
        n = series.size - 1
        sums = series
    else:
        n = series.size
        sums = np.concatenate([[0.0], np.cumsum(series)])
    a = n // b
    if a < 20:
        raise ValueError(f"need n / b >= 20 batches, got {a}")
    ends = sums[b * np.arange(1, a + 1)]
    starts = sums[b * np.arange(a)]
    means = (ends - starts) / b
    value = b * float(np.var(means, ddof=1))
    se = value * math.sqrt(2.0 / (a - 1))
    return VarianceEstimate(kind="batch_means", value=value, se=se,
                            n_samples=int(a),
                            raw_value=value, detail={"batch_length": b})


def mean_excursion_value(f_bar: float, delta: float, pi_C: float, m: int) -> float:
    """Stationary mean of one excursion, m f_bar / (delta pi_C).

    f_bar is the stationary mean of f itself; for centered f this is 0,
    which is why centered excursions have mean zero regardless of the
    gap law.
    """
    _check_split_mass(delta, pi_C)
    if int(m) < 1:
        raise ValueError("m must be a positive integer")
    return int(m) * float(f_bar) / (delta * pi_C)
