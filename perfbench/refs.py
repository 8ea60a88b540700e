"""Reference values computed apart from regen_bernstein, and the checks
that compare workload outputs with them.

Nothing here imports the package under test. Every check returns a list
of problem strings; an empty list means the output agrees with its
reference.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import stats

# False-alarm probability of one statistical check on a correct output.
# A round makes up to nine such checks, so these checks fail a correct
# program on fewer than one seed in ten thousand.
FAMILY_ALPHA = 1e-5

# Standard error of the regenerative sigma^2 estimate on the mod-1 chain
# with cos2pi, per excursion count K: SE(K) = _MOD1_SE_AT_2E5 * sqrt(2e5 / K).
# Bootstrap standard errors at K = 16000 on three seeds were 0.0102-0.0113.
_MOD1_SE_AT_2E5 = 0.003
_MOD1_SIGMA2_Z = 6.0


# ---------------------------------------------------------------------------
# two-state chain [[1-a, a], [b, 1-b]]
# ---------------------------------------------------------------------------


def two_state_matrix(a: float, b: float) -> np.ndarray:
    return np.array([[1.0 - a, a], [b, 1.0 - b]])


def two_state_pi(a: float, b: float) -> np.ndarray:
    """Stationary law (P10, P01) / (P01 + P10) of the two-state matrix."""
    matrix = two_state_matrix(a, b)
    up, down = matrix[0, 1], matrix[1, 0]
    return np.array([down, up]) / (up + down)


def two_state_sigma2(a: float, b: float) -> float:
    """pq (1 + lambda) / (1 - lambda) for the centered indicator of state 1."""
    q, p = two_state_pi(a, b)
    lam = 1.0 - a - b
    return float(p * q * (1.0 + lam) / (1.0 - lam))


def two_state_sum_law(a: float, b: float, n: int) -> tuple:
    """(sums, probabilities) of sum_{i<n} (1{X_i = 1} - pi_1) from X_0 ~ pi.

    Dynamic programming over (current state, visits to state 0 so far);
    the sum equals (n - visits to 0) - n pi_1.
    """
    matrix = two_state_matrix(a, b)
    pi0, pi1 = two_state_pi(a, b)
    at0 = np.zeros(n + 1)  # index = visits to 0, path currently at state 0
    at1 = np.zeros(n + 1)
    at0[1] = pi0
    at1[0] = pi1
    for _ in range(n - 1):
        into0 = at0 * matrix[0, 0] + at1 * matrix[1, 0]
        into1 = at0 * matrix[0, 1] + at1 * matrix[1, 1]
        at0 = np.concatenate(([0.0], into0[:-1]))
        at1 = into1
    mass = at0 + at1
    if abs(mass.sum() - 1.0) > 1e-9:
        raise RuntimeError(f"two-state DP lost mass: {mass.sum()!r}")
    return (n - np.arange(n + 1)) - n * pi1, mass


def two_state_tail(a: float, b: float, n: int, t_grid) -> np.ndarray:
    """Exact P_pi(|sum_{i<n} (1{X_i = 1} - pi_1)| > t) on the grid."""
    sums, mass = two_state_sum_law(a, b, n)
    return np.array([float(mass[np.abs(sums) > t].sum()) for t in t_grid])


def two_state_pitman_rhs(a: float, b: float, delta: float, g: str) -> float:
    """E_nu of sum_{k <= sigma_0} G(X_k) for the atom C = {0}.

    Equals pi(G) / (delta pi(C)); G is "one" or "state:<k>".
    """
    pi = two_state_pi(a, b)
    weight = 1.0 if g == "one" else float(pi[int(g.split(":")[1])])
    return weight / (delta * float(pi[0]))


def two_state_excursion_moments(a: float, b: float, delta: float,
                                weights) -> tuple:
    """(mean, variance) of sum_{k <= sigma_0} weights[X_k] from X_0 ~ nu.

    sigma_0 is the first regeneration time for the atom C = {0}. With
    nu the row at 0, u = delta 1_{0} and B0 = P - u nu (the kernel that
    does not regenerate), first-step analysis gives h1 = w + B0 h1 and
    h2 = w^2 + 2 w (B0 h1) + B0 h2 for the first two moments from each
    state. weights = (1, 1) gives the regeneration gap.
    """
    matrix = two_state_matrix(a, b)
    nu = matrix[0]
    b0 = matrix - np.outer(np.array([delta, 0.0]), nu)
    w = np.asarray(weights, dtype=np.float64)
    resolvent = np.linalg.inv(np.eye(2) - b0)
    h1 = resolvent @ w
    h2 = resolvent @ (w * w + 2.0 * w * (b0 @ h1))
    mean = float(nu @ h1)
    return mean, float(nu @ h2) - mean * mean


# ---------------------------------------------------------------------------
# singular mod-1 chain
# ---------------------------------------------------------------------------


def mod1_phi(bits: int) -> complex:
    """E exp(2 pi i U) for one step, averaged over the two increment laws.

    An increment puts fair random bits on the odd (or the even) binary
    places 2^-j, j = 1..bits, so each law is a product over places.
    """
    odd = even = 1.0 + 0.0j
    for j in range(1, bits + 1):
        factor = (1.0 + cmath.exp(2j * math.pi * 2.0 ** -j)) / 2.0
        if j % 2:
            odd *= factor
        else:
            even *= factor
    return (odd + even) / 2.0


def mod1_cos_sigma2(bits: int) -> float:
    """1/2 Re[(1 + phi) / (1 - phi)]: Cov(f(X_0), f(X_k)) = Re(phi^k) / 2."""
    phi = mod1_phi(bits)
    return 0.5 * ((1.0 + phi) / (1.0 - phi)).real


def mod1_sigma2_tolerance(excursions: int) -> float:
    return _MOD1_SIGMA2_Z * _MOD1_SE_AT_2E5 * math.sqrt(2e5 / excursions)


# Blocks per excursion = Geometric(1/2) (mean 2, variance 2): a two-step
# block regenerates when its two coins differ. The gap is twice that in steps.
MOD1_BLOCK_MOMENTS = (2.0, 2.0)
MOD1_GAP_MOMENTS = (4.0, 8.0)
MOD1_PITMAN_ONE = 2.0  # 1 / (delta pi(C)) with delta = 1/2, pi(C) = 1


# ---------------------------------------------------------------------------
# two-block factor X_i = xi_{i+1} - xi_i, xi uniform on (-1, 1)
# ---------------------------------------------------------------------------


def two_block_difference_tail(n: int, t_grid) -> np.ndarray:
    """P(max_{k<=n} |xi_k - xi_0| > t) for iid uniform(-1, 1) noise.

    Given xi_0 = u the n later values are iid, so P(max <= t) is the
    integral of F_u(t)^n du / 2 with F_u(t) = P(|xi - u| <= t). F_u is
    piecewise linear in u; each piece integrates in closed form.
    """
    out = []
    for t in t_grid:
        t = float(t)
        if t >= 2.0:
            out.append(0.0)
            continue
        if t <= 0.0:
            out.append(1.0)
            continue
        e, big_e = min(t - 1.0, 1.0 - t), max(t - 1.0, 1.0 - t)
        f_mid = min(t, 1.0)
        # on [-1, e]: F = (u + t + 1) / 2; the piece on [E, 1] mirrors it
        edge = 2.0 / (n + 1) * (((e + t + 1.0) / 2.0) ** (n + 1)
                                - (t / 2.0) ** (n + 1))
        below = 0.5 * (2.0 * edge + (big_e - e) * f_mid ** n)
        out.append(1.0 - below)
    return np.array(out)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_tail(label: str, t, estimate, replicas: int, p_ref) -> list:
    """Monte Carlo tail against an exact one, Bonferroni over the grid.

    Each grid point is an exact binomial test of the count against the
    reference probability, at level FAMILY_ALPHA / points; where counts
    are large this is a z * SE band, Bonferroni-corrected over the grid.
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    p_ref = np.clip(np.asarray(p_ref, dtype=np.float64), 0.0, 1.0)
    if estimate.shape != p_ref.shape:
        return [f"{label}: {estimate.size} estimates for {p_ref.size} points"]
    level = FAMILY_ALPHA / (2.0 * estimate.size)
    counts = np.rint(estimate * replicas)
    low = stats.binom.cdf(counts, replicas, p_ref)
    high = stats.binom.sf(counts - 1, replicas, p_ref)
    bad = np.flatnonzero((low < level) | (high < level))
    if bad.size == 0:
        return []
    se = np.sqrt(p_ref * (1.0 - p_ref) / replicas)
    j = int(bad[np.argmax(np.abs(estimate[bad] - p_ref[bad]))])
    z = (estimate[j] - p_ref[j]) / se[j] if se[j] > 0 else math.inf
    return [f"{label}: {bad.size} of {estimate.size} points outside the "
            f"band; worst t={float(t[j])!r} estimate={float(estimate[j])!r} "
            f"exact={float(p_ref[j])!r} ({z:+.2f} SE)"]


def check_close(label: str, value, ref: float, tol: float) -> list:
    """|value - ref| <= tol; tol is absolute."""
    if value is None or not math.isfinite(float(value)) \
            or abs(float(value) - ref) > tol:
        return [f"{label}: {value!r} vs reference {ref!r} (tolerance {tol:.3g})"]
    return []


def check_within_se(label: str, value: float, ref: float, se: float) -> list:
    """|value - ref| within the two-sided FAMILY_ALPHA normal band of se."""
    z = float(stats.norm.isf(FAMILY_ALPHA / 2.0))
    return check_close(label, value, ref, z * se)


def check_true(label: str, flag) -> list:
    return [] if flag is True else [f"{label}: {flag!r}"]
