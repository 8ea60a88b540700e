"""Raw bound values over an edge grid, hashed, to show that a change to
the bound formulas leaves every bit of them unchanged.

    python3 benchmarks/bound_grid.py [NAME]      (PYTHONPATH names the source)

Without NAME, prints the names that have a grid: every evaluator of
the `bounds` registry, thm_bi, thm_bi2, tail_from_norm and
tail_conditional. With NAME, evaluates it at every point of its grid
and prints the number of points and the sha256 of the raw values
(float.hex, or the exception a point raises). The grids reach t = 0,
subnormal t, zero scales (c = d = norm = 0), denominators that overflow
to inf and alpha from 0.25 to 1. output_digest.sh records one row per
name; the capped values and the flags are not hashed.
"""

import hashlib
import itertools
import sys

from regen_bernstein import (EVALUATORS, BernsteinParams, thm_bi, thm_bi2,
                             tail_conditional, tail_from_norm)

T = (0.0, 5e-324, 1e-310, 0.5, 3.0, 40.0, 1e154, 1e300)
ALPHAS = (0.25, 1.0)
SCALES = (5e-324, 1.0, 1e300)


def _bundle(theorem, **extra):
    """theorem(params, n, t, ...) as a function of keyword arguments."""
    def evaluate(n, t, **fields):
        return theorem(BernsteinParams(**fields), n, t=t, **extra)
    return evaluate


_BUNDLE_GRID = dict(
    ab=((0.0, 0.0), (1.0, 1.0), (1e300, 5e-324)), c=(0.0, 5e-324, 1.0, 1e300),
    d=(0.0, 2.0, 1e154), alpha=ALPHAS, sigma2_mrv=(0.0, 1e300), n=(100,), t=T)

GRIDS = {
    "m_cutoff": (EVALUATORS["m_cutoff"], dict(
        c=(0.0, 5e-324, 1.0, 1e300), alpha=(0.25, 0.5, 0.75, 1.0),
        n=(0.5, 1, 100, 1e300), variant=("main", "iid"))),
    "classical_bernstein": (EVALUATORS["classical_bernstein"], dict(
        n=(1, 100, 1e300), sigma2=(0.0, 5e-324, 0.25, 1e300),
        M=(0.0, 1.0, 1e300), t=T, sup_version=(False, True))),
    "psi1_bernstein": (EVALUATORS["psi1_bernstein"], dict(
        n=(1, 100, 1e300), tau=SCALES, t=T)),
    "iid_unbounded": (EVALUATORS["iid_unbounded"], dict(
        n=(100, 1e300), c=SCALES, alpha=(0.25, 0.5, 1.0),
        sigma2=(0.0, 0.25, 1e300), t=T)),
    "random_sum_bound": (EVALUATORS["random_sum_bound"], dict(
        l=(100,), v=SCALES, alpha=ALPHAS, sigma2=(0.0, 0.25, 1e300),
        a=(1.0, 1e300), psi1_excess=(0.0, 4.0), t=T)),
    "one_dep_bounded": (EVALUATORS["one_dep_bounded"], dict(
        n=(1, 1e300), m_dep=(1, 2), sigma_inf2=(0.0, 0.25, 1e300),
        M=(0.0, 1.0, 1e300), t=T)),
    "one_dep_sup": (EVALUATORS["one_dep_sup"], dict(
        n=(100, 1e300), m_dep=(1, 2), c=SCALES, alpha=ALPHAS,
        sigma_inf2=(0.0, 1e300), t=T)),
    "one_dep_stopped": (EVALUATORS["one_dep_stopped"], dict(
        n=(100,), c=SCALES, alpha=ALPHAS, sigma_inf2=(0.0, 1e300),
        a=(1.0, 1e300), b_factor=(0.0, 2.0, 1e300), t=T)),
    "kp_constant": (EVALUATORS["kp_constant"], dict(
        p=(5e-324, 1e-3, 0.5, 2.0 / 3.0, 1.0, 1e300))),
    "regen_count_tail": (EVALUATORS["regen_count_tail"], dict(
        n=(1, 1e300), p=(1e-3, 0.5, 1e300), d=(1e-3, 1.0, 1e300),
        mean_gap=(1e-3, 2.0, 1e300))),
    "regen_count_psi1": (EVALUATORS["regen_count_psi1"], dict(
        p=(1e-3, 0.5, 1e300), d=(1e-3, 1.0, 1e300),
        mean_gap=(1e-3, 2.0, 1e300))),
    "thm_sbi": (EVALUATORS["thm_sbi"], dict(
        n=(100, 1e300), t=T, sigma2_mrv=(0.0, 0.25, 1e300),
        f_sup=(0.0, 1.0, 1e300), D=(0.0, 3.0, 1e300), delta=(1e-3, 1.0),
        pi_C=(0.5,))),
    "thm_bi": (_bundle(thm_bi), _BUNDLE_GRID),
    "thm_bi2": (_bundle(thm_bi2, p=0.5), _BUNDLE_GRID),
    "tail_from_norm": (tail_from_norm, dict(
        norm=(0.0, 5e-324, 1.0, 1e300), alpha=(0.25, 0.5, 0.75, 1.0), t=T)),
    "tail_conditional": (tail_conditional, dict(
        norm=(0.0, 5e-324, 1.0, 1e300), alpha=(0.25, 0.5, 0.75, 1.0), t=T)),
}

# the fixed bundle fields: delta pi_C = 1/4 weights the b term by 8
_FIXED = dict(delta=0.5, pi_C=0.5, m=1)


def _points(grid):
    names = list(grid)
    for values in itertools.product(*grid.values()):
        point = dict(zip(names, values))
        if "ab" in point:
            point["a"], point["b"] = point.pop("ab")
            point.update(_FIXED)
        yield point


def _raw(fn, point) -> str:
    try:
        out = fn(**point)
    except Exception as exc:  # an error is an outcome like any value
        return f"{type(exc).__name__}: {exc}"
    return float(getattr(out, "raw", out)).hex()


def main(name: str) -> None:
    missing = set(EVALUATORS) - set(GRIDS)
    if missing:
        raise SystemExit(f"no grid for {sorted(missing)}")
    fn, grid = GRIDS[name]
    lines = [_raw(fn, point) for point in _points(grid)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(len(lines), digest)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(sys.argv[1])
    else:
        print("\n".join(GRIDS))
