"""Checks of one round's outputs against the references in refs.py.

Imported by the round process only after its time and memory are read.
Every check returns a list of problem strings; an empty list means the
output agrees with its reference.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

import refs
from workloads import (LONG_CHAIN, MOD1_BITS, SIZES, TWO_BLOCK_GRIDS,
                       WIDE_CHAIN)


def _default_grid(n: int) -> np.ndarray:
    """The verify CLI's grid when none is given."""
    return np.linspace(0.0, 3.0 * math.sqrt(n), 50)


def check_verify(label: str, values: dict, *, chain: str, n: int,
                 replicas: int, backend: str, excursions: int | None = None
                 ) -> list:
    """Problems with one verify run's report, curves and stdout."""
    report = json.loads(values["report"])
    problems = []
    if json.loads(values["stdout"]) != report:
        problems.append(f"{label}: stdout differs from report.json")
    problems += refs.check_true(f"{label}: report passed", report["passed"])
    for name, verdict in sorted(report["verdicts"].items()):
        problems += refs.check_true(f"{label}: {name} verdict passed",
                                    verdict["passed"])
    if report["backend"] != backend:
        problems.append(f"{label}: backend {report['backend']!r}, "
                        f"resolved {backend!r}")
    tail = report["tail"]
    if tail["n"] != n or tail["replicas"] != replicas:
        problems.append(f"{label}: tail n={tail['n']} replicas="
                        f"{tail['replicas']}, asked {n} and {replicas}")
    t = np.asarray(tail["t"])
    if not np.array_equal(t, _default_grid(n)):
        problems.append(f"{label}: tail grid is not the default grid")
    rows = values["curves"].decode().strip().split("\n")[1:]
    csv_estimate = [float(row.split(",")[1]) for row in rows]
    if csv_estimate != tail["estimate"]:
        problems.append(f"{label}: curves.csv estimates differ from report.json")
    sigma2 = report["params"]["sigma2_mrv"]
    if chain == "mod1":
        return problems + check_mod1_sigma2(label, sigma2, report["diagnostics"],
                                            excursions)
    params = LONG_CHAIN if chain == "long" else WIDE_CHAIN
    ref = refs.two_state_sigma2(params["a"], params["b"])
    problems += refs.check_close(f"{label}: sigma2", sigma2, ref, 1e-9 * ref)
    exact = refs.two_state_tail(params["a"], params["b"], n, t)
    problems += refs.check_tail(f"{label}: tail", t, tail["estimate"],
                                replicas, exact)
    return problems


def check_mod1_sigma2(label: str, sigma2, diagnostics: dict,
                      excursions: int) -> list:
    """The fit uses every excursion of its long run, at least as many as asked."""
    used = diagnostics["n_excursions"]
    if used < excursions:
        return [f"{label}: fit used {used} excursions, asked {excursions}"]
    return refs.check_close(f"{label}: sigma2", sigma2,
                            refs.mod1_cos_sigma2(MOD1_BITS),
                            refs.mod1_sigma2_tolerance(used))


def check_pitman(label: str, values: dict, ref: float, variance: float,
                 replicas: int) -> list:
    """rhs against its closed form; lhs within z SE of it, with the SE
    from the exact variance of one replica's total, not the program's."""
    problems = refs.check_close(f"{label}: rhs", values["rhs"], ref, 1e-12 * ref)
    problems += refs.check_within_se(f"{label}: lhs", values["lhs"], ref,
                                     math.sqrt(variance / replicas))
    problems += refs.check_true(f"{label}: passed", values["passed"])
    if values["replicas"] != replicas:
        problems.append(f"{label}: {values['replicas']} replicas")
    return problems


def check_fit(label: str, values: dict, source: str) -> list:
    """sigma^2 source and fitted norms; callers add the sigma^2 check."""
    params = values["params"]
    problems = []
    if values["diagnostics"]["sigma2_source"] != source:
        problems.append(f"{label}: sigma2 source "
                        f"{values['diagnostics']['sigma2_source']!r}")
    for key in ("a", "b", "c", "d", "D"):
        value = params[key]
        if not (isinstance(value, float) and math.isfinite(value) and value > 0):
            problems.append(f"{label}: fitted {key} = {value!r}")
    return problems


def check_two_state_fit(label: str, values: dict, sigma2: float) -> list:
    return check_fit(label, values, "exact") + refs.check_close(
        f"{label}: sigma2", values["params"]["sigma2_mrv"], sigma2, 1e-9 * sigma2)


def check_mod1_fit(label: str, values: dict, excursions: int) -> list:
    return check_fit(label, values, "regenerative") + check_mod1_sigma2(
        label, values["params"]["sigma2_mrv"], values["diagnostics"], excursions)


def check_structure(label: str, values: dict, moments: tuple) -> list:
    mean, var = moments
    problems = refs.check_true(f"{label}: passed", values["passed"])
    problems += refs.check_within_se(f"{label}: mean gap", values["mean_gap"],
                                     mean, math.sqrt(var / values["n_gaps"]))
    return problems


def check_two_block(label: str, values: dict, h: str, n: int,
                    replicas: int) -> list:
    t = np.asarray(values["t"])
    est = np.asarray(values["estimate"])
    problems = []
    if values["replicas"] != replicas or values["n"] != n:
        problems.append(f"{label}: n={values['n']} replicas={values['replicas']}")
    if not np.array_equal(t, np.asarray(TWO_BLOCK_GRIDS[h])):
        problems.append(f"{label}: grid differs from the one asked")
    if h == "difference":
        problems += refs.check_tail(label, t, est, replicas,
                                    refs.two_block_difference_tail(n, t))
    elif est[0] != 1.0:
        # max_k |S_k| > 0 almost surely
        problems.append(f"{label}: P(max > 0) = {est[0]!r}")
    return problems


def checkers(name: str, size: str, backend: str) -> dict:
    """Label -> check of that operation, called as check(label, values)."""
    sz = SIZES[size]
    partial = functools.partial
    if name == "verify-long":
        return {"verify:two-state": partial(
            check_verify, chain="long", n=sz["long_n"],
            replicas=sz["long_replicas"], backend=backend)}
    if name == "verify-wide":
        return {
            "verify:two-state": partial(
                check_verify, chain="wide", n=sz["wide_n"],
                replicas=sz["wide_replicas"], backend=backend),
            "verify:mod1": partial(
                check_verify, chain="mod1", n=sz["wide_n"],
                replicas=sz["wide_replicas"], backend=backend,
                excursions=sz["mod1_excursions"]),
        }
    a, b, delta = LONG_CHAIN["a"], LONG_CHAIN["b"], LONG_CHAIN["delta"]
    pitman = partial(check_pitman, replicas=sz["pitman_replicas"])
    gap = refs.two_state_excursion_moments(a, b, delta, (1.0, 1.0))
    visits_1 = refs.two_state_excursion_moments(a, b, delta, (0.0, 1.0))
    two_block = partial(check_two_block, n=sz["two_block_n"],
                        replicas=sz["two_block_replicas"])
    return {
        "pitman:two-state:one": partial(
            pitman, ref=refs.two_state_pitman_rhs(a, b, delta, "one"),
            variance=gap[1]),
        "pitman:two-state:state:1": partial(
            pitman, ref=refs.two_state_pitman_rhs(a, b, delta, "state:1"),
            variance=visits_1[1]),
        "pitman:mod1:one": partial(pitman, ref=refs.MOD1_PITMAN_ONE,
                                   variance=refs.MOD1_BLOCK_MOMENTS[1]),
        "fit:two-state": partial(check_two_state_fit,
                                 sigma2=refs.two_state_sigma2(a, b)),
        "fit:mod1": partial(check_mod1_fit, excursions=sz["mod1_excursions"]),
        "structure:two-state": partial(check_structure, moments=gap),
        "structure:mod1": partial(check_structure,
                                  moments=refs.MOD1_GAP_MOMENTS),
        "two-block:product": partial(two_block, h="product"),
        "two-block:difference": partial(two_block, h="difference"),
    }


def check(name: str, size: str, outputs: dict, backend: str) -> list:
    """Problems with the outputs of one round; outputs maps label -> values.

    An operation that failed has no outputs and is counted, not checked.
    """
    problems = []
    for label, checker in checkers(name, size, backend).items():
        if label in outputs:
            problems += checker(label, outputs[label])
    return problems
