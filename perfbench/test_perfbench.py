"""Tests of the benchmark itself: references, checks, tracing, toy runs.

    python3 -m pytest perfbench/test_perfbench.py

Each check must pass on a correct output and fail on a deliberately
wrong one; the toy mode runs all three workloads with every check.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import checks
import refs
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# references against second routes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,b", [(0.25, 0.25), (0.3, 0.6)])
def test_two_state_tail_matches_path_enumeration(a, b):
    n = 9
    matrix = refs.two_state_matrix(a, b)
    pi = refs.two_state_pi(a, b)
    f = np.array([0.0, 1.0]) - pi[1]
    grid = np.linspace(0.0, 4.0, 17) + 0.01  # off the lattice of sums: no ties
    exact = np.zeros(grid.size)
    for path in itertools.product((0, 1), repeat=n):
        p = pi[path[0]] * np.prod([matrix[x, y] for x, y in zip(path, path[1:])])
        exact += p * (abs(f[list(path)].sum()) > grid)
    np.testing.assert_allclose(refs.two_state_tail(a, b, n, grid), exact,
                               atol=1e-13)


def test_two_state_closed_forms():
    a, b = 0.25, 0.25
    assert refs.two_state_sigma2(a, b) == pytest.approx(
        a * b * (2 - a - b) / (a + b) ** 3, rel=1e-14)
    assert refs.two_state_sigma2(0.5, 0.5) == pytest.approx(0.25, rel=1e-14)
    mean, var = refs.two_state_excursion_moments(a, b, 1.0, (1.0, 1.0))
    # return time to 0: 1 w.p. 1 - a, else 1 + Geometric(b)
    assert mean == pytest.approx(2.0, rel=1e-12)
    assert var == pytest.approx(6.0, rel=1e-12)
    # with delta = 1 the visits to 1 are the gap minus its last step
    assert refs.two_state_excursion_moments(a, b, 1.0, (0.0, 1.0)) == \
        pytest.approx((1.0, 6.0), rel=1e-12)
    assert refs.two_state_pitman_rhs(a, b, 1.0, "one") == pytest.approx(2.0)
    assert refs.two_state_pitman_rhs(a, b, 1.0, "state:1") == pytest.approx(1.0)


@pytest.mark.parametrize("a,b,delta", [(0.25, 0.25, 1.0), (0.3, 0.6, 0.7)])
def test_excursion_moments_match_the_gap_law(a, b, delta):
    """Against the series P(gap = g) = nu B0^(g-1) u, and Pitman's identity."""
    matrix = refs.two_state_matrix(a, b)
    u = np.array([delta, 0.0])
    b0 = matrix - np.outer(u, matrix[0])
    w, moments = matrix[0].copy(), np.zeros(3)
    for g in range(1, 2000):
        moments += (w @ u) * np.array([1.0, g, g * g])
        w = w @ b0
    mean, var = refs.two_state_excursion_moments(a, b, delta, (1.0, 1.0))
    assert moments[0] == pytest.approx(1.0, rel=1e-12)
    assert mean == pytest.approx(moments[1], rel=1e-12)
    assert var == pytest.approx(moments[2] - moments[1] ** 2, rel=1e-10)
    for weights, g in (((1.0, 1.0), "one"), ((0.0, 1.0), "state:1")):
        assert refs.two_state_excursion_moments(a, b, delta, weights)[0] == \
            pytest.approx(refs.two_state_pitman_rhs(a, b, delta, g), rel=1e-12)


def test_mod1_reference_values():
    phi = refs.mod1_phi(workloads.MOD1_BITS)
    assert abs(phi - complex(0.1732, 0.2999)) < 1e-4
    sigma2 = refs.mod1_cos_sigma2(workloads.MOD1_BITS)
    series = 0.5 + sum((phi ** k).real for k in range(1, 200))
    assert sigma2 == pytest.approx(series, rel=1e-12)
    assert sigma2 == pytest.approx(0.5688, abs=1e-4)


@pytest.mark.parametrize("n", [1, 3, 1000])
def test_two_block_closed_form_matches_quadrature(n):
    grid = [0.0, 0.3, 0.9, 1.0, 1.2, 1.5, 1.99, 2.0]

    def below(t):
        def f(u):
            return ((min(1.0, u + t) - max(-1.0, u - t)) / 2.0) ** n
        return 0.5 * integrate.quad(f, -1.0, 1.0, points=[1 - t, t - 1],
                                    limit=200, epsabs=1e-13)[0]

    quad = np.array([1.0 - below(t) for t in grid])
    np.testing.assert_allclose(refs.two_block_difference_tail(n, grid), quad,
                               atol=1e-9)


# ---------------------------------------------------------------------------
# each check fails on a wrong output
# ---------------------------------------------------------------------------


def _shift_5se(estimate, p_ref, replicas):
    se = np.sqrt(p_ref * (1 - p_ref) / replicas)
    direction = np.where(estimate >= p_ref, 1.0, -1.0)
    return np.clip(estimate + 5.0 * direction * se, 0.0, 1.0)


def test_tail_check_passes_a_correct_curve_and_fails_a_shifted_one():
    a = b = 0.25
    n, replicas = 400, 4000
    grid = np.linspace(0.0, 3.0 * math.sqrt(n), 50)
    exact = refs.two_state_tail(a, b, n, grid)
    # replicas drawn from the DP's law of the sum, apart from the program
    sums, mass = refs.two_state_sum_law(a, b, n)
    draws = np.abs(np.random.default_rng(3).choice(sums, size=replicas, p=mass))
    estimate = np.array([(draws > t).mean() for t in grid])
    assert refs.check_tail("tail", grid, estimate, replicas, exact) == []
    assert refs.check_tail("tail", grid, _shift_5se(estimate, exact, replicas),
                           replicas, exact)


def test_sigma2_checks_fail_when_off_by_20_percent():
    ref = refs.two_state_sigma2(0.25, 0.25)
    assert refs.check_close("s", ref, ref, 1e-9 * ref) == []
    assert refs.check_close("s", 1.2 * ref, ref, 1e-9 * ref)
    mod1 = refs.mod1_cos_sigma2(workloads.MOD1_BITS)
    diag = {"n_excursions": 16000}
    assert checks.check_mod1_sigma2("m", 0.5644, diag, 16000) == []
    for factor in (0.8, 1.2):
        assert checks.check_mod1_sigma2("m", factor * mod1, diag, 16000)
    assert checks.check_mod1_sigma2("m", mod1, {"n_excursions": 100}, 16000)


def test_pitman_structure_and_two_block_checks_fail_on_wrong_outputs():
    se = math.sqrt(6.0 / 2000)
    good = {"name": "one", "lhs": 2.0 - se, "se": se, "rhs": 2.0,
            "replicas": 2000, "passed": True}
    assert checks.check_pitman("p", good, 2.0, 6.0, 2000) == []
    assert checks.check_pitman("p", dict(good, rhs=2.1), 2.0, 6.0, 2000)
    assert checks.check_pitman("p", dict(good, lhs=2.0 + 5 * se), 2.0, 6.0, 2000)
    # the band comes from the exact variance, not from the reported SE
    assert checks.check_pitman("p", dict(good, lhs=2.0 + 5 * se, se=10 * se),
                               2.0, 6.0, 2000)
    assert checks.check_pitman("p", dict(good, passed=False), 2.0, 6.0, 2000)

    moments = refs.two_state_excursion_moments(0.25, 0.25, 1.0, (1.0, 1.0))
    se = math.sqrt(moments[1] / 20000)
    report = {"passed": True, "mean_gap": 2.0 + se, "n_gaps": 20000}
    assert checks.check_structure("s", report, moments) == []
    assert checks.check_structure("s", dict(report, mean_gap=2.0 + 5 * se),
                                     moments)
    assert checks.check_structure("s", dict(report, passed=False), moments)

    n, replicas = 1000, 10000
    grid = workloads.TWO_BLOCK_GRIDS["difference"]
    exact = refs.two_block_difference_tail(n, grid)
    rng = np.random.default_rng(5)
    xi = rng.uniform(-1.0, 1.0, size=(replicas, n + 1))
    stat = np.abs(xi[:, 1:] - xi[:, :1]).max(axis=1)
    estimate = np.array([(stat > t).mean() for t in grid])
    curve = {"t": grid, "estimate": list(estimate), "n": n, "replicas": replicas}
    assert checks.check_two_block("d", curve, "difference", n, replicas) == []
    shifted = dict(curve, estimate=list(_shift_5se(estimate, exact, replicas)))
    assert checks.check_two_block("d", shifted, "difference", n, replicas)


@pytest.fixture(scope="module")
def wide_toy_outputs(tmp_path_factory):
    """Outputs of the toy verify-wide workload, run in this process."""
    out = tmp_path_factory.mktemp("out")
    operations, backend = workloads.setup("verify-wide", "toy", 11, str(out))
    return {label: op()[1] for label, op in operations}, backend


def _with_report(values, edit):
    """The verify outputs with report.json and stdout edited alike."""
    report = json.loads(values["report"])
    edit(report)
    text = json.dumps(report, sort_keys=True, indent=2).encode()
    return dict(values, report=text, stdout=text + b"\n")


def test_verify_checks_fail_on_wrong_outputs(wide_toy_outputs):
    outputs, backend = wide_toy_outputs
    assert checks.check("verify-wide", "toy", outputs, backend) == []
    sz = workloads.SIZES["toy"]
    two = outputs["verify:two-state"]
    kwargs = dict(chain="wide", n=sz["wide_n"], replicas=sz["wide_replicas"],
                  backend=backend)
    assert checks.check_verify("v", two, **kwargs) == []

    def shift_tail(report):
        tail = report["tail"]
        exact = refs.two_state_tail(0.5, 0.5, tail["n"], tail["t"])
        tail["estimate"] = list(_shift_5se(np.array(tail["estimate"]), exact,
                                           tail["replicas"]))

    def break_verdict(report):
        report["verdicts"]["thm_bi"]["passed"] = False

    def scale_sigma2(report):
        report["params"]["sigma2_mrv"] *= 1.2

    for edit, needle in ((shift_tail, "v: tail: "),
                         (break_verdict, "thm_bi verdict passed"),
                         (scale_sigma2, "v: sigma2")):
        problems = checks.check_verify("v", _with_report(two, edit), **kwargs)
        assert any(needle in p for p in problems), problems
    assert checks.check_verify("v", dict(two, stdout=b"{}"), **kwargs)
    assert checks.check_verify("v", two, **dict(kwargs, backend="other"))
    mod1 = outputs["verify:mod1"]
    mod1_kwargs = dict(kwargs, chain="mod1", excursions=sz["mod1_excursions"])
    assert checks.check_verify("m", mod1, **mod1_kwargs) == []
    problems = checks.check_verify("m", _with_report(mod1, scale_sigma2),
                                      **mod1_kwargs)
    assert any("m: sigma2" in p for p in problems), problems


# ---------------------------------------------------------------------------
# tracing and the toy mode of the whole benchmark
# ---------------------------------------------------------------------------


def test_tracer_self_time_and_restore():
    import regen_bernstein
    from regen_bernstein import verify

    original = verify.substream
    chain = regen_bernstein.make_two_state(0.25, 0.25)
    t = tracer.Tracer()
    t.install()
    try:
        assert verify.substream is not original
        verify.mc_tail(chain, "indicator_centered", "pi", 50, [1.0, 2.0], 1000, 1)
    finally:
        t.uninstall()
    assert verify.substream is original
    table = t.table()
    assert table["rng.substream"]["calls"] == 1000
    assert table["verify.mc_tail"]["calls"] == 1
    mc = table["verify.mc_tail"]
    children = sum(table[k]["total"] for k in (
        "rng.substream", "kernels.finite_sums", "verify.tail_counts"))
    assert mc["self"] == pytest.approx(mc["total"] - children, abs=1e-9)
    assert t.counts["kernels.finite_sums.steps"] == 1000 * 49


def test_workload_set_up_loads_no_check_code():
    """Set-up time and memory are the program's: the references and
    scipy.stats come in only with checks.py, after the readings."""
    code = ("import sys; import workloads; "
            "print(sorted(m for m in ('refs', 'checks', 'scipy', 'scipy.stats')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "4", "--seconds", "0",
                 "--trace", str(trace), "--toy"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    if trace and workload == "verify-long":
        sz = workloads.SIZES["toy"]
        steps = result["metrics"]["kernels.finite_sums.steps"]["value"]
        assert steps == sz["long_replicas"] * (sz["long_n"] - 1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "verify-long", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
