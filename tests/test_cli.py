"""Exit codes, option precedence, and deterministic CLI outputs."""

import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import regen_bernstein
from regen_bernstein import (exact_tail, make_two_state, save_chain,
                             sigma_mrv_exact, tail_curve_to_dict)
from regen_bernstein.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_bounds_known_value(capsys):
    payload = run_json(capsys, "bounds", "classical_bernstein",
                       "n=100", "sigma2=1", "M=1", "t=10")
    assert payload["value"] == pytest.approx(0.616392731327227, rel=1e-12)
    assert payload["args"]["n"] == 100


def test_unknown_formula_exits_1(capsys):
    code, _, err = run_cli(capsys, "bounds", "not_a_formula", "t=1")
    assert code == 1
    assert "unknown formula" in err


def test_usage_error_exits_1(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--no-such-flag")
    assert code == 1


def test_no_command_exits_1(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err


def test_validation_error_exits_1(capsys, tmp_path):
    a_file = tmp_path / "not_a_dir"
    a_file.write_text("")
    code, _, err = run_cli(capsys, "simulate", "--chain", "singular-mod1",
                           "--n", "1")
    assert code == 1
    assert "n < m" in err
    # point starts outside the state space
    for argv, message in (
            (("simulate", "--chain", "two-state", "--n", "8", "--init", "-1"),
             "out of range"),
            (("simulate", "--chain", "two-state", "--n", "8", "--init", "5"),
             "out of range"),
            (("simulate", "--chain", "singular-mod1", "--n", "8",
              "--init", "1.5"), "[0, 1)"),
            (("simulate", "--chain", "two-state", "--n", "8", "--init", "1.7"),
             "not a state index"),
            (("simulate", "--chain", "two-state", "--n", "4", "--init",
              "true"), "not a state index"),
            (("oracle", "--chain", "two-state", "--n", "4", "--x0", "false"),
             "not a state index"),
            (("oracle", "--chain", "two-state", "--n", "4", "--x0", "0.9"),
             "not a state index"),
            (("variance", "--chain", "two-state", "--method", "batch",
              "--n", "16", "--x0", "-1"), "out of range"),
            (("verify", "--chain", "two-state", "--n", "8", "--replicas",
              "1000", "--threads", "0"), "threads must be at least 1"),
            (("verify", "--chain", "two-state", "--n", "8", "--replicas",
              "1000", "--threads", "-3"), "threads must be at least 1"),
            # checked before the tail and the fit run
            (("verify", "--chain", "two-state", "--n", "8", "--formulas",
              "bogus"), "unknown formula"),
            (("verify", "--chain", "two-state", "--n", "8", "--z", "-1"),
             "z must be non-negative"),
            (("verify", "--chain", "two-state", "--n", "8", "--z", "nan"),
             "z must be non-negative and finite"),
            (("verify", "--chain", "two-state", "--n", "8", "--z", "inf"),
             "z must be non-negative and finite"),
            (("verify", "--chain", "two-state", "--n", "8", "--alpha", "2"),
             "alpha must lie in (0, 1]"),
            (("verify", "--chain", "two-state", "--n", "8", "--safety",
              "0.5"), "safety must be at least 1"),
            (("verify", "--chain", "two-state", "--n", "8", "--safety",
              "nan"), "safety must be at least 1 and finite"),
            (("verify", "--chain", "two-state", "--n", "8", "--safety",
              "inf"), "safety must be at least 1 and finite"),
            (("verify", "--chain", "singular-mod1", "--n", "4001"),
             "m | n required"),
            # unusable paths: an error line, not a traceback
            (("simulate", "--chain", "two-state", "--n", "8", "--config",
              str(tmp_path)), "Is a directory"),
            (("simulate", "--chain-file", str(tmp_path), "--n", "8"),
             "Is a directory"),
            (("simulate", "--chain", "two-state", "--n", "8", "--out",
              str(a_file)), "File exists")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert message in err, argv


def test_integral_point_start_from_config(capsys, tmp_path):
    # JSON configs may carry a state as a float: 1.0 is state 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chain": "two-state", "init": 1.0, "x0": 1.0}))

    def both(command, flag):
        return (run_json(capsys, command, "--config", str(cfg), "--n", "4"),
                run_json(capsys, command, "--chain", "two-state", "--n", "4",
                         flag, "1"))

    got, want = both("simulate", "--init")
    assert got["summary"].pop("init") == "point:1.0"  # labelled as given
    assert want["summary"].pop("init") == "point:1"
    assert got["summary"] == want["summary"]
    got, want = both("oracle", "--x0")
    assert got["x0"] == want["x0"] == 1
    assert got["tail"] == want["tail"]


def test_guard_error_exits_2(capsys):
    # the exact tail's lattice DP would cost 8e10 multiply-adds
    code, _, err = run_cli(capsys, "oracle", "--chain", "two-state",
                           "--n", "100000", "--t-grid", "1.0")
    assert code == 2
    assert "guard violation" in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    captured = out
    for name in ("simulate", "bounds", "variance", "verify", "oracle"):
        assert name in captured


# ---------------------------------------------------------------------------
# seed precedence and config overlay
# ---------------------------------------------------------------------------


def test_seed_default_zero(capsys, monkeypatch):
    monkeypatch.delenv("REGEN_BERNSTEIN_SEED", raising=False)
    payload = run_json(capsys, "simulate", "--chain", "two-state", "--n", "32")
    assert payload["seed"] == 0


def test_seed_from_env(capsys, monkeypatch):
    monkeypatch.setenv("REGEN_BERNSTEIN_SEED", "99")
    payload = run_json(capsys, "simulate", "--chain", "two-state", "--n", "32")
    assert payload["seed"] == 99
    assert "99" in payload["rng"]


def test_seed_config_beats_env(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REGEN_BERNSTEIN_SEED", "99")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "chain": "two-state"}))
    payload = run_json(capsys, "simulate", "--config", str(cfg), "--n", "32")
    assert payload["seed"] == 7


def test_seed_flag_beats_config(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REGEN_BERNSTEIN_SEED", "99")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "chain": "two-state"}))
    payload = run_json(capsys, "simulate", "--config", str(cfg),
                       "--seed", "3", "--n", "32")
    assert payload["seed"] == 3


def test_bad_env_seed_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("REGEN_BERNSTEIN_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "simulate", "--chain", "two-state",
                           "--n", "32")
    assert code == 1
    assert "REGEN_BERNSTEIN_SEED" in err


def test_config_overlay_flags_win(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"chain": {"name": "two-state", "a": 0.25, "b": 0.25}, "n": 16}))
    payload = run_json(capsys, "simulate", "--config", str(cfg))
    assert "a=0.25" in payload["chain"]
    payload = run_json(capsys, "simulate", "--config", str(cfg),
                       "--a", "0.5", "--b", "0.5")
    assert "a=0.5" in payload["chain"]
    assert payload["n"] == 16


def test_bounds_args_from_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"args": {"n": 100, "sigma2": 1, "M": 1, "t": 10}}))
    payload = run_json(capsys, "bounds", "classical_bernstein",
                       "--config", str(cfg))
    assert payload["value"] == pytest.approx(0.616392731327227, rel=1e-12)
    override = run_json(capsys, "bounds", "classical_bernstein", "t=0",
                        "--config", str(cfg))
    assert override["value"] == 1.0


VERIFY_BASE = ("verify", "--chain", "two-state", "--n", "8", "--exact",
               "--n-excursions", "300", "--seed", "3")


@pytest.mark.parametrize("entry, message", [
    ({"chain": 5}, "chain must be a chain name or an object"),
    ({"formulas": 5}, "formulas must be a comma-separated string or a list"),
    ({"formulas": ["thm_bi", 5]}, "formulas must be"),
    ({"t_grid": 5}, "t_grid must be a comma-separated string or a list"),
    ({"t_grid": [1.0, {"t": 2}]}, "t_grid must be"),
    # numeric options are read with their flag's type
    ({"n_first_blocks": "200"}, None),
    ({"safety": "1.5", "z": "2", "replicas": "500"}, None),
    # switches read JSON true/false and the strings "true"/"false" only
    ({"structure": "false"}, None),
    ({"structure": "true", "exact": False}, None),
    ({"structure": True, "exact": "false"}, None),
    ({"exact": "false", "structure": "no"},
     "config entry structure must be true or false, got 'no'"),
    ({"exact": 1}, "config entry exact must be true or false, got 1"),
    ({"exact": None}, "config entry exact must be true or false, got None"),
])
def test_verify_config_entries(capsys, tmp_path, entry, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    code, out, err = run_cli(capsys, *VERIFY_BASE, "--config", str(cfg))
    if message is not None:
        assert code == 1 and message in err and out == ""
        return
    assert code == 0, err
    flags = []
    for key, value in entry.items():
        flag = "--" + key.replace("_", "-")
        if key in ("exact", "structure"):
            flags += [flag] if value in (True, "true") else []
        else:
            flags += [flag, value]
    code, want, err = run_cli(capsys, *VERIFY_BASE, *flags)
    assert code == 0, err
    assert out == want


@pytest.mark.parametrize("value, flags", [
    ("false", ()), (True, ("--extend",)), ("no", None)])
def test_simulate_extend_config_entry(capsys, tmp_path, value, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"extend": value}))
    base = ("simulate", "--chain", "two-state", "--n", "37", "--seed", "3")
    code, out, err = run_cli(capsys, *base, "--config", str(cfg))
    if flags is None:
        assert code == 1 and out == ""
        assert "config entry extend must be true or false, got 'no'" in err
        return
    assert code == 0, err
    assert out == run_cli(capsys, *base, *flags)[1]
    assert json.loads(out)["extend"] is bool(flags)


# ---------------------------------------------------------------------------
# config entries, each read by the flag of the same name
# ---------------------------------------------------------------------------


def run_with_config(capsys, tmp_path, argv, entry):
    cfg = tmp_path / "entry.json"
    cfg.write_text(json.dumps(entry))
    return run_cli(capsys, *argv, "--config", str(cfg))


# the option strings of each subcommand
OPTION_STRINGS = {
    "simulate": ["--a", "--b", "--chain", "--chain-file", "--config", "--delta",
                 "--extend", "--f", "--format", "--help", "--init", "--n",
                 "--out", "--precision", "--seed", "-h"],
    "bounds": ["--config", "--format", "--help", "--out", "--seed", "-h"],
    "variance": ["--a", "--b", "--batch-length", "--chain", "--chain-file",
                 "--config", "--delta", "--f", "--format", "--help",
                 "--method", "--n", "--n-regen", "--out", "--precision",
                 "--seed", "--x0", "-h"],
    "verify": ["--a", "--alpha", "--b", "--chain", "--chain-file", "--config",
               "--delta", "--exact", "--f", "--format", "--formulas", "--help",
               "--init", "--n", "--n-excursions", "--n-first-blocks", "--out",
               "--p", "--precision", "--replicas", "--safety", "--seed",
               "--structure", "--t-grid", "--t-max", "--t-points", "--threads",
               "--x0", "--z", "-h"],
    "oracle": ["--a", "--b", "--chain", "--chain-file", "--config", "--delta",
               "--f", "--format", "--help", "--n", "--out", "--precision",
               "--seed", "--t-grid", "--t-max", "--t-points", "--x0", "-h"],
}


def test_subcommand_option_strings():
    _, subcommands = _build_parser()
    assert {name: sorted(s for action in parser._actions
                         for s in action.option_strings)
            for name, parser in subcommands.items()} == OPTION_STRINGS


# a cheap run of each subcommand; a case drops its own flag from it
BASE = {
    "simulate": ("--chain", "two-state", "--n", "37", "--seed", "3"),
    "bounds": ("classical_bernstein", "n=100", "sigma2=0.25", "M=1", "t=10"),
    "variance": ("--chain", "two-state", "--seed", "2"),
    "verify": ("--chain", "two-state", "--n", "8", "--replicas", "1000",
               "--seed", "3", "--n-excursions", "300",
               "--n-first-blocks", "150"),
    "oracle": ("--chain", "two-state", "--n", "6"),
}
BATCH = ("--method", "batch", "--n", "400")
# (flag, its text, the config entry's JSON value, flags both forms add);
# a switch has no text and the value true
COMMON = [("--seed", "5", 5, ()), ("--out", "OUT", "OUT", ()),
          ("--format", "csv", "csv", ())]
CHAIN = [("--chain", "two-state", "two-state", ()),
         ("--chain-file", "CHAIN_FILE", "CHAIN_FILE", ()),
         ("--a", "0.3", 0.3, ()), ("--b", "0.6", 0.6, ()),
         ("--delta", "0.5", 0.5, ()),
         ("--f", "identity_centered", "identity_centered", ())]
MOD1 = ("--chain", "singular-mod1", "--f", "cos2pi")
PRECISION = ("--precision", "40", 40, MOD1)
GRID = [("--t-grid", "0.5,1.5,2.5", [0.5, 1.5, 2.5], ()),
        ("--t-max", "3.5", 3.5, ()), ("--t-points", "7", 7, ())]
OPTIONS = {
    "simulate": COMMON + CHAIN + [
        PRECISION, ("--n", "37", 37, ()), ("--init", "1", 1, ()),
        ("--extend", None, True, ())],
    "bounds": COMMON,
    "variance": COMMON + CHAIN + [
        ("--precision", "40", 40, MOD1 + BATCH), ("--method", "batch", "batch", ("--n", "400")),
        ("--n", "400", 400, ("--method", "batch")),
        ("--n-regen", "500", 500, ("--method", "regenerative")),
        ("--batch-length", "8", 8, BATCH), ("--x0", "1", 1, BATCH)],
    "verify": COMMON + CHAIN + GRID + [
        PRECISION, ("--n", "8", 8, ()), ("--replicas", "1000", 1000, ()),
        ("--threads", "2", 2, ()), ("--z", "2.5", 2.5, ()),
        ("--p", "0.5", 0.5, ()), ("--alpha", "0.5", 0.5, ()),
        ("--safety", "1.5", 1.5, ()), ("--n-excursions", "300", 300, ()),
        ("--n-first-blocks", "150", 150, ()), ("--init", "1", 1, ()),
        ("--exact", None, True, ()), ("--x0", "1", 1, ("--exact",)),
        ("--formulas", "thm_bi,thm_sbi", ["thm_bi", "thm_sbi"], ()),
        ("--structure", None, True, ())],
    "oracle": COMMON + CHAIN + GRID + [
        PRECISION, ("--n", "6", 6, ()), ("--x0", "1", 1, ())],
}
# exact tails take finite chains only: both forms fail alike
FAILING = {("oracle", "--precision")}
PARITY = [(command, *case) for command, cases in OPTIONS.items()
          for case in cases]
# the chain object's entries and the flags that read them
CHAIN_ENTRIES = {"--chain": "name", "--chain-file": "path", "--a": "a",
                 "--b": "b", "--delta": "delta", "--precision": "precision"}


def test_parity_cases_cover_every_option():
    for command, strings in OPTION_STRINGS.items():
        covered = {case[0] for case in OPTIONS[command]}
        assert covered == set(strings) - {"-h", "--help", "--config"}, command


@pytest.mark.parametrize("command, flag, text, value, extra", PARITY,
                         ids=[f"{c}{f}" for c, f, *_ in PARITY])
def test_config_entry_reads_as_its_flag(capsys, tmp_path, command, flag,
                                        text, value, extra):
    chain_file = str(tmp_path / "chain.json")
    save_chain(make_two_state(0.3, 0.6), chain_file)
    stand_in = {"OUT": str(tmp_path / "out"), "CHAIN_FILE": chain_file}
    if text in stand_in:
        text = value = stand_in[text]
    base, i = list(BASE[command]), 0
    while i < len(base):  # drop the flag under test and its value
        if base[i] == flag:
            del base[i:i + 2]
        else:
            i += 1
    argv = (command, *base, *extra)
    want = run_cli(capsys, *argv, flag, *(() if text is None else (text,)))
    assert (want[0] == 0) is ((command, flag) not in FAILING), want[2]
    dest = flag[2:].replace("-", "_")
    for entry_value in (value, "true" if text is None else text):
        if flag == "--chain":
            entry = {"chain": entry_value}
        elif flag in CHAIN_ENTRIES:
            entry = {"chain": {CHAIN_ENTRIES[flag]: entry_value}}
        else:
            entry = {dest: entry_value}
        assert run_with_config(capsys, tmp_path, argv, entry) == want, entry


def test_bounds_formula_and_args_from_config(capsys, tmp_path):
    pairs = {"n": 100, "sigma2": 0.25, "M": 1, "t": 10}
    want = run_cli(capsys, "bounds", "classical_bernstein",
                   *(f"{k}={v}" for k, v in pairs.items()))[1]
    for args in (pairs, {k: str(v) for k, v in pairs.items()}):
        code, out, err = run_with_config(
            capsys, tmp_path, ("bounds",),
            {"formula": "classical_bernstein", "args": args})
        assert code == 0, err
        assert out == want, args


@pytest.mark.parametrize("argv, entry, flags", [
    # a number as a string is read as the flag reads it: state 1
    (("oracle", "--chain", "two-state", "--n", "4"), {"x0": "1"},
     ("--x0", "1")),
    (("verify", "--chain", "two-state", "--n", "4", "--exact",
      "--n-excursions", "300", "--n-first-blocks", "150"), {"x0": "1"},
     ("--x0", "1")),
    (("variance", "--chain", "two-state", "--method", "batch", "--n", "400"),
     {"x0": "1"}, ("--x0", "1")),
    (("simulate", "--chain", "two-state", "--n", "4"), {"init": "1"},
     ("--init", "1")),
    (("verify", "--chain", "two-state", "--n", "4", "--replicas", "1000",
      "--n-excursions", "300", "--n-first-blocks", "150"), {"init": "1"},
     ("--init", "1")),
    # the bounds args are read as key=value pairs
    (("bounds", "classical_bernstein"),
     {"args": {"n": "100", "sigma2": 1, "M": 1, "t": 10}},
     ("n=100", "sigma2=1", "M=1", "t=10")),
    # a number where the flag takes a path
    (("simulate", "--chain", "two-state", "--n", "4"), {"out": 5},
     ("--out", "5")),
])
def test_config_entry_runs_as_flag_does(capsys, tmp_path, monkeypatch, argv,
                                        entry, flags):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_with_config(capsys, tmp_path, argv, entry)
    assert code == 0, err
    code, want, err = run_cli(capsys, *argv, *flags)
    assert code == 0, err
    assert out == want


SIMULATE = ("simulate", "--chain", "two-state")


@pytest.mark.parametrize("argv, entry, message", [
    # usage errors, as the same text given to the flag
    (SIMULATE, {"n": 37.9}, "argument --n: invalid int value: '37.9'"),
    (SIMULATE, {"n": 1000.0}, "argument --n: invalid int value: '1000.0'"),
    (SIMULATE, {"n": [3]}, "argument --n: invalid int value: '[3]'"),
    (SIMULATE + ("--n", "4"), {"seed": 3.7},
     "argument --seed: invalid int value: '3.7'"),
    (SIMULATE + ("--n", "4"), {"format": "xml"},
     "argument --format: invalid choice: 'xml'"),
    (("bounds", "classical_bernstein"), {"args": 5},
     "config args must be an object"),
    (("bounds", "classical_bernstein"), {"args": [1, 2]},
     "config args must be an object"),
    (SIMULATE + ("--n", "4"), {"chain": {"name": "two-state", "c": 1}},
     "config chain must be a chain name or an object of name, path"),
])
def test_malformed_config_entry_exits_1(capsys, tmp_path, argv, entry,
                                        message):
    code, out, err = run_with_config(capsys, tmp_path, argv, entry)
    assert code == 1 and out == ""
    assert message in err


def test_tabulated_functional_from_config(capsys, tmp_path):
    values = np.array([0.5, -0.5])
    entry = {"chain": "two-state", "f": {"values": values.tolist()}}
    code, out, err = run_with_config(capsys, tmp_path, ("variance",), entry)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["functional"] == "tabulated"
    want = sigma_mrv_exact(make_two_state(), values)
    assert payload["value"] == want == pytest.approx(0.25, rel=1e-12)
    grid = [0.0, 0.5, 1.5, 2.5, 4.0]
    code, out, err = run_with_config(
        capsys, tmp_path, ("oracle", "--n", "12", "--t-grid", "0,0.5,1.5,2.5,4"),
        entry)
    assert code == 0, err
    tail = exact_tail(make_two_state(), values, 0, 12, grid)
    assert json.loads(out)["tail"] == tail_curve_to_dict(tail)
    code, out, err = run_with_config(
        capsys, tmp_path, ("variance",),
        {"chain": "two-state", "f": {"values": [0.5]}})
    assert code == 1 and out == ""
    assert "one value per state" in err


def test_verify_at_an_infinite_cutoff(capsys):
    # alpha = 0.02 takes the main cutoff past float range
    payload = run_json(capsys, "verify", "--chain", "two-state", "--n", "100",
                       "--replicas", "1000", "--alpha", "0.02",
                       "--n-excursions", "200", "--n-first-blocks", "200")
    assert ("t below the proof threshold 8 ln(6) M"
            in payload["bounds"]["thm_bi"]["flags"])


def test_config_must_be_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                           "--chain", "two-state", "--n", "8")
    assert code == 1 and "JSON object" in err


def test_missing_chain_message(capsys):
    code, _, err = run_cli(capsys, "variance")
    assert code == 1
    assert "no chain given" in err


# ---------------------------------------------------------------------------
# bounds adapters
# ---------------------------------------------------------------------------


BUNDLE = ["a=1", "b=1", "c=1", "d=2", "alpha=1", "sigma2_mrv=0.25",
          "delta=0.5", "pi_C=0.5", "m=1"]


def test_bounds_thm_bi_bundle(capsys):
    payload = run_json(capsys, "bounds", "thm_bi", *BUNDLE, "n=64", "t=8")
    assert 0.0 < payload["value"] <= 1.0
    assert isinstance(payload["flags"], list)


def test_bounds_thm_bi2_accepts_p(capsys):
    lo = run_json(capsys, "bounds", "thm_bi2", *BUNDLE, "n=64", "t=8",
                  "p=0.5")
    hi = run_json(capsys, "bounds", "thm_bi2", *BUNDLE, "n=64", "t=8",
                  "p=1.0")
    assert lo["raw"] != hi["raw"]


def test_bounds_bundle_missing_params(capsys):
    code, _, err = run_cli(capsys, "bounds", "thm_bi", "n=64", "t=8")
    assert code == 1
    assert "missing parameters" in err


def test_bounds_bundle_needs_n_and_t(capsys):
    code, _, err = run_cli(capsys, "bounds", "thm_bi2", *BUNDLE, "t=8")
    assert code == 1
    assert "thm_bi2 needs n and t" in err


def test_bounds_bundle_rejects_stray_keys(capsys):
    code, _, err = run_cli(capsys, "bounds", "thm_bi", *BUNDLE, "n=64",
                           "t=8", "zz=1")
    assert code == 1
    assert "unknown arguments" in err


def test_bounds_bad_kv_pair(capsys):
    code, _, err = run_cli(capsys, "bounds", "classical_bernstein", "n100")
    assert code == 1
    assert "key=value" in err


def test_bounds_kp_constant_value(capsys):
    payload = run_json(capsys, "bounds", "kp_constant", "p=0.6666666666666666")
    assert payload["value"] == pytest.approx(488.0 / 11.0, rel=1e-12)


def test_bounds_csv_format(capsys):
    code, out, _ = run_cli(capsys, "bounds", "classical_bernstein",
                           "n=100", "sigma2=1", "M=1", "t=10",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "formula,value"
    assert lines[1].startswith("classical_bernstein,0.6163927313")


# ---------------------------------------------------------------------------
# variance methods
# ---------------------------------------------------------------------------


def test_variance_exact(capsys):
    payload = run_json(capsys, "variance", "--chain", "two-state",
                       "--method", "exact")
    assert payload["value"] == pytest.approx(0.25, rel=1e-12)


def test_variance_cov_series(capsys):
    payload = run_json(capsys, "variance", "--chain", "two-state",
                       "--method", "cov-series")
    assert payload["value"] == pytest.approx(0.25, rel=1e-9)


def test_variance_regenerative(capsys):
    payload = run_json(capsys, "variance", "--chain", "two-state",
                       "--method", "regenerative", "--n-regen", "4000",
                       "--seed", "5")
    est = payload["estimate"]
    assert abs(est["value"] - 0.25) <= 4.0 * est["se"]
    exc = payload["excursion_variance"]
    assert abs(exc["value"] - 0.5) <= 4.0 * exc["se"]


def test_variance_batch(capsys):
    payload = run_json(capsys, "variance", "--chain", "two-state",
                       "--method", "batch", "--n", "200000", "--seed", "5")
    est = payload["estimate"]
    assert abs(est["value"] - 0.25) <= 0.1
    assert payload["batch_length"] == 224


def test_variance_unknown_method(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chain": "two-state", "method": "magic"}))
    code, _, err = run_cli(capsys, "variance", "--config", str(cfg))
    assert code == 1
    assert "unknown variance method" in err


def test_variance_csv_format(capsys):
    for method, extra, header in (
            ("exact", (), "method,value"),
            ("regenerative", ("--n-regen", "500"), "method,value,se"),
            ("batch", ("--n", "400"), "method,value,se")):
        argv = ("variance", "--chain", "two-state", "--method", method,
                *extra, "--seed", "2")
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, method
        lines = out.splitlines()
        assert lines[0] == header and len(lines) == 2, method
        payload = run_json(capsys, *argv)
        est = payload.get("estimate", payload)
        want = [method, repr(est["value"])] + (
            [repr(est["se"])] if "se" in est else [])
        assert lines[1].split(",") == want, method


# ---------------------------------------------------------------------------
# files and determinism
# ---------------------------------------------------------------------------


def test_simulate_writes_files(capsys, tmp_path):
    out = tmp_path / "run"
    payload = run_json(capsys, "simulate", "--chain", "two-state",
                       "--n", "64", "--seed", "4", "--out", str(out),
                       "--f", "indicator_centered")
    traj_csv = (out / "trajectory.csv").read_text()
    assert traj_csv.splitlines()[0] == "index,state,level,is_regeneration"
    assert len(traj_csv.splitlines()) == 65
    summary = json.loads((out / "summary.json").read_text())
    assert summary == payload
    assert summary["summary"]["n_regenerations"] >= 1
    # simulate has no CSV form: --format csv still prints the JSON
    code, text, _ = run_cli(capsys, "simulate", "--chain", "two-state",
                            "--n", "64", "--seed", "4", "--out", str(out),
                            "--f", "indicator_centered", "--format", "csv")
    assert code == 0
    assert json.loads(text) == payload


def test_cli_outputs_are_byte_identical_across_reruns(capsys, tmp_path):
    args = ("verify", "--chain", "two-state", "--a", "0.5", "--b", "0.5",
            "--f", "indicator_centered", "--n", "12", "--exact",
            "--seed", "11", "--t-grid", "0.5,1.5,2.5,3.5",
            "--n-excursions", "300", "--n-first-blocks", "150")
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    code, stdout1, _ = run_cli(capsys, *args, "--out", str(out1))
    assert code == 0
    code, stdout2, _ = run_cli(capsys, *args, "--out", str(out2))
    assert code == 0
    assert stdout1 == stdout2
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    assert (out1 / "curves.csv").read_bytes() == \
        (out2 / "curves.csv").read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["passed"] is True
    assert set(report["verdicts"]) == {"thm_bi", "thm_bi2", "thm_sbi"}


def test_verify_csv_to_stdout(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "--chain", "two-state",
                           "--f", "indicator_centered", "--n", "8",
                           "--exact", "--seed", "11",
                           "--t-grid", "1.0,2.0", "--format", "csv",
                           "--n-excursions", "300",
                           "--n-first-blocks", "150",
                           "--out", str(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,estimate,se,bound_")
    assert len(lines) == 3
    assert out.encode() == (tmp_path / "curves.csv").read_bytes()


def test_output_files_get_the_plain_open_mode(capsys, tmp_path):
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    want = stat.S_IMODE(os.stat(reference).st_mode)
    runs = {
        "sim": ("simulate", "--chain", "two-state", "--n", "16"),
        "verify": ("verify", "--chain", "two-state", "--n", "8", "--exact",
                   "--t-grid", "1.0,2.0", "--n-excursions", "300",
                   "--n-first-blocks", "150"),
        "variance": ("variance", "--chain", "two-state"),
        "oracle": ("oracle", "--chain", "two-state", "--n", "6"),
        "bounds": ("bounds", "classical_bernstein", "n=100", "sigma2=1",
                   "M=1", "t=10"),
    }
    for name, argv in runs.items():
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / name))
        assert code == 0, err
    save_chain(make_two_state(), str(tmp_path / "chain.json"))
    written = [p for p in tmp_path.rglob("*") if p.is_file() and p != reference]
    assert len(written) == 8
    for path in written:
        assert stat.S_IMODE(os.stat(path).st_mode) == want, path


def test_oracle_csv_and_json(capsys, tmp_path):
    out = tmp_path / "o"
    code, text, _ = run_cli(capsys, "oracle", "--chain", "two-state",
                            "--f", "identity_centered", "--n", "6",
                            "--t-grid", "0,1,2,3", "--format", "csv",
                            "--out", str(out))
    assert code == 0
    rows = text.strip().splitlines()
    assert rows[0] == "t,estimate"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert values == pytest.approx([0.6875, 0.21875, 0.03125, 0.0])
    saved = json.loads((out / "oracle.json").read_text())
    assert saved["tail"]["estimate"] == pytest.approx(values)


def test_unknown_backend_rejected(capsys):
    # no flag chooses the backend: --backend is an unknown argument
    for name in ("numpy", "fortran"):
        code, _, err = run_cli(capsys, "simulate", "--chain", "two-state",
                               "--n", "16", "--backend", name)
        assert code == 1
        assert "unrecognized arguments: --backend" in err


def test_replica_flags_belong_to_verify(capsys):
    # only verify reads --replicas and --threads; elsewhere they are
    # unknown arguments, not accepted and ignored
    for cmd, flag in (("simulate", "--replicas"), ("variance", "--threads"),
                      ("oracle", "--replicas")):
        code, _, err = run_cli(capsys, cmd, "--chain", "two-state",
                               "--n", "16", flag, "10")
        assert code == 1
        assert f"unrecognized arguments: {flag} 10" in err


def test_backend_flag_recorded(capsys):
    # every report names the one backend; benchmark checks read the field
    for argv in (("simulate", "--chain", "two-state", "--n", "16"),
                 ("variance", "--chain", "two-state"),
                 ("verify", "--chain", "two-state", "--n", "8",
                  "--replicas", "1000", "--n-excursions", "200",
                  "--n-first-blocks", "100")):
        payload = run_json(capsys, *argv)
        assert payload["backend"] == "numpy"
        assert "backend_env" not in payload


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "regen_bernstein.cli", "bounds",
         "classical_bernstein", "n=100", "sigma2=1", "M=1", "t=10"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(
        0.616392731327227, rel=1e-12)


# ---------------------------------------------------------------------------
# import footprint
# ---------------------------------------------------------------------------


def _python(code, tmp_path):
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(regen_bernstein.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)


def test_package_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import fail
    code = f"""
import sys
sys.modules["scipy"] = None
import regen_bernstein, regen_bernstein.cli
from regen_bernstein import check_block_structure, make_two_state
report = check_block_structure(make_two_state(0.5, 0.5, delta=0.5),
                               n_blocks=4000, lags=5, seed=29)
assert report.passed
code = regen_bernstein.cli.main([
    "verify", "--chain", "two-state", "--n", "40", "--replicas", "1000",
    "--seed", "4", "--n-excursions", "400", "--n-first-blocks", "200",
    "--structure", "--out", {str(tmp_path / "out")!r}])
assert code == 0, code
"""
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["structure"]["passed"]


def test_package_import_leaves_scipy_unloaded(tmp_path):
    proc = _python("import sys, regen_bernstein, regen_bernstein.cli; "
                   "print('scipy' in sys.modules)", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_import_leaves_optional_stdlib_unloaded(tmp_path):
    # threads, structure tests, exact rationals and the trajectory CSV
    # each load their module on first use
    optional = ("concurrent.futures", "logging", "statistics", "fractions",
                "decimal", "csv")
    proc = _python("import sys, regen_bernstein, regen_bernstein.cli; "
                   f"print(sorted(set({optional!r}) & set(sys.modules)))",
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
