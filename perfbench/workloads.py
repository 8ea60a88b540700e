"""The three workloads: their inputs and operations.

A workload is set up once per round process, then runs its operations
in order. Each operation returns its outputs as bytes (what a user of
the library or CLI would keep) plus the decoded values the checks in
checks.py read. Nothing here imports the checks or their references, so
the measured set-up and memory are the program's alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import tempfile

import numpy as np

# Sizes per mode. "full" is what the benchmark measures; "toy" runs every
# operation and check in seconds, for the benchmark's own tests.
SIZES = {
    "full": {
        "long_n": 10_000, "long_replicas": 4_000,
        "wide_n": 100, "wide_replicas": 32_768, "mod1_excursions": 16_000,
        "pitman_replicas": 2_000, "first_blocks": 2_000, "excursions": 4_000,
        "structure_blocks": 20_000, "two_block_n": 1_000,
        "two_block_replicas": 10_000,
    },
    "toy": {
        "long_n": 1_000, "long_replicas": 1_000,
        "wide_n": 100, "wide_replicas": 1_000, "mod1_excursions": 16_000,
        "pitman_replicas": 200, "first_blocks": 200, "excursions": 400,
        "structure_blocks": 2_000, "two_block_n": 1_000,
        "two_block_replicas": 1_000,
    },
}

WORKLOADS = ("verify-long", "verify-wide", "regen-harness")

LONG_CHAIN = {"a": 0.25, "b": 0.25, "delta": 1.0}
WIDE_CHAIN = {"a": 0.5, "b": 0.5, "delta": 1.0}
MOD1_BITS = 64  # binary places of the singular-mod1 chain
STRUCTURE_LEVEL = 1e-5  # the default 0.01 fails a correct chain on ~1 seed in 25
TWO_BLOCK_GRIDS = {
    "product": [float(x) for x in np.linspace(0.0, 60.0, 16)],
    "difference": [float(x) for x in np.linspace(0.0, 2.0, 21)],
}


class OperationFailed(Exception):
    """An operation ended without its output (an error or a non-zero exit)."""


def _canonical(obj) -> bytes:
    def plain(value):
        if isinstance(value, (np.floating, np.integer, np.bool_)):
            return value.item()
        if isinstance(value, np.ndarray):
            return value.tolist()
        raise TypeError(f"cannot serialise {type(value)!r}")
    return json.dumps(obj, sort_keys=True, default=plain).encode()


def _verify_cli(out_root: str, argv: list):
    """Run `regen-bernstein verify`; return (output bytes, decoded values)."""
    import regen_bernstein.cli

    out_dir = tempfile.mkdtemp(dir=out_root)
    try:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = regen_bernstein.cli.main(argv + ["--out", out_dir])
        if code != 0:
            raise OperationFailed(f"verify exited {code}")
        with open(os.path.join(out_dir, "report.json"), "rb") as handle:
            report = handle.read()
        with open(os.path.join(out_dir, "curves.csv"), "rb") as handle:
            curves = handle.read()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    printed = stdout.getvalue().encode()
    blob = b"\0".join((printed, report, curves))
    return blob, {"stdout": printed, "report": report, "curves": curves}


def _two_state_argv(chain: dict, n: int, replicas: int, seed: int) -> list:
    return ["verify", "--chain", "two-state", "--a", repr(chain["a"]),
            "--b", repr(chain["b"]), "--delta", repr(chain["delta"]),
            "--f", "indicator_centered", "--init", "pi", "--n", str(n),
            "--replicas", str(replicas), "--seed", str(seed)]


def _mod1_argv(n: int, replicas: int, excursions: int, seed: int) -> list:
    return ["verify", "--chain", "singular-mod1", "--precision", str(MOD1_BITS),
            "--f", "cos2pi", "--init", "pi", "--n", str(n),
            "--replicas", str(replicas), "--n-excursions", str(excursions),
            "--seed", str(seed)]


def setup(name: str, size: str, seed: int, out_root: str) -> list:
    """Import the package, build the chains, finish lazy set-up.

    Returns (operations, resolved backend). The operations are
    (label, callable) pairs; each callable returns (output bytes,
    decoded values).
    """
    import regen_bernstein
    import regen_bernstein.cli  # noqa: F401 - imported here, not in the op
    from regen_bernstein import _kernels

    sz = SIZES[size]
    backend = _kernels.warm_up()  # resolves it; compiles kernels under numba
    if name == "verify-long":
        argv = _two_state_argv(LONG_CHAIN, sz["long_n"], sz["long_replicas"], seed)
        return [("verify:two-state", lambda: _verify_cli(out_root, argv))], backend
    if name == "verify-wide":
        two = _two_state_argv(WIDE_CHAIN, sz["wide_n"], sz["wide_replicas"], seed)
        mod1 = _mod1_argv(sz["wide_n"], sz["wide_replicas"],
                          sz["mod1_excursions"], seed)
        return [("verify:two-state", lambda: _verify_cli(out_root, two)),
                ("verify:mod1", lambda: _verify_cli(out_root, mod1))], backend
    if name != "regen-harness":
        raise ValueError(f"unknown workload {name!r}")

    verify = regen_bernstein.verify  # looked up per call, so tracing sees it
    two_state = regen_bernstein.make_two_state(**LONG_CHAIN)
    mod1 = regen_bernstein.make_singular_mod1(MOD1_BITS)

    def pitman(chain, g):
        def op():
            res = verify.check_pitman(chain, g, replicas=sz["pitman_replicas"],
                                      seed=seed)
            values = dataclasses.asdict(res)
            return _canonical(values), values
        return op

    def fit(chain, f, excursions):
        def op():
            res = verify.fit_bernstein_params(
                chain, f, seed=seed, n_excursions=excursions,
                n_first_blocks=sz["first_blocks"])
            values = {"params": dataclasses.asdict(res.params),
                      "diagnostics": res.diagnostics}
            return _canonical(values), values
        return op

    def structure(chain):
        def op():
            res = verify.check_block_structure(
                chain, n_blocks=sz["structure_blocks"], level=STRUCTURE_LEVEL,
                seed=seed)
            values = verify.structure_report_to_dict(res)
            return _canonical(values), values
        return op

    def two_block(h):
        def op():
            res = verify.two_block_sup_tail(
                h, "uniform", sz["two_block_n"], TWO_BLOCK_GRIDS[h],
                sz["two_block_replicas"], seed)
            values = verify.tail_curve_to_dict(res)
            return _canonical(values), values
        return op

    return [
        ("pitman:two-state:one", pitman(two_state, "one")),
        ("pitman:two-state:state:1", pitman(two_state, ("state", 1))),
        ("pitman:mod1:one", pitman(mod1, "one")),
        ("fit:two-state", fit(two_state, "indicator_centered", sz["excursions"])),
        ("fit:mod1", fit(mod1, "cos2pi", sz["mod1_excursions"])),
        ("structure:two-state", structure(two_state)),
        ("structure:mod1", structure(mod1)),
        ("two-block:product", two_block("product")),
        ("two-block:difference", two_block("difference")),
    ], backend
