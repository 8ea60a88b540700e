"""Command-line entry point: simulate | bounds | variance | verify | oracle.

Runs are config-driven and reproducible: JSON config plus flag
overrides (flags win), a master seed from --seed, the config, or
REGEN_BERNSTEIN_SEED (in that order, default 0), and deterministic
atomic outputs with no timestamps. Exit codes: 0 success, 1 validation
error, 2 guard violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

import numpy as np

from ._backend import backend_choice
from ._io import json_text, plain, write_json
from ._rng import TAG_PATH, TAG_SPLIT, stream_description, substream
from .bounds import EVALUATORS, BoundValue
from .chain_models import (load_chain, make_chain, resolve_functional,
                           resolve_point, sample_path)
from .errors import GuardError
from .split_regen import simulate_split, trajectory_summary, trajectory_to_csv
from .variance import (sigma_inf_from_excursions, sigma_mrv_batch,
                       sigma_mrv_cov_series, sigma_mrv_exact,
                       sigma_mrv_regenerative)
from .exact import exact_tail
from .verify import (collect_excursions, curves_csv_text, report_to_dict,
                     run_verification, tail_curve_to_dict, write_curves_csv)


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------


def _parse_value(text: str):
    low = text.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text.strip()


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _opt(args, cfg, key, default=None):
    """Flag value if given, else config value, else default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    return cfg.get(key, default)


def _switch(args, cfg, key) -> bool:
    """A store_true flag, or its config entry: JSON true/false or the
    strings "true"/"false", read as _parse_value reads them."""
    value = cfg.get(key, False)
    if isinstance(value, str):
        value = _parse_value(value)
    if not isinstance(value, bool):
        raise ValueError(f"config entry {key} must be true or false, "
                         f"got {cfg[key]!r}")
    return getattr(args, key, False) or value


def _given(args, cfg, casts) -> dict:
    """The options named in casts that a flag or the config sets, each
    read with its flag's type (a None cast keeps the value as given)."""
    options = {}
    for key, cast in casts.items():
        value = _opt(args, cfg, key)
        if value is not None:
            options[key] = value if cast is None else cast(value)
    return options


def _listed(spec, what: str, kinds) -> list:
    """A comma-separated string's items, or a config list of kinds."""
    if isinstance(spec, str):
        spec = [x.strip() for x in spec.split(",") if x.strip()]
    if not isinstance(spec, list) or not all(isinstance(x, kinds) for x in spec):
        raise ValueError(f"{what} must be a comma-separated string or a list")
    return spec


def _resolve_seed(args, cfg) -> int:
    if args.seed is not None:
        return int(args.seed)
    if "seed" in cfg:
        return int(cfg["seed"])
    env = os.environ.get("REGEN_BERNSTEIN_SEED")
    if env is not None and env.strip():
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"REGEN_BERNSTEIN_SEED must be an integer, got {env!r}")
    return 0


def _build_chain(args, cfg):
    chain_cfg = cfg.get("chain", {})
    if isinstance(chain_cfg, str):
        chain_cfg = {"name": chain_cfg}
    if not isinstance(chain_cfg, dict):
        raise ValueError("config chain must be a chain name or an object")
    path = getattr(args, "chain_file", None) or chain_cfg.get("path")
    if path:
        return load_chain(path)
    name = getattr(args, "chain", None) or chain_cfg.get("name")
    if not name:
        raise ValueError("no chain given: pass --chain NAME, --chain-file "
                         "PATH, or a chain entry in the config")
    params = {k: v for k, v in chain_cfg.items() if k not in ("name", "path")}
    for key in ("a", "b", "delta", "precision"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    try:
        return make_chain(name, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for chain {name!r}: {exc}")


def _functional_spec(args, cfg):
    spec = _opt(args, cfg, "f", "indicator_centered")
    if isinstance(spec, dict) and "values" in spec:
        return np.asarray(spec["values"], dtype=np.float64)
    return spec


def _build_grid(args, cfg, n: int) -> np.ndarray:
    spec = _opt(args, cfg, "t_grid")
    if spec is not None:
        values = [float(x) for x in _listed(spec, "t_grid", (str, int, float))]
        if not values:
            raise ValueError("empty t grid")
        return np.asarray(values, dtype=np.float64)
    t_max = float(_opt(args, cfg, "t_max", 3.0 * math.sqrt(max(n, 1))))
    points = int(_opt(args, cfg, "t_points", 50))
    if t_max <= 0.0 or points < 1:
        raise ValueError("t grid needs t_max > 0 and at least one point")
    return np.linspace(0.0, t_max, points)


def _tail_inputs(args, cfg):
    """(chain, f, n, seed, t grid) of a tail command, verify or oracle."""
    chain = _build_chain(args, cfg)
    f_spec = _functional_spec(args, cfg)
    n = _opt(args, cfg, "n")
    if n is None:
        raise ValueError(f"{args.command} needs a horizon: pass --n")
    n = int(n)
    return chain, f_spec, n, _resolve_seed(args, cfg), _build_grid(args, cfg, n)


def _base_metadata(command: str, seed: int) -> dict:
    return {"command": command, "seed": int(seed),
            "rng": stream_description(seed), "backend": backend_choice()}


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, CSV text or None, {extra file name:
# writer}); main writes the files and the stdout
# ---------------------------------------------------------------------------


def cmd_simulate(args, cfg):
    chain = _build_chain(args, cfg)
    n = _opt(args, cfg, "n")
    if n is None:
        raise ValueError("simulate needs a horizon: pass --n")
    seed = _resolve_seed(args, cfg)
    init = _opt(args, cfg, "init", "pi")
    extend = _switch(args, cfg, "extend")
    f_spec = _opt(args, cfg, "f")
    rng = substream(seed, TAG_SPLIT, 0)
    traj = simulate_split(chain, init, int(n), rng,
                          extend_to_regeneration=extend)
    fspec = None if f_spec is None else resolve_functional(chain, f_spec)
    payload = _base_metadata("simulate", seed)
    payload.update({
        "chain": chain.label(),
        "n": int(n),
        "init": str(init),
        "extend": extend,
        "summary": trajectory_summary(traj, fspec),
    })
    return payload, None, {"trajectory.csv": partial(trajectory_to_csv, traj)}


def cmd_bounds(args, cfg):
    formula = args.formula or cfg.get("formula")
    if not formula:
        raise ValueError("bounds needs a formula name")
    kv = dict(cfg.get("args", {}))
    for item in args.pairs:
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        kv[key.strip()] = _parse_value(raw)
    shown_args = dict(sorted(kv.items()))
    fn = EVALUATORS.get(formula)
    if fn is None:
        raise ValueError(f"unknown formula {formula!r}; choose from "
                         f"{sorted(EVALUATORS)}")
    try:
        result = fn(**kv)
    except TypeError as exc:
        raise ValueError(f"bad arguments for {formula}: {exc}")
    payload = {"command": "bounds", "formula": formula, "args": shown_args}
    if isinstance(result, BoundValue):
        payload.update(plain(result))
    else:
        payload["value"] = float(result)
    return payload, f"formula,value\n{formula},{payload['value']!r}\n", {}


def cmd_variance(args, cfg):
    chain = _build_chain(args, cfg)
    f_spec = _functional_spec(args, cfg)
    method = _opt(args, cfg, "method", "exact")
    seed = _resolve_seed(args, cfg)
    payload = _base_metadata("variance", seed)
    payload.update({"chain": chain.label(), "method": method})
    fspec = resolve_functional(chain, f_spec)
    payload["functional"] = fspec.name
    if method == "exact":
        payload["value"] = sigma_mrv_exact(chain, fspec)
    elif method == "cov-series":
        payload["value"] = sigma_mrv_cov_series(chain, fspec)
    elif method == "regenerative":
        n_regen = int(_opt(args, cfg, "n_regen", 20000))
        chi, gaps = collect_excursions(chain, fspec, n_regen, seed)
        payload["estimate"] = plain(sigma_mrv_regenerative(chi, gaps))
        payload["excursion_variance"] = plain(
            sigma_inf_from_excursions(chi))
        payload["n_regen"] = n_regen
    elif method == "batch":
        n = _opt(args, cfg, "n")
        if n is None:
            raise ValueError("batch variance needs a series length: pass --n")
        n = int(n)
        x0 = _opt(args, cfg, "x0")
        if x0 is None:
            x0 = chain.first_small_set_state()
        batch_length = _opt(args, cfg, "batch_length")
        if batch_length is None:
            batch_length = max(1, int(round(math.sqrt(n) / 2.0)))
        states = sample_path(chain, x0, n, substream(seed, TAG_PATH, 0))
        payload["estimate"] = plain(
            sigma_mrv_batch(fspec.apply(states), int(batch_length)))
        payload.update({"n": n, "batch_length": int(batch_length)})
    else:
        raise ValueError(f"unknown variance method {method!r}; choose from "
                         "exact, cov-series, regenerative, batch")
    if "value" in payload:
        csv_text = f"method,value\n{method},{payload['value']!r}\n"
    else:
        est = payload["estimate"]
        csv_text = ("method,value,se\n"
                    f"{method},{est['value']!r},{est['se']!r}\n")
    return payload, csv_text, {}


# verify options passed on only when given, so run_verification and
# fit_bernstein_params keep the one copy of each default
_VERIFY_CASTS = {
    "init": None, "x0": None, "replicas": int, "threads": int, "z": float,
    "p": float, "alpha": float,
    "formulas": lambda spec: tuple(_listed(spec, "formulas", str))}
_FIT_CASTS = {"safety": float, "n_excursions": int, "n_first_blocks": int}


def cmd_verify(args, cfg):
    chain, f_spec, n, seed, grid = _tail_inputs(args, cfg)
    exact = _switch(args, cfg, "exact")
    structure = _switch(args, cfg, "structure")
    report = run_verification(
        chain, f_spec, n=n, t_grid=grid, seed=seed, exact=exact,
        fit_options=_given(args, cfg, _FIT_CASTS), structure=structure,
        **_given(args, cfg, _VERIFY_CASTS))
    payload = _base_metadata("verify", seed)
    payload.update(report_to_dict(report))
    return payload, curves_csv_text(report), {
        "curves.csv": partial(write_curves_csv, report)}


def cmd_oracle(args, cfg):
    chain, f_spec, n, seed, grid = _tail_inputs(args, cfg)
    x0 = _opt(args, cfg, "x0")
    if x0 is None:
        x0 = chain.first_small_set_state()
    x0 = resolve_point(chain, x0)
    tail = exact_tail(chain, f_spec, x0, n, grid)
    payload = {
        "command": "oracle",
        "chain": chain.label(),
        "functional": resolve_functional(chain, f_spec).name,
        "x0": x0,
        "n": n,
        "seed": int(seed),
        "tail": tail_curve_to_dict(tail),
    }
    csv_text = "t,estimate\n" + "".join(
        f"{float(tj)!r},{float(pj)!r}\n"
        for tj, pj in zip(tail.t, tail.estimate))
    return payload, csv_text, {}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int,
                        help="master seed (fallback: config, then "
                             "REGEN_BERNSTEIN_SEED, then 0)")
    common.add_argument("--out", help="output directory for report files")
    common.add_argument("--format", choices=("json", "csv"))

    chain_opts = argparse.ArgumentParser(add_help=False)
    chain_opts.add_argument("--chain", help="built-in chain name")
    chain_opts.add_argument("--chain-file", help="chain JSON file")
    chain_opts.add_argument("--a", type=float)
    chain_opts.add_argument("--b", type=float)
    chain_opts.add_argument("--delta", type=float)
    chain_opts.add_argument("--precision", type=int)
    chain_opts.add_argument("--f", help="functional name")

    grid_opts = argparse.ArgumentParser(add_help=False)
    grid_opts.add_argument("--t-grid", help="comma-separated t values")
    grid_opts.add_argument("--t-max", type=float)
    grid_opts.add_argument("--t-points", type=int)

    parser = argparse.ArgumentParser(
        prog="regen-bernstein",
        description="Regenerative simulation and concentration-bound "
                    "verification for Markov chains")
    sub = parser.add_subparsers(dest="command")

    p_sim = sub.add_parser("simulate", parents=[common, chain_opts],
                           help="simulate the split chain")
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--init", type=_parse_value)
    p_sim.add_argument("--extend", action="store_true",
                       help="extend to the first regeneration covering n")

    p_bounds = sub.add_parser("bounds", parents=[common],
                              help="evaluate a closed-form bound")
    p_bounds.add_argument("formula", nargs="?")
    p_bounds.add_argument("pairs", nargs="*", metavar="key=value")

    p_var = sub.add_parser("variance", parents=[common, chain_opts],
                           help="asymptotic variance estimates")
    p_var.add_argument("--method",
                       choices=("exact", "cov-series", "regenerative", "batch"))
    p_var.add_argument("--n", type=int)
    p_var.add_argument("--n-regen", type=int)
    p_var.add_argument("--batch-length", type=int)
    p_var.add_argument("--x0", type=_parse_value)

    p_verify = sub.add_parser("verify", parents=[common, chain_opts, grid_opts],
                              help="tail estimation and bound domination")
    p_verify.add_argument("--n", type=int)
    # a numeric option's flag type is its config cast
    for key, cast in {**_VERIFY_CASTS, **_FIT_CASTS}.items():
        if cast in (int, float):
            p_verify.add_argument("--" + key.replace("_", "-"), type=cast)
    p_verify.add_argument("--init", type=_parse_value)
    p_verify.add_argument("--exact", action="store_true",
                          help="exact enumeration instead of Monte Carlo")
    p_verify.add_argument("--x0", type=_parse_value)
    p_verify.add_argument("--formulas", help="comma-separated bound names")
    p_verify.add_argument("--structure", action="store_true",
                          help="attach block-structure test results")

    p_oracle = sub.add_parser("oracle", parents=[common, chain_opts, grid_opts],
                              help="exact tails on small finite chains")
    p_oracle.add_argument("--n", type=int)
    p_oracle.add_argument("--x0", type=_parse_value)

    return parser


# command -> (subcommand, name of the JSON file --out writes)
_COMMANDS = {
    "simulate": (cmd_simulate, "summary.json"),
    "bounds": (cmd_bounds, "bounds.json"),
    "variance": (cmd_variance, "variance.json"),
    "verify": (cmd_verify, "report.json"),
    "oracle": (cmd_oracle, "oracle.json"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; that is a validation error here
        return 0 if (exc.code or 0) == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    command, json_name = _COMMANDS[args.command]
    try:
        cfg = _load_config(args.config)
        payload, csv_text, files = command(args, cfg)
        out = _opt(args, cfg, "out")
        if out:
            os.makedirs(out, exist_ok=True)
            write_json(payload, os.path.join(out, json_name))
            for name, write in files.items():
                write(os.path.join(out, name))
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if csv_text is not None and _opt(args, cfg, "format") == "csv":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(json_text(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
