"""Command-line entry point: simulate | bounds | variance | verify | oracle.

Runs are config-driven and reproducible: a JSON config plus flag
overrides (flags win), a master seed from --seed, then
REGEN_BERNSTEIN_SEED, then 0, and deterministic atomic outputs with no
timestamps. A config entry named as an option of the subcommand (- as _)
is read by that option's flag from its text: a string as it is, a number
or boolean as its JSON text, a t_grid or formulas list as its
comma-separated form; so are the chain object's name, path, a, b, delta
and precision, and bounds reads the values of its "args" object as it
reads key=value pairs. Other entries are ignored and null ones absent;
switches take true or false, and {"f": {"values": [...]}} is the one
config-only form. Exit codes: 0 success, 1 validation error, 2 guard
violation.
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


def _listed(item, kinds):
    """A flag type: comma-separated items read by item (or a config list of kinds)."""
    def read(text):
        return tuple(item(x.strip()) for x in text.split(",") if x.strip())
    read.__name__, read.kinds = f"{item.__name__} list", kinds
    return read


_METHODS = ("exact", "cov-series", "regenerative", "batch")


def _method(text: str) -> str:
    if text not in _METHODS:
        raise argparse.ArgumentTypeError(
            f"unknown variance method {text!r}; choose from {', '.join(_METHODS)}")
    return text


def _text(value) -> str:
    """A config value as flag text: a string as it is, else its JSON text."""
    return value if isinstance(value, str) else json.dumps(value)


# the chain object's entries and the options that read them
_CHAIN_ENTRIES = {"name": "chain", "path": "chain_file", "a": "a", "b": "b",
                  "delta": "delta", "precision": "precision"}


def _config_tokens(parser, cfg) -> list:
    """The --flag=text tokens through which parser's options read cfg."""
    options = {action.dest: action for action in parser._actions
               if action.option_strings and action.dest != "help"}
    entries = dict(cfg)
    if "chain" in options:
        chain = entries.pop("chain", {})
        chain = {"name": chain} if isinstance(chain, str) else chain
        if not (isinstance(chain, dict) and set(chain) <= set(_CHAIN_ENTRIES)):
            raise ValueError("config chain must be a chain name or an object "
                             "of " + ", ".join(_CHAIN_ENTRIES))
        entries.update((_CHAIN_ENTRIES[key], value) for key, value in chain.items())
    tokens = []
    for key, value in entries.items():
        action = options.get(key)
        if action is None:
            continue
        flag, kinds = action.option_strings[0], getattr(action.type, "kinds", None)
        if action.nargs == 0:  # a switch
            on = _parse_value(_text(value))
            if not isinstance(on, bool):
                raise ValueError(f"config entry {key} must be true or false, "
                                 f"got {value!r}")
            tokens += [flag] * on
        elif value is None or (key == "f" and isinstance(value, dict)
                               and "values" in value):
            continue  # absent, or the tabulated f that _functional_spec reads
        elif kinds is None or isinstance(value, str):
            tokens.append(f"{flag}={_text(value)}")
        elif isinstance(value, list) and all(isinstance(x, kinds) for x in value):
            tokens.append(f"{flag}={','.join(map(_text, value))}")
        else:
            raise ValueError(f"{key} must be a comma-separated string or a list")
    return tokens


def _resolve_seed(args) -> int:
    env = os.environ.get("REGEN_BERNSTEIN_SEED", "")
    if args.seed is not None or not env.strip():
        return args.seed or 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"REGEN_BERNSTEIN_SEED must be an integer, got {env!r}")


def _build_chain(args):
    if args.chain_file:
        return load_chain(args.chain_file)
    if not args.chain:
        raise ValueError("no chain given: pass --chain NAME, --chain-file "
                         "PATH, or a chain entry in the config")
    params = {key: getattr(args, key) for key in ("a", "b", "delta", "precision")
              if getattr(args, key) is not None}
    try:
        return make_chain(args.chain, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for chain {args.chain!r}: {exc}")


def _functional_spec(args, cfg, default="indicator_centered"):
    """--f, else the config's tabulated {"values": [...]}, else default."""
    spec = cfg.get("f")
    if args.f is None and isinstance(spec, dict):
        return np.asarray(spec["values"], dtype=np.float64)
    return default if args.f is None else args.f


def _build_grid(args, n: int) -> np.ndarray:
    if args.t_grid is not None:
        if not args.t_grid:
            raise ValueError("empty t grid")
        return np.asarray(args.t_grid, dtype=np.float64)
    t_max = 3.0 * math.sqrt(max(n, 1)) if args.t_max is None else args.t_max
    if t_max <= 0.0 or args.t_points < 1:
        raise ValueError("t grid needs t_max > 0 and at least one point")
    return np.linspace(0.0, t_max, args.t_points)


def _tail_inputs(args, cfg):
    """(chain, f, n, seed, t grid) of a tail command, verify or oracle."""
    chain = _build_chain(args)
    f_spec = _functional_spec(args, cfg)
    if args.n is None:
        raise ValueError(f"{args.command} needs a horizon: pass --n")
    return chain, f_spec, args.n, _resolve_seed(args), _build_grid(args, args.n)


def _base_metadata(command: str, seed: int) -> dict:
    return {"command": command, "seed": seed,
            "rng": stream_description(seed), "backend": backend_choice()}


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, CSV text or None, {extra file name:
# writer}); main writes the files and the stdout
# ---------------------------------------------------------------------------


def cmd_simulate(args, cfg):
    chain = _build_chain(args)
    if args.n is None:
        raise ValueError("simulate needs a horizon: pass --n")
    seed = _resolve_seed(args)
    f_spec = _functional_spec(args, cfg, None)
    rng = substream(seed, TAG_SPLIT, 0)
    traj = simulate_split(chain, args.init, args.n, rng,
                          extend_to_regeneration=args.extend)
    fspec = None if f_spec is None else resolve_functional(chain, f_spec)
    payload = _base_metadata("simulate", seed)
    payload.update({"chain": chain.label(), "n": args.n, "init": str(args.init),
                    "extend": args.extend,
                    "summary": trajectory_summary(traj, fspec)})
    return payload, None, {"trajectory.csv": partial(trajectory_to_csv, traj)}


def cmd_bounds(args, cfg):
    formula = args.formula or cfg.get("formula")
    if not formula:
        raise ValueError("bounds needs a formula name")
    entries = cfg.get("args") or {}
    if not isinstance(entries, dict):
        raise ValueError("config args must be an object of key: value entries")
    # config values are read as the key=value pairs are, and the pairs win
    kv = {key: _parse_value(_text(value)) for key, value in entries.items()}
    for item in args.pairs:
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        kv[key.strip()] = _parse_value(raw)
    shown_args = dict(sorted(kv.items()))
    fn = EVALUATORS.get(_text(formula))
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
    chain = _build_chain(args)
    f_spec = _functional_spec(args, cfg)
    method = args.method
    seed = _resolve_seed(args)
    payload = _base_metadata("variance", seed)
    payload.update({"chain": chain.label(), "method": method})
    fspec = resolve_functional(chain, f_spec)
    payload["functional"] = fspec.name
    if method == "exact":
        payload["value"] = sigma_mrv_exact(chain, fspec)
    elif method == "cov-series":
        payload["value"] = sigma_mrv_cov_series(chain, fspec)
    elif method == "regenerative":
        chi, gaps = collect_excursions(chain, fspec, args.n_regen, seed)
        payload["estimate"] = plain(sigma_mrv_regenerative(chi, gaps))
        payload["excursion_variance"] = plain(
            sigma_inf_from_excursions(chi))
        payload["n_regen"] = args.n_regen
    else:
        if args.n is None:
            raise ValueError("batch variance needs a series length: pass --n")
        x0 = chain.first_small_set_state() if args.x0 is None else args.x0
        batch_length = (max(1, int(round(math.sqrt(args.n) / 2.0)))
                        if args.batch_length is None else args.batch_length)
        states = sample_path(chain, x0, args.n, substream(seed, TAG_PATH, 0))
        payload["estimate"] = plain(
            sigma_mrv_batch(fspec.apply(states), batch_length))
        payload.update({"n": args.n, "batch_length": batch_length})
    if "value" in payload:
        csv_text = f"method,value\n{method},{payload['value']!r}\n"
    else:
        est = payload["estimate"]
        csv_text = ("method,value,se\n"
                    f"{method},{est['value']!r},{est['se']!r}\n")
    return payload, csv_text, {}


# verify options passed on only when given, so run_verification and
# fit_bernstein_params keep the one copy of each default
_RUN_OPTIONS = ("init", "x0", "replicas", "threads", "z", "p", "alpha", "formulas")
_FIT_OPTIONS = ("safety", "n_excursions", "n_first_blocks")


def _given(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys
            if getattr(args, key) is not None}


def cmd_verify(args, cfg):
    chain, f_spec, n, seed, grid = _tail_inputs(args, cfg)
    report = run_verification(
        chain, f_spec, n=n, t_grid=grid, seed=seed, exact=args.exact,
        fit_options=_given(args, _FIT_OPTIONS), structure=args.structure,
        **_given(args, _RUN_OPTIONS))
    payload = _base_metadata("verify", seed)
    payload.update(report_to_dict(report))
    return payload, curves_csv_text(report), {
        "curves.csv": partial(write_curves_csv, report)}


def cmd_oracle(args, cfg):
    chain, f_spec, n, seed, grid = _tail_inputs(args, cfg)
    x0 = resolve_point(chain, chain.first_small_set_state()
                       if args.x0 is None else args.x0)
    tail = exact_tail(chain, f_spec, x0, n, grid)
    payload = {"command": "oracle", "chain": chain.label(),
               "functional": resolve_functional(chain, f_spec).name,
               "x0": x0, "n": n, "seed": seed, "tail": tail_curve_to_dict(tail)}
    csv_text = "t,estimate\n" + "".join(
        f"{float(tj)!r},{float(pj)!r}\n"
        for tj, pj in zip(tail.t, tail.estimate))
    return payload, csv_text, {}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser():
    """The parser and the parsers of its subcommands by name."""
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
    for flag, cast in (("--a", float), ("--b", float), ("--delta", float),
                       ("--precision", int)):
        chain_opts.add_argument(flag, type=cast)
    chain_opts.add_argument("--f", help="functional name")

    grid_opts = argparse.ArgumentParser(add_help=False)
    grid_opts.add_argument("--t-grid", type=_listed(float, (str, int, float)),
                           help="comma-separated t values")
    grid_opts.add_argument("--t-max", type=float)
    grid_opts.add_argument("--t-points", type=int, default=50)

    parser = argparse.ArgumentParser(
        prog="regen-bernstein",
        description="Regenerative simulation and concentration-bound "
                    "verification for Markov chains")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common, chain_opts],
                           help="simulate the split chain")
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--init", type=_parse_value, default="pi")
    p_sim.add_argument("--extend", action="store_true",
                       help="extend to the first regeneration covering n")

    p_bounds = sub.add_parser("bounds", parents=[common],
                              help="evaluate a closed-form bound")
    p_bounds.add_argument("formula", nargs="?")
    p_bounds.add_argument("pairs", nargs="*", metavar="key=value")

    p_var = sub.add_parser("variance", parents=[common, chain_opts],
                           help="asymptotic variance estimates")
    p_var.add_argument("--method", type=_method, default="exact")
    p_var.add_argument("--n", type=int)
    p_var.add_argument("--n-regen", type=int, default=20000)
    p_var.add_argument("--batch-length", type=int)
    p_var.add_argument("--x0", type=_parse_value)

    p_verify = sub.add_parser("verify", parents=[common, chain_opts, grid_opts],
                              help="tail estimation and bound domination")
    p_verify.add_argument("--n", type=int)
    for flag, cast in (("--replicas", int), ("--threads", int), ("--z", float),
                       ("--p", float), ("--alpha", float), ("--safety", float),
                       ("--n-excursions", int), ("--n-first-blocks", int)):
        p_verify.add_argument(flag, type=cast)
    p_verify.add_argument("--init", type=_parse_value)
    p_verify.add_argument("--exact", action="store_true",
                          help="exact enumeration instead of Monte Carlo")
    p_verify.add_argument("--x0", type=_parse_value)
    p_verify.add_argument("--formulas", type=_listed(str, (str,)),
                          help="comma-separated bound names")
    p_verify.add_argument("--structure", action="store_true",
                          help="attach block-structure test results")

    p_oracle = sub.add_parser("oracle", parents=[common, chain_opts, grid_opts],
                              help="exact tails on small finite chains")
    p_oracle.add_argument("--n", type=int)
    p_oracle.add_argument("--x0", type=_parse_value)

    return parser, sub.choices


# command -> (subcommand, name of the JSON file --out writes)
_COMMANDS = {
    "simulate": (cmd_simulate, "summary.json"),
    "bounds": (cmd_bounds, "bounds.json"),
    "variance": (cmd_variance, "variance.json"),
    "verify": (cmd_verify, "report.json"),
    "oracle": (cmd_oracle, "oracle.json"),
}


def _parse(argv):
    """(options, config) of a command line: the config's entries as their
    flags read them, then the command line's own flags, which win."""
    parser, subcommands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    cfg = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as handle:
            cfg = json.load(handle)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    tokens = _config_tokens(subcommands[args.command], cfg)
    if tokens:
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + tokens + argv[at:])
    return args, cfg


def main(argv=None) -> int:
    try:
        args, cfg = _parse(argv)
        command, json_name = _COMMANDS[args.command]
        payload, csv_text, files = command(args, cfg)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            write_json(payload, os.path.join(args.out, json_name))
            for name, write in files.items():
                write(os.path.join(args.out, name))
    except SystemExit as exc:
        # argparse exits 2 on usage problems; that is a validation error here
        return 0 if (exc.code or 0) == 0 else 1
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if csv_text is not None and args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(json_text(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
