"""Command line front end: simulate, fit, detect, eval.

OPTIONS declares each option once. Every flag can also come from a JSON
config file (--config) under its OPTIONS key; explicit flags win. main
resolves a run once, before any file is written: it checks every value
and keeps it in its kind's one form, a number as a float and a grid as
its ascending floats, whichever source gave it. Output artifacts carry
a header with the tool version, the seed, and a hash of that resolved
configuration, so results can be traced back to the exact run that
produced them, and one run has one hash.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, DomainError, NumericalError
from .dataset import (inject_outliers, is_rate, is_seed, load_csv, load_json,
                      load_log, save_csv, save_json, save_log, write_table)
from .model import (CvLambda, FULL_CONDITIONAL, FixedLambda, MODES,
                    check_mode, fit_mcode)
from .optim import ConstantFactor, DEFAULT_LAMBDA_GRID, _checked_grid, \
    check_folds, is_penalty
from .scoring import load_score_table, write_score_table, ScoreVector
from .evaluation import (DEFAULT_UPPER_RATE, METHODS, atpar,
                         check_experiment, run_experiment, tpar_curve,
                         write_curve)


@dataclass(frozen=True)
class Option:
    """One option: its flag, the kind of value it takes, its default, its
    help text and the range its values must lie in. The option's name in
    OPTIONS is its config-file key."""

    flag: str
    kind: str  # a key of _KINDS
    default: object = None
    help: str = ""
    valid: Callable[[object], object] = lambda value: True
    expect: str = ""  # the values valid() accepts; the kind's noun if empty
    required: bool = False
    choices: tuple | None = None


def _parse_grid(value):
    """The numbers of a comma-separated string; a list as it is."""
    return tuple(map(float, value.split(","))) if isinstance(value, str) \
        else value


def _as_is(value):
    return value


# kind: (JSON types a config value may take, argparse keywords of the
# flag, what a value must be, the value a valid one resolves to)
_KINDS = {
    "int": ((int,), {"type": int}, "an integer", _as_is),
    "number": ((int, float), {"type": float}, "a number", float),
    "str": ((str,), {}, "a string", _as_is),
    "bool": ((bool,), {"action": "store_true"}, "true or false", _as_is),
    "list": ((list,), {"nargs": "+"}, "a list", _as_is),
    "grid": ((str, list), {}, "a non-empty comma-separated string or list "
             "of finite numbers >= 0",
             lambda v: _checked_grid(_parse_grid(v))),
}


_POSITIVE = dict(valid=lambda v: v >= 1, expect="an integer >= 1")
_RATE = dict(valid=is_rate, expect="a number in (0, 1]")


def _one_or_more_of(choices):
    return dict(choices=choices,
                valid=lambda v: len(v) > 0 and all(x in choices for x in v),
                expect=f"a non-empty list of {', '.join(choices)}")


OPTIONS = {
    "dataset": Option("--dataset", "str", None, "input CSV", required=True),
    "n_outputs": Option("--n-outputs", "int", None,
                        "number of output columns", required=True,
                        **_POSITIVE),
    "methods": Option("--methods", "list", list(METHODS), "scores to compute",
                      **_one_or_more_of(METHODS)),
    "modes": Option("--modes", "list", [FULL_CONDITIONAL], "models to fit",
                    **_one_or_more_of(MODES)),
    "ratio": Option("--ratio", "number", 0.01, "fraction of rows made "
                    "outliers", **_RATE),
    "dim_fraction": Option("--dim-fraction", "number", None,
                           "fraction of an outlier's outputs flipped",
                           required=True, **_RATE),
    "k_lof": Option("--k-lof", "int", 100, "LOF neighbors", **_POSITIVE),
    "k_lrw": Option("--k-lrw", "int", 100, "LRW neighbors", **_POSITIVE),
    "lam": Option("--lambda", "number", None,
                  "fixed penalty (skips cross-validation)", is_penalty,
                  "a finite number >= 0"),
    "cv_grid": Option("--cv-grid", "grid", None,
                      "comma-separated penalty grid"),
    "cv_folds": Option("--cv-folds", "int", 5, "cross-validation folds",
                       lambda v: check_folds(v) or True, "an integer >= 2"),
    "repeats": Option("--repeats", "int", 10, "injection repeats",
                      **_POSITIVE),
    "upper": Option("--upper", "number", DEFAULT_UPPER_RATE,
                    "upper alert rate for ATPAR", **_RATE),
    "fit_on_original": Option("--fit-on-original", "bool", False,
                              "fit models on the clean data, score the "
                              "contaminated data"),
    "scores": Option("--scores", "str", None,
                     "score table written by detect", required=True),
    "log_path": Option("--log", "str", None,
                       "perturbation log with the ground truth",
                       required=True),
    "curve_out": Option("--curve-out", "str", None,
                        "write the TPAR curve to this CSV file"),
    "seed": Option("--seed", "int", 0, "random seed", is_seed,
                   "an integer >= 0"),
    "out_dir": Option("--out-dir", "str", "mcode_out", "artifact directory"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; route them through
    # the ConfigError path instead so usage errors exit with 1.
    def error(self, message):
        raise ConfigError(message)


def _add_flag(parser, key):
    opt = OPTIONS[key]
    extra = {"choices": opt.choices} if opt.choices else {}
    parser.add_argument(opt.flag, dest=key, default=None, help=opt.help,
                        **_KINDS[opt.kind][1], **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mcode",
                     description="Multivariate conditional outlier detection")
    parser.add_argument("--version", action="version",
                        version=f"mcode {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for key in keys:
            _add_flag(sub, key)
        sub.add_argument("--config", help="JSON file of flag defaults")
        sub.set_defaults(func=func)
    return parser


def _check(key, value):
    """value as its option's kind resolves it, None for an unset option; a
    ConfigError unless the option's kind and rule accept it."""
    opt = OPTIONS[key]
    if value is None and opt.required:
        raise ConfigError(f"{opt.flag} is required")
    if value is None and opt.default is None:
        return None
    types, _, noun, resolve = _KINDS[opt.kind]
    try:
        ok = isinstance(value, types) and (
            bool in types or not isinstance(value, bool)) and opt.valid(value)
        if ok:  # resolved only once checked: float(2 ** 1024) overflows
            return resolve(value)
    except (ConfigError, ValueError):  # the grid's rule, or float("x")
        pass
    raise ConfigError(f"{opt.flag} (config key {key!r}) must be "
                      f"{opt.expect or noun}, got {value!r}")


def _resolve(args) -> dict:
    """Merge flag values over config-file values over the defaults of
    OPTIONS, each value checked and resolved by _check."""
    keys = COMMANDS[args.command][2]
    file_values = {}
    if args.config:
        try:
            file_values = load_json(args.config)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        unknown = set(file_values) - set(keys)
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown config keys {sorted(unknown)}")

    resolved = {}
    for key in keys:
        value = getattr(args, key)
        if value is None:
            value = file_values.get(key, OPTIONS[key].default)
        resolved[key] = _check(key, value)
    if resolved.get("lam") is not None and resolved.get("cv_grid") is not None:
        raise ConfigError("--lambda and --cv-grid are mutually exclusive")
    return resolved


def _lambda_policy(resolved):
    if resolved["lam"] is not None:
        return FixedLambda(resolved["lam"])
    return CvLambda(grid=resolved["cv_grid"] or DEFAULT_LAMBDA_GRID,
                    folds=resolved["cv_folds"], seed=resolved["seed"])


def _config_hash(resolved: dict) -> str:
    # identifies the run parameters, not where the artifacts land
    params = {k: v for k, v in resolved.items()
              if k not in ("out_dir", "curve_out")}
    canon = json.dumps(params, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _header_lines(seed, cfg_hash):
    return (f"mcode {__version__}", f"seed={seed}", f"config={cfg_hash}")


def _meta(seed, cfg_hash):
    return {"tool": "mcode", "version": __version__, "seed": seed,
            "config_hash": cfg_hash}


def cmd_simulate(resolved, cfg_hash) -> int:
    ds = load_csv(resolved["dataset"], resolved["n_outputs"])
    perturbed, log = inject_outliers(
        ds, resolved["ratio"], resolved["dim_fraction"], resolved["seed"])

    out = Path(resolved["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    header = _header_lines(resolved["seed"], cfg_hash)
    save_csv(perturbed, out / "perturbed.csv", comments=header)
    save_log(log, out / "perturbation_log.json",
             meta=_meta(resolved["seed"], cfg_hash))
    print(f"wrote {out / 'perturbed.csv'} and {out / 'perturbation_log.json'}")
    print(f"outlier rows: {len(log.outlier_rows)}  "
          f"flipped cells: {len(log.flipped_cells)}")
    return 0


def cmd_fit(resolved, cfg_hash) -> int:
    ds = load_csv(resolved["dataset"], resolved["n_outputs"])
    policy = _lambda_policy(resolved)
    for mode in resolved["modes"]:
        check_mode(mode, ds.d)

    for mode in resolved["modes"]:
        model = fit_mcode(ds, mode, policy)
        print(f"mode={mode}")
        for i, factor in enumerate(model.factors):
            if isinstance(factor, ConstantFactor):
                print(f"  dim {i}: constant "
                      f"prob_one={factor.prob_one:.6g}")
            else:
                print(f"  dim {i}: lambda={factor.lam:g} "
                      f"converged={factor.converged} "
                      f"grad_norm={factor.final_gradient_norm:.3e}")
    return 0


def cmd_detect(resolved, cfg_hash) -> int:
    ds = load_csv(resolved["dataset"], resolved["n_outputs"])
    policy = _lambda_policy(resolved)
    check_experiment(ds, resolved["methods"], resolved["repeats"],
                     resolved["k_lof"], resolved["k_lrw"], policy)

    out = Path(resolved["out_dir"])
    (out / "scores").mkdir(parents=True, exist_ok=True)
    (out / "curves").mkdir(exist_ok=True)
    (out / "logs").mkdir(exist_ok=True)
    header = _header_lines(resolved["seed"], cfg_hash)
    meta = _meta(resolved["seed"], cfg_hash)

    config_doc = dict(resolved, _meta=meta)
    save_json(config_doc, out / "config.json")
    print(json.dumps(config_doc, sort_keys=True))

    with open(out / "report.jsonl", "w", encoding="utf-8") as records:
        def on_repeat(r, log, scored, atpars):
            save_log(log, out / "logs" / f"perturbation_r{r:02d}.json",
                     meta=meta)
            for name, sv in scored.items():
                write_score_table(out / "scores" / f"{name}_r{r:02d}.csv",
                                  name, sv, comments=header)
                write_curve(out / "curves" / f"{name}_r{r:02d}.csv",
                            tpar_curve(sv, log.outlier_rows), header)
                records.write(json.dumps({
                    "dataset": resolved["dataset"], "method": name,
                    "dim_fraction": resolved["dim_fraction"], "repeat": r,
                    "atpar": atpars[name]}, sort_keys=True) + "\n")

        atpars = run_experiment(
            ds, resolved["methods"], resolved["ratio"],
            resolved["dim_fraction"], repeats=resolved["repeats"],
            seed=resolved["seed"], lambda_policy=policy,
            k_lof=resolved["k_lof"], k_lrw=resolved["k_lrw"],
            fit_on_original=resolved["fit_on_original"],
            upper=resolved["upper"], on_repeat=on_repeat)

    title = (f"{'method':<8}{'dim_fraction':>14}{'mean_atpar':>12}"
             f"{'std':>10}{'repeats':>9}")
    rows = []
    for name, values in atpars.items():
        # the sample std (ddof=1), which one repeat leaves undefined: 0 then
        std = np.std(values, ddof=1) if len(values) > 1 else 0.0
        rows.append(f"{name:<8}{resolved['dim_fraction']:>14.4g}"
                    f"{np.mean(values):>12.4f}{std:>10.4f}{len(values):>9}")
    write_table(out / "report.txt", title, rows, header)
    print("\n".join([title, *rows]))
    return 0


def cmd_eval(resolved, cfg_hash) -> int:
    scores, method = load_score_table(resolved["scores"])
    log = load_log(resolved["log_path"])
    sv = ScoreVector(scores=scores)
    value = atpar(sv, log.outlier_rows, resolved["upper"])
    print(f"method={method} upper={resolved['upper']:g} atpar={value!r}")
    if resolved["curve_out"]:
        write_curve(resolved["curve_out"], tpar_curve(sv, log.outlier_rows),
                    _header_lines(log.seed, cfg_hash))
        print(f"wrote {resolved['curve_out']}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parsing only reads it, and building it took
    # 1.4 ms, which every in-process call of main paid.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        resolved = _resolve(args)
        return args.func(resolved, _config_hash(resolved))
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"mcode: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DomainError, OSError) as exc:
        print(f"mcode: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"mcode: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"mcode: out of memory: {exc}", file=sys.stderr)
        return 3


# subcommand: (handler, help text, its options in flag order)
COMMANDS = {
    "simulate": (cmd_simulate, "inject output-bit outliers into a dataset",
                 ("dataset", "n_outputs", "ratio", "dim_fraction", "seed",
                  "out_dir")),
    "fit": (cmd_fit, "fit factor models and report each factor",
            ("dataset", "n_outputs", "modes", "lam", "cv_grid", "cv_folds",
             "seed")),
    "detect": (cmd_detect, "inject, fit, score, and evaluate in one run",
               ("dataset", "n_outputs", "methods", "ratio", "dim_fraction",
                "k_lof", "k_lrw", "lam", "cv_grid", "cv_folds", "repeats",
                "upper", "fit_on_original", "seed", "out_dir")),
    "eval": (cmd_eval, "re-evaluate a stored score table against a "
                       "perturbation log",
             ("scores", "log_path", "upper", "curve_out")),
}


if __name__ == "__main__":
    sys.exit(main())
