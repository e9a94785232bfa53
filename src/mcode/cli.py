"""Command line front end: simulate, fit, detect, eval.

Every flag can also come from a JSON config file (--config); explicit
flags win. Output artifacts carry a header with the tool version, the
seed, and a hash of the resolved configuration so results can be traced
back to the exact run that produced them.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import ConfigError, DataError, DomainError, NumericalError
from .dataset import inject_outliers, load_csv, load_log, save_csv, save_log
from .model import (CvLambda, FULL_CONDITIONAL, FixedLambda, MODES,
                    fit_mcode, save_model)
from .optim import (ConstantFactor, DEFAULT_LAMBDA_GRID,
                    optimizer_run_count)
from .scoring import load_score_table, write_score_table, ScoreVector
from .evaluation import (DEFAULT_UPPER_RATE, METHODS, atpar, run_experiment,
                         tpar_curve)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of a detect run."""

    dataset: str
    n_outputs: int
    methods: tuple
    ratio: float = 0.01
    dim_fraction: float = 0.1
    k_lof: int = 100
    k_lrw: int = 100
    lam: float | None = None  # fixed penalty; None means cross-validate
    cv_grid: tuple = DEFAULT_LAMBDA_GRID
    cv_folds: int = 5
    repeats: int = 10
    seed: int = 0
    upper: float = DEFAULT_UPPER_RATE
    fit_on_original: bool = False
    out_dir: str = "mcode_out"

    def lambda_policy(self):
        if self.lam is not None:
            return FixedLambda(float(self.lam))
        return CvLambda(grid=tuple(self.cv_grid), folds=self.cv_folds,
                        seed=self.seed)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; route them through
    # the ConfigError path instead so usage errors exit with 1.
    def error(self, message):
        raise ConfigError(message)


def _add_common(sub):
    sub.add_argument("--config", help="JSON file of flag defaults")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out-dir", dest="out_dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mcode",
                     description="Multivariate conditional outlier detection")
    parser.add_argument("--version", action="version",
                        version=f"mcode {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", parents=[], add_help=True,
                          help="inject output-bit outliers into a dataset")
    sim.add_argument("--dataset")
    sim.add_argument("--n-outputs", dest="n_outputs", type=int, default=None)
    sim.add_argument("--ratio", type=float, default=None)
    sim.add_argument("--dim-fraction", dest="dim_fraction", type=float,
                     default=None)
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    fit = subs.add_parser("fit", help="fit factor models and persist them")
    fit.add_argument("--dataset")
    fit.add_argument("--n-outputs", dest="n_outputs", type=int, default=None)
    fit.add_argument("--modes", nargs="+", choices=MODES, default=None)
    fit.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="fixed penalty (skips cross-validation)")
    fit.add_argument("--cv-grid", dest="cv_grid", default=None,
                     help="comma-separated penalty grid")
    fit.add_argument("--cv-folds", dest="cv_folds", type=int, default=None)
    _add_common(fit)
    fit.set_defaults(func=cmd_fit)

    det = subs.add_parser("detect",
                          help="inject, fit, score, and evaluate in one run")
    det.add_argument("--dataset")
    det.add_argument("--n-outputs", dest="n_outputs", type=int, default=None)
    det.add_argument("--methods", nargs="+", choices=METHODS, default=None)
    det.add_argument("--ratio", type=float, default=None)
    det.add_argument("--dim-fraction", dest="dim_fraction", type=float,
                     default=None)
    det.add_argument("--k-lof", dest="k_lof", type=int, default=None)
    det.add_argument("--k-lrw", dest="k_lrw", type=int, default=None)
    det.add_argument("--lambda", dest="lam", type=float, default=None)
    det.add_argument("--cv-grid", dest="cv_grid", default=None)
    det.add_argument("--cv-folds", dest="cv_folds", type=int, default=None)
    det.add_argument("--repeats", type=int, default=None)
    det.add_argument("--upper", type=float, default=None,
                     help="upper alert rate for ATPAR")
    det.add_argument("--fit-on-original", dest="fit_on_original",
                     action="store_true", default=None,
                     help="fit models on the clean data, score the "
                          "contaminated data")
    _add_common(det)
    det.set_defaults(func=cmd_detect)

    ev = subs.add_parser("eval",
                         help="re-evaluate a stored score table against a "
                              "perturbation log")
    ev.add_argument("--scores", help="score table written by detect")
    ev.add_argument("--log", dest="log_path",
                    help="perturbation log with the ground truth")
    ev.add_argument("--upper", type=float, default=None)
    ev.add_argument("--curve-out", dest="curve_out", default=None,
                    help="write the TPAR curve to this CSV file")
    _add_common(ev)
    ev.set_defaults(func=cmd_eval)

    return parser


def _resolve(args, defaults: dict) -> dict:
    """Merge flag values over config-file values over built-in defaults."""
    file_values = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file {path} not found")
        with open(path) as fh:
            try:
                file_values = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ConfigError(
                f"{path}: unknown config keys {sorted(unknown)}")
        for name in ("methods", "modes"):
            if name in file_values and not isinstance(file_values[name],
                                                      list):
                raise ConfigError(f"{path}: {name!r} must be a list, got "
                                  f"{file_values[name]!r}")

    resolved = {}
    for name, default in defaults.items():
        flag = getattr(args, name, None)
        if flag is not None:
            resolved[name] = flag
        elif name in file_values:
            resolved[name] = file_values[name]
        else:
            resolved[name] = default
    return resolved


def _require(resolved: dict, *names):
    for name in names:
        if resolved[name] is None:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} is required")


def _config_hash(resolved: dict) -> str:
    # identifies the run parameters, not where the artifacts land
    params = {k: v for k, v in resolved.items() if k != "out_dir"}
    canon = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _header_lines(seed, cfg_hash):
    return (f"mcode {__version__}", f"seed={seed}", f"config={cfg_hash}")


def _meta(seed, cfg_hash):
    return {"tool": "mcode", "version": __version__, "seed": seed,
            "config_hash": cfg_hash}


def _check_rate(name: str, value, allow_none=False):
    if value is None and allow_none:
        return
    if not isinstance(value, (int, float)) or not (0.0 < float(value) <= 1.0):
        raise ConfigError(f"--{name} must be in (0, 1], got {value!r}")


def _check_positive_int(name: str, value):
    if not isinstance(value, int) or value < 1:
        raise ConfigError(f"--{name} must be a positive integer, got {value!r}")


def _parse_grid(text):
    if text is None:
        return None
    if isinstance(text, (list, tuple)):
        values = list(text)
    else:
        values = text.split(",")
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad penalty grid {text!r}: {exc}") from exc


def cmd_simulate(args) -> int:
    resolved = _resolve(args, {
        "dataset": None, "n_outputs": None, "ratio": 0.01,
        "dim_fraction": None, "seed": 0, "out_dir": "mcode_out"})
    _require(resolved, "dataset", "n_outputs", "dim_fraction")
    _check_rate("ratio", resolved["ratio"])
    _check_rate("dim-fraction", resolved["dim_fraction"])
    cfg_hash = _config_hash(resolved)

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


def cmd_fit(args) -> int:
    resolved = _resolve(args, {
        "dataset": None, "n_outputs": None, "modes": [FULL_CONDITIONAL],
        "lam": None, "cv_grid": None, "cv_folds": 5, "seed": 0,
        "out_dir": "mcode_out"})
    _require(resolved, "dataset", "n_outputs")
    if resolved["lam"] is not None and resolved["cv_grid"] is not None:
        raise ConfigError("--lambda and --cv-grid are mutually exclusive")
    cfg_hash = _config_hash(resolved)

    ds = load_csv(resolved["dataset"], resolved["n_outputs"])
    if resolved["lam"] is not None:
        policy = FixedLambda(resolved["lam"])
    else:
        grid = _parse_grid(resolved["cv_grid"]) or DEFAULT_LAMBDA_GRID
        policy = CvLambda(grid=grid, folds=resolved["cv_folds"],
                          seed=resolved["seed"])

    out = Path(resolved["out_dir"])
    for mode in resolved["modes"]:
        runs_before = optimizer_run_count()
        model = fit_mcode(ds, mode, policy)
        runs = optimizer_run_count() - runs_before
        target = out / f"model_{mode}"
        save_model(model, target, meta=_meta(resolved["seed"], cfg_hash))
        print(f"mode={mode}  optimizer runs: {runs}  -> {target}")
        for factor, lam in zip(model.factors, model.lambdas):
            if isinstance(factor, ConstantFactor):
                print(f"  dim {factor.dim_index}: constant "
                      f"prob_one={factor.prob_one:.6g}")
            else:
                print(f"  dim {factor.dim_index}: lambda={lam:g} "
                      f"converged={factor.converged} "
                      f"grad_norm={factor.final_gradient_norm:.3e}")
    return 0


def cmd_detect(args) -> int:
    resolved = _resolve(args, {
        "dataset": None, "n_outputs": None, "methods": list(METHODS),
        "ratio": 0.01, "dim_fraction": None, "k_lof": 100, "k_lrw": 100,
        "lam": None, "cv_grid": None, "cv_folds": 5, "repeats": 10,
        "seed": 0, "upper": DEFAULT_UPPER_RATE, "fit_on_original": False,
        "out_dir": "mcode_out"})
    _require(resolved, "dataset", "n_outputs", "dim_fraction")
    if resolved["lam"] is not None and resolved["cv_grid"] is not None:
        raise ConfigError("--lambda and --cv-grid are mutually exclusive")
    _check_rate("ratio", resolved["ratio"])
    _check_rate("dim-fraction", resolved["dim_fraction"])
    _check_rate("upper", resolved["upper"])
    _check_positive_int("k-lof", resolved["k_lof"])
    _check_positive_int("k-lrw", resolved["k_lrw"])
    _check_positive_int("repeats", resolved["repeats"])
    cfg_hash = _config_hash(resolved)

    config = RunConfig(
        dataset=resolved["dataset"], n_outputs=resolved["n_outputs"],
        methods=tuple(resolved["methods"]), ratio=resolved["ratio"],
        dim_fraction=resolved["dim_fraction"], k_lof=resolved["k_lof"],
        k_lrw=resolved["k_lrw"], lam=resolved["lam"],
        cv_grid=_parse_grid(resolved["cv_grid"]) or DEFAULT_LAMBDA_GRID,
        cv_folds=resolved["cv_folds"], repeats=resolved["repeats"],
        seed=resolved["seed"], upper=resolved["upper"],
        fit_on_original=bool(resolved["fit_on_original"]),
        out_dir=resolved["out_dir"])

    ds = load_csv(config.dataset, config.n_outputs)

    out = Path(config.out_dir)
    (out / "scores").mkdir(parents=True, exist_ok=True)
    (out / "curves").mkdir(exist_ok=True)
    (out / "logs").mkdir(exist_ok=True)
    header = _header_lines(config.seed, cfg_hash)
    meta = _meta(config.seed, cfg_hash)

    config_doc = dict(resolved, methods=list(config.methods))
    config_doc["_meta"] = meta
    with open(out / "config.json", "w") as fh:
        json.dump(config_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(config_doc, sort_keys=True))

    records = open(out / "report.jsonl", "w")

    def on_repeat(r, log, scored):
        save_log(log, out / "logs" / f"perturbation_r{r:02d}.json", meta=meta)
        for name, sv in scored.items():
            labeled = ScoreVector(scores=sv.scores, method=name)
            write_score_table(out / "scores" / f"{name}_r{r:02d}.csv",
                              labeled, comments=header)
            curve = tpar_curve(labeled, log.outlier_rows)
            _write_curve(out / "curves" / f"{name}_r{r:02d}.csv",
                         curve, header)
            records.write(json.dumps({
                "dataset": config.dataset, "method": name,
                "dim_fraction": config.dim_fraction, "repeat": r,
                "atpar": atpar(labeled, log.outlier_rows, config.upper),
            }, sort_keys=True) + "\n")

    try:
        reports = run_experiment(
            ds, config.methods, config.ratio, config.dim_fraction,
            repeats=config.repeats, seed=config.seed,
            lambda_policy=config.lambda_policy(), k_lof=config.k_lof,
            k_lrw=config.k_lrw, fit_on_original=config.fit_on_original,
            upper=config.upper, on_repeat=on_repeat)
    finally:
        records.close()

    lines = [f"{'method':<8}{'dim_fraction':>14}{'mean_atpar':>12}"
             f"{'std':>10}{'repeats':>9}"]
    for name, rep in reports.items():
        lines.append(f"{name:<8}{rep.dim_fraction:>14.4g}{rep.mean:>12.4f}"
                     f"{rep.std:>10.4f}{len(rep.atpar_values):>9}")
    table = "\n".join(lines)
    with open(out / "report.txt", "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(table + "\n")
    print(table)
    return 0


def _write_curve(path, curve, comments):
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("alert_rate,tpar\n")
        for rate, value in zip(curve.alert_rates, curve.tpar_values):
            fh.write(f"{repr(float(rate))},{repr(float(value))}\n")


def cmd_eval(args) -> int:
    resolved = _resolve(args, {
        "scores": None, "log_path": None, "upper": DEFAULT_UPPER_RATE,
        "curve_out": None, "seed": 0, "out_dir": "mcode_out"})
    _require(resolved, "scores", "log_path")
    cfg_hash = _config_hash(resolved)

    scores, method = load_score_table(resolved["scores"])
    log = load_log(resolved["log_path"])
    sv = ScoreVector(scores=scores, method=method)
    value = atpar(sv, log.outlier_rows, resolved["upper"])
    print(f"method={method} upper={resolved['upper']:g} atpar={value!r}")
    if resolved["curve_out"]:
        curve = tpar_curve(sv, log.outlier_rows)
        _write_curve(resolved["curve_out"], curve,
                     _header_lines(log.seed, cfg_hash))
        print(f"wrote {resolved['curve_out']}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"mcode: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DomainError) as exc:
        print(f"mcode: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"mcode: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"mcode: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
