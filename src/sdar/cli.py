"""Command-line surface for reproducible SDAR runs.

Subcommands: ingest, fit-sdar, fit-setar, forecast, compare, check.
Every command but check writes its outputs plus a run-manifest JSON
(flag echo, package version) into --out; check only prints and takes
no --out. Each run is a pure function of its input files and flags;
--seed exists only where it changes the output (fit-sdar, forecast,
compare). Each flag is declared once and each subcommand lists the
flags it reads. --config entries parse as flags ahead of the command
line's, which win; the command line alone must hold the required flags
(--input, forecast --fit, compare --n-train).

Exit codes: 0 success, 1 input error (a bad or missing flag included),
2 numerical non-convergence, 3 assumption failure (check only).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .estimation import FitResult, fit, select_model
from .forecast import (
    exact_means_sdar,
    horizon_csv,
    mc_forecast_sdar,
    relative_efficiency,
    relative_efficiency_csv,
    rolling_evaluate,
)
from .model import SdarParams, persistence_series
from .persistence import PersistenceKind, PersistenceParams, check_assumptions
from .series import IngestError, TimeSeries, load_returns, log_transform, realized_volatility, split
from .setar import SetarFit, exact_means_setar, mc_forecast_setar, select_setar, setar_means

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_ASSUMPTION = 3


# Each flag, declared once with one default; a subcommand lists the flags it reads.
_FLAGS = {
    "--input": dict(required=True, help="input CSV (returns, or a series such as log volatility)"),
    "--column": dict(help="column name or 0-based index (default: the last column)"),
    "--week-len": dict(type=int, default=5),
    "--n-train": dict(type=int, help="use only the first N observations"),
    "--kind": dict(choices=["M1", "M2", "both"], default="both"),
    "--n-starts": dict(type=int, default=16),
    "--max-lag": dict(type=int, default=4),
    "--horizon": dict(type=int, default=20),
    "--mc": dict(type=int, default=10_000, help="Monte-Carlo paths"),
    "--mode": dict(choices=["single-origin", "rolling-origin"], default="single-origin",
                   help="single-origin scores the first --horizon test values: one origin"),
    "--gamma0": dict(type=float),
    "--gamma1": dict(type=float),
    "--r": dict(type=float),
    "--config": dict(help="JSON config file; explicit flags override it"),
    "--out": dict(default=".", help="output directory"),
    "--seed": dict(type=int, default=0),
}

# The flags whose meaning differs between subcommands, by (subcommand, flag).
_OWN_FLAGS = {
    ("forecast", "--fit"): dict(required=True, help="fit JSON (SDAR or SETAR)"),
    ("check", "--fit"): dict(help="SDAR fit JSON to check"),
    ("compare", "--n-train"): dict(type=int, required=True),
    ("compare", "--mc"): dict(type=int, default=1_000, help="antithetic draws per origin "
                              "(2 x --mc paths), taken only for a SETAR with max(d1, d2) > 1, "
                              "whose means are not exact"),
    ("compare", "--seed"): dict(type=int, default=0, help="seeds the SDAR start design and "
                                "origin o's draw (seed + o), so seeds that gauge Monte-Carlo "
                                "noise must lie at least the number of origins apart"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 like any input error; 2 is non-convergence
        raise IngestError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdar", description="State-dependent AR modelling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_OWN_FLAGS.get((command, flag)) or _FLAGS[flag])
    return parser


def _apply_config(parser, args: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` again with each --config entry as a ``--flag=value`` token before it.

    argparse converts and checks config values as it does flag text; a flag on the
    command line (abbreviated ones too) comes later and wins. Keys naming no option
    of the subcommand are skipped, so one config serves a whole pipeline.
    """
    if not args.config:
        return args
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise IngestError(f"{args.config}: config must be a JSON object")
    tokens = []
    for key, value in config.items():
        key = key.replace("-", "_")
        if key in ("command", "config") or not hasattr(args, key):
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise IngestError(f"{args.config}: {key}: expected a string or a number, got {value!r}")
        tokens.append(f"--{key.replace('_', '-')}={value}")  # one token: a value may start with -
    at = argv.index(args.command) + 1
    try:  # argv alone parsed, so only a config entry can fail here
        return parser.parse_args(argv[:at] + tokens + argv[at:])
    except IngestError as exc:
        raise IngestError(f"{args.config}: {exc}") from None


def _load_series(args) -> TimeSeries:
    col = args.column
    if isinstance(col, str) and col.lstrip("-").isdigit():
        col = int(col)
    return load_returns(args.input, col)


def _write(args, artifacts: dict[str, str]) -> Path:
    """Write each ``{name: text}`` artifact, then run_manifest.json, into --out."""
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    doc = {"command": args.command, "config": echo, "version": __version__}
    artifacts = {**artifacts, "run_manifest.json": json.dumps(doc, indent=2, default=str)}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return out_dir


def _series_csv(values, label: str) -> str:
    lines = [label] + [f"{v:.12g}" for v in values]
    return "\n".join(lines) + "\n"


def cmd_ingest(args) -> int:
    vol = realized_volatility(_load_series(args), args.week_len)
    logvol = log_transform(vol)
    out_dir = _write(args, {"volatility.csv": _series_csv(vol.values, "volatility"),
                            "log_volatility.csv": _series_csv(logvol.values, "log_volatility")})
    print(f"wrote {len(vol)} weekly volatility values to {out_dir}")
    return EXIT_OK


def _train_series(args) -> TimeSeries:
    series = _load_series(args)
    if args.n_train is not None:
        series, _ = split(series, args.n_train)
    return series


def _fit_kinds(args, series: TimeSeries):
    """Fit each kind named by --kind; return the kinds, fits and AIC choice."""
    kinds = list(PersistenceKind) if args.kind == "both" else [PersistenceKind(args.kind)]
    fits = [fit(series, k, n_starts=args.n_starts, seed=args.seed) for k in kinds]
    return kinds, fits, select_model(fits)


def cmd_fit_sdar(args) -> int:
    series = _train_series(args)
    kinds, fits, best = _fit_kinds(args, series)
    artifacts = {f"fit_{k.value}.json": f.to_json() for k, f in zip(kinds, fits)}
    rc = EXIT_OK if all(f.converged for f in fits) else EXIT_NO_CONVERGENCE
    if len(fits) > 1:
        verdict = {"selected": kinds[best].value,
                   "aic": {k.value: f.aic for k, f in zip(kinds, fits)}}
        artifacts["selection.json"] = json.dumps(verdict, indent=2)
    ps = persistence_series(fits[best].theta_hat, series)
    artifacts["persistence_series.csv"] = _series_csv(ps, "persistence")
    _write(args, artifacts)
    for kind, f in zip(kinds, fits):
        print(f"{kind.value}: loglik={f.loglik:.4f} aic={f.aic:.4f} "
              f"converged={f.converged}")
    return rc


def cmd_fit_setar(args) -> int:
    series = _train_series(args)
    result = select_setar(series, max_lag=args.max_lag)
    _write(args, {"setar_fit.json": result.to_json()})
    print(f"SETAR(2,{result.d1},{result.d2}): aic={result.aic:.4f} "
          f"threshold={result.threshold:.4f}")
    return EXIT_OK


def _load_fit(path: str):
    """The SDAR or SETAR fit saved in ``path``; a malformed one is an input error."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError("not a JSON object")
        return (FitResult if "theta_hat" in doc else SetarFit).from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"{path}: invalid fit JSON ({type(exc).__name__}: {exc})") from None


def cmd_forecast(args) -> int:
    series = _load_series(args)
    loaded = _load_fit(args.fit)
    if isinstance(loaded, FitResult):
        fc = mc_forecast_sdar(loaded, series.values[-1], args.horizon,
                              args.mc, args.seed)
    else:
        fc = mc_forecast_setar(loaded, series.values, args.horizon,
                               args.mc, args.seed)
    quantiles = {f"q{p:g}": q for p, q in fc.quantiles.items()}  # ascending QUANTILE_PROBS
    out_dir = _write(args, {"forecast.csv": horizon_csv({"mean": fc.means, **quantiles})})
    print(f"wrote {args.horizon}-step forecast to {out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    series = _load_series(args)
    train, test = split(series, args.n_train)
    if args.horizon > len(test):
        raise IngestError(
            f"horizon {args.horizon} exceeds test window of {len(test)}"
        )
    if args.mode == "single-origin":  # a window of H values holds one origin
        test = TimeSeries(test.values[: args.horizon])

    _, sdar_fits, best = _fit_kinds(args, train)
    sdar_fit = sdar_fits[best]
    setar_fit = select_setar(train, max_lag=args.max_lag)

    # Only the means are scored. SDAR's are exact, and so are SETAR's when it is
    # first-order; a SETAR of higher order averages the conditional means of the
    # 2 x --mc antithetic paths of one draw per origin.
    values = np.concatenate([train.values, test.values])  # every origin lies in it
    sdar_forecaster = exact_means_sdar(sdar_fit, values, args.horizon)
    if max(setar_fit.d1, setar_fit.d2) == 1:
        setar_forecaster, mc = exact_means_setar(setar_fit, values, args.horizon), None
    else:
        setar_forecaster, mc = functools.partial(setar_means, setar_fit), args.mc

    sdar_acc, setar_acc = rolling_evaluate(
        [sdar_forecaster, setar_forecaster], train, test, args.horizon, mc, args.seed)
    re = relative_efficiency(sdar_acc, setar_acc)
    _write(args, {"re_table.csv": relative_efficiency_csv(re),
                  "sdar_accuracy.csv": sdar_acc.to_csv(),
                  "setar_accuracy.csv": setar_acc.to_csv(),
                  "fit_sdar.json": sdar_fit.to_json(),
                  "fit_setar.json": setar_fit.to_json()})
    print(f"SDAR({sdar_fit.theta_hat.kind.value}) vs "
          f"SETAR(2,{setar_fit.d1},{setar_fit.d2}): "
          f"median RE(mafe)={np.nanmedian(re[0]):.4f}")
    if not sdar_fit.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_check(args) -> int:
    given = [f"--{name}" for name in ("gamma0", "gamma1", "r") if getattr(args, name) is not None]
    if args.fit:
        if given:
            raise IngestError(f"check takes --fit or {' '.join(given)}, not both")
        result = _load_fit(args.fit)
        if not isinstance(result, FitResult):
            raise IngestError("check requires an SDAR fit JSON")
        params: SdarParams = result.theta_hat
        kind, pf = params.kind, params.pf
        if args.kind not in ("both", kind.value):
            raise IngestError(f"--kind {args.kind} disagrees with the {kind.value} fit {args.fit}")
    else:
        if len(given) < 3 or args.kind == "both":
            raise IngestError("check needs --fit, or --kind M1|M2 and all of --gamma0 --gamma1 --r")
        kind = PersistenceKind(args.kind)
        pf = PersistenceParams(args.gamma0, args.gamma1, args.r)
    report = check_assumptions(kind, pf)
    print(f"kind: {kind.value}")
    print(f"sup bound (closed form): {report.sup_bound_closed_form:.6f}")
    print(f"sup bound (grid):        {report.sup_bound_numeric:.6f}")
    print(f"grid max at y = {report.grid_max_location:.6g}")
    print(f"a1 (stationarity bound < 1): {report.a1_satisfied}")
    print(f"a2 (psi(y)*y bounded):       {report.a2_satisfied}")
    return EXIT_OK if report.a1_satisfied else EXIT_ASSUMPTION


# Each subcommand's handler, help line and the flags it reads.
_SUBCOMMANDS = {
    "ingest": (cmd_ingest, "returns CSV -> weekly (log) realized volatility",
               "--input --column --week-len --config --out"),
    "fit-sdar": (cmd_fit_sdar, "QML fit of the SDAR model",
                 "--input --column --n-train --kind --n-starts --config --out --seed"),
    "fit-setar": (cmd_fit_setar, "conditional-least-squares SETAR fit",
                  "--input --column --n-train --max-lag --config --out"),
    "forecast": (cmd_forecast, "Monte-Carlo forecast from a saved fit",
                 "--input --column --fit --horizon --mc --config --out --seed"),
    "compare": (cmd_compare, "SDAR vs SETAR forecast-accuracy comparison",
                "--input --column --n-train --kind --n-starts --max-lag "
                "--horizon --mc --mode --config --out --seed"),
    "check": (cmd_check, "stationarity/ergodicity assumption check",
              "--kind --fit --gamma0 --gamma1 --r --config"),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config(parser, parser.parse_args(argv), argv)
        if min(getattr(args, "horizon", 1), getattr(args, "mc", 1)) < 1:  # forecast, compare
            raise IngestError("--horizon and --mc must be >= 1")
        return _SUBCOMMANDS[args.command][0](args)
    except (ValueError, OSError) as exc:  # IngestError and JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
