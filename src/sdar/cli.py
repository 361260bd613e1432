"""Command-line surface for reproducible SDAR runs.

Subcommands: ingest, fit-sdar, fit-setar, forecast, compare, check.
Every run writes its outputs plus a run-manifest JSON (config echo,
seed, package version) into the output directory, and is a pure
function of its input files, flags and seed.

Exit codes: 0 success, 1 input error, 2 numerical non-convergence,
3 assumption failure (check only).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .estimation import FitResult, fit, select_model
from .forecast import (
    mc_forecast_sdar,
    relative_efficiency,
    relative_efficiency_csv,
    rolling_evaluate,
)
from .model import SdarParams, persistence_series
from .persistence import PersistenceKind, PersistenceParams, check_assumptions
from .series import IngestError, TimeSeries, load_returns, log_transform, realized_volatility, split
from .setar import SetarFit, mc_forecast_setar, select_setar

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_ASSUMPTION = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--out", help="output directory", default=".")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdar", description="State-dependent AR modelling toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="returns CSV -> weekly (log) realized volatility")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default=None)
    p.add_argument("--week-len", type=int, default=5)
    _add_common(p)

    p = sub.add_parser("fit-sdar", help="QML fit of the SDAR model")
    p.add_argument("--input", required=True, help="series CSV (e.g. log volatility)")
    p.add_argument("--column", default=None)
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--kind", choices=["M1", "M2", "both"], default="both")
    p.add_argument("--n-starts", type=int, default=16)
    _add_common(p)

    p = sub.add_parser("fit-setar", help="conditional-least-squares SETAR fit")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default=None)
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--max-lag", type=int, default=4)
    p.add_argument("--trim", type=float, default=0.15)
    _add_common(p)

    p = sub.add_parser("forecast", help="Monte-Carlo forecast from a saved fit")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default=None)
    p.add_argument("--fit", required=True, help="fit JSON (SDAR or SETAR)")
    p.add_argument("--horizon", type=int, default=20)
    p.add_argument("--mc", type=int, default=10_000)
    _add_common(p)

    p = sub.add_parser("compare", help="SDAR vs SETAR forecast-accuracy comparison")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default=None)
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--kind", choices=["M1", "M2", "both"], default="both")
    p.add_argument("--n-starts", type=int, default=16)
    p.add_argument("--max-lag", type=int, default=4)
    p.add_argument("--trim", type=float, default=0.15)
    p.add_argument("--horizon", type=int, default=20)
    p.add_argument("--mc", type=int, default=10_000)
    p.add_argument("--mode", choices=["single-origin", "rolling-origin"],
                   default="single-origin")
    _add_common(p)

    p = sub.add_parser("check", help="stationarity/ergodicity assumption check")
    p.add_argument("--kind", choices=["M1", "M2"], default="M1")
    p.add_argument("--fit", help="SDAR fit JSON to check")
    p.add_argument("--gamma0", type=float)
    p.add_argument("--gamma1", type=float)
    p.add_argument("--r", type=float)
    _add_common(p)
    return parser


def _apply_config(parser, args: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` again with the --config values as the subcommand's defaults.

    argparse itself decides which flags were given (abbreviated ones too),
    and those win. A value is converted and checked like its flag's text.
    Keys naming no option of the subcommand are ignored, so one config can
    serve a whole pipeline; ``command`` and ``config`` are never overridden.
    """
    if not args.config:
        return args
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise IngestError(f"{args.config}: config must be a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subparser = sub.choices[args.command]
    options = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key, value in config.items():
        key = key.replace("-", "_")
        if key not in ("command", "config") and hasattr(args, key):
            defaults[key] = _config_value(options[key], value)
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def _config_value(action: argparse.Action, value):
    """``value`` converted by its flag's type and checked against its choices."""
    try:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise TypeError("expected a string or a number")
        value = (action.type or str)(str(value))
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"choose from {action.choices}")
    except (TypeError, ValueError) as exc:
        raise IngestError(
            f"config value {value!r} for {action.option_strings[0]}: {exc}"
        ) from None
    return value


def _load_series(args) -> TimeSeries:
    col = args.column
    if isinstance(col, str) and col.lstrip("-").isdigit():
        col = int(col)
    return load_returns(args.input, col)


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    return path


def _manifest(args, out_dir: Path) -> None:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    doc = {"command": args.command, "config": echo, "version": __version__}
    _write(out_dir, "run_manifest.json", json.dumps(doc, indent=2, default=str))


def _series_csv(values, label: str) -> str:
    lines = [label] + [f"{v:.12g}" for v in values]
    return "\n".join(lines) + "\n"


def cmd_ingest(args) -> int:
    out_dir = Path(args.out)
    vol = realized_volatility(_load_series(args), args.week_len)
    logvol = log_transform(vol)
    _write(out_dir, "volatility.csv", _series_csv(vol.values, "volatility"))
    _write(out_dir, "log_volatility.csv", _series_csv(logvol.values, "log_volatility"))
    _manifest(args, out_dir)
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
    out_dir = Path(args.out)
    series = _train_series(args)
    kinds, fits, best = _fit_kinds(args, series)
    for kind, result in zip(kinds, fits):
        _write(out_dir, f"fit_{kind.value}.json", result.to_json())
    rc = EXIT_OK if all(f.converged for f in fits) else EXIT_NO_CONVERGENCE
    if len(fits) > 1:
        verdict = {
            "selected": kinds[best].value,
            "aic": {k.value: f.aic for k, f in zip(kinds, fits)},
        }
        _write(out_dir, "selection.json", json.dumps(verdict, indent=2))
    ps = persistence_series(fits[best].theta_hat, series)
    _write(out_dir, "persistence_series.csv", _series_csv(ps, "persistence"))
    _manifest(args, out_dir)
    for kind, f in zip(kinds, fits):
        print(f"{kind.value}: loglik={f.loglik:.4f} aic={f.aic:.4f} "
              f"converged={f.converged}")
    return rc


def cmd_fit_setar(args) -> int:
    out_dir = Path(args.out)
    series = _train_series(args)
    result = select_setar(series, max_lag=args.max_lag, trim=args.trim)
    _write(out_dir, "setar_fit.json", result.to_json())
    _manifest(args, out_dir)
    print(f"SETAR(2,{result.d1},{result.d2}): aic={result.aic:.4f} "
          f"threshold={result.threshold:.4f}")
    return EXIT_OK


def _load_fit(path: str):
    text = Path(path).read_text(encoding="utf-8")
    doc = json.loads(text)
    if "theta_hat" in doc:
        return FitResult.from_json(text)
    return SetarFit.from_json(text)


def _forecast_csv(fc) -> str:
    probs = sorted(fc.quantiles)
    header = "h,mean," + ",".join(f"q{p:g}" for p in probs)
    lines = [header]
    for h in range(fc.horizon):
        row = [str(h + 1), f"{fc.means[h]:.10g}"]
        row += [f"{fc.quantiles[p][h]:.10g}" for p in probs]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_forecast(args) -> int:
    out_dir = Path(args.out)
    series = _load_series(args)
    loaded = _load_fit(args.fit)
    if isinstance(loaded, FitResult):
        fc = mc_forecast_sdar(loaded, series.values[-1], args.horizon,
                              args.mc, args.seed)
    else:
        fc = mc_forecast_setar(loaded, series.values, args.horizon,
                               args.mc, args.seed)
    _write(out_dir, "forecast.csv", _forecast_csv(fc))
    _manifest(args, out_dir)
    print(f"wrote {args.horizon}-step forecast to {out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    out_dir = Path(args.out)
    series = _load_series(args)
    train, test = split(series, args.n_train)
    if args.horizon > len(test):
        raise IngestError(
            f"horizon {args.horizon} exceeds test window of {len(test)}"
        )

    _, sdar_fits, best = _fit_kinds(args, train)
    sdar_fit = sdar_fits[best]
    setar_fit = select_setar(train, max_lag=args.max_lag, trim=args.trim)

    # rolling_evaluate reads only the means, so skip the quantile bands.
    def sdar_forecaster(history, H, M, seed):
        return mc_forecast_sdar(sdar_fit, history[-1], H, M, seed,
                                quantile_probs=())

    def setar_forecaster(history, H, M, seed):
        return mc_forecast_setar(setar_fit, history, H, M, seed,
                                 quantile_probs=())

    sdar_acc = rolling_evaluate(sdar_forecaster, train, test, args.horizon,
                                args.mc, args.seed, args.mode)
    setar_acc = rolling_evaluate(setar_forecaster, train, test, args.horizon,
                                 args.mc, args.seed, args.mode)
    re = relative_efficiency(sdar_acc, setar_acc)
    _write(out_dir, "re_table.csv", relative_efficiency_csv(re))
    _write(out_dir, "sdar_accuracy.csv", sdar_acc.to_csv())
    _write(out_dir, "setar_accuracy.csv", setar_acc.to_csv())
    _write(out_dir, "fit_sdar.json", sdar_fit.to_json())
    _write(out_dir, "fit_setar.json", setar_fit.to_json())
    _manifest(args, out_dir)
    print(f"SDAR({sdar_fit.theta_hat.kind.value}) vs "
          f"SETAR(2,{setar_fit.d1},{setar_fit.d2}): "
          f"median RE(mafe)={np.nanmedian(re[0]):.4f}")
    if not sdar_fit.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_check(args) -> int:
    if args.fit:
        result = _load_fit(args.fit)
        if not isinstance(result, FitResult):
            raise IngestError("check requires an SDAR fit JSON")
        params: SdarParams = result.theta_hat
        kind, pf = params.kind, params.pf
    else:
        if args.gamma0 is None or args.gamma1 is None or args.r is None:
            raise IngestError(
                "check needs either --fit or all of --gamma0 --gamma1 --r"
            )
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


_COMMANDS = {
    "ingest": cmd_ingest,
    "fit-sdar": cmd_fit_sdar,
    "fit-setar": cmd_fit_setar,
    "forecast": cmd_forecast,
    "compare": cmd_compare,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        return _COMMANDS[args.command](args)
    except (IngestError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
