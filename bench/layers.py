"""Per-layer metrics: which bindings are traced and what is derived from them.

Spans are recorded at the name each caller actually looks up: the CLI
looks up its functions in ``sdar.cli``, the estimator looks up
``minimize``, ``sandwich_cov`` and the likelihood through its own module
globals, and the benchmark itself calls through the defining modules.
Only spans inside a benchmark ``op`` span count, so oracle checks made
between operations never enter a metric.

Unless stated otherwise a metric is a total per workload operation (one
CLI chain, one replicate, one ``rolling_evaluate`` call or one fan
call); ``*_ms`` metrics are per-call medians.
"""

from __future__ import annotations

import statistics

import sdar.cli
import sdar.estimation
import sdar.forecast
import sdar.model
import sdar.persistence
import sdar.setar

from spans import ancestor, self_times

CLI_COMMANDS = ("ingest", "fit-sdar", "fit-setar", "forecast", "check", "compare")


class Missing(Exception):
    """A metric cannot be computed because its binding or attribute is gone."""


def _fit_call(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return {"kind": kind.value}


def _fit_return(result):
    return {"converged": bool(result.converged),
            "se_missing": result.std_errors is None}


def _obs_count(args, kwargs):
    series = args[1] if len(args) > 1 else kwargs["series"]
    return {"n": len(series) - 1}


def _path_steps(args, kwargs):
    H = args[2] if len(args) > 2 else kwargs["H"]
    M = args[3] if len(args) > 3 else kwargs["M"]
    return {"steps": int(H) * int(M)}


def _objective(result):
    return {"fun": float(result.fun)}


def install(tracer) -> None:
    """Wrap every traced binding of the package."""
    cli, est, model = sdar.cli, sdar.estimation, sdar.model
    fc, pers, setar = sdar.forecast, sdar.persistence, sdar.setar
    for owner in (cli, est):
        tracer.wrap(owner, "fit", "estimation.fit", _fit_call, _fit_return)
    for owner in (cli, setar):
        tracer.wrap(owner, "select_setar", "setar.select_setar")
        tracer.wrap(owner, "mc_forecast_setar", "setar.mc_forecast_setar", _path_steps)
    for owner in (cli, fc):
        tracer.wrap(owner, "mc_forecast_sdar", "forecast.mc_forecast_sdar", _path_steps)
        tracer.wrap(owner, "rolling_evaluate", "forecast.rolling_evaluate")
    for owner in (cli, pers):
        tracer.wrap(owner, "check_assumptions", "persistence.check_assumptions")
    for owner in (model, fc, pers):
        tracer.wrap(owner, "psi", "persistence.psi")
    tracer.wrap(cli, "load_returns", "series.load_returns")
    tracer.wrap(cli, "realized_volatility", "series.realized_volatility")
    tracer.wrap(est, "minimize", "estimation.minimize", on_return=_objective)
    tracer.wrap(est, "sandwich_cov", "estimation.sandwich_cov")
    tracer.wrap(model, "loglik", "model.loglik", _obs_count)
    tracer.wrap(model, "loglik_grad", "model.loglik_grad", _obs_count)
    tracer.wrap(model, "simulate", "model.simulate")
    tracer.wrap(setar, "fit_setar", "setar.fit_setar")


class SpanView:
    """Spans recorded inside benchmark operations, with per-op aggregates."""

    def __init__(self, spans: list[dict]):
        selfs = self_times(spans)
        keep = [i for i, s in enumerate(spans)
                if s["name"] != "op" and ancestor(spans, i, "op") is not None]
        self.spans = spans
        self.self_s = {i: selfs[i] for i in keep}
        self.ops = sum(1 for s in spans if s["name"] == "op")
        self.by_name: dict[str, list[int]] = {}
        for i in keep:
            self.by_name.setdefault(spans[i]["name"], []).append(i)

    def idx(self, name: str, where=None) -> list[int]:
        return [i for i in self.by_name.get(name, []) if where is None or where(i)]

    def dur(self, i: int) -> float:
        return self.spans[i]["end"] - self.spans[i]["start"]

    def attr(self, i: int, key: str):
        value = self.spans[i]["attrs"].get(key)
        if value is None:
            raise Missing(f"span {self.spans[i]['name']} lacks attribute {key!r}")
        return value

    def per_op(self, value: float) -> float:
        return value / self.ops

    def total_s(self, name: str, where=None) -> float:
        return self.per_op(sum(self.dur(i) for i in self.idx(name, where)))

    def self_total_s(self, name: str) -> float:
        return self.per_op(sum(self.self_s[i] for i in self.idx(name)))

    def calls(self, name: str) -> float:
        return self.per_op(len(self.idx(name)))

    def under(self, prefix: str):
        return lambda i: ancestor(self.spans, i, prefix) is not None

    def not_under(self, prefix: str):
        return lambda i: ancestor(self.spans, i, prefix) is None

    def kind(self, kind: str):
        return lambda i: self.attr(i, "kind") == kind


def _ratio(num: float, den: float) -> float:
    """0 for an empty base: the layer did no work in this workload."""
    return num / den if den else 0.0


def _median_ms(v: SpanView, name: str, where) -> float:
    durations = [v.dur(i) * 1e3 for i in v.idx(name, where)]
    return statistics.median(durations) if durations else 0.0


def _useful_start_frac(v: SpanView) -> float:
    fits = v.idx("estimation.fit")
    useful = total = 0
    for f in fits:
        funs = [v.attr(i, "fun") for i in v.idx("estimation.minimize")
                if ancestor(v.spans, i, "estimation.fit") == f]
        if funs:
            best = min(funs)
            useful += sum(1 for x in funs if x <= best + 1e-6 * abs(best))
            total += len(funs)
    return _ratio(useful, total)


def _fit_share(v: SpanView, key: str) -> float:
    fits = v.idx("estimation.fit")
    return _ratio(sum(1 for i in fits if v.attr(i, key)), len(fits))


def _ns_per_obs(v: SpanView) -> float:
    grads = v.idx("model.loglik_grad")
    obs = sum(v.attr(i, "n") for i in grads)
    return _ratio(sum(v.dur(i) for i in grads) * 1e9, obs)


def _path_steps_per_s(v: SpanView) -> float:
    calls = v.idx("forecast.mc_forecast_sdar") + v.idx("setar.mc_forecast_setar")
    steps = sum(v.attr(i, "steps") for i in calls)
    return _ratio(steps, sum(v.dur(i) for i in calls))


ROLL = "forecast.rolling_evaluate"

# (name, unit, span names whose bindings it needs, value from the view).
# Values named by the harness rather than by spans come in ``extra``.
SPAN_METRICS = [
    *[(f"cli.{c}_s", "s", (), lambda v, c=c: v.total_s(f"cli.{c}")) for c in CLI_COMMANDS],
    ("series.load_returns_s", "s", ("series.load_returns",),
     lambda v: v.total_s("series.load_returns")),
    ("series.realized_volatility_s", "s", ("series.realized_volatility",),
     lambda v: v.total_s("series.realized_volatility")),
    ("model.loglik.calls", "count", ("model.loglik",), lambda v: v.calls("model.loglik")),
    ("model.loglik_grad.calls", "count", ("model.loglik_grad",),
     lambda v: v.calls("model.loglik_grad")),
    ("model.loglik.self_s", "s", ("model.loglik", "persistence.psi"),
     lambda v: v.self_total_s("model.loglik")),
    ("model.loglik_grad.self_s", "s", ("model.loglik_grad", "persistence.psi"),
     lambda v: v.self_total_s("model.loglik_grad")),
    ("model.loglik_grad.ns_per_obs", "ns", ("model.loglik_grad",), _ns_per_obs),
    ("model.simulate_s", "s", ("model.simulate",), lambda v: v.total_s("model.simulate")),
    ("estimation.fit_M1_s", "s", ("estimation.fit",),
     lambda v: v.total_s("estimation.fit", v.kind("M1"))),
    ("estimation.fit_M2_s", "s", ("estimation.fit",),
     lambda v: v.total_s("estimation.fit", v.kind("M2"))),
    ("estimation.fit.self_s", "s",
     ("estimation.fit", "estimation.minimize", "estimation.sandwich_cov",
      "model.loglik", "model.loglik_grad"),
     lambda v: v.self_total_s("estimation.fit")),
    ("estimation.sandwich_cov_s", "s", ("estimation.sandwich_cov",),
     lambda v: v.total_s("estimation.sandwich_cov")),
    ("estimation.evals_per_fit", "count", ("estimation.fit", "model.loglik_grad"),
     lambda v: _ratio(len(v.idx("model.loglik_grad", v.under("estimation.fit"))),
                      len(v.idx("estimation.fit")))),
    ("estimation.starts_per_fit", "count", ("estimation.fit", "estimation.minimize"),
     lambda v: _ratio(len(v.idx("estimation.minimize")), len(v.idx("estimation.fit")))),
    ("estimation.useful_start_frac", "fraction", ("estimation.fit", "estimation.minimize"),
     _useful_start_frac),
    ("estimation.converged_frac", "fraction", ("estimation.fit",),
     lambda v: _fit_share(v, "converged")),
    ("estimation.se_missing_frac", "fraction", ("estimation.fit",),
     lambda v: _fit_share(v, "se_missing")),
    ("persistence.check_assumptions_s", "s", ("persistence.check_assumptions",),
     lambda v: v.total_s("persistence.check_assumptions")),
    ("persistence.psi.calls", "count", ("persistence.psi",), lambda v: v.calls("persistence.psi")),
    ("persistence.psi.self_s", "s", ("persistence.psi",),
     lambda v: v.self_total_s("persistence.psi")),
    ("setar.select_setar_s", "s", ("setar.select_setar",),
     lambda v: v.total_s("setar.select_setar")),
    ("setar.fit_setar.calls", "count", ("setar.fit_setar",), lambda v: v.calls("setar.fit_setar")),
    ("setar.fit_setar_s", "s", ("setar.fit_setar",), lambda v: v.total_s("setar.fit_setar")),
    ("setar.mc_forecast_setar.rolling_ms", "ms", ("setar.mc_forecast_setar", ROLL),
     lambda v: _median_ms(v, "setar.mc_forecast_setar", v.under(ROLL))),
    ("setar.mc_forecast_setar.fan_ms", "ms", ("setar.mc_forecast_setar", ROLL),
     lambda v: _median_ms(v, "setar.mc_forecast_setar", v.not_under(ROLL))),
    ("forecast.mc_forecast_sdar.rolling_ms", "ms", ("forecast.mc_forecast_sdar", ROLL),
     lambda v: _median_ms(v, "forecast.mc_forecast_sdar", v.under(ROLL))),
    ("forecast.mc_forecast_sdar.fan_ms", "ms", ("forecast.mc_forecast_sdar", ROLL),
     lambda v: _median_ms(v, "forecast.mc_forecast_sdar", v.not_under(ROLL))),
    ("forecast.rolling_evaluate_s", "s", (ROLL,), lambda v: v.total_s(ROLL)),
    ("forecast.path_steps_per_s", "steps/s",
     ("forecast.mc_forecast_sdar", "setar.mc_forecast_setar"), _path_steps_per_s),
]

# Metrics the harness measures itself and passes in ``extra``.
HARNESS_METRICS = [
    ("import.sdar_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_frac", "fraction"),
    ("check.outputs_changed", "count"),
]


def per_layer(tracer, extra: dict) -> tuple[dict, list[str], list[str]]:
    """Every per-layer metric as {name: (value, unit)}, the missing ones,
    and the per-call tails of the Monte-Carlo forecasters.
    """
    view = SpanView(tracer.spans)
    out = {name: (extra[name], unit) for name, unit in HARNESS_METRICS}
    missing = []
    for name, unit, needs, fn in SPAN_METRICS:
        gone = [path for n in needs for path in tracer.missing.get(n, [])]
        if gone:
            missing.append(f"{name}: binding {', '.join(gone)} no longer exists")
            continue
        try:
            out[name] = (float(fn(view)), unit)
        except Missing as exc:
            missing.append(f"{name}: {exc}")
    return out, missing, _tails(view)


def _tails(view: SpanView) -> list[str]:
    """The highest percentile with at least ten samples beyond it, per forecaster and use."""
    lines = []
    for name in ("forecast.mc_forecast_sdar", "setar.mc_forecast_setar"):
        for use, where in (("rolling", view.under(ROLL)), ("fan", view.not_under(ROLL))):
            ms = [view.dur(i) * 1e3 for i in view.idx(name, where)]
            for p in (99, 90):
                if len(ms) * (100 - p) >= 1000:
                    q = statistics.quantiles(ms, n=100)[p - 1]
                    lines.append(f"{name}.{use} p{p} = {q:.4f} ms (n={len(ms)})")
                    break
    return lines
