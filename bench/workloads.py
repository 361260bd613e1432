"""The benchmark's workloads: inputs, timed operations and their oracles.

Each workload runs in rounds. A round is a fixed list of operations, so
every run measures whole rounds and the mix of operations behind a
median is the same from run to run. Oracles run after each operation,
outside its timing.

Why each workload exists:

* ``cli_pipeline`` is the user's real path: a chain of six fresh ``sdar``
  processes on a daily-returns file. It is the only workload that pays
  interpreter start-up and ``import sdar`` (six times per chain), CSV
  I/O and small-n fits (n = 577).
* ``recovery_study`` is the paper's simulation study at n = 5000: fits of
  both forms, model selection, assumption checks and the SETAR lag
  search. The likelihood kernel, the optimizer and the SETAR grid do
  almost all the work; there is no forecasting, I/O or import.
* ``forecast_fan`` is quantile-band Monte-Carlo forecasting from fixed
  parameters (the M1 and M2 truths and a fixed SETAR(2,3,3)) at H = 52,
  M = 100k; estimation cannot move its inputs. Means-only rolling
  forecasting (``rolling_evaluate`` over 181 origins at H = 20, M = 10k)
  is the larger part of ``cli_pipeline``'s ``compare`` stage, so a change
  that speeds up rolling at the expense of fans, or the reverse, moves
  the two workloads apart.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sdar.cli
import sdar.estimation
import sdar.forecast
import sdar.model
import sdar.persistence
import sdar.setar
from sdar.estimation import FitResult
from sdar.forecast import AccuracyReport
from sdar.persistence import PersistenceKind
from sdar.series import TimeSeries
from sdar.setar import SetarFit

import inputs
import oracles
from probe import probe_s

CLI_MC = 10_000  # the CLI's default --mc
FAN_M = 100_000
MAX_LAG = 4
N_ORIGINS = inputs.N_WEEKS - inputs.N_TRAIN - inputs.HORIZON + 1  # 181


@dataclass
class Op:
    """One timed operation and what its oracles found."""

    seconds: float
    probes: list[float]  # host-speed probes around the operation (probe.py)
    attempted: int
    failed: int
    failures: list[str]
    artifacts: dict[str, bytes] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


class Harness:
    """How operations run: traced or not, CLI in process or as processes."""

    def __init__(self, tracer=None, in_process=True, child_env=None):
        self.tracer = tracer
        self.in_process = in_process
        self.child_env = child_env

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def _timed(harness: Harness, body):
    """Run ``body`` inside an ``op`` span, between two host-speed probes.

    Returns ((seconds, probes), result, traceback or None); an exception
    is a failed operation, not the end of the run.
    """
    before = probe_s()
    t0 = time.perf_counter()
    result, error = None, None
    try:
        with harness.span("op"):
            result = body()
    except Exception:
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    return (seconds, [before, probe_s()]), result, error


def _failed(timing, attempted: int, trace_text: str) -> Op:
    print(trace_text, file=sys.stderr)
    return Op(*timing, attempted, attempted, [trace_text.strip().splitlines()[-1]])


# --------------------------------------------------------------------- CLI


class CliPipeline:
    name = "cli_pipeline"
    op_label = "pipeline_s: wall time of one full CLI chain"
    rss_of = "children"
    DIGESTED = ("fit_M1.json", "fit_M2.json", "setar_fit.json", "forecast.csv",
                "sdar_accuracy.csv", "setar_accuracy.csv", "re_table.csv")

    def setup(self, seed: int, workdir: Path) -> dict:
        log_vol = inputs.weekly_log_volatility(seed)
        path = workdir / "returns.csv"
        path.write_text(inputs.returns_csv(inputs.daily_returns(log_vol, seed)),
                        encoding="utf-8")
        return {"log_vol": log_vol, "returns": path, "out": workdir / "out",
                "cwd": workdir}

    def commands(self, ctx) -> list[tuple[str, list[str]]]:
        out = ctx["out"]
        log, fit1 = str(out / "log_volatility.csv"), str(out / "fit_M1.json")
        n_train = str(inputs.N_TRAIN)
        return [
            ("ingest", ["ingest", "--input", str(ctx["returns"]), "--out", str(out)]),
            ("fit-sdar", ["fit-sdar", "--input", log, "--kind", "both",
                          "--n-train", n_train, "--out", str(out)]),
            ("fit-setar", ["fit-setar", "--input", log, "--n-train", n_train,
                           "--out", str(out)]),
            ("forecast", ["forecast", "--input", log, "--fit", fit1,
                          "--horizon", str(inputs.HORIZON), "--out", str(out)]),
            ("check", ["check", "--fit", fit1]),
            ("compare", ["compare", "--input", log, "--n-train", n_train,
                         "--mode", "rolling-origin", "--out", str(out)]),
        ]

    def _call(self, harness: Harness, cmd: str, argv: list[str], cwd: Path):
        if harness.in_process:
            err = io.StringIO()
            with harness.span(f"cli.{cmd}"), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = sdar.cli.main(argv)
                except Exception:  # an uncaught exception ends a process with 1
                    traceback.print_exc()
                    rc = 1
            return rc, err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "sdar.cli", *argv], cwd=cwd,
                              env=harness.child_env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        return proc.returncode, proc.stderr

    def round(self, ctx, r: int, harness: Harness) -> list[Op]:
        shutil.rmtree(ctx["out"], ignore_errors=True)
        rcs, stage_s, probes = {}, {}, [probe_s()]
        error = None
        try:
            with harness.span("op"):
                for cmd, argv in self.commands(ctx):
                    t = time.perf_counter()
                    rcs[cmd], err = self._call(harness, cmd, argv, ctx["cwd"])
                    seconds = time.perf_counter() - t
                    probes.append(probe_s())  # between stages, outside their timing
                    stage_s[cmd] = (seconds, probes[-2:])
                    if err.strip():
                        print(f"{cmd}: {err.strip()}", file=sys.stderr)
        except Exception:
            error = traceback.format_exc()
        timing = (sum(t for t, _ in stage_s.values()), probes)
        if error:
            return [_failed(timing, 6, error)]
        failures, failed = [], 0
        for cmd, check in self._checks(ctx, rcs):
            try:
                msgs = check()
            except Exception as exc:  # a missing or malformed output
                msgs = [f"output could not be checked ({exc!r})"]
            failed += bool(msgs)
            failures += [f"{cmd}: {msg}" for msg in msgs]
        files = [p for p in ctx["out"].glob("*") if p.is_file()]
        artifacts = {p.name: p.read_bytes() for p in files if p.name in self.DIGESTED}
        written = sum(p.stat().st_size for p in files)
        return [Op(*timing, 6, failed, failures, artifacts,
                   {"stage_s": stage_s, "bytes_written": written})]

    def digest_ops(self, ctx, harness: Harness) -> list[Op]:
        return self.round(ctx, 0, harness)

    def _checks(self, ctx, rcs):
        out, truth_series = ctx["out"], TimeSeries(ctx["log_vol"][: inputs.N_TRAIN])
        load_fit = lambda name: FitResult.from_json((out / name).read_text(encoding="utf-8"))

        def ingest():
            got = np.loadtxt(out / "log_volatility.csv", skiprows=1)
            fails = [] if rcs["ingest"] == 0 else [f"exit code {rcs['ingest']}"]
            if got.shape != ctx["log_vol"].shape:
                return fails + [f"{got.size} weeks, expected {ctx['log_vol'].size}"]
            if np.max(np.abs(got - ctx["log_vol"])) > 1e-9:
                fails.append("log volatility differs from the generating path")
            return fails

        def fit_sdar():
            m1, m2 = load_fit("fit_M1.json"), load_fit("fit_M2.json")
            return (oracles.convergence_exit_code(rcs["fit-sdar"], m1.converged and m2.converged)
                    + oracles.fit_reaches_truth(m1, inputs.M1_TRUTH, truth_series)
                    + oracles.fit_is_sane(m1) + oracles.fit_is_sane(m2))

        def fit_setar():
            fails = [] if rcs["fit-setar"] == 0 else [f"exit code {rcs['fit-setar']}"]
            setar = SetarFit.from_json((out / "setar_fit.json").read_text(encoding="utf-8"))
            return fails + oracles.setar_is_sane(setar, MAX_LAG)

        def forecast():
            fails = [] if rcs["forecast"] == 0 else [f"exit code {rcs['forecast']}"]
            table = np.loadtxt(out / "forecast.csv", delimiter=",", skiprows=1, ndmin=2)
            header = (out / "forecast.csv").read_text(encoding="utf-8").splitlines()[0]
            probs = [float(h[1:]) for h in header.split(",")[2:]]
            if table.shape[0] != inputs.HORIZON:
                return fails + [f"{table.shape[0]} forecast rows, expected {inputs.HORIZON}"]
            quantiles = {p: table[:, 2 + k] for k, p in enumerate(probs)}
            params = load_fit("fit_M1.json").theta_hat
            return (fails + oracles.sdar_one_step_mean(table[:, 1], params,
                                                       ctx["log_vol"][-1], CLI_MC)
                    + oracles.quantiles_are_ordered(quantiles))

        def check():
            pf = load_fit("fit_M1.json").theta_hat.pf
            return oracles.a1_exit_code(rcs["check"], PersistenceKind.M1, pf)

        def compare():
            chosen = load_fit("fit_sdar.json")
            fails = oracles.convergence_exit_code(rcs["compare"], chosen.converged)
            if chosen.theta_hat.kind is PersistenceKind.M1:
                fails += oracles.fit_reaches_truth(chosen, inputs.M1_TRUTH, truth_series)
            for name in ("sdar_accuracy.csv", "setar_accuracy.csv"):
                t = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
                acc = AccuracyReport(t[:, 1], t[:, 2], t[:, 3], n_origins=N_ORIGINS)
                fails += [f"{name}: {m}" for m in oracles.accuracy_is_sane(acc, inputs.HORIZON)]
            return fails

        return [("ingest", ingest), ("fit-sdar", fit_sdar), ("fit-setar", fit_setar),
                ("forecast", forecast), ("check", check), ("compare", compare)]


# ---------------------------------------------------------------- recovery


class RecoveryStudy:
    name = "recovery_study"
    op_label = "replicate_s: wall time of one simulation-study replicate"
    rss_of = "self"

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed}

    def replicate(self, ctx, i: int, harness: Harness) -> Op:
        """One replicate. A call that raises fails alone, with the calls
        that need its result; the rest of the replicate still runs."""
        truth = inputs.recovery_truth(i)
        sim_seed = inputs.recovery_sim_seed(ctx["seed"], i)
        est, pers = sdar.estimation, sdar.persistence
        M1, M2 = PersistenceKind.M1, PersistenceKind.M2
        out, errors = {}, {}

        def attempt(name, fn, needs=()):
            gone = [n for n in needs if n in errors]
            if gone:
                errors[name] = f"not run: {', '.join(gone)} raised"
                return
            try:
                out[name] = fn()
            except Exception:
                errors[name] = traceback.format_exc()
                print(errors[name], file=sys.stderr)

        def body():
            series = sdar.model.simulate(truth, inputs.N_RECOVERY, sim_seed)
            attempt("fit_M1", lambda: est.fit(series, M1))
            attempt("fit_M2", lambda: est.fit(series, M2))
            attempt("select_model", lambda: est.select_model([out["fit_M1"], out["fit_M2"]]),
                    needs=("fit_M1", "fit_M2"))
            for kind, fit_name in ((M1, "fit_M1"), (M2, "fit_M2")):
                attempt(f"check_{kind.value}", lambda: pers.check_assumptions(
                    kind, out[fit_name].theta_hat.pf), needs=(fit_name,))
            attempt("select_setar", lambda: sdar.setar.select_setar(series, max_lag=MAX_LAG))
            return series

        timing, series, error = _timed(harness, body)
        if error:
            return _failed(timing, 7, error)
        true_fit = "fit_M1" if truth.kind is M1 else "fit_M2"
        checks = {
            "fit_M1": lambda: oracles.fit_is_sane(out["fit_M1"]),
            "fit_M2": lambda: oracles.fit_is_sane(out["fit_M2"]),
            "select_model": lambda: oracles.selection_is_min_aic(
                out["select_model"], [out["fit_M1"], out["fit_M2"]]),
            "check_M1": lambda: oracles.assumption_report_is_sane(out["check_M1"]),
            "check_M2": lambda: oracles.assumption_report_is_sane(out["check_M2"]),
            "select_setar": lambda: oracles.setar_is_sane(out["select_setar"], MAX_LAG),
        }
        results = {"simulate": [] if len(series) == inputs.N_RECOVERY else ["wrong length"]}
        for name, check in checks.items():
            if name in errors:
                results[name] = [errors[name].strip().splitlines()[-1]]
            else:
                results[name] = check()
        if true_fit not in errors:
            results[true_fit] += oracles.fit_reaches_truth(out[true_fit], truth, series)
        failures = [f"replicate {i} {name}: {m}" for name, ms in results.items() for m in ms]
        failed = sum(1 for ms in results.values() if ms)
        artifacts = {f"rep{i}/{name}.json": out[name].to_json().encode()
                     for name in ("fit_M1", "fit_M2", "select_setar") if name in out}
        return Op(*timing, len(results), failed, failures, artifacts)

    def round(self, ctx, r: int, harness: Harness) -> list[Op]:
        # Six replicates of each truth, alternating, so every round has the
        # same mix. A replicate's cost varies with its data (coefficient of
        # variation about 0.2); twelve keep the seed's share of a median small.
        return [self.replicate(ctx, 12 * r + k, harness) for k in range(12)]

    def digest_ops(self, ctx, harness: Harness) -> list[Op]:
        return [self.replicate(ctx, 0, harness)]


# --------------------------------------------------------------- forecasts


def _forecasters():
    """(name, params, forecaster) for the M1 and M2 truths and the fixed SETAR.

    The forecasters look the package functions up at call time, so a
    traced run sees the calls that ``rolling_evaluate`` makes.
    """
    return [
        ("M1", inputs.M1_TRUTH, lambda h, H, M, s: sdar.forecast.mc_forecast_sdar(
            inputs.M1_TRUTH, h[-1], H, M, s)),
        ("M2", inputs.M2_TRUTH, lambda h, H, M, s: sdar.forecast.mc_forecast_sdar(
            inputs.M2_TRUTH, h[-1], H, M, s)),
        ("SETAR", inputs.SETAR_FIXED, lambda h, H, M, s: sdar.setar.mc_forecast_setar(
            inputs.SETAR_FIXED, h, H, M, s)),
    ]


def forecast_bytes(fc) -> bytes:
    parts = [np.asarray(fc.means, dtype=float).tobytes()]
    parts += [np.asarray(fc.quantiles[p], dtype=float).tobytes() for p in sorted(fc.quantiles)]
    return b"".join(parts)


class ForecastFan:
    name = "forecast_fan"
    op_label = "fan_s: wall time of one quantile-fan forecast call"
    rss_of = "self"

    def setup(self, seed: int, workdir: Path) -> dict:
        train, _ = inputs.forecast_split(seed)
        return {"seed": seed, "history": train.values}

    def round(self, ctx, r: int, harness: Harness) -> list[Op]:
        ops = []
        history, H = ctx["history"], inputs.FAN_HORIZON
        mc_seed = inputs.mc_seed(ctx["seed"], r)
        for name, params, forecaster in _forecasters():
            timing, fc, error = _timed(harness, lambda: forecaster(history, H, FAN_M, mc_seed))
            if error:
                ops.append(_failed(timing, 1, error))
                continue
            if isinstance(params, SetarFit):
                failures = oracles.setar_forecast(fc, params, history, H, FAN_M)
            else:
                failures = oracles.sdar_forecast(fc, params, history[-1], H, FAN_M)
            ops.append(Op(*timing, 1, int(bool(failures)),
                          [f"fan {name}: {m}" for m in failures],
                          {f"fan/{name}.bin": forecast_bytes(fc)}))
        return ops

    def digest_ops(self, ctx, harness: Harness) -> list[Op]:
        return self.round(ctx, 0, harness)


WORKLOADS = {w.name: w for w in (CliPipeline(), RecoveryStudy(), ForecastFan())}


def digests(ops: list[Op]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest()
            for op in ops for name, data in op.artifacts.items()}


def outputs_changed(recorded: dict[str, str], got: dict[str, str]) -> list[str]:
    """Names whose digest differs from the recorded one, or that are absent."""
    return sorted(name for name in recorded if got.get(name) != recorded[name])


def load_recorded(path: Path, workload: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"][workload]
