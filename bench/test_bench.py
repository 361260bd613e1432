"""Tests of the benchmark itself: generators, oracles and span arithmetic.

Run from the repository root with ``python3 -m pytest bench``.
"""

import dataclasses
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from sdar.estimation import fit  # noqa: E402
from sdar.forecast import AccuracyReport, mc_forecast_sdar  # noqa: E402
from sdar.model import simulate  # noqa: E402
from sdar.persistence import PersistenceKind, PersistenceParams  # noqa: E402
from sdar.setar import mc_forecast_setar  # noqa: E402
from spans import Tracer, covered, self_times  # noqa: E402


# ------------------------------------------------------------ generators


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = (inputs.weekly_log_volatility(s) for s in (5, 5, 6))
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert a.shape == (inputs.N_WEEKS,)
    csv_a = inputs.returns_csv(inputs.daily_returns(a, 5))
    assert csv_a == inputs.returns_csv(inputs.daily_returns(b, 5))
    assert csv_a != inputs.returns_csv(inputs.daily_returns(a, 6))
    assert inputs.recovery_sim_seed(5, 3) == inputs.recovery_sim_seed(5, 3)
    assert inputs.recovery_sim_seed(5, 3) != inputs.recovery_sim_seed(6, 3)
    assert inputs.mc_seed(5, 0) == inputs.mc_seed(5, 0) != inputs.mc_seed(5, 1)


def test_daily_returns_aggregate_back_to_the_weekly_path():
    log_vol = inputs.weekly_log_volatility(2)
    r = inputs.daily_returns(log_vol, 2).reshape(-1, inputs.WEEK_LEN)
    assert np.allclose(np.log(np.sqrt((r**2).sum(axis=1))), log_vol, atol=1e-12)


def test_forecast_split_and_truths():
    train, test = inputs.forecast_split(4)
    assert len(train) == inputs.N_TRAIN and len(test) == inputs.N_WEEKS - inputs.N_TRAIN
    assert workloads.N_ORIGINS == 181
    assert inputs.recovery_truth(0) is inputs.M1_TRUTH
    assert inputs.recovery_truth(1) is inputs.M2_TRUTH


# --------------------------------------------------------------- oracles


@pytest.fixture(scope="module")
def small_fit():
    series = simulate(inputs.M1_TRUTH, 400, 9)
    return series, fit(series, PersistenceKind.M1, n_starts=2)


def test_fit_oracle_accepts_real_fit_and_rejects_a_worse_one(small_fit):
    series, result = small_fit
    assert oracles.fit_reaches_truth(result, inputs.M1_TRUTH, series) == []
    assert oracles.fit_is_sane(result) == []
    worse = dataclasses.replace(result, loglik=result.loglik - 50.0)
    assert oracles.fit_reaches_truth(worse, inputs.M1_TRUTH, series)
    assert oracles.fit_is_sane(worse)  # aic no longer 10 - 2 loglik
    assert oracles.fit_is_sane(dataclasses.replace(result, loglik=float("nan")))


def test_selection_oracle(small_fit):
    _, result = small_fit
    other = dataclasses.replace(result, aic=result.aic + 1.0)
    assert oracles.selection_is_min_aic(0, [result, other]) == []
    assert oracles.selection_is_min_aic(1, [result, other])


def test_sdar_forecast_oracle_rejects_shifted_mean_and_disordered_quantiles():
    M, H, y_n = 20_000, 3, -3.2
    fc = mc_forecast_sdar(inputs.M1_TRUTH, y_n, H, M, seed=1)
    assert oracles.sdar_forecast(fc, inputs.M1_TRUTH, y_n, H, M) == []
    shifted = dataclasses.replace(fc, means=fc.means + 0.05)
    assert oracles.sdar_forecast(shifted, inputs.M1_TRUTH, y_n, H, M)
    q = dict(fc.quantiles)
    q[0.05], q[0.95] = q[0.95], q[0.05]
    assert oracles.sdar_forecast(dataclasses.replace(fc, quantiles=q),
                                 inputs.M1_TRUTH, y_n, H, M)
    nan = fc.means.copy()
    nan[-1] = np.nan
    assert oracles.sdar_forecast(dataclasses.replace(fc, means=nan),
                                 inputs.M1_TRUTH, y_n, H, M)


def test_setar_forecast_oracle_rejects_wrong_spread_and_mean():
    M, H = 50_000, 2
    history = inputs.forecast_split(1)[0].values
    setar = inputs.SETAR_FIXED
    fc = mc_forecast_setar(setar, history, H, M, seed=2)
    assert oracles.setar_forecast(fc, setar, history, H, M) == []
    wide = {p: v * 1.06 - fc.means * 0.06 for p, v in fc.quantiles.items()}
    assert oracles.setar_forecast(dataclasses.replace(fc, quantiles=wide),
                                  setar, history, H, M)
    assert oracles.setar_forecast(dataclasses.replace(fc, means=fc.means + 0.05),
                                  setar, history, H, M)


def test_accuracy_oracles():
    rng = np.random.default_rng(0)
    err = np.abs(rng.standard_normal((181, 20))) * 0.5
    acc = AccuracyReport(err.mean(axis=0), (err**2).mean(axis=0),
                         err.mean(axis=0) / 3.5, n_origins=181)
    assert oracles.accuracy_is_sane(acc, 20) == []
    assert oracles.accuracy_is_sane(dataclasses.replace(acc, msfe=acc.mafe**2 * 0.9), 20)
    assert oracles.accuracy_is_sane(dataclasses.replace(acc, mafe=-acc.mafe), 20)
    assert oracles.accuracy_is_sane(acc, 21)


def test_exit_code_oracles():
    holds = PersistenceParams(0.4, 0.07, 0.32)
    fails = PersistenceParams(-0.1, 0.0, 0.32)
    assert oracles.a1_exit_code(0, PersistenceKind.M1, holds) == []
    assert oracles.a1_exit_code(3, PersistenceKind.M1, holds)
    assert oracles.a1_exit_code(3, PersistenceKind.M1, fails) == []
    assert oracles.a1_exit_code(0, PersistenceKind.M1, fails)
    assert oracles.convergence_exit_code(2, False) == []
    assert oracles.convergence_exit_code(0, False)
    assert oracles.convergence_exit_code(1, True)


def test_setar_sanity_oracle():
    good = inputs.SETAR_FIXED
    assert oracles.setar_is_sane(dataclasses.replace(good, aic=1.0), 4) == []
    assert oracles.setar_is_sane(dataclasses.replace(good, aic=1.0, sigma2=-0.1), 4)
    assert oracles.setar_is_sane(dataclasses.replace(good, aic=1.0, d1=5), 4)


def test_outputs_changed_counts_mismatches_and_absences():
    recorded = {"a": "1", "b": "2", "c": "3"}
    assert workloads.outputs_changed(recorded, {"a": "1", "b": "2", "c": "3"}) == []
    assert workloads.outputs_changed(recorded, {"a": "1", "b": "x"}) == ["b", "c"]


# ------------------------------------------------------------------ spans


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": {}}


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),   # overlaps a: children cover [1, 5]
        _span("c", 7.0, 8.0, 0),
        _span("d", 3.0, 4.0, 2),   # grandchild, counted against b only
        _span("e", 9.5, 12.0, 0),  # runs past its parent: clipped to [9.5, 10]
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 2.0, 1.0, 1.0, 2.5])
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert covered([]) == 0.0


def test_tracer_records_nesting_and_restores_bindings():
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = Tracer()
    tracer.wrap(mod, "inner", "fake.inner", on_call=lambda a, k: {"x": a[0]})
    tracer.wrap(mod, "outer", "fake.outer")
    with tracer.span("op"):
        assert mod.outer(1) == 4
    tracer.restore()
    assert mod.inner is original
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("op", None), ("fake.outer", 0), ("fake.inner", 1)]
    assert tracer.spans[2]["attrs"] == {"x": 1}


def test_missing_binding_is_reported_missing_not_zero():
    import sdar.estimation

    saved = sdar.estimation.minimize
    del sdar.estimation.minimize
    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.restore()
        sdar.estimation.minimize = saved
    assert tracer.missing["estimation.minimize"] == ["sdar.estimation.minimize"]
    extra = {name: 0.0 for name, _ in layers.HARNESS_METRICS}
    with tracer.span("op"):
        pass
    metrics, missing, _ = layers.per_layer(tracer, extra)
    for name in ("estimation.starts_per_fit", "estimation.useful_start_frac",
                 "estimation.fit.self_s"):
        assert name not in metrics
        assert any(m.startswith(name + ":") for m in missing)
    assert "estimation.converged_frac" in metrics


def test_attribute_that_no_longer_fits_makes_its_metric_missing():
    tracer = Tracer()
    with tracer.span("op"):
        tracer.spans.append({"name": "estimation.fit", "start": 0.0, "end": 1.0,
                             "parent": 0, "attrs": {}})
    tracer.spans[0]["start"], tracer.spans[0]["end"] = 0.0, 2.0
    extra = {name: 0.0 for name, _ in layers.HARNESS_METRICS}
    metrics, missing, _ = layers.per_layer(tracer, extra)
    assert "estimation.fit_M1_s" not in metrics
    assert "estimation.converged_frac" not in metrics
    assert metrics["estimation.starts_per_fit"] == (0.0, "count")


def test_probe_rescales_to_nominal_speed():
    from probe import NOMINAL_S, probe_s, scaled

    assert probe_s() > 0
    # Probes at twice the nominal time mean a host at half speed.
    assert scaled(3.0, [2 * NOMINAL_S, 2 * NOMINAL_S]) == pytest.approx(1.5)
    assert scaled(3.0, [NOMINAL_S, 3 * NOMINAL_S]) == pytest.approx(1.5)
