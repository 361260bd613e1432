import dataclasses
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

import sdar.forecast
from sdar import (
    AccuracyReport,
    PersistenceKind,
    PersistenceParams,
    SdarParams,
    SetarFit,
    TimeSeries,
    exact_means_sdar,
    exact_means_setar,
    fit_setar,
    mc_forecast_sdar,
    mc_forecast_setar,
    psi,
    relative_efficiency,
    rolling_evaluate,
    sdar_paths,
    setar_means,
    setar_paths,
    simulate,
)
from sdar.forecast import QUANTILE_PROBS, _normals, _summarize, horizon_csv, relative_efficiency_csv
from sdar.setar import _setar_paths

from conftest import gen_ar1, gen_setar, m1_truth

M1 = PersistenceKind.M1


def tiny_sigma_params(alpha=-1.0):
    # near-deterministic map so MC means can be checked against the
    # noiseless recursion
    return SdarParams(alpha, PersistenceParams(0.4, 0.07, 0.32), 1e-8, M1)


def m2_truth():
    return SdarParams(-1.5, PersistenceParams(1.5, 0.1, 0.5), 0.5, PersistenceKind.M2)


def noiseless_path(params, y0, H):
    out = np.empty(H)
    prev = y0
    for h in range(H):
        prev = params.alpha + float(psi(params.kind, prev, params.pf)) * prev
        out[h] = prev
    return out


class TestMcForecastSdar:
    def test_deterministic_given_seed(self):
        p = m1_truth()
        a = mc_forecast_sdar(p, -3.0, H=5, M=400, seed=1)
        b = mc_forecast_sdar(p, -3.0, H=5, M=400, seed=1)
        np.testing.assert_array_equal(a.means, b.means)
        for q in a.quantiles:
            np.testing.assert_array_equal(a.quantiles[q], b.quantiles[q])

    def test_near_deterministic_matches_recursion(self):
        p = tiny_sigma_params()
        fc = mc_forecast_sdar(p, -2.0, H=8, M=50, seed=2)
        np.testing.assert_allclose(fc.means, noiseless_path(p, -2.0, 8), atol=1e-7)

    def test_h1_mean_and_spread(self):
        p = m1_truth()
        y0 = -3.0
        fc = mc_forecast_sdar(p, y0, H=1, M=40_000, seed=3)
        want = noiseless_path(p, y0, 1)[0]
        assert fc.means[0] == pytest.approx(want, abs=4 * p.sigma / np.sqrt(40_000))
        assert fc.path_std[0] == pytest.approx(p.sigma, rel=0.03)

    def test_accepts_fit_result_wrapper(self):
        class Wrapper:
            theta_hat = m1_truth()

        a = mc_forecast_sdar(Wrapper(), -3.0, H=3, M=100, seed=4)
        b = mc_forecast_sdar(m1_truth(), -3.0, H=3, M=100, seed=4)
        np.testing.assert_array_equal(a.means, b.means)

    def test_quantiles_ordered_and_bracket_median(self):
        fc = mc_forecast_sdar(m1_truth(), -3.0, H=6, M=5000, seed=5)
        q = np.array([fc.quantiles[p] for p in (0.05, 0.25, 0.5, 0.75, 0.95)])
        assert np.all(np.diff(q, axis=0) >= 0)
        np.testing.assert_allclose(fc.quantiles[0.5], fc.means, atol=0.1)

    def test_mc_std_error_scales(self):
        small = mc_forecast_sdar(m1_truth(), -3.0, H=1, M=100, seed=6)
        big = mc_forecast_sdar(m1_truth(), -3.0, H=1, M=10_000, seed=6)
        assert big.mc_std_error()[0] < small.mc_std_error()[0]
        assert big.mc_std_error()[0] == pytest.approx(
            big.path_std[0] / 100.0
        )

    def test_bad_args(self):
        with pytest.raises(ValueError):
            mc_forecast_sdar(m1_truth(), 0.0, H=0, M=10)
        with pytest.raises(ValueError):
            mc_forecast_sdar(m1_truth(), 0.0, H=3, M=0)

    @pytest.mark.parametrize("y_n", [np.nan, np.inf])
    def test_non_finite_origin_rejected(self, y_n):
        with pytest.raises(ValueError, match="y_n"):
            mc_forecast_sdar(m1_truth(), y_n, H=3, M=10)


def setar_1_1():
    """A SETAR(2,1,1) fit: its one-step mean jumps at the threshold."""
    return fit_setar(TimeSeries(gen_setar(1001, seed=61)), 1, 1)


EXACT = {"M1": m1_truth, "M2": m2_truth, "SETAR(2,1,1)": setar_1_1}


def exact_means(model, values, H):
    if isinstance(model, SetarFit):
        return exact_means_setar(model, values, H)
    return exact_means_sdar(model, values, H)


def data_of(model):
    """A 1001-value path of the model: the grid's span and the origins."""
    if isinstance(model, SetarFit):
        return gen_setar(1001, seed=61)
    return simulate(model, 1001, seed=61).values


class TestMeansAgainstReference:
    """The library's exact means against Monte Carlo, closed-form AR(1) means
    and a doubled grid."""

    H, M = 10, 100_000
    ORIGINS = ("min", "median", "max")

    @pytest.mark.parametrize("name", list(EXACT))
    def test_mc_means_within_bonferroni_band(self, name):
        model = EXACT[name]()
        path = data_of(model)
        means = exact_means(model, path, self.H)
        # Every (model, origin, horizon) cell shares one 1e-3 family-wise level.
        cells = len(EXACT) * len(self.ORIGINS) * self.H
        bound = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * cells))
        for seed, origin in enumerate(self.ORIGINS):
            y_n = float(getattr(np, origin)(path))
            fc = fan(model, np.array([y_n]), self.H, self.M, seed=70 + seed)
            dev = np.abs(fc.means - means([y_n])) / fc.mc_std_error()
            assert dev.max() < bound, f"{origin} origin {y_n:.3f}: {dev.round(2)}"

    @pytest.mark.parametrize("name", list(EXACT))
    def test_reference_is_converged(self, name, monkeypatch):
        # Doubling the grid moves the means by less than a quarter of the MC
        # standard error of compare's M = 10k draw.
        model = EXACT[name]()
        path = data_of(model)
        origins = [np.array([getattr(np, o)(path)]) for o in self.ORIGINS]
        coarse = [exact_means(model, path, self.H)(y) for y in origins]
        monkeypatch.setattr(sdar.forecast, "GRID_NODES", 2 * sdar.forecast.GRID_NODES - 1)
        fine = [exact_means(model, path, self.H)(y) for y in origins]
        for y, a, b in zip(origins, coarse, fine):
            se = fan(model, y, self.H, 10_000, seed=5).mc_std_error()
            assert np.all(np.abs(a - b) < 0.25 * se)

    @pytest.mark.parametrize("kind, gamma0", [(PersistenceKind.M1, 0.4), (PersistenceKind.M2, 1.5)])
    def test_sdar_without_state_dependence_is_ar1(self, kind, gamma0):
        # gamma1 = 0: an AR(1) with phi = psi(gamma0), whose means are closed form
        params = SdarParams(-1.0, PersistenceParams(gamma0, 0.0, 0.5), 0.5, kind)
        phi = float(psi(kind, 0.0, params.pf))
        mu = params.alpha / (1.0 - phi)
        path = simulate(params, 500, seed=3).values
        means = exact_means_sdar(params, path, 20)
        for y_n in (path.min(), np.median(path), path.max()):
            want = mu + phi ** np.arange(1, 21) * (y_n - mu)
            np.testing.assert_allclose(means([y_n]), want, rtol=0, atol=1e-10)

    def test_bistable_fit_keeps_its_mass(self):
        # An M1 fit of a benchmark chain (gamma0 on its bound -2, psi(0) = e^2) with a
        # second basin near 6.5, beyond the data's range [-5.369, -1.943]: a grid
        # over that range plus its margin lost about 1e-4 of the mass within 20 steps.
        params = SdarParams(1.0028, PersistenceParams(-2.0, 1.1057, 0.1824), 0.4902, M1)
        origins = (-5.369, -3.96489, -1.9427)
        means = exact_means_sdar(params, np.array([origins[0], origins[-1]]), 20)
        bound = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(origins) * 20))
        for seed, y_n in enumerate(origins):
            fc = mc_forecast_sdar(params, y_n, 20, 400_000, seed=90 + seed)
            dev = np.abs(fc.means - means([y_n])) / fc.mc_std_error()
            assert dev.max() < bound, f"origin {y_n}: {dev.round(2)}"

    def test_setar_with_equal_regimes_is_ar1(self):
        # Both regimes one AR(1): the cut at the threshold must not show.
        c, phi, sigma, thr = -0.8, 0.6, 0.4, -2.1
        fit = SetarFit(c, np.array([phi]), sigma, c, np.array([phi]), sigma, thr, 1, 1,
                       0.5, 0.0, 100)
        mu = c / (1.0 - phi)
        path = gen_ar1(500, seed=4, alpha=c, phi=phi, sigma=sigma)
        means = exact_means_setar(fit, path, 20)
        for y_n in (path.min(), thr, np.nextafter(thr, 0.0), path.max()):
            want = mu + phi ** np.arange(1, 21) * (y_n - mu)
            np.testing.assert_allclose(means([y_n]), want, rtol=0, atol=1e-10)

    def test_explosive_fit_leaves_the_grid(self):
        # M1 with gamma0 = -2, gamma1 = 0 is an AR(1) with phi = e^2
        params = SdarParams(-1.5, PersistenceParams(-2.0, 0.0, 0.5), 0.5, PersistenceKind.M1)
        path = simulate(m1_truth(), 300, seed=1).values
        means = exact_means_sdar(params, path, 5)
        with pytest.raises(ValueError, match="forecast grid keeps mass"):
            means(path)

    def test_overflowing_chain_raises_without_a_warning(self):
        # phi = e^50: the chain's means overflow long before 20 rounds
        params = SdarParams(-1.5, PersistenceParams(-50.0, 0.0, 0.5), 0.5, PersistenceKind.M1)
        with pytest.raises(ValueError, match="leave every finite grid within 20 steps"):
            exact_means_sdar(params, simulate(m1_truth(), 300, seed=1).values, 20)

    @pytest.mark.parametrize("change, message", [
        (dict(d1=2, phi1=np.array([0.5, 0.1])), "need SETAR\\(2,1,1\\), got SETAR\\(2,2,1\\)"),
        (dict(sigma2=0.0), "positive, finite noise scales"),
    ], ids=["second-order", "zero-sigma"])
    def test_setar_rejected(self, change, message):
        fit = dataclasses.replace(setar_1_1(), **change)
        with pytest.raises(ValueError, match=message):
            exact_means_setar(fit, gen_setar(100, seed=1), 3)

    def test_reads_no_draw_and_only_the_last_value(self):
        path = data_of(m1_truth())
        means = exact_means_sdar(m1_truth(), path, 4)
        assert np.array_equal(means(path[:50]), means(path[49:50], None))
        assert means(path[:50])[0] == noiseless_path(m1_truth(), path[49], 1)[0]


def score_one(forecast, actuals):
    """Score one fixed forecast against ``actuals``, a window of H values: one origin."""
    (rep,) = rolling_evaluate(
        [lambda history, z: np.array(forecast, dtype=float)], TimeSeries(np.arange(30.0)),
        TimeSeries(np.array(actuals, dtype=float)), H=len(actuals),
    )
    return rep


class TestEvaluateForecasts:
    """One-origin scoring by `rolling_evaluate`, its length guard and the report."""

    def test_hand_metrics(self):
        rep = score_one([1.0, 2.0], [2.0, 2.5])
        np.testing.assert_allclose(rep.mafe, [1.0, 0.5])
        np.testing.assert_allclose(rep.msfe, [1.0, 0.25])
        np.testing.assert_allclose(rep.mape, [0.5, 0.2])
        assert rep.n_origins == 1

    def test_zero_actual_gives_nan_mape(self):
        rep = score_one([1.0], [0.0])
        assert np.isnan(rep.mape[0])
        assert rep.mafe[0] == 1.0

    def test_length_mismatch(self):
        # H - 1 or H + 1 means per origin; H - 1 = 1 would broadcast without the guard
        train, test = TimeSeries(np.zeros(10)), TimeSeries(np.ones(5))
        for size in (1, 3):
            for window in (test, TimeSeries(test.values[:2])):  # four origins, then one
                with pytest.raises(ValueError):
                    rolling_evaluate([lambda history, z, size=size: np.zeros(size)],
                                     train, window, H=2, M=5)

    def test_csv_layout(self):
        rep = AccuracyReport(
            mafe=np.array([1.0, 2.0]),
            msfe=np.array([1.0, 4.0]),
            mape=np.array([0.5, 0.25]),
            n_origins=1,
        )
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "h,mafe,msfe,mape"
        assert lines[1] == "1,1,1,0.5"
        assert len(lines) == 3


def constant_forecaster(value):
    def forecaster(history, z):
        return np.full(z.shape[0], float(value))

    return forecaster


def seed_of(z):
    """The seed whose ``default_rng`` (H, M) draw is z."""
    return next(s for s in range(1000)
                if np.array_equal(np.random.default_rng(s).standard_normal(z.shape), z))


class TestRollingEvaluate:
    def test_single_origin_equals_direct_eval(self):
        rep = score_one([5.0, 5.0, 5.0], [4.0, 5.0, 6.0])
        np.testing.assert_allclose(rep.mafe, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(rep.msfe, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(rep.mape, [0.25, 0.0, 1 / 6])
        assert rep.n_origins == 1

    def test_single_origin_scores_mc_forecast_means(self):
        # a forecaster that reads its history and draw, and a zero in
        # the test window, so MAPE has an undefined horizon
        def forecaster(history, z):
            return sdar_paths(m1_truth(), history[-1], z).mean(axis=1)

        y = simulate(m1_truth(), 220, seed=41).values
        train = TimeSeries(y[:200])
        test = TimeSeries(np.r_[y[200:202], 0.0, y[203:205]])  # H values: one origin
        (rep,) = rolling_evaluate([forecaster], train, test, H=5, M=500, seed=9)
        actuals = test.values[:5]
        err = np.abs(actuals - mc_forecast_sdar(m1_truth(), train.values[-1], 5, 500, 9).means)
        assert np.isnan(rep.mape[2])
        np.testing.assert_array_equal(rep.mafe, err)
        np.testing.assert_array_equal(rep.msfe, err**2)
        defined = actuals != 0.0
        np.testing.assert_array_equal(rep.mape[defined], err[defined] / np.abs(actuals[defined]))
        assert rep.n_origins == 1

    def test_rolling_origin_count(self):
        # test window of H+1 points gives exactly 2 origins
        train = TimeSeries(np.zeros(20))
        test = TimeSeries(np.arange(1.0, 5.0))  # 4 points
        (rep,) = rolling_evaluate([constant_forecaster(0.0)], train, test, H=3)
        assert rep.n_origins == 2
        # origins forecast (1,2,3) and (2,3,4); mean abs err = (1.5, 2.5, 3.5)
        np.testing.assert_allclose(rep.mafe, [1.5, 2.5, 3.5])
        np.testing.assert_allclose(rep.msfe, [2.5, 6.5, 12.5])

    def test_rolling_history_grows_with_origin(self):
        seen = []

        def spy(history, z):
            assert not history.flags.writeable
            with pytest.raises(ValueError):
                history[-1] = 0.0
            seen.append((history.copy(), seed_of(z)))
            return np.zeros(z.shape[0])

        train = TimeSeries(np.zeros(10))
        test = TimeSeries(np.ones(4))
        rolling_evaluate([spy], train, test, H=2, seed=100)
        assert [s for _, s in seen] == [100, 101, 102]
        for o, (history, _) in enumerate(seen):
            assert np.array_equal(history, np.r_[np.zeros(10), np.ones(o)])

    def test_no_draw_hands_every_forecaster_none(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew normals")

        monkeypatch.setattr(sdar.forecast, "_normals", no_draw)
        seen = []

        def spy(history, z):
            seen.append(z)
            return np.zeros(2)

        train, test = TimeSeries(np.zeros(10)), TimeSeries(np.ones(4))
        reports = rolling_evaluate([spy, spy], train, test, H=2, M=None, seed=100)
        assert seen == [None] * 6
        assert [rep.n_origins for rep in reports] == [3, 3]

    def test_horizon_too_long_rejected(self):
        train = TimeSeries(np.zeros(10))
        test = TimeSeries(np.ones(2))
        with pytest.raises(ValueError):
            rolling_evaluate([constant_forecaster(0.0)], train, test, H=5)

    @pytest.mark.parametrize("H, M", [(0, 10), (2, 0), (-2, 10)])
    def test_bad_horizon_or_path_count_rejected(self, H, M):
        train = TimeSeries(np.zeros(10))
        test = TimeSeries(np.ones(5))
        with pytest.raises(ValueError, match="H and M must be >= 1"):
            rolling_evaluate([lambda *a: None], train, test, H=H, M=M)

    def test_sdar_end_to_end_beats_flat_forecast(self):
        p = m1_truth()
        y = simulate(p, 600, seed=40).values
        train, test = TimeSeries(y[:580]), TimeSeries(y[580:])

        def sdar_forecaster(history, z):
            return sdar_paths(p, history[-1], z).mean(axis=1)

        (rep,) = rolling_evaluate([sdar_forecaster], train, test, H=4, M=2000, seed=50)
        (flat,) = rolling_evaluate([constant_forecaster(0.0)], train, test, H=4)
        assert np.all(rep.msfe < flat.msfe)


def setar_1_3():
    """An asymmetric SETAR(2,1,3): AR(1) below the threshold, AR(3) above."""
    return fit_setar(TimeSeries(gen_setar(600, seed=17)), 1, 3)


def setar_3_1():
    """The mirror SETAR(2,3,1): the high regime's coefficient table is zero-padded."""
    return fit_setar(TimeSeries(gen_setar(600, seed=17)), 3, 1)


MODELS = {"M1": m1_truth, "M2": m2_truth, "SETAR(2,1,3)": setar_1_3, "SETAR(2,3,1)": setar_3_1}


def fan(model, history, H, M, seed):
    if isinstance(model, SetarFit):
        return mc_forecast_setar(model, history, H, M, seed)
    return mc_forecast_sdar(model, history[-1], H, M, seed)


def paths_of(model, history, z):
    if isinstance(model, SetarFit):
        return setar_paths(model, history, z)
    return sdar_paths(model, history[-1], z)


def means_forecaster(model):
    return lambda history, z: paths_of(model, history, z).mean(axis=1)


def reference_paths(model, history, H, M, seed):
    """The path loops as first written, on (M, H) paths: a pre-scaled SDAR
    draw, and a SETAR lag state rebuilt by ``np.concatenate`` at every step."""
    eps = np.random.default_rng(seed).standard_normal((H, M)).T
    paths = np.empty((M, H))
    if not isinstance(model, SetarFit):
        eps = eps * model.sigma
        state = np.full(M, float(history[-1]))
        for h in range(H):
            state = model.alpha + psi(model.kind, state, model.pf) * state + eps[:, h]
            paths[:, h] = state
        return paths
    p = max(model.d1, model.d2)
    state = np.tile(history[-p:], (M, 1))
    phi1, phi2 = model.phi1[::-1], model.phi2[::-1]
    for h in range(H):
        low = state[:, -1] <= model.threshold
        mean = np.where(low, model.c1 + state[:, p - model.d1 :] @ phi1,
                        model.c2 + state[:, p - model.d2 :] @ phi2)
        new = mean + np.where(low, model.sigma1, model.sigma2) * eps[:, h]
        paths[:, h] = new
        state = np.concatenate([state[:, 1:], new[:, None]], axis=1)
    return paths


class TestDrawAndSummary:
    def test_normals_are_the_draw(self):
        z = _normals(7, 3, 11)
        assert z.shape == (3, 7)
        assert z.flags.c_contiguous
        assert np.array_equal(z, np.random.default_rng(11).standard_normal((3, 7)))

    @pytest.mark.parametrize("H, M", [(1, 1), (3, 1), (4, 9), (5, 1000)])
    def test_summary_of_unsorted_paths(self, H, M):
        # Rows with ties: every value appears twice, row 0 is constant.
        rng = np.random.default_rng(12)
        half = rng.standard_normal((H, (M + 1) // 2)) * [[10.0 ** k] for k in range(H)]
        paths = np.concatenate([half, half[:, ::-1]], axis=1)[:, :M]
        paths[0] = 0.1
        unsorted = paths.copy()
        fc = _summarize(paths)
        assert np.array_equal(paths, np.sort(unsorted, axis=1))  # each row sorted in place
        for q, got in fc.quantiles.items():
            assert np.array_equal(got, np.quantile(unsorted, q, axis=1))
        assert np.array_equal(fc.means, unsorted.mean(axis=1))
        want_std = unsorted.std(axis=1, ddof=1) if M > 1 else np.zeros(H)
        assert np.array_equal(fc.path_std, want_std)
        assert (fc.horizon, fc.M) == (H, M)

    @pytest.mark.parametrize("M", [1, 2, 3, 7, 1000])
    def test_quantiles_read_off_sorted_rows_are_np_quantile_bits(self, M):
        # Rows: untied, tied, constant, with +inf, -inf, both, all +inf, a NaN,
        # a NaN with its sign bit set, all NaN, and a NaN beside an inf; +-inf
        # rows make inf - inf lerps. The levels are the bytes of np.quantile of
        # the sorted rows, and the values of np.quantile of the unsorted rows:
        # np.sort writes a NaN back without its sign bit, np.quantile keeps it.
        rng = np.random.default_rng(M)
        rows = [rng.standard_normal(M), rng.integers(0, 3, M).astype(float), np.full(M, 0.3)]
        for marks in ([np.inf], [-np.inf], [np.inf, -np.inf], [np.nan], [-np.nan], [np.nan, np.inf]):
            row = rng.standard_normal(M)
            row[rng.permutation(M)[: len(marks)]] = marks[:M]
            rows.append(row)
        rows += [np.full(M, np.inf), np.full(M, np.nan)]
        unsorted = np.array(rows)
        paths = unsorted.copy()
        with np.errstate(invalid="ignore"):
            fc = _summarize(paths)
            want = np.quantile(np.sort(unsorted, axis=1), QUANTILE_PROBS, axis=1)
            of_unsorted = np.quantile(unsorted, QUANTILE_PROBS, axis=1)
            want_std = unsorted.std(axis=1, ddof=1) if M > 1 else np.zeros(len(rows))
            want_means = unsorted.mean(axis=1)
        assert paths.tobytes() == np.sort(unsorted, axis=1).tobytes()
        assert np.array_equal(np.array(list(fc.quantiles.values())), of_unsorted, equal_nan=True)
        for got, level in zip(fc.quantiles.values(), want):
            assert got.tobytes() == level.tobytes()
        assert fc.path_std.tobytes() == want_std.tobytes()
        assert fc.means.tobytes() == want_means.tobytes()


def setar_3_3():
    return fit_setar(TimeSeries(gen_setar(600, seed=17)), 3, 3)


@pytest.mark.parametrize("make_model", [m1_truth, m2_truth, setar_1_3, setar_3_3],
                         ids=["M1", "M2", "SETAR(2,1,3)", "SETAR(2,3,3)"])
def test_fan_peak_memory_below_one_and_a_quarter_path_arrays(make_model):
    # The paths overwrite the draw and the summary makes no full-size
    # temporary, so the fan holds one (H, M) array plus a few rows of M.
    H, M = 52, 20_000
    model, history = make_model(), gen_setar(600, seed=17)
    fan(model, history, H, M, seed=3)  # first-call allocations are not the fan's
    tracemalloc.start()
    try:
        fan(model, history, H, M, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * H * M * 8


class TestPathLoopParity:
    """The shared path loops against independent references, bit for bit."""

    def window(self):
        y = gen_setar(250, seed=23)
        y[244] = 0.0  # a zero actual: MAPE skips it at the origins that see it
        return TimeSeries(y[:230]), TimeSeries(y[230:])

    @pytest.mark.parametrize("name", list(MODELS))
    @pytest.mark.parametrize("H, M", [(6, 400), (1, 1), (1, 7), (3, 1)])
    def test_fan_equals_reference_loop(self, name, H, M):
        model = MODELS[name]()
        history = gen_setar(50, seed=29)
        paths = np.ascontiguousarray(reference_paths(model, history, H, M, 5).T)
        z = _normals(M, H, 5)
        assert np.array_equal(paths_of(model, history, z), paths)
        assert np.array_equal(z, _normals(M, H, 5))  # the public loops only read z
        fc = fan(model, history, H, M, 5)
        assert np.array_equal(fc.means, paths.mean(axis=1))
        assert sorted(fc.quantiles) == [0.05, 0.25, 0.5, 0.75, 0.95]
        for q, got in fc.quantiles.items():
            assert np.array_equal(got, np.quantile(paths, q, axis=1))
        want_std = paths.std(axis=1, ddof=1) if M > 1 else np.zeros(H)
        assert np.array_equal(fc.path_std, want_std)

    @pytest.mark.parametrize("name", list(MODELS))
    def test_rolling_equals_per_origin_mc_forecasts(self, name):
        model = MODELS[name]()
        companion = m1_truth() if isinstance(model, SetarFit) else setar_1_3()
        train, test = self.window()
        H, M, seed = 4, 300, 31
        reports = rolling_evaluate(
            [means_forecaster(model), means_forecaster(companion)],
            train, test, H, M, seed)
        assert len(reports) == 2
        n = test.values.size - H + 1
        for rep, mod in zip(reports, (model, companion)):
            actuals = [test.values[o : o + H] for o in range(n)]
            means = [fan(mod, np.r_[train.values, test.values[:o]], H, M, seed + o).means
                     for o in range(n)]
            errs = [np.abs(a - m) for a, m in zip(actuals, means)]
            assert rep.n_origins == n
            assert np.array_equal(rep.mafe, sum(errs) / n)
            assert np.array_equal(rep.msfe, sum(err**2 for err in errs) / n)
            for h in range(H):
                defined = [err[h] / abs(a[h]) for err, a in zip(errs, actuals) if a[h] != 0.0]
                assert len(defined) == n - 1  # one origin meets the zero at h
                assert rep.mape[h] == sum(defined) / len(defined)

    def test_forecasters_share_one_read_only_draw(self):
        seen = []

        def spy(history, z):
            seen.append((history.size, z))
            return np.zeros(z.shape[0])

        train, test = self.window()
        rolling_evaluate([spy, spy], train, test, H=3, M=50, seed=5)
        n = test.values.size - 3 + 1
        assert len(seen) == 2 * n
        for o in range(n):
            (size_a, a), (size_b, b) = seen[2 * o], seen[2 * o + 1]
            assert size_a == size_b == train.values.size + o
            assert a is b
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0.0
            assert np.array_equal(a, np.random.default_rng(5 + o).standard_normal((3, 50)))


def conditional_means(model, history, paths):
    """Row h: the conditional mean of step h + 1 on every path, from the lag
    state of `reference_paths`; ``paths`` rows are the steps before it."""
    p = max(model.d1, model.d2)
    state = np.tile(history[-p:], (paths.shape[1], 1))
    phi1, phi2 = model.phi1[::-1], model.phi2[::-1]
    out = np.empty((paths.shape[0] + 1, paths.shape[1]))
    for h in range(out.shape[0]):
        low = state[:, -1] <= model.threshold
        out[h] = np.where(low, model.c1 + state[:, p - model.d1 :] @ phi1,
                          model.c2 + state[:, p - model.d2 :] @ phi2)
        if h < paths.shape[0]:
            state = np.concatenate([state[:, 1:], paths[h][:, None]], axis=1)
    return out


class TestSetarMeans:
    """`setar_means`: antithetic conditional means on the one SETAR path loop."""

    SETARS = {k: v for k, v in MODELS.items() if k.startswith("SETAR")}

    def test_within_bonferroni_band_of_exact_means(self):
        # On a first-order fit the exact means are the reference; the standard
        # error of the mean over re-seeds comes from their own spread.
        model, H, M, reseeds = setar_1_1(), 10, 1000, 200
        path = data_of(model)
        exact = exact_means_setar(model, path, H)
        origins = [float(getattr(np, o)(path)) for o in ("min", "median", "max")]
        bound = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(origins) * (H - 1)))
        for y_n in origins:
            draws = np.array([setar_means(model, [y_n], _normals(M, H, seed))
                              for seed in range(reseeds)])
            assert (draws[:, 0] == exact([y_n])[0]).all()  # step 1 is exact
            se = draws[:, 1:].std(axis=0, ddof=1) / np.sqrt(reseeds)
            dev = np.abs(draws[:, 1:].mean(axis=0) - exact([y_n])[1:]) / se
            assert dev.max() < bound, f"origin {y_n:.3f}: {dev.round(2)}"

    @pytest.mark.parametrize("name", list(SETARS))
    @pytest.mark.parametrize("regime", ["low", "high"])
    def test_step_one_is_the_conditional_mean_bit_for_bit(self, name, regime):
        model = self.SETARS[name]()
        history = gen_setar(50, seed=29)
        history[-1] = model.threshold - 0.5 if regime == "low" else model.threshold + 0.5
        c, phi = (model.c1, model.phi1) if regime == "low" else (model.c2, model.phi2)
        want = phi[-1] * history[-phi.size]  # the loop's order: oldest lag first
        for k in range(phi.size - 1, 0, -1):
            want += phi[k - 1] * history[-k]
        want += c
        assert setar_means(model, history, _normals(50, 4, 7))[0] == want

    @pytest.mark.parametrize("name", list(SETARS))
    def test_record_leaves_the_paths_alone(self, name):
        model, history, H, M = self.SETARS[name](), gen_setar(50, seed=29), 6, 400
        z = _normals(M, H, 5)
        z.flags.writeable = False
        plain = setar_paths(model, history, z)
        recorded, means = np.empty((H, M)), np.empty(H)
        _setar_paths(model, history, z, recorded, means)
        assert np.array_equal(recorded[:-1], plain[:-1])
        want = conditional_means(model, history, plain[:-1]).mean(axis=1)
        np.testing.assert_allclose(means, want, rtol=1e-13, atol=0)
        fc = mc_forecast_setar(model, history, H, M, 5)
        assert np.array_equal(fc.means, plain.mean(axis=1))
        assert np.array_equal(fc.path_std, plain.std(axis=1, ddof=1))

    @pytest.mark.parametrize("name", list(SETARS))
    def test_antithetic_pair_and_unread_last_row(self, name):
        model, history, H, M = self.SETARS[name](), gen_setar(50, seed=29), 5, 300
        z = _normals(M, H, 3)
        pair = np.concatenate([z, -z], axis=1)
        want = conditional_means(model, history, setar_paths(model, history, pair)[:-1])
        last_unread = z.copy()
        last_unread[-1] = np.nan
        got = setar_means(model, history, last_unread)
        np.testing.assert_allclose(got, want.mean(axis=1), rtol=1e-13, atol=0)
        assert np.array_equal(got, setar_means(model, history, z))


class TestRelativeEfficiency:
    def make(self, scale, n_origins=1):
        return AccuracyReport(
            mafe=np.array([1.0, 2.0]) * scale,
            msfe=np.array([1.0, 4.0]) * scale,
            mape=np.array([0.5, 0.25]) * scale,
            n_origins=n_origins,
        )

    def test_ratio_values(self):
        re = relative_efficiency(self.make(1.0), self.make(2.0))
        np.testing.assert_allclose(re, np.full((3, 2), 0.5))

    def test_below_one_means_first_wins(self):
        re = relative_efficiency(self.make(0.5), self.make(1.0))
        assert np.all(re < 1.0)

    def test_zero_denominator_nan(self):
        re = relative_efficiency(self.make(1.0), self.make(0.0))
        assert np.all(np.isnan(re))

    def test_mismatched_reports_rejected(self):
        a = self.make(1.0)
        short = AccuracyReport(
            mafe=np.ones(1), msfe=np.ones(1), mape=np.ones(1), n_origins=1
        )
        with pytest.raises(ValueError):
            relative_efficiency(a, short)
        with pytest.raises(ValueError):
            relative_efficiency(a, self.make(1.0, n_origins=3))

    def test_csv_layout(self):
        re = relative_efficiency(self.make(1.0), self.make(2.0))
        lines = relative_efficiency_csv(re).strip().splitlines()
        assert lines[0] == "h,mafe,msfe,mape"
        assert lines[1] == "1,0.5,0.5,0.5"
        assert len(lines) == 3


def test_horizon_csv_numbers_rows_from_one_in_ten_significant_digits():
    text = horizon_csv({"mean": np.array([1.0, 1 / 3]), "q0.5": np.array([np.nan, -2e-7])})
    assert text == "h,mean,q0.5\n1,1,nan\n2,0.3333333333,-2e-07\n"
