import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from sdar import (
    AccuracyReport,
    PersistenceKind,
    PersistenceParams,
    SdarParams,
    SetarFit,
    TimeSeries,
    fit_setar,
    mc_forecast_sdar,
    mc_forecast_setar,
    psi,
    relative_efficiency,
    rolling_evaluate,
    sdar_paths,
    setar_paths,
    simulate,
)
from sdar.forecast import _normals, _summarize, horizon_csv, relative_efficiency_csv

from conftest import gen_setar, m1_truth

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


def reference_means(params, grid, H, nodes=32):
    """Conditional means m_1..m_H on ``grid``, with no simulation.

    SDAR is a scalar Markov chain, so m_h(y) = E[m_{h-1}(alpha + psi(y) y
    + sigma Z)] with m_0(y) = y. The expectation is a Gauss-Hermite sum
    and m_{h-1} between grid points is linear interpolation.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    step = params.alpha + psi(params.kind, grid, params.pf) * grid
    nxt = step[:, None] + params.sigma * np.sqrt(2.0) * x  # (grid, node) next states
    m, out = grid, []
    for _ in range(H):
        m = np.interp(nxt, grid, m) @ w / np.sqrt(np.pi)
        out.append(m)
    return np.array(out)  # (H, grid)


class TestMeansAgainstReference:
    """MC means against the integral recursion, beyond the AR(1) subcase."""

    H, M = 10, 100_000
    ORIGINS = ("min", "median", "max")

    @pytest.mark.parametrize("truth", [m1_truth, m2_truth], ids=["M1", "M2"])
    def test_reference_is_converged(self, truth):
        # Doubling the grid and going to 48 nodes moves the table by far
        # less than one MC standard error (about 2e-3 at M = 100k) over
        # the data's range; the margins only carry the quadrature tails.
        params = truth()
        path = simulate(params, 1001, seed=61).values
        coarse = np.linspace(path.min() - 4.0, path.max() + 4.0, 801)
        fine = np.linspace(coarse[0], coarse[-1], 1601)
        a = reference_means(params, coarse, self.H)
        b = np.array([np.interp(coarse, fine, row)
                      for row in reference_means(params, fine, self.H, nodes=48)])
        inside = (path.min() <= coarse) & (coarse <= path.max())
        assert np.abs(a - b)[:, inside].max() < 1e-5

    @pytest.mark.parametrize("truth", [m1_truth, m2_truth], ids=["M1", "M2"])
    def test_mc_means_within_bonferroni_band(self, truth):
        params = truth()
        path = simulate(params, 1001, seed=61).values
        grid = np.linspace(path.min() - 4.0, path.max() + 4.0, 801)
        table = reference_means(params, grid, self.H)
        # Every (kind, origin, horizon) cell shares one 1e-3 family-wise level.
        cells = 2 * len(self.ORIGINS) * self.H
        bound = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * cells))
        for seed, origin in enumerate(self.ORIGINS):
            y_n = float(getattr(np, origin)(path))
            fc = mc_forecast_sdar(params, y_n, self.H, self.M, seed=70 + seed)
            want = [np.interp(y_n, grid, row) for row in table]
            dev = np.abs(fc.means - want) / fc.mc_std_error()
            assert dev.max() < bound, f"{origin} origin {y_n:.3f}: {dev.round(2)}"


def score_one(forecast, actuals):
    """Score one fixed forecast against ``actuals`` with single-origin `rolling_evaluate`."""
    (rep,) = rolling_evaluate(
        [lambda history, z: np.array(forecast, dtype=float)], TimeSeries(np.arange(30.0)),
        TimeSeries(np.array(actuals, dtype=float)), H=len(actuals), mode="single-origin",
    )
    return rep


class TestEvaluateForecasts:
    """Single-origin scoring by `rolling_evaluate`, its length guard and the report."""

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
            for mode in ("single-origin", "rolling-origin"):
                with pytest.raises(ValueError):
                    rolling_evaluate([lambda history, z, size=size: np.zeros(size)],
                                     train, test, H=2, M=5, mode=mode)

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
        test = TimeSeries(np.r_[y[200:202], 0.0, y[203:]])
        (rep,) = rolling_evaluate(
            [forecaster], train, test, H=5, M=500, seed=9, mode="single-origin"
        )
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
        (rep,) = rolling_evaluate(
            [constant_forecaster(0.0)], train, test, H=3, mode="rolling-origin"
        )
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
        rolling_evaluate([spy], train, test, H=2, seed=100, mode="rolling-origin")
        assert [s for _, s in seen] == [100, 101, 102]
        for o, (history, _) in enumerate(seen):
            assert np.array_equal(history, np.r_[np.zeros(10), np.ones(o)])

    def test_horizon_too_long_rejected(self):
        train = TimeSeries(np.zeros(10))
        test = TimeSeries(np.ones(2))
        with pytest.raises(ValueError):
            rolling_evaluate(
                [constant_forecaster(0.0)], train, test, H=5, mode="single-origin"
            )

    def test_unknown_mode_rejected(self):
        train = TimeSeries(np.zeros(10))
        test = TimeSeries(np.ones(5))
        with pytest.raises(ValueError, match="mode"):
            rolling_evaluate(
                [constant_forecaster(0.0)], train, test, H=2, mode="expanding"
            )

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

        (rep,) = rolling_evaluate(
            [sdar_forecaster], train, test, H=4, M=2000, seed=50,
            mode="rolling-origin",
        )
        (flat,) = rolling_evaluate(
            [constant_forecaster(0.0)], train, test, H=4, mode="rolling-origin"
        )
        assert np.all(rep.msfe < flat.msfe)


def setar_1_3():
    """An asymmetric SETAR(2,1,3): AR(1) below the threshold, AR(3) above."""
    return fit_setar(TimeSeries(gen_setar(600, seed=17)), 1, 3)


MODELS = {"M1": m1_truth, "M2": m2_truth, "SETAR(2,1,3)": setar_1_3}


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
        # Each row is permuted in place: sorted, then partitioned by np.quantile.
        assert np.array_equal(np.sort(paths, axis=1), np.sort(unsorted, axis=1))
        for q, got in fc.quantiles.items():
            assert np.array_equal(got, np.quantile(unsorted, q, axis=1))
        assert np.array_equal(fc.means, unsorted.mean(axis=1))
        want_std = unsorted.std(axis=1, ddof=1) if M > 1 else np.zeros(H)
        assert np.array_equal(fc.path_std, want_std)
        assert (fc.horizon, fc.M) == (H, M)


def setar_3_3():
    return fit_setar(TimeSeries(gen_setar(600, seed=17)), 3, 3)


@pytest.mark.parametrize("make_model", [m1_truth, setar_3_3], ids=["M1", "SETAR(2,3,3)"])
def test_fan_peak_memory_below_two_and_a_half_path_arrays(make_model):
    # The draw is freed once the paths exist, so the summary's full-size
    # temporary takes its place: paths + draw or paths + temporary, never all three.
    H, M = 52, 20_000
    model, history = make_model(), gen_setar(600, seed=17)
    fan(model, history, H, M, seed=3)  # first-call allocations are not the fan's
    tracemalloc.start()
    try:
        fan(model, history, H, M, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * H * M * 8


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
        assert np.array_equal(paths_of(model, history, _normals(M, H, 5)), paths)
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
            train, test, H, M, seed, mode="rolling-origin",
        )
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
        rolling_evaluate([spy, spy], train, test, H=3, M=50, seed=5, mode="rolling-origin")
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
