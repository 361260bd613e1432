import numpy as np
import pytest

from sdar import SetarFit, TimeSeries, fit_setar, mc_forecast_setar, select_setar

from conftest import (
    SETAR_C1,
    SETAR_C2,
    SETAR_PHI1,
    SETAR_PHI2,
    SETAR_THRESHOLD,
    gen_setar,
)


def brute_force_setar(y, d1, d2, trim=0.15):
    """Reference implementation: fresh least squares at every candidate."""
    p = max(d1, d2)
    target = y[p:]
    z = y[p - 1 : -1]

    def design(d):
        return np.column_stack(
            [np.ones(target.size)] + [y[p - i : y.size - i] for i in range(1, d + 1)]
        )

    x1, x2 = design(d1), design(d2)
    lo, hi = np.quantile(z, [trim, 1 - trim])
    min_n = p + 2
    best = None
    for thr in np.unique(z):
        if not lo <= thr <= hi:
            continue
        low = z <= thr
        n1 = int(low.sum())
        if n1 < min_n or target.size - n1 < min_n:
            continue
        # a regime design without full column rank has no unique fit,
        # so the candidate is skipped
        if (np.linalg.matrix_rank(x1[low]) <= d1
                or np.linalg.matrix_rank(x2[~low]) <= d2):
            continue
        b1, *_ = np.linalg.lstsq(x1[low], target[low], rcond=None)
        b2, *_ = np.linalg.lstsq(x2[~low], target[~low], rcond=None)
        ssr = np.sum((target[low] - x1[low] @ b1) ** 2) + np.sum(
            (target[~low] - x2[~low] @ b2) ** 2
        )
        if best is None or ssr < best[0] - 1e-12 * abs(best[0]):
            best = (ssr, thr, b1, b2)
    return best


class TestFitSetar:
    @staticmethod
    def assert_matches_brute_force(y, d1=2, d2=2):
        fit = fit_setar(TimeSeries(y), d1, d2)
        ssr, thr, b1, b2 = brute_force_setar(y, d1, d2)
        assert fit.threshold == pytest.approx(thr)
        np.testing.assert_allclose(
            np.r_[fit.c1, fit.phi1], b1, rtol=1e-8, atol=1e-10
        )
        np.testing.assert_allclose(
            np.r_[fit.c2, fit.phi2], b2, rtol=1e-8, atol=1e-10
        )
        return fit

    def test_matches_brute_force(self, rng):
        for trial in range(5):
            y = rng.standard_normal(300).cumsum() * 0.3
            self.assert_matches_brute_force(y)

    @pytest.mark.parametrize("decimals", [1, 0])
    def test_ties_collapse_to_last_occurrence(self, rng, decimals):
        # rounding makes y_{t-1} repeat: a candidate threshold must take
        # the last occurrence of each distinct value, so ties never split
        for trial in range(5):
            y = np.round(rng.standard_normal(300).cumsum() * 0.3, decimals)
            assert np.unique(y).size < y.size
            self.assert_matches_brute_force(y)

    def test_singular_candidate_is_skipped(self):
        # -1.0 fills 30% of the sample, more than the 15% trim, so the
        # first admissible candidate's low regime has the single
        # regressor row (1, -1): its normal equations are exactly
        # singular, and the search must skip it rather than raise
        rng = np.random.default_rng(5)
        y = np.abs(rng.standard_normal(400)) + 0.5
        y[rng.random(400) < 0.3] = -1.0
        fit = self.assert_matches_brute_force(y, 1, 1)
        assert fit.threshold == 1.2165876558738362

    @pytest.mark.parametrize("d1, d2", [(1, 3), (3, 1), (4, 2)])
    def test_asymmetric_lags(self, rng, d1, d2):
        # each regime reads the leading block of one order-max(d1, d2)
        # design, so the shorter regime must still match its own fit
        y = rng.standard_normal(400).cumsum() * 0.2
        fit = fit_setar(TimeSeries(y), d1, d2)
        ssr, thr, b1, b2 = brute_force_setar(y, d1, d2)
        assert fit.threshold == pytest.approx(thr)
        assert fit.phi1.size == d1 and fit.phi2.size == d2
        np.testing.assert_allclose(np.r_[fit.c1, fit.phi1], b1, rtol=1e-8)
        np.testing.assert_allclose(np.r_[fit.c2, fit.phi2], b2, rtol=1e-8)

    def test_recovers_known_threshold_and_coefficients(self):
        y = gen_setar(8000, seed=1)
        fit = fit_setar(TimeSeries(y), 3, 3)
        assert abs(fit.threshold - SETAR_THRESHOLD) < 0.05
        # AR regressors are strongly collinear here, so individual
        # coefficients carry visible sampling error even at n = 8000
        assert fit.c1 == pytest.approx(SETAR_C1, abs=0.25)
        assert fit.c2 == pytest.approx(SETAR_C2, abs=0.25)
        np.testing.assert_allclose(fit.phi1, SETAR_PHI1, atol=0.12)
        np.testing.assert_allclose(fit.phi2, SETAR_PHI2, atol=0.12)

    def test_prop_low_counts_low_regime(self):
        y = gen_setar(3000, seed=2)
        fit = fit_setar(TimeSeries(y), 3, 3)
        z = y[2:-1]
        assert fit.prop_low == pytest.approx(np.mean(z <= fit.threshold))
        assert 0.2 < fit.prop_low < 0.6

    def test_sigma_estimates(self):
        y = gen_setar(5000, seed=3)
        fit = fit_setar(TimeSeries(y), 3, 3)
        assert fit.sigma1 == pytest.approx(0.05, rel=0.15)
        assert fit.sigma2 == pytest.approx(0.05, rel=0.15)

    def test_aic_bookkeeping(self):
        y = gen_setar(1000, seed=4)
        fit = fit_setar(TimeSeries(y), 2, 3)
        assert fit.aic == pytest.approx(2 * (2 + 3 + 4) - 2 * fit.loglik)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="short"):
            fit_setar(TimeSeries(np.arange(15.0)), 2, 2)

    def test_bad_args_rejected(self):
        y = TimeSeries(np.random.default_rng(0).standard_normal(100))
        with pytest.raises(ValueError):
            fit_setar(y, 0, 2)
        with pytest.raises(ValueError):
            fit_setar(y, 2, 2, trim=0.4)

    @pytest.mark.parametrize("d1, d2", [(1.5, 2), (2, 2.0)])
    def test_float_lag_order_rejected(self, d1, d2):
        y = TimeSeries(gen_setar(500, seed=5))
        with pytest.raises(ValueError, match="lag orders must be integers"):
            fit_setar(y, d1, d2)

    def test_numpy_integer_lags_write_the_int_json(self):
        y = TimeSeries(gen_setar(500, seed=5))
        assert fit_setar(y, np.int64(3), np.int32(2)).to_json() == fit_setar(y, 3, 2).to_json()

    def test_json_roundtrip(self):
        y = gen_setar(500, seed=5)
        fit = fit_setar(TimeSeries(y), 3, 2)
        back = SetarFit.from_json(fit.to_json())
        assert back.threshold == fit.threshold
        np.testing.assert_array_equal(back.phi1, fit.phi1)
        np.testing.assert_array_equal(back.phi2, fit.phi2)
        assert back.aic == fit.aic


class TestSelectSetar:
    def test_picks_true_order(self):
        y = gen_setar(4000, seed=6, sigma1=0.1, sigma2=0.1)
        best = select_setar(TimeSeries(y), max_lag=4)
        assert (best.d1, best.d2) == (3, 3)

    def test_returns_min_aic(self):
        y = gen_setar(800, seed=7)
        best = select_setar(TimeSeries(y), max_lag=3)
        series = TimeSeries(y)
        all_aics = [
            fit_setar(series, d1, d2).aic
            for d1 in range(1, 4)
            for d2 in range(1, 4)
        ]
        assert best.aic == pytest.approx(min(all_aics))


class TestMcForecastSetar:
    def fit_once(self):
        y = gen_setar(2000, seed=8)
        return fit_setar(TimeSeries(y), 3, 3), y

    def test_deterministic_given_seed(self):
        fit, y = self.fit_once()
        a = mc_forecast_setar(fit, y, H=5, M=500, seed=9)
        b = mc_forecast_setar(fit, y, H=5, M=500, seed=9)
        np.testing.assert_array_equal(a.means, b.means)

    def test_h1_is_exact_conditional_mean_when_noiseless(self):
        fit, y = self.fit_once()
        from dataclasses import replace

        noiseless = replace(fit, sigma1=0.0, sigma2=0.0)
        fc = mc_forecast_setar(noiseless, y, H=1, M=100, seed=10)
        prev = y[-1]
        if prev <= fit.threshold:
            want = fit.c1 + fit.phi1 @ y[-1:-4:-1]
        else:
            want = fit.c2 + fit.phi2 @ y[-1:-4:-1]
        assert fc.means[0] == pytest.approx(want)
        assert fc.path_std[0] == pytest.approx(0.0, abs=1e-12)

    def test_h1_spread_matches_regime_sigma(self):
        fit, y = self.fit_once()
        fc = mc_forecast_setar(fit, y, H=1, M=20_000, seed=11)
        sigma = fit.sigma1 if y[-1] <= fit.threshold else fit.sigma2
        assert fc.path_std[0] == pytest.approx(sigma, rel=0.05)

    def test_quantiles_ordered(self):
        fit, y = self.fit_once()
        fc = mc_forecast_setar(fit, y, H=10, M=2000, seed=12)
        q = np.array([fc.quantiles[p] for p in (0.05, 0.25, 0.5, 0.75, 0.95)])
        assert np.all(np.diff(q, axis=0) >= 0)

    def test_short_history_rejected(self):
        fit, y = self.fit_once()
        with pytest.raises(ValueError, match="history"):
            mc_forecast_setar(fit, y[:2], H=3, M=10)

    @pytest.mark.parametrize(
        "field, value",
        [("threshold", np.nan), ("c1", np.inf), ("c2", np.nan),
         ("phi1", np.array([0.5, np.nan, 0.1])),
         ("phi2", np.array([np.inf, 0.2, 0.1])),
         ("sigma1", np.nan), ("sigma2", np.inf), ("sigma1", -0.1)],
        ids=["threshold-nan", "c1-inf", "c2-nan", "phi1-nan", "phi2-inf",
             "sigma1-nan", "sigma2-inf", "sigma1-negative"],
    )
    def test_invalid_fit_rejected(self, field, value):
        from dataclasses import replace

        fit, y = self.fit_once()
        with pytest.raises(ValueError, match="invalid fit"):
            mc_forecast_setar(replace(fit, **{field: value}), y, H=3, M=10)

    @pytest.mark.parametrize("pos, rejected", [(-2, True), (-4, False)],
                             ids=["inside-last-p", "before-last-p"])
    def test_non_finite_history(self, pos, rejected):
        fit, y = self.fit_once()  # SETAR(2,3,3) conditions on y[-3:]
        y = y.copy()
        y[pos] = np.nan
        if rejected:
            with pytest.raises(ValueError, match="history"):
                mc_forecast_setar(fit, y, H=3, M=10)
        else:
            assert np.isfinite(mc_forecast_setar(fit, y, H=3, M=10).means).all()

    def test_bad_horizon_rejected(self):
        fit, y = self.fit_once()
        with pytest.raises(ValueError):
            mc_forecast_setar(fit, y, H=0, M=10)
