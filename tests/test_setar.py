import json

import numpy as np
import pytest

import sdar.setar
from sdar import SetarFit, TimeSeries, fit_setar, mc_forecast_setar, select_setar, setar_paths
from sdar.estimation import select_model

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


def singular_candidate_series():
    # -1.0 fills 30% of the sample, more than the 15% trim, so the
    # first admissible candidate's low regime has the single
    # regressor row (1, -1): its normal equations are exactly singular
    rng = np.random.default_rng(5)
    y = np.abs(rng.standard_normal(400)) + 0.5
    y[rng.random(400) < 0.3] = -1.0
    return y


def near_singular_series(v):
    """`singular_candidate_series` with the lag value v in place of -1.0.

    The first admissible candidate's low regime again has the single
    regressor row (1, v), but no float sum of v or v^2 is exact, so its
    second pivot rounds to a tiny +-value where -1.0 gives exactly 0.
    """
    y = singular_candidate_series()
    y[y == -1.0] = v
    return y


def brute_force_aic(y, thr, b1, b2):
    """The AIC of a `brute_force_setar` fit, each regime's sigma^2 its mean squared residual."""
    d1, d2 = b1.size - 1, b2.size - 1
    p = max(d1, d2)
    target, z = y[p:], y[p - 1 : -1]
    low, ll = z <= thr, 0.0
    for rows, b in ((low, b1), (~low, b2)):
        lags = [y[p - i : y.size - i] for i in range(1, b.size)]
        x = np.column_stack([np.ones(target.size)] + lags)
        n, ssr = rows.sum(), np.sum((target[rows] - x[rows] @ b) ** 2)
        ll += -0.5 * n * (np.log(2.0 * np.pi) + np.log(ssr / n) + 1.0)
    return 2.0 * (d1 + d2 + 4) - 2.0 * ll


def asymmetric_setar(n=600, seed=13):
    """A SETAR(2, 1, 3) path: an AR(1) low regime, an AR(3) high regime."""
    truth = SetarFit(c1=0.3, phi1=np.array([0.6]), sigma1=0.3,
                     c2=-0.2, phi2=np.array([0.2, -0.3, 0.4]), sigma2=0.3,
                     threshold=0.0, d1=1, d2=3, prop_low=0.5, aic=float("nan"), n_obs=0)
    z = np.random.default_rng(seed).standard_normal((n, 1))
    return setar_paths(truth, np.zeros(3), z)[:, 0]


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
        # the search must skip the singular candidate rather than raise
        fit = self.assert_matches_brute_force(singular_candidate_series(), 1, 1)
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
        with pytest.raises(TypeError):  # the threshold band is the constant TRIM
            fit_setar(y, 2, 2, trim=0.4)

    def test_no_admissible_threshold_rejected(self):
        # one state above 0: its regime has 1 row, below the p + 2 = 3 minimum
        y = np.zeros(50)
        y[25] = 1.0
        with pytest.raises(ValueError, match="no admissible threshold"):
            fit_setar(TimeSeries(y), 1, 1)

    def test_all_candidates_singular_rejected(self):
        # a 0/1 series: the only admissible threshold, 0, leaves the low
        # regime with y = 0 alone, so its design (1, 0) is singular
        y = TimeSeries(np.random.default_rng(0).integers(0, 2, 200).astype(float))
        with pytest.raises(ValueError, match="all regressions singular"):
            fit_setar(y, 1, 1)
        with pytest.raises(ValueError, match="all regressions singular"):
            select_setar(y, max_lag=1)

    def test_best_candidate_is_the_sequential_rule(self):
        # The search visits only the strict running minima of the pooled SSR;
        # it must pick what the 1e-12 rule picks visiting every candidate in
        # order, over exact ties, near-ties of +-1e-13, negative SSRs and NaN.
        def sequential(ssr, ok):
            best = None
            for i in np.flatnonzero(ok):
                if best is None or ssr[i] < ssr[best] - 1e-12 * abs(ssr[best]):
                    best = i
            return best

        rng = np.random.default_rng(31)
        n = 30
        zeros, full = np.zeros(n), np.ones(n, bool)
        # rows (1, j - 1) with target 0: every regime of 2 or more rows is
        # full-rank, and its order-1 coefficients are all 0
        x, t = np.vstack([np.ones(n + 5), np.arange(-1.0, n + 4)]), np.zeros(n + 5)
        for trial in range(2000):
            levels = rng.choice([3.0, 2.0, 1.0, 1e-300, 0.0, -1.0, -2.0], rng.integers(1, 5))
            ssr = rng.choice(levels, n) * (1.0 + rng.choice([0.0, 1e-13, -1e-13, 2e-12], n))
            ssr[rng.random(n) < 0.1] = np.nan
            ok = rng.random(n) < 0.8
            # candidate c has k = c + 2 low rows and x[1, k - 1] = c, so the
            # threshold names it; the high regime keeps at least 3 rows
            design = (np.arange(2, n + 2), x, t,
                      [([zeros, ssr], [ok, ok]), ([zeros, zeros], [full, full])])
            want = sequential(ssr, ok)
            if want is None:
                with pytest.raises(ValueError, match="all regressions singular"):
                    sdar.setar._assemble(design, 1, 1)
            else:
                assert sdar.setar._assemble(design, 1, 1).threshold == want

    @pytest.mark.parametrize("d1, d2", [(1.5, 2), (2, 2.0), (True, 2)])
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

    def test_json_bool_lag_order_rejected(self):
        # True == 1 == len(phi1), but a bool is not a lag order
        doc = json.loads(fit_setar(TimeSeries(gen_setar(500, seed=5)), 1, 2).to_json())
        doc["d1"] = True
        with pytest.raises(ValueError, match="invalid fit: d1 = True"):
            SetarFit.from_json(json.dumps(doc))


class TestLdlSearch:
    """The LDL' threshold search against fresh least squares at every candidate."""

    SERIES = {
        "untied": lambda: np.random.default_rng(41).standard_normal(260).cumsum() * 0.3,
        "tied": lambda: np.round(np.random.default_rng(42).standard_normal(260).cumsum(), 0),
        "singular": singular_candidate_series,
        "asymmetric": lambda: asymmetric_setar(n=300),
        "near-singular +": lambda: near_singular_series(-0.1),
        "near-singular -": lambda: near_singular_series(-0.3),
    }

    @pytest.mark.parametrize("name", SERIES)
    def test_all_pairs_and_selection_match_brute_force(self, name):
        y, aics = self.SERIES[name](), {}
        for d1 in range(1, 5):
            for d2 in range(1, 5):
                fit = fit_setar(TimeSeries(y), d1, d2)
                ssr, thr, b1, b2 = brute_force_setar(y, d1, d2)
                assert fit.threshold == thr, (d1, d2)
                np.testing.assert_allclose(np.r_[fit.c1, fit.phi1], b1, rtol=1e-8, atol=1e-10)
                np.testing.assert_allclose(np.r_[fit.c2, fit.phi2], b2, rtol=1e-8, atol=1e-10)
                n1 = fit.n_obs * fit.prop_low
                pooled = n1 * fit.sigma1**2 + (fit.n_obs - n1) * fit.sigma2**2
                assert pooled == pytest.approx(ssr, rel=1e-9)
                aics[d1, d2] = brute_force_aic(y, thr, b1, b2)
                assert fit.aic == pytest.approx(aics[d1, d2], rel=1e-10)
        for max_lag in range(1, 5):
            best = select_setar(TimeSeries(y), max_lag)
            lags = range(1, max_lag + 1)
            assert (best.d1, best.d2) == min([(d1, d2) for d1 in lags for d2 in lags], key=aics.get)

    @pytest.mark.parametrize("v, sign", [(-1.0, 0), (-0.1, 1), (-0.3, -1)])
    def test_singular_pivot_decides_ok(self, v, sign):
        # the first candidate's low regime is k rows of the lag value v alone, so
        # its second pivot, k v^2 - (k v)^2 / k summed as the sweep sums it, is 0
        # or a tiny +-value below the floor k * eps * k v^2; so at every order
        # d >= 1 the block is rank-deficient, as `matrix_rank` finds it, whatever
        # the residue's sign
        y = near_singular_series(v)
        for p in range(1, 5):
            ks, _, _, ((_, low_ok), _) = sdar.setar._design(y, p)
            k = int(ks[0])
            s1, s2 = np.cumsum(np.full(k, v))[-1], np.cumsum(np.full(k, v * v))[-1]
            piv = s2 - s1 / k * s1
            assert np.sign(piv) == sign and abs(piv) < k * np.finfo(float).eps * s2
            assert [bool(ok[0]) for ok in low_ok] == [True] + [False] * p


class TestSelectSetar:
    def test_picks_true_order(self):
        y = gen_setar(4000, seed=6, sigma1=0.1, sigma2=0.1)
        best = select_setar(TimeSeries(y), max_lag=4)
        assert (best.d1, best.d2) == (3, 3)

    def test_returns_min_aic(self):
        # the shared designs give the bytes of one fit_setar per pair,
        # and ties go to the first pair in d1-major order
        tied = np.round(np.random.default_rng(7).standard_normal(400).cumsum(), 0)
        for y in (gen_setar(800, seed=7), tied, singular_candidate_series(), asymmetric_setar()):
            s = TimeSeries(y)
            for max_lag in range(1, 5):
                lags = range(1, max_lag + 1)
                fits = [fit_setar(s, d1, d2) for d1 in lags for d2 in lags]
                assert select_setar(s, max_lag).to_json() == fits[select_model(fits)].to_json()

    @pytest.mark.parametrize("y, kwargs, message", [
        (gen_setar(45, seed=1), {"max_lag": 4},
         "series too short: need at least 50 observations"),
        (np.r_[np.zeros(25), 1.0, np.zeros(24)], {"max_lag": 4},
         "no admissible threshold: every candidate leaves a regime too small"),
        (np.random.default_rng(0).integers(0, 2, 200).astype(float), {"max_lag": 2},
         "threshold search failed: all regressions singular"),
    ])
    def test_raises_the_first_failing_pair_error(self, y, kwargs, message):
        s, lags = TimeSeries(y), range(1, kwargs.get("max_lag", 4) + 1)
        with pytest.raises(ValueError) as first:
            for d1 in lags:
                for d2 in lags:
                    fit_setar(s, d1, d2)
        with pytest.raises(ValueError) as got:
            select_setar(s, **kwargs)
        assert str(got.value) == str(first.value) == message

    def test_one_design_per_lag_order(self, monkeypatch):
        # 4 sorted designs for 16 pairs; one LDL' sweep per (p, regime) serves every d <= p
        calls = {"_design": 0, "_sweep": 0}
        for name in calls:
            def spy(*args, _real=getattr(sdar.setar, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(sdar.setar, name, spy)
        s = TimeSeries(gen_setar(800, seed=7))
        select_setar(s, max_lag=4)
        assert calls == {"_design": 4, "_sweep": 2 * 4}
        calls.update(_design=0, _sweep=0)
        fit_setar(s, 1, 4)
        assert calls == {"_design": 1, "_sweep": 2}

    def test_zero_max_lag_rejected(self):
        # a bool is no lag order, and a float bounds no range of lag orders
        for max_lag in (0, True, 2.5):
            with pytest.raises(ValueError, match="max_lag must be >= 1"):
                select_setar(TimeSeries(gen_setar(200, seed=7)), max_lag=max_lag)


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
