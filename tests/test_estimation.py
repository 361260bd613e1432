import math

import numpy as np
import pytest

from sdar import (
    FitResult,
    ParamBox,
    PersistenceKind,
    PersistenceParams,
    SdarParams,
    TimeSeries,
    aic,
    fit,
    loglik,
    sandwich_cov,
    select_model,
    simulate,
)

from sdar.estimation import _start_points, _warm_start

from conftest import gen_ar1, m1_truth

M1, M2 = PersistenceKind.M1, PersistenceKind.M2


class TestParamBox:
    def test_default_m2_excludes_unit_gamma0(self):
        box = ParamBox.default(M2)
        assert box.lower[1] > 1.0

    def test_pin_fixes_coordinate(self):
        box = ParamBox.default(M1).pin("gamma1", 0.0).pin("r", 0.5)
        assert box.lower[2] == box.upper[2] == 0.0
        assert box.lower[3] == box.upper[3] == 0.5

    def test_rejects_infinite_bounds(self):
        with pytest.raises(ValueError, match="finite"):
            ParamBox(
                np.array([-np.inf, 0, 0, 0.1, 0.1]), np.ones(5)
            )

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            ParamBox(np.ones(5), np.zeros(5))

    def test_rejects_nonpositive_sigma_floor(self):
        with pytest.raises(ValueError, match="sigma"):
            ParamBox(np.array([-1, -1, 0, 0.1, 0.0]), np.ones(5) * 2)


class TestStartInterior:
    # gamma1 and r pinned, as in the AR(1) reduction of criterion 4
    BOX = ParamBox.default(M1).pin("gamma1", 0.0).pin("r", 0.7)

    def assert_interior(self, pts):
        box = self.BOX
        free = box.upper > box.lower
        pts = np.atleast_2d(pts)
        assert np.all(pts[:, ~free] == box.lower[~free])
        assert np.all(pts[:, free] > box.lower[free])
        assert np.all(pts[:, free] < box.upper[free])

    def test_sobol_starts(self):
        self.assert_interior(_start_points(self.BOX, 16, seed=2))

    def test_warm_start(self):
        # a level far outside the alpha bounds forces the clip
        y = 50.0 + gen_ar1(200, seed=3)
        theta = _warm_start(TimeSeries(y), M1, self.BOX)
        assert theta[0] == pytest.approx(self.BOX.upper[0] - 2e-3)
        self.assert_interior(theta)


class TestAicSelect:
    def test_aic_formula(self):
        assert aic(-100.0) == 210.0
        assert aic(-100.0, k=3) == 206.0

    def test_published_aic_pairs(self):
        # three markets, per-family AICs; expected winners 0, 0, 1
        pairs = [(1124.54, 1134.30), (1148.82, 1157.05), (1151.36, 1135.19)]
        for (a1, a2), want in zip(pairs, [0, 0, 1]):
            fits = [
                make_fit(aic_value=a1),
                make_fit(aic_value=a2),
            ]
            assert select_model(fits) == want

    def test_tie_goes_first(self):
        fits = [make_fit(aic_value=5.0), make_fit(aic_value=5.0)]
        assert select_model(fits) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_model([])


def make_fit(aic_value):
    return FitResult(
        theta_hat=m1_truth(),
        covariance=None,
        std_errors=None,
        loglik=0.0,
        aic=aic_value,
        n_obs=100,
        converged=True,
        n_starts=1,
        grad_norm=0.0,
    )


def ols_ar1(y):
    """Exact conditional MLE of a Gaussian AR(1) with intercept."""
    lag, target = y[:-1], y[1:]
    X = np.column_stack([np.ones(lag.size), lag])
    coef, *_ = np.linalg.lstsq(X, target, rcond=None)
    resid = target - X @ coef
    sigma = math.sqrt(np.mean(resid**2))
    return coef[0], coef[1], sigma


class TestFitAr1Reduction:
    """Pinning gamma1 = 0 turns the model into AR(1); the QML optimum
    then has a closed form to compare against."""

    def test_matches_ols(self):
        y = gen_ar1(400, seed=42)
        series = TimeSeries(y)
        box = ParamBox.default(M1).pin("gamma1", 0.0).pin("r", 0.5)
        res = fit(series, M1, box=box, n_starts=4, seed=0)
        a, phi, s = ols_ar1(y)
        assert res.converged
        assert res.theta_hat.alpha == pytest.approx(a, abs=1e-6)
        assert math.exp(-res.theta_hat.pf.gamma0) == pytest.approx(phi, abs=1e-6)
        assert res.theta_hat.sigma == pytest.approx(s, abs=1e-6)

    def test_loglik_not_below_ols_point(self):
        y = gen_ar1(300, seed=43)
        series = TimeSeries(y)
        box = ParamBox.default(M1).pin("gamma1", 0.0).pin("r", 0.5)
        res = fit(series, M1, box=box, n_starts=4, seed=1)
        a, phi, s = ols_ar1(y)
        ref = SdarParams(a, PersistenceParams(-math.log(phi), 0.0, 0.5), s, M1)
        assert res.loglik >= loglik(ref, series) - 1e-8

    def test_sandwich_se_close_to_ols_se(self):
        y = gen_ar1(2000, seed=44)
        series = TimeSeries(y)
        box = ParamBox.default(M1).pin("gamma1", 0.0).pin("r", 0.5)
        res = fit(series, M1, box=box, n_starts=4, seed=2)
        # classical OLS intercept SE; sandwich agrees when the model is correct
        lag = y[:-1]
        X = np.column_stack([np.ones(lag.size), lag])
        s2 = res.theta_hat.sigma ** 2
        classical = np.sqrt(np.diag(s2 * np.linalg.inv(X.T @ X)))
        assert res.std_errors[0] == pytest.approx(classical[0], rel=0.15)


class TestFitBehaviour:
    def test_deterministic_given_seed(self):
        y = simulate(m1_truth(), 400, seed=10)
        a = fit(y, M1, n_starts=6, seed=3)
        b = fit(y, M1, n_starts=6, seed=3)
        np.testing.assert_array_equal(a.theta_hat.to_array(), b.theta_hat.to_array())
        assert a.loglik == b.loglik

    def test_estimate_inside_box(self):
        y = simulate(m1_truth(), 300, seed=12)
        box = ParamBox.default(M1)
        res = fit(y, M1, n_starts=6, seed=4)
        theta = res.theta_hat.to_array()
        assert np.all(theta >= box.lower - 1e-12)
        assert np.all(theta <= box.upper + 1e-12)

    def test_more_starts_never_worse(self):
        y = simulate(m1_truth(), 300, seed=13)
        few = fit(y, M1, n_starts=2, seed=5)
        many = fit(y, M1, n_starts=12, seed=5)
        assert many.loglik >= few.loglik - 1e-8

    def test_loglik_beats_truth_in_sample(self):
        truth = m1_truth()
        y = simulate(truth, 1000, seed=14)
        res = fit(y, M1, n_starts=8, seed=6)
        assert res.loglik >= loglik(truth, y) - 1e-6

    def test_aic_consistent_with_loglik(self):
        y = simulate(m1_truth(), 300, seed=15)
        res = fit(y, M1, n_starts=4, seed=7)
        assert res.aic == pytest.approx(10.0 - 2.0 * res.loglik)

    def test_m2_fit_respects_gamma0_floor(self):
        y = simulate(
            SdarParams(-1.5, PersistenceParams(1.2, 0.08, 0.56), 0.5, M2),
            500,
            seed=16,
        )
        res = fit(y, M2, n_starts=6, seed=8)
        assert res.theta_hat.pf.gamma0 > 1.0

    def test_boundary_optimum_counts_as_converged(self):
        # some paths are best explained with the state term switched
        # off; the optimum then sits on the gamma1/r bounds and the
        # outward gradient components must not be read as stalling
        y = simulate(m1_truth(), 400, seed=77)
        res = fit(y, M1, n_starts=4, seed=0)
        assert res.converged
        assert res.at_boundary.any()

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="short"):
            fit(TimeSeries(np.arange(10.0)), M1)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit(TimeSeries(np.ones(50)), M1)

    def test_json_roundtrip(self):
        y = simulate(m1_truth(), 300, seed=17)
        res = fit(y, M1, n_starts=4, seed=9)
        back = FitResult.from_json(res.to_json())
        np.testing.assert_allclose(
            back.theta_hat.to_array(), res.theta_hat.to_array()
        )
        assert back.loglik == pytest.approx(res.loglik)
        assert back.converged == res.converged
        if res.covariance is None:
            assert back.covariance is None
        else:
            np.testing.assert_allclose(back.covariance, res.covariance)


class TestSandwich:
    def test_assembly_matches_definition(self):
        # cov must equal Hbar^{-1} G Hbar^{-1} / n built from the
        # returned matrices themselves
        p = m1_truth()
        y = simulate(p, 400, seed=30)
        mats, cov = sandwich_cov(p, y)
        h_inv = np.linalg.inv(mats.H_bar)
        n = len(y) - 1
        np.testing.assert_allclose(cov, h_inv @ mats.G @ h_inv / n, rtol=1e-10)

    def test_h_bar_is_mean_hessian(self):
        from sdar import loglik_hess

        p = m1_truth()
        y = simulate(p, 400, seed=31)
        mats, _ = sandwich_cov(p, y)
        n = len(y) - 1
        np.testing.assert_allclose(mats.H_bar, loglik_hess(p, y) / n, rtol=1e-12)

    def test_matrices_symmetric(self):
        y = simulate(m1_truth(), 500, seed=18)
        mats, cov = sandwich_cov(m1_truth(), y)
        np.testing.assert_allclose(mats.G, mats.G.T)
        np.testing.assert_allclose(cov, cov.T)

    def test_singular_hessian_raises(self):
        # gamma0 = 40 drives psi and all its derivatives to ~e^-40, so
        # the persistence rows of the mean Hessian vanish numerically
        p = SdarParams(0.0, PersistenceParams(40.0, 0.0, 1.0), 1.0, M1)
        y = simulate(p, 200, seed=19)
        with pytest.raises(np.linalg.LinAlgError):
            sandwich_cov(p, y)

    def test_fit_survives_singular_covariance(self):
        p = SdarParams(0.0, PersistenceParams(40.0, 0.0, 1.0), 1.0, M1)
        y = simulate(p, 250, seed=20)
        box = ParamBox(
            np.array([-10.0, 40.0, 0.0, 1.0, 1e-4]),
            np.array([10.0, 40.0, 0.0, 1.0, 10.0]),
        )
        res = fit(y, M1, box=box, n_starts=4, seed=10)
        assert res.covariance is None
        assert res.std_errors is None

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            sandwich_cov(m1_truth(), TimeSeries(np.arange(4.0)))
