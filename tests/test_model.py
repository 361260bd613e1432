import math

import numpy as np
import pytest

from sdar import (
    PersistenceKind,
    PersistenceParams,
    SdarParams,
    TimeSeries,
    loglik,
    loglik_grad,
    loglik_hess,
    persistence_series,
    residuals,
    simulate,
)
from sdar.model import _per_obs_score

from conftest import m1_truth

M1, M2 = PersistenceKind.M1, PersistenceKind.M2


def m2_truth():
    return SdarParams(-1.5, PersistenceParams(1.2, 0.08, 0.56), 0.5, M2)


def fd_grad(f, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.size)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2 * h)
    return out


class TestSdarParams:
    def test_array_roundtrip(self):
        p = m1_truth()
        q = SdarParams.from_array(p.to_array(), M1)
        assert q == p
        np.testing.assert_array_equal(
            p.to_array(), [-1.5, 0.4, 0.07, 0.32, 0.5]
        )

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            SdarParams(0.0, PersistenceParams(0.4, 0.1, 0.5), 0.0, M1)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            SdarParams(alpha, PersistenceParams(0.4, 0.1, 0.5), 1.0, M1)

    def test_rejects_invalid_persistence(self):
        with pytest.raises(ValueError):
            SdarParams(0.0, PersistenceParams(0.5, 0.1, 0.5), 1.0, M2)


class TestSimulate:
    def test_deterministic_given_seed(self):
        a = simulate(m1_truth(), 100, seed=7)
        b = simulate(m1_truth(), 100, seed=7)
        np.testing.assert_array_equal(a.values, b.values)
        c = simulate(m1_truth(), 100, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_first_step_from_origin(self):
        # Y_1 = alpha + psi(0)*0 + sigma*Z_1 with the same seeded stream
        p = m1_truth()
        z = np.random.default_rng(3).standard_normal(1)[0]
        y = simulate(p, 1, seed=3)
        assert y.values[0] == pytest.approx(p.alpha + p.sigma * z)

    def test_recursion_matches_residuals(self):
        # residuals at the true parameters recover the innovation draws
        p = m2_truth()
        y = simulate(p, 500, seed=11)
        xi = residuals(p, y)
        draws = np.random.default_rng(11).standard_normal(500) * p.sigma
        np.testing.assert_allclose(xi, draws[1:], atol=1e-12)

    def test_stationary_band(self):
        # contraction bound < 1 keeps paths near alpha/(1-psi); crude check
        y = simulate(m1_truth(), 5000, seed=0).values
        assert np.all(np.abs(y) < 50)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            simulate(m1_truth(), 0, seed=0)


class TestResiduals:
    def test_lengths(self):
        y = simulate(m1_truth(), 40, seed=1)
        assert residuals(m1_truth(), y).size == 39

    def test_hand_value(self):
        # y = (1, 2): xi_2 = 2 - alpha - psi(1)*1
        p = SdarParams(0.3, PersistenceParams(0.5, 0.2, 1.0), 1.0, M1)
        y = TimeSeries(np.array([1.0, 2.0]))
        xi = residuals(p, y)
        assert xi[0] == pytest.approx(2.0 - 0.3 - math.exp(-0.7))


class TestLoglik:
    def test_single_obs_closed_form(self):
        p = SdarParams(0.0, PersistenceParams(0.5, 0.1, 1.0), 2.0, M1)
        y = TimeSeries(np.array([0.0, 1.0]))
        # xi = 1 - 0 - psi(0)*0 = 1; density of N(0, 4) at 1
        expected = -0.5 * math.log(2 * math.pi) - math.log(2.0) - 1.0 / 8.0
        assert loglik(p, y) == pytest.approx(expected)

    def test_iid_reduction(self, rng):
        # gamma1 = 0, alpha = 0 collapses to iid N(0, sigma^2) scoring
        p = SdarParams(0.0, PersistenceParams(30.0, 0.0, 1.0), 1.5, M1)
        vals = rng.standard_normal(200)
        y = TimeSeries(vals)
        ll = loglik(p, y)
        mean_term = vals[1:] - math.exp(-30.0) * vals[:-1]
        expected = np.sum(
            -0.5 * np.log(2 * np.pi) - np.log(1.5) - mean_term**2 / (2 * 1.5**2)
        )
        assert ll == pytest.approx(expected)


class TestDerivatives:
    @pytest.mark.parametrize("params", [m1_truth(), m2_truth()])
    def test_grad_matches_fd(self, params):
        y = simulate(params, 300, seed=21)

        def f(theta):
            return loglik(SdarParams.from_array(theta, params.kind), y)

        grad = loglik_grad(params, y)
        np.testing.assert_allclose(grad, fd_grad(f, params.to_array()), rtol=3e-5)

    @pytest.mark.parametrize("params", [m1_truth(), m2_truth()])
    def test_hess_matches_fd_of_grad(self, params):
        y = simulate(params, 300, seed=22)
        theta = params.to_array()
        hess = loglik_hess(params, y)
        fd = np.empty((5, 5))
        h = 1e-6
        for j in range(5):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            gu = loglik_grad(SdarParams.from_array(up, params.kind), y)
            gd = loglik_grad(SdarParams.from_array(dn, params.kind), y)
            fd[:, j] = (gu - gd) / (2 * h)
        np.testing.assert_allclose(hess, fd, rtol=2e-4, atol=1e-6)

    def test_hess_symmetric(self):
        p = m2_truth()
        y = simulate(p, 200, seed=23)
        h = loglik_hess(p, y)
        np.testing.assert_allclose(h, h.T, rtol=1e-12)

    def test_grad_zero_at_exact_mle_sigma_alpha(self):
        # with gamma1 = 0 the (alpha, sigma) subproblem has closed form
        pf = PersistenceParams(40.0, 0.0, 1.0)
        vals = np.random.default_rng(9).standard_normal(400)
        y = TimeSeries(vals)
        lag, target = vals[:-1], vals[1:]
        resid = target - math.exp(-40.0) * lag
        alpha_hat = resid.mean()
        sigma_hat = float(np.sqrt(np.mean((resid - alpha_hat) ** 2)))
        p = SdarParams(alpha_hat, pf, sigma_hat, M1)
        g = loglik_grad(p, y)
        assert abs(g[0]) < 1e-9 and abs(g[4]) < 1e-9

    @pytest.mark.parametrize("params", [m1_truth(), m2_truth()])
    def test_per_obs_score_sums_to_grad(self, params):
        # the score that feeds the sandwich G matrix is the gradient's summand
        y = simulate(params, 300, seed=24)
        np.testing.assert_allclose(
            _per_obs_score(params, y).sum(axis=1), loglik_grad(params, y),
            rtol=1e-10,
        )

    @pytest.mark.parametrize(
        "func", [loglik_grad, loglik_hess, _per_obs_score], ids=lambda f: f.__name__
    )
    def test_length_one_series_rejected(self, func):
        with pytest.raises(ValueError, match="length >= 2"):
            func(m1_truth(), TimeSeries(np.array([0.5])))


class TestPersistenceSeries:
    def test_values_and_length(self):
        p = m1_truth()
        y = simulate(p, 30, seed=4)
        ps = persistence_series(p, y)
        assert ps.size == 29
        from sdar import psi

        np.testing.assert_allclose(ps, psi(M1, y.values[:-1], p.pf))

    def test_bounded_by_sup(self):
        p = m2_truth()
        y = simulate(p, 1000, seed=6)
        ps = persistence_series(p, y)
        assert np.all(ps > 0) and np.all(ps <= 1 / p.pf.gamma0)
