"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line and then asserts; the suite
runs with tee-style capture so the lines always reach the console.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from sdar import (
    FitResult,
    ParamBox,
    PersistenceKind,
    PersistenceParams,
    SdarParams,
    TimeSeries,
    a1_bound_closed_form,
    a1_bound_numeric,
    check_assumptions,
    fit,
    fit_setar,
    loglik,
    loglik_grad,
    loglik_hess,
    mc_forecast_sdar,
    mc_forecast_setar,
    psi,
    realized_volatility,
    relative_efficiency,
    rolling_evaluate,
    sdar_paths,
    select_model,
    select_setar,
    setar_paths,
    simulate,
)

from conftest import (
    SETAR_C1,
    SETAR_C2,
    SETAR_PHI1,
    SETAR_PHI2,
    SETAR_THRESHOLD,
    gen_ar1,
    gen_setar,
    m1_identified_truth,
    m1_truth,
)

M1, M2 = PersistenceKind.M1, PersistenceKind.M2


def verdict(num, name, ok, elapsed, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]"
    if detail:
        line += f"  {detail}"
    print(line, flush=True)


def conditional_mean(params, y):
    """E[Y_t | Y_{t-1} = y] = alpha + psi(y) * y."""
    return params.alpha + psi(params.kind, y, params.pf) * y


def draw_theta(kind, rng):
    g0 = rng.uniform(0.2, 2.0) if kind is M1 else rng.uniform(1.1, 3.0)
    return SdarParams(
        float(rng.uniform(-2.0, 2.0)),
        PersistenceParams(g0, float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.2, 2.0))),
        float(rng.uniform(0.3, 2.0)),
        kind,
    )


class TestCriterion1Derivatives:
    """Analytic likelihood derivatives vs central finite differences."""

    def test_grad_and_hess_match_fd(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        base = m1_truth()
        worst_g = worst_h = 0.0
        for kind in (M1, M2):
            for trial in range(100):
                params = draw_theta(kind, rng)
                y = simulate(base, 200, seed=int(rng.integers(1 << 30)))
                theta = params.to_array()
                steps = 3e-6 * np.maximum(1.0, np.abs(theta))

                def at(vec):
                    return SdarParams.from_array(vec, kind)

                g = loglik_grad(params, y)
                fd_g = np.empty(5)
                for i in range(5):
                    up, dn = theta.copy(), theta.copy()
                    up[i] += steps[i]
                    dn[i] -= steps[i]
                    fd_g[i] = (loglik(at(up), y) - loglik(at(dn), y)) / (2 * steps[i])
                rel_g = np.linalg.norm(g - fd_g) / max(1.0, np.linalg.norm(g))
                worst_g = max(worst_g, rel_g)

                h = loglik_hess(params, y)
                fd_h = np.empty((5, 5))
                for j in range(5):
                    up, dn = theta.copy(), theta.copy()
                    up[j] += steps[j]
                    dn[j] -= steps[j]
                    fd_h[:, j] = (
                        loglik_grad(at(up), y) - loglik_grad(at(dn), y)
                    ) / (2 * steps[j])
                rel_h = np.linalg.norm(h - fd_h) / max(1.0, np.linalg.norm(h))
                worst_h = max(worst_h, rel_h)
        elapsed = time.monotonic() - t0
        ok = worst_g < 1e-6 and worst_h < 1e-4 and elapsed < 30
        verdict(1, "derivative correctness", ok, elapsed,
                f"max rel err grad={worst_g:.2e} hess={worst_h:.2e}")
        assert worst_g < 1e-6
        assert worst_h < 1e-4
        assert elapsed < 30


class TestCriterion2Bounds:
    """Closed-form stationarity bound vs dense grid evaluation."""

    def test_closed_form_matches_grid(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(7)
        worst = 0.0
        for kind in (M1, M2):
            for trial in range(200):
                g0 = rng.uniform(0.05, 2.0) if kind is M1 else rng.uniform(1.05, 3.0)
                # half the draws exercise the r <= 1/2 boundary branch
                r = rng.uniform(0.05, 0.5) if trial % 2 else rng.uniform(0.5, 2.5)
                pf = PersistenceParams(g0, float(rng.uniform(0.0, 2.0)), float(r))
                closed = a1_bound_closed_form(kind, pf)
                numeric = a1_bound_numeric(kind, pf)
                worst = max(worst, abs(numeric - closed) / max(closed, 1e-12))
        published = {
            M1: [(0.3734, 0.0649, 0.3198), (0.4453, 0.0736, 0.4036),
                 (0.3701, 0.0945, 0.3315)],
            M2: [(1.1808, 0.0785, 0.5596), (1.1346, 0.0973, 0.5628),
                 (1.1705, 0.0884, 0.4555)],
        }
        published_ok = all(
            a1_bound_closed_form(kind, PersistenceParams(*vals)) < 1.0
            for kind, sets in published.items()
            for vals in sets
        )
        elapsed = time.monotonic() - t0
        ok = worst < 1e-3 and published_ok and elapsed < 60
        verdict(2, "stationarity bound formulas", ok, elapsed,
                f"max rel err={worst:.2e} published sets < 1: {published_ok}")
        assert worst < 1e-3
        assert published_ok
        assert elapsed < 60


class TestCriterion3Recovery:
    """QML parameter recovery and asymptotic-normality calibration.

    The paper's consistency and asymptotic-normality results hold for an
    identified model satisfying A1, so calibration of the Wald statistics
    is tested at `m1_identified_truth`: it satisfies A1 and its
    nonlinearity is worth about 30 nats over the best AR(1) at n = 5000.

    The paper's own M1 estimates (`m1_truth`) are only weakly identified
    at this n: their states span a range over which the model is nearly
    linear (about 0.37 nats over the best AR(1)), fits land on the
    gamma1 = 0 and gamma0 = -2 ridges, and Wald intervals are not valid
    there (Andrews 1999; Davies 1987). At that truth the test checks
    only what the QMLE promises: the fit's likelihood is at least the
    truth's, and the fitted conditional mean tracks the true one over
    the bulk of each path, which the iid-noise local maximum described
    in `_start_points` does not.
    """

    def test_recovery_at_n5000(self):
        t0 = time.monotonic()
        truth = m1_identified_truth()
        assert check_assumptions(M1, truth.pf).a1_satisfied
        theta0 = truth.to_array()
        zs, covered, singular = [], [], 0
        for seed in range(50):
            y = simulate(truth, 5000, seed=1000 + seed)
            res = fit(y, M1, n_starts=8, seed=seed)
            if res.std_errors is None or np.any(res.std_errors == 0):
                singular += 1
                continue
            z = np.abs(res.theta_hat.to_array() - theta0) / res.std_errors
            zs.append(z)
            covered.append(z <= 1.96)
        zs = np.array(zs)
        med = np.median(zs, axis=0)
        coverage = float(np.mean(covered))
        elapsed = time.monotonic() - t0
        ok = bool(np.all(med <= 2.0) and 0.88 <= coverage <= 0.99 and elapsed < 600)
        verdict(3, "parameter recovery", ok, elapsed,
                f"median |z|={np.round(med, 2)} coverage={coverage:.3f} "
                f"singular={singular}/50")
        assert np.all(med <= 2.0), (
            "studentized errors too large; gamma1/r weakly identified"
        )
        assert 0.88 <= coverage <= 0.99
        assert elapsed < 600

    def test_paper_estimates_fit_dominates_truth(self):
        truth = m1_truth()
        worst_gain, worst_miss = np.inf, 0.0
        for seed in range(50):
            y = simulate(truth, 5000, seed=1000 + seed)
            res = fit(y, M1, n_starts=8, seed=seed)
            gain = res.loglik - loglik(truth, y)
            grid = np.linspace(*np.quantile(y.values, [0.05, 0.95]), 201)
            miss = np.max(np.abs(conditional_mean(res.theta_hat, grid)
                                 - conditional_mean(truth, grid)))
            worst_gain = min(worst_gain, gain)
            worst_miss = max(worst_miss, miss)
            assert gain >= 0.0, f"seed {seed}: fit below the truth by {-gain:.3g}"
            assert miss <= 0.1, f"seed {seed}: conditional mean off by {miss:.3f}"
        print(f"criterion 3 (paper estimates): min loglik gain={worst_gain:.3f} "
              f"max conditional-mean miss={worst_miss:.3f}", flush=True)


class TestCriterion4Ar1Reduction:
    """Pinned-gamma1 QML equals the closed-form AR(1) conditional MLE."""

    def test_matches_closed_form(self):
        t0 = time.monotonic()
        box = ParamBox.default(M1).pin("gamma1", 0.0).pin("r", 0.5)
        worst = 0.0
        for seed in range(20):
            y = gen_ar1(400, seed=seed)
            lag, target = y[:-1], y[1:]
            X = np.column_stack([np.ones(lag.size), lag])
            coef, *_ = np.linalg.lstsq(X, target, rcond=None)
            resid = target - X @ coef
            sigma = float(np.sqrt(np.mean(resid**2)))
            res = fit(TimeSeries(y), M1, box=box, n_starts=4, seed=seed)
            got = np.array(
                [res.theta_hat.alpha, res.theta_hat.pf.gamma0, res.theta_hat.sigma]
            )
            want = np.array([coef[0], -np.log(coef[1]), sigma])
            worst = max(worst, float(np.max(np.abs(got - want))))
        elapsed = time.monotonic() - t0
        ok = worst < 1e-4 and elapsed < 60
        verdict(4, "AR(1) reduction", ok, elapsed, f"max abs err={worst:.2e}")
        assert worst < 1e-4
        assert elapsed < 60


class TestCriterion5McForecast:
    """MC forecast means vs closed-form AR(1) multi-step means."""

    def test_ar1_subcase_means(self):
        t0 = time.monotonic()
        alpha, g0, sigma = -1.0, 0.4, 0.5
        phi = np.exp(-g0)
        params = SdarParams(alpha, PersistenceParams(g0, 0.0, 0.5), sigma, M1)
        y_n = -2.3
        fc = mc_forecast_sdar(params, y_n, H=5, M=100_000, seed=11)
        h = np.arange(1, 6)
        exact = alpha * (1 - phi**h) / (1 - phi) + phi**h * y_n
        dev = np.abs(fc.means - exact) / fc.mc_std_error()
        elapsed = time.monotonic() - t0
        ok = bool(np.all(dev < 4.0)) and elapsed < 60
        verdict(5, "MC forecast convergence", ok, elapsed,
                f"max deviation={dev.max():.2f} MC std errors")
        assert np.all(dev < 4.0)
        assert elapsed < 60


class TestCriterion6SetarRecovery:
    """SETAR coefficient/threshold recovery and lag-order selection."""

    def test_recovery_and_selection(self):
        t0 = time.monotonic()
        truth_coef = np.r_[SETAR_C1, SETAR_PHI1, SETAR_C2, SETAR_PHI2]
        recovered = selected = 0
        n_seeds = 30
        for seed in range(n_seeds):
            y = gen_setar(5000, seed=seed)
            f = fit_setar(TimeSeries(y), 3, 3)
            est = np.r_[f.c1, f.phi1, f.c2, f.phi2]

            # regression standard errors at the fitted threshold
            p = 3
            target = y[p:]
            z = y[p - 1 : -1]
            X = np.column_stack(
                [np.ones(target.size)] + [y[p - i : y.size - i] for i in (1, 2, 3)]
            )
            low = z <= f.threshold
            se = np.r_[
                f.sigma1 * np.sqrt(np.diag(np.linalg.inv(X[low].T @ X[low]))),
                f.sigma2 * np.sqrt(np.diag(np.linalg.inv(X[~low].T @ X[~low]))),
            ]
            coef_ok = np.all(np.abs(est - truth_coef) <= 4 * se)

            # within one grid step: no more than one sample threshold
            # candidate strictly between the estimate and the truth
            lo, hi = sorted((f.threshold, SETAR_THRESHOLD))
            thr_ok = np.sum((z > lo) & (z < hi)) <= 1
            recovered += bool(coef_ok and thr_ok)

            best = select_setar(TimeSeries(y), max_lag=4)
            selected += (best.d1, best.d2) == (3, 3)
        elapsed = time.monotonic() - t0
        ok = (recovered >= 0.9 * n_seeds and selected >= 0.8 * n_seeds
              and elapsed < 600)
        verdict(6, "SETAR recovery", ok, elapsed,
                f"recovered {recovered}/{n_seeds} selected (3,3) "
                f"{selected}/{n_seeds}")
        assert recovered >= 0.9 * n_seeds
        assert selected >= 0.8 * n_seeds
        assert elapsed < 600


class TestCriterion7CompareHarness:
    """Out-of-sample SDAR vs SETAR accuracy on SDAR-generated data."""

    def test_sdar_beats_setar_majority_of_horizons(self):
        t0 = time.monotonic()
        truth = SdarParams(0.0, PersistenceParams(0.05, 0.3, 1.0), 0.5, M1)
        H, n_seeds = 10, 20
        re_sum = np.zeros(H)
        for seed in range(n_seeds):
            y = simulate(truth, 1040, seed=100 + seed)
            from sdar import split

            train, test = split(y, 1000)
            sdar_fit = fit(train, M1, n_starts=8, seed=seed)
            setar_fit = select_setar(train, max_lag=3)

            def fc_sdar(history, z):
                return sdar_paths(sdar_fit, history[-1], z).mean(axis=1)

            def fc_setar(history, z):
                return setar_paths(setar_fit, history, z).mean(axis=1)

            acc_sdar, acc_setar = rolling_evaluate(
                [fc_sdar, fc_setar], train, test, H, M=2000, seed=seed)
            re_sum += relative_efficiency(acc_sdar, acc_setar)[1]  # msfe row
        re_avg = re_sum / n_seeds
        wins = int(np.sum(re_avg[1:] < 1.0))  # horizons 2..10
        elapsed = time.monotonic() - t0
        ok = wins >= 5 and elapsed < 900
        verdict(7, "comparison harness", ok, elapsed,
                f"avg MSFE RE<1 at {wins}/9 horizons 2..10")
        assert wins >= 5
        assert elapsed < 900


class TestCriterion8StructuralAnchors:
    """Pipeline bookkeeping facts that must hold exactly."""

    def test_weekly_aggregation_count(self):
        t0 = time.monotonic()
        returns = TimeSeries(np.random.default_rng(0).standard_normal(3890) * 0.01)
        n_weeks = len(realized_volatility(returns, week_len=5))
        ok_weeks = n_weeks == 778

        # published per-market AIC pairs; lower wins
        pairs = [(1124.54, 1134.30), (1148.82, 1157.05), (1151.36, 1135.19)]
        picks = []
        for a_m1, a_m2 in pairs:
            stub = lambda a: FitResult(
                theta_hat=m1_truth(), covariance=None, std_errors=None,
                loglik=0.0, aic=a, n_obs=778, converged=True, n_starts=1,
                grad_norm=0.0,
            )
            picks.append(select_model([stub(a_m1), stub(a_m2)]))
        ok_aic = picks == [0, 0, 1]

        # one-step SETAR regime is decided by observed data, so the
        # h=1 path spread must equal the single active regime's sigma,
        # not a mixture of the two
        y = gen_setar(2000, seed=42)
        f = fit_setar(TimeSeries(y), 3, 3)
        f2 = replace(f, sigma1=0.1, sigma2=0.4)
        fc = mc_forecast_setar(f2, y, H=1, M=40_000, seed=5)
        active = f2.sigma1 if y[-1] <= f2.threshold else f2.sigma2
        ok_regime = abs(fc.path_std[0] - active) / active < 0.03

        elapsed = time.monotonic() - t0
        ok = ok_weeks and ok_aic and ok_regime
        verdict(8, "structural anchors", ok, elapsed,
                f"weeks={n_weeks} aic picks={picks} "
                f"h1 spread={fc.path_std[0]:.4f} vs {active}")
        assert ok_weeks
        assert ok_aic
        assert ok_regime
