import math
import warnings

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
    loglik_grad,
    loglik_hess,
    residuals,
    sandwich_cov,
    select_model,
    simulate,
)

from sdar import estimation
from sdar.estimation import _ProfileKernel, _start_points
from sdar.model import _per_obs_score
from sdar.persistence import _grad_stack, _log_abs, _log_y2, _parts

from conftest import gen_ar1, m1_identified_truth, m1_truth

M1, M2 = PersistenceKind.M1, PersistenceKind.M2


def _profile(phi, series, kind, box):
    """theta at phi with alpha and sigma at their box-constrained maximizers.

    Built from `residuals`, independently of `_ProfileKernel.profile`.
    """
    theta = np.array([0.0, *phi, 1.0])
    u = residuals(SdarParams.from_array(theta, kind), series)
    theta[0] = np.clip(np.mean(u), box.lower[0], box.upper[0])
    theta[4] = np.clip(np.sqrt(np.mean((u - theta[0]) ** 2)), box.lower[4], box.upper[4])
    return SdarParams.from_array(theta, kind)


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

    @pytest.mark.parametrize("n_lower, n_upper", [(4, 5), (5, 6)])
    def test_rejects_wrong_length(self, n_lower, n_upper):
        with pytest.raises(ValueError, match="length 5"):
            ParamBox(np.zeros(n_lower), np.ones(n_upper))

    def test_rejects_zero_volume(self):
        point = ParamBox.default(M1).lower
        with pytest.raises(ValueError, match="positive volume"):
            ParamBox(point, point.copy())


class TestStartInterior:
    # gamma1 and r pinned, as in the AR(1) reduction of criterion 4
    BOX = ParamBox.default(M1).pin("gamma1", 0.0).pin("r", 0.7)
    SERIES = simulate(m1_truth(), 400, seed=11)
    LAG = SERIES.values[:-1]

    def assert_interior(self, pts, box=BOX):
        # starts live in phi = (gamma0, gamma1, r)
        lower, upper = box.lower[1:4], box.upper[1:4]
        free = upper > lower
        pts = np.atleast_2d(pts)
        assert pts.shape[1] == 3
        assert np.all(pts[:, ~free] == lower[~free])
        assert np.all(pts[:, free] > lower[free])
        assert np.all(pts[:, free] < upper[free])

    @pytest.mark.parametrize("box", [BOX, ParamBox.default(M1), ParamBox.default(M2)],
                             ids=["pinned", "M1", "M2"])
    def test_design_inside_box(self, box):
        self.assert_interior(_start_points(self.SERIES, M1, box, 16, seed=2), box)

    def test_design_one_point_per_stratum(self):
        # rows 1.. stratify gamma0 and r on the box, kappa = gamma1 c^(2r) on
        # log10 in [-4, 1]; gamma1 values clipped into the box leave their stratum
        n, box = 16, ParamBox.default(M1)
        lo, hi = box.lower[1:4], box.upper[1:4]
        g0, g1, r = _start_points(self.SERIES, M1, box, n, seed=3)[1:].T
        for x, i in ((g0, 0), (r, 2)):
            strata = np.floor(n * (x - lo[i]) / (hi[i] - lo[i])).astype(int)
            np.testing.assert_array_equal(np.sort(strata), np.arange(n))
        c, margin = np.median(np.abs(self.LAG)), 1e-4 * (hi[1] - lo[1])
        free = (g1 > lo[1] + margin) & (g1 < hi[1] - margin)
        kappa = g1[free] * c ** (2.0 * r[free])
        strata = np.floor(n * (np.log10(kappa) + 4.0) / 5.0).astype(int)
        assert free.sum() >= n // 2
        assert len(set(strata)) == strata.size
        assert strata.min() >= 0 and strata.max() < n

    def test_same_seed_same_design(self):
        box = ParamBox.default(M2)
        a = _start_points(self.SERIES, M2, box, 12, seed=5)
        assert a.shape == (13, 3)
        np.testing.assert_array_equal(a, _start_points(self.SERIES, M2, box, 12, seed=5))
        assert not np.array_equal(a, _start_points(self.SERIES, M2, box, 12, seed=6))

    def test_warm_start(self):
        # row 0 maps the AR(1) slope; an alternating series has a negative
        # one, which maps past the gamma0 upper bound and forces the clip
        y = (-1.0) ** np.arange(200) + 0.1 * gen_ar1(200, seed=3)
        phi = _start_points(TimeSeries(y), M1, self.BOX, 4, seed=0)[0]
        assert phi[0] == pytest.approx(self.BOX.upper[1] - 7e-4)
        self.assert_interior(phi)
        # in the default box, gamma1 = 0.05 and r = 0.5 lie inside and stay
        phi = _start_points(TimeSeries(y), M2, ParamBox.default(M2), 0, seed=0)
        np.testing.assert_array_equal(phi[:, 1:], [[0.05, 0.5]])


class TestProfile:
    """alpha and sigma at their closed-form box maximizers for fixed phi."""

    TRUTH = m1_identified_truth()
    Y = simulate(TRUTH, 500, seed=50)
    PHI = TRUTH.to_array()[1:4]

    def profile_ll(self, phi, box):
        return loglik(_profile(phi, self.Y, M1, box), self.Y)

    @staticmethod
    def box_with(i, lower, upper):
        box = ParamBox.default(M1)
        lo, hi = box.lower.copy(), box.upper.copy()
        lo[i], hi[i] = lower, upper
        return ParamBox(lo, hi)

    def test_beats_perturbations(self):
        box = ParamBox.default(M1)
        theta = _profile(self.PHI, self.Y, M1, box).to_array()
        best = loglik(SdarParams.from_array(theta, M1), self.Y)
        for i in (0, 4):
            for step in (-1e-3, 1e-3):
                other = theta.copy()
                other[i] += step
                assert best > loglik(SdarParams.from_array(other, M1), self.Y)

    # the unconstrained maximizers sit near the truth's alpha -1.5 and sigma 1
    @pytest.mark.parametrize(
        "i, lower, upper, want",
        [(0, -10.0, -2.0, -2.0), (4, 1e-4, 0.5, 0.5), (4, 2.0, 10.0, 2.0)],
        ids=["alpha-upper", "sigma-upper", "sigma-lower"],
    )
    def test_binding_bound_is_returned(self, i, lower, upper, want):
        box = self.box_with(i, lower, upper)
        assert _profile(self.PHI, self.Y, M1, box).to_array()[i] == want

    def test_pinned_alpha_and_sigma_exact(self):
        box = ParamBox.default(M1).pin("alpha", -1.25).pin("sigma", 0.8)
        res = fit(self.Y, M1, box=box, n_starts=2, seed=0)
        assert res.theta_hat.alpha == -1.25
        assert res.theta_hat.sigma == 0.8

    @pytest.mark.parametrize("alpha_upper", [10.0, -2.0], ids=["interior", "clipped"])
    def test_gradient_is_phi_block(self, alpha_upper):
        box = self.box_with(0, -10.0, alpha_upper)
        params = _profile(self.PHI, self.Y, M1, box)
        assert (params.alpha == -2.0) == (alpha_upper == -2.0)
        grad = loglik_grad(params, self.Y)[1:4]
        fd = np.empty(3)
        for j in range(3):
            h = 1e-6 * max(1.0, abs(self.PHI[j]))
            up, down = self.PHI.copy(), self.PHI.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (self.profile_ll(up, box) - self.profile_ll(down, box)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-4)


def with_zeros(series):
    """The series with exact zeros at 0, 17 and 250, as in `test_series_with_exact_zero`."""
    y = series.values.copy()
    y[[0, 17, 250]] = 0.0
    return TimeSeries(y)


def reference_objective(series, kind, box):
    """The profile objective composed from `_profile`, `loglik` and `loglik_grad`."""

    def neg_profile_and_grad(phi):
        params = _profile(phi, series, kind, box)
        return -loglik(params, series), -loglik_grad(params, series)[1:4]

    return neg_profile_and_grad


class TestProfileKernel:
    """The fused kernel returns the reference objective's numbers bit for bit,
    so the optimizer takes the same path and a fit keeps its bytes."""

    M2_TRUTH = SdarParams(-1.5, PersistenceParams(1.5, 0.1, 0.5), 0.5, M2)
    PHI = m1_identified_truth().to_array()[1:4]

    @staticmethod
    def assert_identical(series, kind, box, phis):
        kernel = _ProfileKernel(series, kind, box)
        reference = reference_objective(series, kind, box)
        for phi in phis:
            assert np.array_equal(
                kernel.profile(phi).to_array(), _profile(phi, series, kind, box).to_array()
            )
            value, grad = kernel(phi)
            ref_value, ref_grad = reference(phi)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)

    @staticmethod
    def random_phis(box, count, seed):
        lo, hi = box.lower[1:4], box.upper[1:4]
        return lo + np.random.default_rng(seed).random((count, 3)) * (hi - lo)

    @pytest.mark.parametrize("kind", [M1, M2])
    @pytest.mark.parametrize("truth", ["M1", "M2"])
    def test_random_phi(self, kind, truth):
        params = m1_truth() if truth == "M1" else self.M2_TRUTH
        y = simulate(params, 2000, seed=60)
        box = ParamBox.default(kind)
        self.assert_identical(y, kind, box, self.random_phis(box, 100, seed=61))

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_box_edges(self, kind):
        y = simulate(m1_identified_truth(), 500, seed=50)
        box = ParamBox.default(kind)
        lo, hi = box.lower[1:4], box.upper[1:4]
        edges = [np.array([g0, g1, r]) for g0 in (lo[0], hi[0])
                 for g1 in (lo[1], hi[1]) for r in (lo[2], hi[2])]
        self.assert_identical(y, kind, box, edges)

    @pytest.mark.parametrize(
        "i, lower, upper",
        [(0, -10.0, -2.0), (4, 1e-4, 0.5), (4, 2.0, 10.0)],
        ids=["alpha-upper", "sigma-upper", "sigma-lower"],
    )
    def test_clipped_alpha_and_sigma(self, i, lower, upper):
        y = simulate(m1_identified_truth(), 500, seed=50)
        box = TestProfile.box_with(i, lower, upper)
        assert _profile(self.PHI, y, M1, box).to_array()[i] in (lower, upper)
        self.assert_identical(y, M1, box, [self.PHI, *self.random_phis(box, 20, seed=62)])

    def test_pinned_gamma1_and_r(self):
        # criterion 4's path: only gamma0 moves
        box = ParamBox.default(M1).pin("gamma1", 0.0).pin("r", 0.5)
        y = TimeSeries(gen_ar1(400, seed=3))
        self.assert_identical(y, M1, box, self.random_phis(box, 20, seed=63))

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_series_with_exact_zero(self, kind):
        y = simulate(m1_truth(), 500, seed=64).values.copy()
        y[[0, 17, 250]] = [0.0, -0.0, 0.0]  # both signs of zero
        box = ParamBox.default(kind)
        self.assert_identical(TimeSeries(y), kind, box, self.random_phis(box, 30, seed=65))

    # the last three go through the exact-zero lags, the pinned box of criterion 4
    # and a sigma floor above the fitted sigma on the optimizer's own iterates
    @pytest.mark.parametrize(
        "kind, y, box",
        [
            (M1, simulate(m1_truth(), 400, seed=77), None),
            (M2, simulate(m1_truth(), 400, seed=77), None),
            (M2, with_zeros(simulate(m1_truth(), 400, seed=77)), None),
            (M1, TimeSeries(gen_ar1(400, seed=3)),
             ParamBox.default(M1).pin("gamma1", 0.0).pin("r", 0.5)),
            (M1, simulate(m1_truth(), 400, seed=77), TestProfile.box_with(4, 2.0, 10.0)),
        ],
        ids=[str(M1), str(M2), "exact-zero", "pinned", "sigma-clipped"],
    )
    def test_fit_matches_reference_objective(self, kind, y, box, monkeypatch):
        fused = fit(y, kind, box=box, n_starts=4, seed=1).to_json()
        built = []

        class Reference(_ProfileKernel):
            """Optimizes the reference objective; `fit` still profiles through it."""

            def __init__(self, *args):
                super().__init__(*args)
                built.append(args)
                self.reference = reference_objective(*args)

            def __call__(self, phi):
                return self.reference(phi)

        monkeypatch.setattr(estimation, "_ProfileKernel", Reference)
        assert fit(y, kind, box=box, n_starts=4, seed=1).to_json() == fused
        assert len(built) == 1

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_pieces_are_the_model_terms_on_every_lane(self, kind, monkeypatch):
        # a call's w, psi, ln(y^2) and psi gradient stack are those of `_parts` and
        # `_grad_stack` from one ln|y|, bit for bit, on +-0 lags, subnormal |y| and
        # lanes where |y|^(2r) overflows (the kernel is not validated, so r = 200 too)
        rng = np.random.default_rng(70)
        y = rng.standard_normal(400)
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e100, -1e150, 3e307]
        y[rng.permutation(399)[: 4 * len(edges)]] = np.repeat(edges, 4)
        seen = []

        def spy(*args, out):
            seen.append([a.copy() for a in args[1:4]] + [_grad_stack(*args, out=out).copy()])
            return out

        monkeypatch.setattr(estimation, "_grad_stack", spy)
        box = ParamBox.default(kind)
        kernel = _ProfileKernel(TimeSeries(y), kind, box)
        la = _log_abs(y[:-1])
        phis = [*self.random_phis(box, 30, seed=71), [box.upper[1], 0.0, 200.0],
                [box.lower[1], 1e-3, 200.0], [box.lower[1], 5e-324, 3.0]]
        for phi in phis:
            g0, g1, r = map(float, phi)
            with np.errstate(all="ignore"):  # inf * 0 on the overflow lanes, here as in the kernel
                kernel(phi)
                w, ps = _parts(kind, la, g0, g1, r)
                want = [w, ps, _log_y2(la), _grad_stack(kind, w, ps, _log_y2(la), g1)]
            got = seen.pop()
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], phi
            assert w[y[:-1] == 0.0].tobytes() == np.zeros(8).tobytes()
        assert np.isinf(w).any() and not seen

    def test_results_and_series_survive_later_calls(self):
        y = simulate(m1_truth(), 500, seed=66)
        before, box = y.values.copy(), ParamBox.default(M1)
        phis = self.random_phis(box, 100, seed=67)
        kernel = _ProfileKernel(y, M1, box)
        grad = kernel(phis[0])[1]
        kept = grad.copy()
        for phi in phis[1:]:
            kernel(phi)
        assert np.array_equal(grad, kept)
        assert np.array_equal(y.values, before)

    def test_kernels_on_one_series_do_not_share_buffers(self):
        y = simulate(m1_truth(), 500, seed=68)
        kinds = (M1, M2)
        phis = [self.random_phis(ParamBox.default(k), 20, seed=69) for k in kinds]
        alone = []
        for kind, points in zip(kinds, phis):
            kernel = _ProfileKernel(y, kind, ParamBox.default(kind))
            alone.append([kernel(phi) for phi in points])
        kernels = [_ProfileKernel(y, k, ParamBox.default(k)) for k in kinds]
        for i in range(20):
            for j in range(2):
                value, grad = kernels[j](phis[j][i])
                assert value == alone[j][i][0]
                assert np.array_equal(grad, alone[j][i][1])


def quadratic(A, c):
    """f(x) = (x - c)' A (x - c) / 2 and its gradient, recording each x evaluated."""
    A, c, seen = np.asarray(A, dtype=float), np.asarray(c, dtype=float), []

    def objective(x):
        seen.append(np.array(x))
        r = x - c
        return 0.5 * r @ A @ r, A @ r

    objective.seen = seen
    return objective


class TestMinimize:
    """The box-constrained quasi-Newton polish on convex quadratics over [0, 1]^3."""

    A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.5]])
    LO, HI = np.zeros(3), np.ones(3)

    def run(self, c, x0=(0.5, 0.5, 0.5), A=None):
        objective = quadratic(self.A if A is None else A, c)
        return estimation.minimize(objective, np.array(x0), self.LO, self.HI)

    def test_minimum_inside_the_box(self):
        c = np.array([0.3, 0.6, 0.4])
        res = self.run(c)
        np.testing.assert_allclose(res.x, c, rtol=0, atol=1e-8)
        assert res.fun == pytest.approx(0.0, abs=1e-15)

    def test_minimum_past_one_face(self):
        c = np.array([0.4, 0.5, 1.6])
        # KKT point: x3 on its upper bound, (x1, x2) minimize over that face
        free = c[:2] - np.linalg.solve(self.A[:2, :2], self.A[:2, 2] * (1.0 - c[2]))
        want = np.array([*free, 1.0])
        assert np.all((free > 0) & (free < 1)) and (self.A @ (want - c))[2] < 0
        np.testing.assert_allclose(self.run(c).x, want, rtol=0, atol=1e-8)

    def test_minimum_past_a_corner(self):
        c = np.array([1.8, -0.7, 1.9])
        want = np.array([1.0, 0.0, 1.0])
        g = self.A @ (want - c)
        assert g[0] < 0 and g[1] > 0 and g[2] < 0  # every bound holds its coordinate
        np.testing.assert_allclose(self.run(c).x, want, rtol=0, atol=1e-8)

    def test_start_on_a_bound_where_the_newton_direction_points_out(self):
        # After the first (steepest-descent) step, x2 sits on its lower bound
        # with g2 = 0 and the quasi-Newton direction points below it: a step
        # capped at the box would have length 0. x2 must leave the free block.
        A, c = np.diag([2.0, 3.0, 4.0]), np.array([1.25, 0.0, 0.25])
        res = self.run(c, x0=(0.0, 0.25, 0.0), A=A)
        np.testing.assert_allclose(res.x, [1.0, 0.0, 0.25], rtol=0, atol=1e-8)

    def test_pinned_coordinates_never_move(self):
        # criterion 4's box: only gamma0 moves, to the AR(1) closed form
        y = gen_ar1(400, seed=3)
        box = ParamBox.default(M1).pin("gamma1", 0.0).pin("r", 0.5)
        kernel, seen = _ProfileKernel(TimeSeries(y), M1, box), []

        def objective(phi):
            seen.append(phi.copy())
            return kernel(phi)

        res = estimation.minimize(objective, [1.0, 0.0, 0.5], box.lower[1:4], box.upper[1:4])
        assert len(seen) > 2 and all(phi[1] == 0.0 and phi[2] == 0.5 for phi in seen)
        slope = ols_ar1(y)[1]
        assert res.x[0] == pytest.approx(-math.log(slope), abs=1e-6)

    def test_infinite_value_is_backtracked(self):
        c = np.array([0.5, 0.5, 0.5])
        finite = quadratic(np.eye(3), c)

        def objective(x):
            value, grad = finite(x)
            return (value if x[0] >= 0.25 else np.inf), grad

        # the first step, -g/|g| capped at the box, lands on x1 = 0
        res = estimation.minimize(objective, [0.75, 0.5, 0.5], self.LO, self.HI)
        assert any(x[0] < 0.25 for x in finite.seen)
        assert np.isfinite(res.fun)
        np.testing.assert_allclose(res.x, c, rtol=0, atol=1e-8)


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


class TestConvergedRule:
    """`converged` holds when a Newton step on the free coordinates would
    gain at most 1e-9 * max(1, |loglik|)."""

    def test_false_off_the_optimum(self):
        y, box = simulate(m1_identified_truth(), 2000, seed=21), ParamBox.default(M1)

        def rule(theta):
            p = SdarParams.from_array(theta, M1)
            pg = estimation._projected_grad(theta, loglik_grad(p, y), box.lower, box.upper)
            return estimation._converged(pg, loglik_hess(p, y), loglik(p, y))

        res = fit(y, M1, n_starts=4, seed=0)
        theta = res.theta_hat.to_array()
        assert res.converged and rule(theta)
        theta[0] += 0.01
        assert not rule(theta)

    def test_push_without_curvature_fails(self):
        pg, hess = np.array([0.0, 1e-12, 0.0, 0.0, 0.0]), -np.eye(5)
        assert estimation._converged(pg, hess, -100.0)
        hess[1, 1] = 0.0
        assert not estimation._converged(pg, hess, -100.0)


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
        assert res.theta_hat.pf.gamma1 == 0.0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="short"):
            fit(TimeSeries(np.arange(10.0)), M1)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit(TimeSeries(np.ones(50)), M1)

    @pytest.mark.parametrize("n_starts", [-1, -3])
    def test_negative_n_starts_rejected(self, n_starts):
        y = simulate(m1_truth(), 300, seed=15)
        with pytest.raises(ValueError, match="n_starts"):
            fit(y, M1, n_starts=n_starts)

    def test_numpy_integer_n_starts_writes_the_int_json(self):
        y = simulate(m1_truth(), 300, seed=15)
        assert fit(y, M1, n_starts=np.int64(4)).to_json() == fit(y, M1, n_starts=4).to_json()

    @pytest.mark.parametrize("n_starts", [4.0, 2.5, True])
    def test_float_n_starts_rejected(self, n_starts):
        y = simulate(m1_truth(), 300, seed=15)
        with pytest.raises(ValueError, match="n_starts must be an integer"):
            fit(y, M1, n_starts=n_starts)

    # each is a lower bound, so a valid lower corner makes the whole box valid
    @pytest.mark.parametrize(
        "kind, i, lower",
        [(M1, 2, -0.1), (M1, 3, 0.0), (M2, 1, 1.0)],
        ids=["gamma1-negative", "r-zero", "M2-gamma0-one"],
    )
    def test_invalid_box_rejected_before_any_evaluation(self, kind, i, lower, monkeypatch):
        evaluated = []

        class Spy(_ProfileKernel):
            def __call__(self, phi):
                evaluated.append(phi)
                return super().__call__(phi)

            def profile(self, phi):
                evaluated.append(phi)
                return super().profile(phi)

        monkeypatch.setattr(estimation, "_ProfileKernel", Spy)
        default = ParamBox.default(kind)
        lo = default.lower.copy()
        lo[i] = lower
        with pytest.raises(ValueError):
            fit(simulate(m1_truth(), 300, seed=15), kind, box=ParamBox(lo, default.upper))
        assert evaluated == []

    def test_zero_n_starts_runs_the_warm_start_only(self, monkeypatch):
        real, runs = estimation.minimize, []

        def counted(*args, **kwargs):
            runs.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(estimation, "minimize", counted)
        y = simulate(m1_truth(), 300, seed=15)
        res = fit(y, M1, n_starts=0)
        assert res.n_starts == 0
        np.testing.assert_array_equal(runs, _start_points(y, M1, ParamBox.default(M1), 0, 0))

    def test_polishes_best_screened_starts_in_design_order(self, monkeypatch):
        real, runs = estimation.minimize, []

        def counted(*args, **kwargs):
            runs.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(estimation, "minimize", counted)
        y, box, k = simulate(m1_truth(), 300, seed=15), ParamBox.default(M1), estimation._POLISHED
        fit(y, M1, n_starts=10, seed=4)
        design = _start_points(y, M1, box, 10, seed=4)
        screen = np.array([_ProfileKernel(y, M1, box)(phi)[0] for phi in design])
        assert len(runs) == k
        picked = [int(np.flatnonzero((design == phi).all(axis=1))[0]) for phi in runs]
        assert picked == sorted(picked)
        rest = np.setdiff1d(np.arange(11), picked)
        assert screen[picked].max() <= screen[rest].min()

    def test_mostly_zero_series_fits_without_warning(self):
        # median |y| = 0 leaves the design no typical |y| to scale by
        y = np.zeros(300)
        y[::3] = gen_ar1(100, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(TimeSeries(y), M1, n_starts=8, seed=1)
        assert np.isfinite(res.loglik)
        assert np.all(np.isfinite(res.theta_hat.to_array()))
        # gamma1 still spreads over the box instead of piling on its upper clip
        design = _start_points(TimeSeries(y), M1, ParamBox.default(M1), 8, seed=1)
        assert np.unique(design[1:, 1]).size == 8

    def test_json_roundtrip(self):
        with_se = fit(simulate(m1_truth(), 300, seed=17), M1, n_starts=4, seed=9)
        # the singular-Hessian fit of TestSandwich, which has no covariance
        p = SdarParams(0.0, PersistenceParams(40.0, 0.0, 1.0), 1.0, M1)
        box = ParamBox(np.array([-10.0, 40.0, 0.0, 1.0, 1e-4]),
                       np.array([10.0, 40.0, 0.0, 1.0, 10.0]))
        without = fit(simulate(p, 250, seed=20), M1, box=box, n_starts=4, seed=10)
        assert with_se.std_errors is not None
        assert without.std_errors is None and without.covariance is None
        for res in (with_se, without):
            text = res.to_json()
            assert FitResult.from_json(text).to_json() == text


class TestSandwich:
    def test_assembly_matches_definition(self):
        # cov must equal Hbar^{-1} G Hbar^{-1} / n, with Hbar the mean
        # Hessian and G the mean outer product of per-observation scores
        p = m1_truth()
        y = simulate(p, 400, seed=30)
        cov = sandwich_cov(p, y)
        scores = _per_obs_score(p, y)
        n = scores.shape[1]
        assert n == len(y) - 1
        h_inv = np.linalg.inv(loglik_hess(p, y) / n)
        g = scores @ scores.T / n
        assert cov.shape == (5, 5)
        np.testing.assert_allclose(cov, h_inv @ g @ h_inv / n, rtol=1e-10)
        np.testing.assert_array_equal(sandwich_cov(p, y, loglik_hess(p, y)), cov)

    def test_matrices_symmetric(self):
        y = simulate(m1_truth(), 500, seed=18)
        cov = sandwich_cov(m1_truth(), y)
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
