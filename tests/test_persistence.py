import numpy as np
import pytest

from sdar import (
    ParamBox,
    PersistenceKind,
    PersistenceParams,
    SdarParams,
    a1_bound_closed_form,
    a1_bound_numeric,
    check_assumptions,
    fit,
    psi,
    psi_dy,
    simulate,
)
from sdar.persistence import (_Y_MAX_CAP, _default_y_max, _grad_stack, _hess_stack, _log_y2,
                               _parts)

from conftest import m1_truth

M1, M2 = PersistenceKind.M1, PersistenceKind.M2

# Published parameter estimates (CAC40 / DAX30 / FTSE100) used as
# realistic feasibility anchors.
PUBLISHED = {
    M1: [
        PersistenceParams(0.3734, 0.0649, 0.3198),
        PersistenceParams(0.4453, 0.0736, 0.4036),
        PersistenceParams(0.3701, 0.0945, 0.3315),
    ],
    M2: [
        PersistenceParams(1.1808, 0.0785, 0.5596),
        PersistenceParams(1.1346, 0.0973, 0.5628),
        PersistenceParams(1.1705, 0.0884, 0.4555),
    ],
}


def random_params(kind, rng):
    g0 = rng.uniform(-1.0, 2.0) if kind is M1 else rng.uniform(1.05, 3.0)
    return PersistenceParams(g0, rng.uniform(0.01, 2.0), rng.uniform(0.1, 2.0))


def fd_best(f, x, steps=(1e-5, 1e-6, 1e-7)):
    """Central finite difference with best-step selection (Richardson-free)."""
    estimates = [np.asarray((f(x + h) - f(x - h)) / (2 * h)) for h in steps]
    # The pair of steps agreeing best brackets the optimal step.
    diffs = [
        np.linalg.norm(estimates[i] - estimates[i + 1])
        for i in range(len(steps) - 1)
    ]
    return estimates[int(np.argmin(diffs))]


def stacks(kind, y, p):
    """psi's gradient (3, n) and Hessian (3, 3, n) stacks in (gamma0, gamma1, r) at states y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    pieces = (*_parts(kind, np.abs(y), p.gamma0, p.gamma1, p.r), _log_y2(y), p.gamma1)
    return _grad_stack(kind, *pieces), _hess_stack(kind, *pieces)


class TestPsi:
    def test_m1_at_zero(self):
        p = PersistenceParams(0.5, 0.1, 0.8)
        assert psi(M1, 0.0, p) == pytest.approx(np.exp(-0.5))

    def test_m2_at_zero(self):
        p = PersistenceParams(1.2, 0.1, 0.8)
        assert psi(M2, 0.0, p) == pytest.approx(1 / 1.2)

    def test_m2_half_power(self):
        p = PersistenceParams(2.0, 1.0, 0.5)
        assert psi(M2, 2.0, p) == pytest.approx(0.25)

    def test_even_in_y(self, rng):
        for kind in (M1, M2):
            p = random_params(kind, rng)
            y = rng.standard_normal(20) * 3
            np.testing.assert_allclose(psi(kind, y, p), psi(kind, -y, p))

    def test_positive_and_bounded(self, rng):
        y = np.linspace(-50, 50, 401)
        for _ in range(20):
            p = random_params(M1, rng)
            vals = psi(M1, y, p)
            # exp underflows to 0 far out for steep decay, so >= not >
            assert np.all(vals >= 0)
            assert np.all(vals <= np.exp(-p.gamma0) + 1e-15)
            p = random_params(M2, rng)
            vals = psi(M2, y, p)
            assert np.all(vals > 0) and np.all(vals <= 1 / p.gamma0 + 1e-15)

    @pytest.mark.parametrize("func", [psi, psi_dy], ids=lambda f: f.__name__)
    def test_invalid_params(self, func):
        with pytest.raises(ValueError):
            func(M2, 0.0, PersistenceParams(0.5, 0.1, 0.5))
        with pytest.raises(ValueError):
            func(M1, 0.0, PersistenceParams(0.5, -0.1, 0.5))
        with pytest.raises(ValueError):
            func(M1, 0.0, PersistenceParams(0.5, 0.1, 0.0))


class TestPsiDy:
    def test_constant_when_gamma1_zero(self):
        p = PersistenceParams(0.5, 0.0, 0.8)
        assert psi_dy(M1, 3.7, p) == 0.0

    def test_m2_hand_value(self):
        p = PersistenceParams(2.0, 1.0, 0.5)
        assert psi_dy(M2, 1.0, p) == pytest.approx(-1 / 9)

    def test_m1_hand_value(self):
        p = PersistenceParams(0.0, 1.0, 0.5)
        assert psi_dy(M1, 1.0, p) == pytest.approx(-np.exp(-1))

    def test_matches_fd(self, rng):
        for kind in (M1, M2):
            for _ in range(20):
                p = random_params(kind, rng)
                y = float(rng.uniform(0.1, 5.0) * rng.choice([-1, 1]))
                fd = fd_best(lambda v: psi(kind, v, p), y)
                assert psi_dy(kind, y, p) == pytest.approx(fd, rel=1e-5)


class TestPsiGrad:
    def test_m1_at_zero(self):
        p = PersistenceParams(0.5, 0.1, 0.8)
        np.testing.assert_allclose(
            stacks(M1, [0.0], p)[0][:, 0], [-np.exp(-0.5), 0.0, 0.0]
        )

    def test_m2_hand_values(self):
        p = PersistenceParams(2.0, 1.0, 0.5)
        g = stacks(M2, [2.0], p)[0][:, 0]
        np.testing.assert_allclose(
            g, [-0.0625, -0.125, -2 * np.log(4) * 0.0625], rtol=1e-12
        )
        assert g[2] == pytest.approx(-0.173287, abs=1e-6)

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_matches_fd(self, kind, rng):
        for _ in range(30):
            p = random_params(kind, rng)
            y = float(10 ** rng.uniform(-2, 2) * rng.choice([-1, 1]))
            grad = stacks(kind, [y], p)[0][:, 0]
            for i, name in enumerate(["gamma0", "gamma1", "r"]):
                def f(v, i=i):
                    vals = [p.gamma0, p.gamma1, p.r]
                    vals[i] = v
                    return psi(kind, y, PersistenceParams(*vals))
                fd = fd_best(f, [p.gamma0, p.gamma1, p.r][i])
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-10)


class TestPsiHess:
    def test_m1_at_zero(self):
        p = PersistenceParams(0.5, 0.1, 0.8)
        h = stacks(M1, [0.0], p)[1][:, :, 0]
        expected = np.zeros((3, 3))
        expected[0, 0] = np.exp(-0.5)
        np.testing.assert_allclose(h, expected)

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_symmetric(self, kind, rng):
        for _ in range(10):
            p = random_params(kind, rng)
            y = float(rng.uniform(-5, 5))
            h = stacks(kind, [y], p)[1][:, :, 0]
            np.testing.assert_array_equal(h, h.T)

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_matches_fd_of_grad(self, kind, rng):
        for _ in range(20):
            p = random_params(kind, rng)
            y = float(10 ** rng.uniform(-3, 3) * rng.choice([-1, 1]))
            hess = stacks(kind, [y], p)[1][:, :, 0]
            for j in range(3):
                def g(v, j=j):
                    vals = [p.gamma0, p.gamma1, p.r]
                    vals[j] = v
                    return stacks(kind, [y], PersistenceParams(*vals))[0][:, 0]
                fd = fd_best(g, [p.gamma0, p.gamma1, p.r][j])
                np.testing.assert_allclose(
                    hess[:, j], fd, rtol=1e-4, atol=1e-10
                )


def per_form_hessian(kind, y, p):
    """psi's Hessian written out entry by entry for each form, as two blocks."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    w = np.abs(y) ** (2.0 * p.r)
    lg = np.zeros_like(y)
    lg[y != 0] = 2.0 * np.log(np.abs(y[y != 0]))
    g1 = p.gamma1
    h = np.empty((3, 3, y.size))
    if kind is M1:
        ps = np.exp(-(p.gamma0 + g1 * w))
        h[0, 0] = ps
        h[0, 1] = w * ps
        h[0, 2] = g1 * w * lg * ps
        h[1, 1] = w**2 * ps
        h[1, 2] = w * lg * ps * (g1 * w - 1.0)
        h[2, 2] = g1 * w * lg**2 * ps * (g1 * w - 1.0)
    else:
        ps = 1.0 / (p.gamma0 + g1 * w)
        h[0, 0] = 2.0 * ps**3
        h[0, 1] = 2.0 * w * ps**3
        h[0, 2] = 2.0 * g1 * w * lg * ps**3
        h[1, 1] = 2.0 * w**2 * ps**3
        h[1, 2] = w * lg * ps**2 * (2.0 * g1 * w * ps - 1.0)
        h[2, 2] = g1 * w * lg**2 * ps**2 * (2.0 * g1 * w * ps - 1.0)
    h[1, 0], h[2, 0], h[2, 1] = h[0, 1], h[0, 2], h[1, 2]
    return h


class TestChainRuleHessian:
    """The one chain-rule Hessian equals both per-form blocks bit for bit."""

    CASES = [
        (M1, PersistenceParams(0.4, 0.07, 0.32)),
        (M1, PersistenceParams(-1.5, 1.3, 1.7)),
        (M1, PersistenceParams(0.4, 0.0, 0.8)),  # gamma1 = 0
        (M1, PersistenceParams(0.4, 1.0, 1.0)),  # psi underflows to 0 for |y| >~ 27
        (M1, PersistenceParams(800.0, 0.3, 0.6)),  # psi is 0 everywhere
        (M2, PersistenceParams(1.18, 0.08, 0.56)),
        (M2, PersistenceParams(2.5, 1.7, 1.9)),
        (M2, PersistenceParams(1.5, 0.0, 0.3)),  # gamma1 = 0
    ]

    @pytest.mark.parametrize("kind, p", CASES)
    def test_equals_per_form_blocks(self, kind, p):
        rng = np.random.default_rng(7)
        y = np.concatenate([rng.normal(0.0, 3.0, 400), [0.0, -0.0, 1e-8, 30.0, -45.0, 60.0]])
        expected = per_form_hessian(kind, y, p)
        assert np.isfinite(expected).all()
        assert np.array_equal(stacks(kind, y, p)[1], expected)

    def test_underflow_case_has_zero_psi(self):
        assert psi(M1, 45.0, PersistenceParams(0.4, 1.0, 1.0)) == 0.0
        assert psi(M1, 1.0, PersistenceParams(800.0, 0.3, 0.6)) == 0.0

    def test_gamma1_entry_is_zero_where_psi_cubed_underflows(self):
        # M2 at y = -1e200: w = 1e154, so 2 w^2 overflows while psi^3 is 0.
        p = PersistenceParams(2.596, 0.00393, 0.385)
        h = stacks(M2, [-1e200, 1.5], p)[1]
        assert h[1, 1, 0] == 0.0
        assert np.isfinite(h).all()
        assert np.array_equal(h[:, :, 1], stacks(M2, [1.5], p)[1][:, :, 0])


_PF = PersistenceParams(1.4, 0.07, 0.32)  # valid for both kinds

KIND_CALLS = {
    "psi": lambda k: psi(k, 1.0, _PF),
    "psi_dy": lambda k: psi_dy(k, 1.0, _PF),
    "a1_bound_closed_form": lambda k: a1_bound_closed_form(k, _PF),
    "check_assumptions": lambda k: check_assumptions(k, _PF),
    "SdarParams": lambda k: SdarParams(-1.5, _PF, 0.5, k),
    "ParamBox.default": lambda k: ParamBox.default(k),
    "fit": lambda k: fit(simulate(m1_truth(), 60, seed=3), k, n_starts=1),
}


@pytest.mark.parametrize("name", list(KIND_CALLS))
def test_string_kind_rejected(name):
    """A kind given as its string value is an error, not a silent M2."""
    call = KIND_CALLS[name]
    call(M1)
    with pytest.raises(ValueError, match="kind must be a PersistenceKind, got 'M1'"):
        call("M1")


class TestBounds:
    def test_m1_interior_formula(self):
        p = PersistenceParams(0.5, 0.1, 1.0)
        assert a1_bound_closed_form(M1, p) == pytest.approx(2 * np.exp(-1.0))

    def test_m1_boundary_branch_published(self):
        p = PUBLISHED[M1][0]
        assert a1_bound_closed_form(M1, p) == pytest.approx(
            np.exp(-0.3734), abs=1e-6
        )
        assert a1_bound_closed_form(M1, p) == pytest.approx(0.68840, abs=1e-4)

    def test_m2_published(self):
        p = PUBLISHED[M2][0]
        expected = (1 + 2 * 0.5596) ** 2 / (8 * 0.5596 * 1.1808)
        assert a1_bound_closed_form(M2, p) == pytest.approx(expected)
        assert a1_bound_closed_form(M2, p) == pytest.approx(0.84951, abs=1e-4)

    def test_m2_interior_example(self):
        p = PersistenceParams(2.0, 1.0, 1.0)
        assert a1_bound_closed_form(M2, p) == pytest.approx(9 / 16)
        assert a1_bound_numeric(M2, p) == pytest.approx(9 / 16, rel=1e-4)

    def test_numeric_constant_psi(self):
        p = PersistenceParams(0.7, 0.0, 1.0)
        assert a1_bound_numeric(M1, p) == pytest.approx(np.exp(-0.7), rel=1e-12)

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_numeric_matches_closed_form(self, kind, rng):
        for _ in range(100):
            p = random_params(kind, rng)
            closed = a1_bound_closed_form(kind, p)
            numeric = a1_bound_numeric(kind, p)
            assert numeric == pytest.approx(closed, rel=1e-3)
            assert numeric <= closed + 1e-9

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            a1_bound_numeric(M1, PersistenceParams(0.5, 0.1, 1.0), grid_points=10)


def a1_objective(kind, y, p):
    return np.abs(psi(kind, y, p)) + np.abs(y * psi_dy(kind, y, p))


def a1_params(kind, rng, i):
    """Random A1 test parameters; case i cycles through r <= 1/2 (maximum at y = 0) and r > 1/2,
    and through gamma1 scaled by 1, 1e-6 and 0."""
    p = random_params(kind, rng)
    r = rng.uniform(0.05, 0.5) if i % 2 else rng.uniform(0.5, 2.0)
    return PersistenceParams(p.gamma0, p.gamma1 * (1.0, 1e-6, 0.0)[i % 3], r)


class TestA1Grid:
    """The grid covers y <= 0 only, because the A1 objective is even in y bit for bit."""

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_objective_even_bitwise(self, kind, rng):
        # 0, a subnormal, tiny, random and the grid's largest |y|
        mags = np.r_[0.0, 5e-324, 1e-300, 1e-12, 10 ** rng.uniform(-8, 12, 200), _Y_MAX_CAP]
        for i in range(40):
            p = a1_params(kind, rng, i)
            assert a1_objective(kind, mags, p).tobytes() == a1_objective(kind, -mags, p).tobytes()

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_matches_mirrored_grid(self, kind, rng):
        # the full mirrored grid is the reference; its first argmax is the answer
        for i in range(12):
            p = a1_params(kind, rng, i)
            half = np.geomspace(1e-12, _default_y_max(p), 100_000 // 2)
            grid = np.concatenate([-half[::-1], [0.0], half])
            vals = a1_objective(kind, grid, p)
            k = int(np.argmax(vals))
            assert a1_bound_numeric(kind, p) == vals[k]
            assert check_assumptions(kind, p).grid_max_location == grid[k]


class TestCheckAssumptions:
    def test_published_m1_all_satisfied(self):
        for p in PUBLISHED[M1]:
            report = check_assumptions(M1, p)
            assert report.a1_satisfied
            assert report.a2_satisfied
            assert report.sup_bound_closed_form < 1

    def test_explosive_params_fail_a1(self):
        report = check_assumptions(M1, PersistenceParams(-1.0, 0.0, 0.5))
        assert not report.a1_satisfied
        assert report.sup_bound_closed_form == pytest.approx(np.e)

    def test_m2_small_r_fails_a2(self):
        report = check_assumptions(M2, PersistenceParams(2.0, 1.0, 0.25))
        assert not report.a2_satisfied
        # psi(y)*y ~ |y|^(1-2r) grows without bound; check directly far out.
        y = 1e6
        p = PersistenceParams(2.0, 1.0, 0.25)
        assert abs(psi(M2, y, p) * y) > abs(psi(M2, 1e3, p) * 1e3)

    @pytest.mark.parametrize("kind, gamma0, expected", [
        (M1, 0.4, np.exp(-0.4)),
        (M2, 1.5, 1.0 / 1.5),
    ])
    def test_tiny_gamma1_small_r_does_not_overflow(self, kind, gamma0, expected):
        # (gamma0/gamma1)^(1/2r) overflows a float here; r <= 1/2 puts
        # the supremum at y = 0, so the grid must agree with psi(0).
        report = check_assumptions(kind, PersistenceParams(gamma0, 1e-6, 1e-3))
        assert report.sup_bound_closed_form == pytest.approx(expected, rel=1e-12)
        assert report.sup_bound_numeric == pytest.approx(expected, rel=1e-12)
        assert report.grid_max_location == 0.0
        assert report.a1_satisfied

    def test_ar1_subcase_flags_a2_false(self):
        report = check_assumptions(M1, PersistenceParams(0.5, 0.0, 1.0))
        assert report.a1_satisfied
        assert not report.a2_satisfied
