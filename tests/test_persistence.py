import numpy as np
import pytest

import sdar.persistence
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
    simulate,
)
from sdar.persistence import _grad_stack, _hess_stack, _log_abs, _log_y2, _parts, _w

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
    la = _log_abs(y)
    pieces = (*_parts(kind, la, p.gamma0, p.gamma1, p.r), _log_y2(la), p.gamma1)
    return _grad_stack(kind, *pieces), _hess_stack(kind, *pieces)


class TestW:
    """w = |y|^(2r) in one formula, `_w`: exp(2r ln|y|) of the one logarithm `_log_abs`,
    which psi, the likelihood and the profile kernel all take."""

    R = np.r_[5e-324, 1e-300, 1e-3, 0.32, 0.5, 1.0, 1.7, 3.0, 200.0, 1e300]

    def test_exactly_zero_at_signed_zero_for_every_r(self, rng):
        for r in np.r_[self.R, rng.uniform(1e-3, 3.0, 40)]:
            w = _w(_log_abs([0.0, -0.0]), r, np.empty(2))
            assert w.tobytes() == np.zeros(2).tobytes()  # +0.0 twice, no -0.0

    def test_inf_and_nan_lanes_are_the_powers(self):
        # the power's lanes bit for bit, without a warning (the suite raises on one)
        y = np.array([np.inf, -np.inf, np.nan, -np.nan])
        for r in self.R:
            assert np.array_equal(_w(_log_abs(y), r, np.empty(4)), np.abs(y) ** (2.0 * r),
                                  equal_nan=True)

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_psi_at_inf_and_nan_lanes(self, kind):
        p = PersistenceParams(1.5, 0.07, 0.32)
        vals = psi(kind, np.array([np.inf, -np.inf, np.nan, 0.0, -0.0]), p)
        assert vals[:2].tolist() == [0.0, 0.0] and np.isnan(vals[2])
        g0 = np.exp(-1.5) if kind is M1 else 1 / 1.5  # psi(0) = g(gamma0)
        assert vals[3:].tolist() == [psi(kind, 0.0, p)] * 2 == [g0] * 2


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

    @pytest.mark.parametrize("kind, gamma0, expected", [(M1, 0.4, np.exp(-0.4)), (M2, 1.5, 1 / 1.5)])
    def test_gamma1_zero_where_power_overflows(self, kind, gamma0, expected):
        # |y|^400 is inf at every y here; 0 * inf would be NaN. The suite turns
        # warnings into errors, so this also checks that psi warns of no overflow
        y = np.array([10.0, -1e6, 1e300])
        vals = psi(kind, y, PersistenceParams(gamma0, 0.0, 200.0))
        assert vals.tolist() == [expected] * 3

    @pytest.mark.parametrize("kind, gamma0", [(M1, 0.4), (M2, 1.5)])
    def test_gamma1_positive_where_power_overflows(self, kind, gamma0):
        # gamma1 * inf = inf, so psi is exactly its limit 0, without a warning
        p = PersistenceParams(gamma0, 0.07, 200.0)
        assert psi(kind, 10.0, p) == 0.0
        assert psi(kind, np.array([10.0, -1e6, 1e300]), p).tolist() == [0.0] * 3

    @pytest.mark.parametrize("func", [psi], ids=lambda f: f.__name__)
    def test_invalid_params(self, func):
        with pytest.raises(ValueError):
            func(M2, 0.0, PersistenceParams(0.5, 0.1, 0.5))
        with pytest.raises(ValueError):
            func(M1, 0.0, PersistenceParams(0.5, -0.1, 0.5))
        with pytest.raises(ValueError):
            func(M1, 0.0, PersistenceParams(0.5, 0.1, 0.0))
        with pytest.raises(ValueError, match="gamma0 must be finite"):
            func(M1, 0.0, PersistenceParams(np.nan, 0.1, 0.5))


def y_term(kind, y, p):
    """|y psi'(y)| = 2r gamma1 |y|^(2r) (-g'(u)), with -g'(u) = psi (M1) or psi^2 (M2).

    |y|^(2r) is the package's one formula, `_w` of `_log_abs`."""
    ps = psi(kind, y, p)
    w = _w(_log_abs(y), p.r, np.empty(np.shape(y)))
    return 2.0 * p.r * p.gamma1 * w * (ps if kind is M1 else ps**2)


class TestA1YTerm:
    """The A1 objective's y psi'(y) term, read off the chain rule."""

    def test_zero_when_gamma1_zero(self):
        p = PersistenceParams(0.5, 0.0, 0.8)
        assert y_term(M1, 3.7, p) == 0.0

    def test_m2_hand_value(self):
        p = PersistenceParams(2.0, 1.0, 0.5)
        assert y_term(M2, 1.0, p) == pytest.approx(1 / 9)

    def test_m1_hand_value(self):
        p = PersistenceParams(0.0, 1.0, 0.5)
        assert y_term(M1, 1.0, p) == pytest.approx(np.exp(-1))

    def test_matches_fd(self, rng):
        for kind in (M1, M2):
            for _ in range(20):
                p = random_params(kind, rng)
                y = float(rng.uniform(0.1, 5.0) * rng.choice([-1, 1]))
                fd = fd_best(lambda v: psi(kind, v, p), y)
                assert y * fd <= 0.0  # psi falls with |y|, so |y psi'| is -y psi'
                assert y_term(kind, y, p) == pytest.approx(-y * fd, rel=1e-5)


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
    """psi's Hessian written out entry by entry for each form, as two blocks; w = |y|^(2r)
    comes from the package's one formula, `_w` of `_log_abs`, and ln(y^2) is written out."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    w = _w(_log_abs(y), p.r, np.empty(y.shape))
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

    @pytest.mark.parametrize("kind, p, log_bound", [
        # 2r overflows: the direct formula reads NaN (inf / inf)
        (M1, PersistenceParams(0.4, 0.1, 1e308), np.log(2.0) + np.log(1e308) - 1.4),
        (M1, PersistenceParams(1000.0, 0.1, 1e308), np.log(2.0) + np.log(1e308) - 1001.0),
        (M2, PersistenceParams(1e300, 0.1, 1e308), np.log(1e308 / 2e300)),
        # 8 r gamma0 overflows: the direct formula reads 0
        (M2, PersistenceParams(1.5e256, 0.1, 1e100), np.log(1e100 / 3e256)),
        # 2r gamma0 overflows: the direct formula reads 0
        (M1, PersistenceParams(1000.0, 0.1, 1e306), np.log(2e306 / np.e) - 1000.0),
    ], ids=["M1-2r-above", "M1-2r-below", "M2-2r", "M2-8r-gamma0", "M1-2r-gamma0"])
    def test_exp_of_log_bound_where_formula_fails(self, kind, p, log_bound):
        # the log bound is finite at every valid p; its exp is positive where it is a float
        closed = a1_bound_closed_form(kind, p)
        assert 0.0 < closed < np.inf
        assert np.log(closed) == pytest.approx(log_bound, rel=1e-14)
        assert check_assumptions(kind, p).a1_satisfied == (log_bound < 0.0)

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_numeric_matches_closed_form(self, kind, rng):
        for _ in range(100):
            p = random_params(kind, rng)
            closed = a1_bound_closed_form(kind, p)
            numeric = a1_bound_numeric(kind, p)
            assert numeric == pytest.approx(closed, rel=1e-3)
            assert numeric <= closed + 1e-9


def a1_objective(kind, y, p):
    """|psi(y)| + |y psi'(y)|; psi >= 0, so its abs is psi itself."""
    return psi(kind, y, p) + y_term(kind, y, p)


def a1_params(kind, rng, i):
    """Random A1 test parameters; case i cycles through r <= 1/2 (maximum at y = 0) and r > 1/2,
    and through gamma1 scaled by 1, 1e-6 and 0."""
    p = random_params(kind, rng)
    r = rng.uniform(0.05, 0.5) if i % 2 else rng.uniform(0.5, 2.0)
    return PersistenceParams(p.gamma0, p.gamma1 * (1.0, 1e-6, 0.0)[i % 3], r)


class TestA1Grid:
    """The grid runs over v = gamma1 |y|^(2r) and reports its maximum at y <= 0, since the
    A1 objective is even in y bit for bit."""

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_objective_even_bitwise(self, kind, rng):
        # 0, a subnormal, tiny, random and large |y|
        mags = np.r_[0.0, 5e-324, 1e-300, 1e-12, 10 ** rng.uniform(-8, 12, 200), 1e12]
        for i in range(40):
            p = a1_params(kind, rng, i)
            assert a1_objective(kind, mags, p).tobytes() == a1_objective(kind, -mags, p).tobytes()

    @pytest.mark.parametrize("kind", [M1, M2])
    def test_value_is_the_objective_at_its_location(self, kind, rng):
        # psi and y_term, evaluated in y at the reported location, give the grid value
        for i in range(12):
            p = a1_params(kind, rng, i)
            report = check_assumptions(kind, p)
            loc = report.grid_max_location
            assert loc < 0.0 or (loc, np.signbit(loc)) == (0.0, False)  # 0.0, never -0.0
            assert a1_objective(kind, loc, p) == pytest.approx(a1_bound_numeric(kind, p), rel=1e-12)
            assert report.sup_bound_numeric == a1_bound_numeric(kind, p)

    @pytest.mark.parametrize("kind, p", [
        (M1, PersistenceParams(0.4, 0.1, 200.0)),
        (M1, PersistenceParams(0.4, 0.1, 1e4)),
        (M1, PersistenceParams(0.4, 0.1, 1e6)),
        (M1, PersistenceParams(0.4, 0.1, 1e308)),
        (M2, PersistenceParams(1.5e256, 0.1, 1e100)),
        (M2, PersistenceParams(1 + 2.2e-16, 1.7e308, 7.3)),
    ], ids=["M1-r200", "M1-r1e4", "M1-r1e6", "M1-r1e308", "M2-gamma0-1.5e256", "M2-gamma1-1.7e308"])
    def test_finds_the_closed_form_peak(self, kind, p):
        # a y-grid missed the narrow peak at large r (it read psi(0) from r = 1e6 on), read
        # 1/gamma0 at M2 gamma0 = 1.5e256 and inf where 2r gamma1 overflowed
        closed, grid = a1_bound_closed_form(kind, p), a1_bound_numeric(kind, p)
        assert np.isfinite(grid)
        assert grid == pytest.approx(closed, rel=1e-5)
        assert grid <= closed * (1 + 1e-12)


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

    @pytest.mark.parametrize("kind, p", [(M1, PersistenceParams(0.0, 5e-324, 15.0)),
                                         (M2, PersistenceParams(1.5, 1e-310, 15.0))])
    def test_subnormal_gamma1_grid_is_silent_and_finite(self, kind, p):
        # gamma0 / gamma1 is inf for a subnormal gamma1; the grid runs over gamma1 |y|^(2r),
        # so its maximum lies at a finite |y| of about 1e10
        report = check_assumptions(kind, p)  # any warning is an error in this suite
        assert np.isfinite(report.sup_bound_numeric)
        assert np.isfinite(report.grid_max_location)
        assert report.sup_bound_numeric <= report.sup_bound_closed_form
        assert not report.a1_satisfied

    def test_nan_bound_fails_a1(self, monkeypatch):
        # the closed form alone decides A1: a NaN there fails it, and the grid,
        # printed as a cross-check, casts no vote, NaN or inf
        p = PersistenceParams(0.4, 0.07, 0.32)
        for grid in (np.nan, np.inf):
            monkeypatch.setattr(sdar.persistence, "_a1_grid_max", lambda kind, p: (0.0, grid))
            report = check_assumptions(M1, p)
            assert report.sup_bound_closed_form < 1.0
            assert report.a1_satisfied
        monkeypatch.setattr(sdar.persistence, "a1_bound_closed_form", lambda kind, p: np.nan)
        assert not check_assumptions(M1, p).a1_satisfied

    def test_ar1_subcase_flags_a2_false(self):
        report = check_assumptions(M1, PersistenceParams(0.5, 0.0, 1.0))
        assert report.a1_satisfied
        assert not report.a2_satisfied
