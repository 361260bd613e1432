"""Quasi-maximum-likelihood estimation of SDAR parameters.

Maximization is box-constrained quasi-Newton (`minimize`, numpy only) on
the profile likelihood over phi = (gamma0, gamma1, r). One start list, an
AR(1) point and a scale-free Latin hypercube, is screened by one profile
evaluation per row, and the 6 best-screened rows are polished in design
order. For fixed phi the likelihood is a concave quadratic in alpha and
unimodal in sigma, so their box-constrained maximizers are clipped closed
forms, and by Danskin's theorem the profile gradient is the phi block of
the full gradient. One kernel gives the profile value and gradient to the screen
and the optimizer, and only the profiled (alpha, sigma) to the final
check, which reads ``model.loglik``, ``loglik_grad`` and ``loglik_hess``.
It builds ln|y|, ln(y^2) and its work buffers once per fit and forms w,
psi and their gradient with the functions of ``model._terms``, so a call
allocates no per-point array, and `fit` validates the box once, not each
point. Standard errors are the sandwich form (1/n) Hbar^{-1} G Hbar^{-1},
Hbar the empirical mean Hessian and G the mean outer product of
per-observation scores, both at the estimate.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import model as sdar_model
from .model import PARAM_NAMES, SdarParams
from .persistence import (PersistenceKind, PersistenceParams, _check_kind, _grad_stack, _log_abs,
                          _log_y2, _psi_of_w, _w)
from .series import TimeSeries

_POLISHED = 6  # best-screened start points polished
_GAIN_REL = 1e-9
_COND_LIMIT = 1e12
_PHI = slice(1, 4)  # (gamma0, gamma1, r) within theta
_MAX_ITER = 500  # quasi-Newton iterations per polish
_PG_TOL = 1e-10  # a polish stops once max |g| over its free coordinates is at most this
_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_JSON_SCALARS = ("loglik", "aic", "n_obs", "converged", "n_starts", "grad_norm")


@dataclass(frozen=True)
class ParamBox:
    """Compact feasible box for theta = (alpha, gamma0, gamma1, r, sigma)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != (5,) or upper.shape != (5,):
            raise ValueError("box bounds must have length 5")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box bounds must be finite (compact parameter space)")
        if np.any(lower > upper):
            raise ValueError("lower bounds must not exceed upper bounds")
        if np.all(lower == upper):
            raise ValueError("box must have positive volume in some coordinate")
        if lower[4] <= 0.0:
            raise ValueError("sigma lower bound must be > 0")

    @classmethod
    def default(cls, kind: PersistenceKind) -> "ParamBox":
        _check_kind(kind)
        g0_lo = 1.0 + 1e-6 if kind is PersistenceKind.M2 else -2.0
        return cls(
            lower=np.array([-10.0, g0_lo, 0.0, 1e-3, 1e-4]),
            upper=np.array([10.0, 5.0, 5.0, 3.0, 10.0]),
        )

    def pin(self, name: str, value: float) -> "ParamBox":
        """Return a copy with one coordinate fixed at `value`."""
        i = PARAM_NAMES.index(name)
        lower, upper = self.lower.copy(), self.upper.copy()
        lower[i] = upper[i] = value
        return ParamBox(lower, upper)


@dataclass
class FitResult:
    """Outcome of a QML fit."""

    theta_hat: SdarParams
    covariance: np.ndarray | None
    std_errors: np.ndarray | None
    loglik: float
    aic: float
    n_obs: int
    converged: bool
    n_starts: int
    grad_norm: float

    def to_json(self) -> str:
        se, cov = self.std_errors, self.covariance
        doc = {
            "theta_hat": dict(zip(PARAM_NAMES, self.theta_hat.to_array().tolist())),
            "kind": self.theta_hat.kind.value,
            "std_errors": None if se is None else [float(v) for v in se],
            "covariance": None if cov is None else [float(v) for v in cov.ravel()],
            **{name: getattr(self, name) for name in _JSON_SCALARS},
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FitResult":
        doc = json.loads(text)
        theta = SdarParams.from_array(
            [doc["theta_hat"][name] for name in PARAM_NAMES], PersistenceKind(doc["kind"])
        )
        cov, se = doc["covariance"], doc["std_errors"]
        return cls(
            theta_hat=theta,
            covariance=None if cov is None else np.array(cov).reshape(5, 5),
            std_errors=None if se is None else np.array(se),
            **{name: doc[name] for name in _JSON_SCALARS},
        )


def aic(loglik: float, k: int = 5) -> float:
    """Akaike information criterion, 2k - 2*loglik."""
    return 2.0 * k - 2.0 * loglik


def select_model(fits: list[FitResult]) -> int:
    """Index of the fit with minimum AIC; ties go to the first."""
    if not fits:
        raise ValueError("no fits to select from")
    return int(np.argmin([f.aic for f in fits]))


def sandwich_cov(
    params: SdarParams, series: TimeSeries, hess: np.ndarray | None = None
) -> np.ndarray:
    """The 5x5 sandwich covariance (1/n) Hbar^{-1} G Hbar^{-1} at `params`.

    ``hess``, if given, is ``loglik_hess(params, series)``.

    Raises
    ------
    ValueError
        If the series has fewer than 6 observations.
    np.linalg.LinAlgError
        If the mean Hessian is numerically singular
        (condition number above 1e12).
    """
    if len(series) < 6:
        raise ValueError("series too short for covariance estimation")
    scores = sdar_model._per_obs_score(params, series)
    n = scores.shape[1]
    h_bar = (sdar_model.loglik_hess(params, series) if hess is None else hess) / n
    g = (scores @ scores.T) / n
    g = 0.5 * (g + g.T)
    if np.linalg.cond(h_bar) > _COND_LIMIT:
        raise np.linalg.LinAlgError(
            "mean Hessian is numerically singular; sandwich covariance unavailable"
        )
    h_inv = np.linalg.inv(h_bar)
    cov = h_inv @ g @ h_inv / n
    cov = 0.5 * (cov + cov.T)
    return cov


class _Polish(NamedTuple):
    """End point of one `minimize` run and its objective value."""

    x: np.ndarray
    fun: float


def minimize(objective, x0, lower, upper) -> _Polish:
    """Minimize ``value, gradient = objective(x)`` over the box [lower, upper] from x0.

    Projected quasi-Newton with an active set (Bertsekas 1982), on Python
    floats. A coordinate is free unless pinned or held by a bound (at lower
    with g > 0, at upper with g < 0). The direction solves B d = -g on the free
    block, B a dense BFGS matrix, and is -g/|g| with B reset where B is unset
    or singular or d does not descend; coordinates on a bound that d points out
    of the box leave the block and d is solved again. `_line_search` takes the
    step. A run ends when no coordinate is free or max |g| over the free ones is
    at most ``_PG_TOL``, when a search fails, when a step that reaches no bound
    does not lower the value (L-BFGS-B's ``ftol = 0``), or after ``_MAX_ITER``
    iterations.
    """
    lo, hi = [float(v) for v in lower], [float(v) for v in upper]
    x = [min(max(float(v), a), b) for v, a, b in zip(x0, lo, hi)]
    f, g = _evaluate(objective, x)
    n, B = len(x), None
    for _ in range(_MAX_ITER):
        free = [i for i in range(n) if lo[i] < hi[i]
                and not (x[i] <= lo[i] and g[i] > 0) and not (x[i] >= hi[i] and g[i] < 0)]
        if not free or max(abs(g[i]) for i in free) <= _PG_TOL:
            break
        d, B = _direction(B, g, free, x, lo, hi)
        step = _line_search(objective, x, f, g, d, lo, hi)
        if step is None:
            break
        x_new, f_new, g_new, on_bound = step
        s = [a - b for a, b in zip(x_new, x)]
        y = [a - b for a, b in zip(g_new, g)]
        sy, yy = _dot(s, y), _dot(y, y)
        if sy > 1e-12 * math.sqrt(_dot(s, s) * yy):
            if B is None:
                B = [[yy / sy if i == j else 0.0 for j in range(n)] for i in range(n)]
            bs = [_dot(row, s) for row in B]
            sbs = _dot(s, bs)
            B = [[B[i][j] + y[i] * y[j] / sy - bs[i] * bs[j] / sbs for j in range(n)]
                 for i in range(n)]
        stalled = f_new >= f and not on_bound  # a step onto a bound changes the free set
        x, f, g = x_new, f_new, g_new
        if stalled:
            break
    return _Polish(np.array(x), f)


def _line_search(objective, x, f, g, d, lo, hi):
    """`minimize`'s step along d: the point, its value and gradient, and whether
    the step reached a bound; None if 20 trials fail the Armijo test.

    The step starts at min(1, t_max), t_max the longest inside the box; the
    coordinates that reach a bound are put exactly on it. It backtracks by
    safeguarded quadratic interpolation, and a non-finite value fails the test.
    While the slope along d stays steep (the Wolfe curvature test fails), it
    lengthens the step 4-fold as long as the value falls: after a bound is hit,
    B can keep the curvature of the bound coordinate, and steps of B^-1 g crawl.
    """
    slope, n = _dot(g, d), len(x)
    reach = [((hi[i] if d[i] > 0 else lo[i]) - x[i]) / d[i] if d[i] else math.inf
             for i in range(n)]
    t_max = min(reach)

    def at(t):
        x_t = [(hi[i] if d[i] > 0 else lo[i]) if reach[i] <= t
               else min(max(x[i] + t * d[i], lo[i]), hi[i]) for i in range(n)]
        f_t, g_t = _evaluate(objective, x_t)
        return x_t, f_t, g_t, math.isfinite(f_t) and f_t <= f + _ARMIJO * t * slope

    t = min(1.0, t_max)
    for _ in range(20):
        x_t, f_t, g_t, ok = at(t)
        if ok:
            break
        t_q = -slope * t * t / (2.0 * (f_t - f - t * slope))
        t = min(max(t_q, 0.1 * t), 0.5 * t) if math.isfinite(f_t) else 0.1 * t
    else:
        return None
    while t < t_max and _dot(g_t, d) < 0.9 * slope:
        t_up = min(4.0 * t, t_max)
        longer = at(t_up)
        if not (longer[3] and longer[1] < f_t):
            break
        t, (x_t, f_t, g_t, _) = t_up, longer
    return x_t, f_t, g_t, t >= t_max


def _evaluate(objective, x):
    value, grad = objective(np.array(x))
    return float(value), grad.tolist()


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _direction(B, g, free, x, lo, hi):
    """`minimize`'s search direction, and B (None once reset)."""
    while True:
        d, sub = [0.0] * len(x), None
        if B is not None:
            try:
                sub = np.linalg.solve([[B[i][j] for j in free] for i in free],
                                      [-g[i] for i in free]).tolist()
            except np.linalg.LinAlgError:  # singular
                pass
        if sub is not None and math.isfinite(sum(sub)) and _dot(sub, [g[i] for i in free]) < 0:
            for i, v in zip(free, sub):
                d[i] = v
        else:
            B, norm = None, math.sqrt(sum(g[i] * g[i] for i in free))
            for i in free:
                d[i] = -g[i] / norm
        out = [i for i in free if (x[i] <= lo[i] and d[i] < 0) or (x[i] >= hi[i] and d[i] > 0)]
        if not out:
            return d, B
        free = [i for i in free if i not in out]


def _projected_grad(theta, grad, lower, upper):
    """Gradient with components pointing outside the box zeroed."""
    pg = grad.copy()
    at_lo = theta <= lower + 1e-12 * np.maximum(1.0, np.abs(lower))
    at_hi = theta >= upper - 1e-12 * np.maximum(1.0, np.abs(upper))
    # Maximizing: a negative gradient at a lower bound (or positive at
    # an upper bound) points out of the box and is not an obstruction.
    pg[at_lo & (pg < 0)] = 0.0
    pg[at_hi & (pg > 0)] = 0.0
    return pg


def _converged(pgrad, hess, ll) -> bool:
    """Whether a Newton step would gain at most 1e-9 * max(1, |ll|).

    The gain is 0.5 * sum pg_i^2 / -H_ii over pg_i != 0, and fails if such
    an H_ii >= 0. Unlike a gradient norm, it is not decided by rounding on
    the ridge faces, where a tiny gradient meets a curvature of 1e11.
    """
    moving = pgrad != 0
    curvature = -np.diag(hess)[moving]
    if not np.all(curvature > 0):
        return False
    gain = 0.5 * np.sum(pgrad[moving] ** 2 / curvature)
    return bool(gain <= _GAIN_REL * max(1.0, abs(ll)))


def _start_points(
    series: TimeSeries, kind: PersistenceKind, box: ParamBox, n_starts: int, seed: int
) -> np.ndarray:
    """The (1 + n_starts, 3) phi starts, clipped inside the box with pinned coordinates set.

    Row 0 is the AR(1) least-squares slope mapped into SDAR space, with
    gamma1 = 0.05 and r = 0.5. The surface has a poor local maximum where the
    persistence term vanishes and the model degenerates to iid noise around
    the mean; purely random starts fall into it often enough to matter, so
    one start from the linear fit keeps the search in the persistent regime.
    Rows 1.. are a Latin hypercube from ``default_rng(seed)`` in (gamma0,
    log10 kappa, r). kappa = gamma1 * c^(2r), c = median |y_{t-1}|, is the
    state term at a typical lag: ridge optima with gamma1 near 0 and large
    |y|^(2r) are where a design uniform in gamma1 rarely starts. gamma0 and
    r are uniform on the box, log10 kappa on [-4, 1]; gamma1 = kappa / c^(2r).
    """
    lag, target = series.values[:-1], series.values[1:]
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(lag.size), lag]), target, rcond=None)
    ar1 = float(np.clip(coef[1], 1e-3, 1.0 - 1e-3))
    rng = np.random.default_rng(seed)
    strata = rng.permuted(np.tile(np.arange(n_starts), (3, 1)), axis=1).T
    unit = (strata + rng.random((n_starts, 3))) / n_starts
    lo, hi = box.lower[_PHI], box.upper[_PHI]
    span = hi - lo
    g0, r = lo[0] + unit[:, 0] * span[0], lo[2] + unit[:, 2] * span[2]
    kappa = 10.0 ** (5.0 * unit[:, 1] - 4.0)
    c = float(np.median(np.abs(lag))) or 1.0  # most lags 0: no typical |y| to scale by
    with np.errstate(over="ignore", divide="ignore"):  # extreme c: gamma1 is clipped below
        g1 = kappa / c ** (2.0 * r)
    g0_ar1 = -math.log(ar1) if kind is PersistenceKind.M1 else 1.0 / ar1
    pts = np.vstack([[g0_ar1, 0.05, 0.5], np.column_stack([g0, g1, r])])
    free = span > 0
    pts[:, free] = np.clip(pts[:, free], (lo + 1e-4 * span)[free], (hi - 1e-4 * span)[free])
    pts[:, ~free] = lo[~free]
    return pts


class _ProfileKernel:
    """Profile of the likelihood over phi, and its negated value and phi gradient.

    Built once per fit, it holds the lags, targets, ln|y| and ln(y^2) of the
    lags, the box's alpha and sigma bounds as floats, and the work buffers w,
    psi and the (3, n-1) psi gradient stack, which a call fills in place: it
    allocates no per-point array and does not validate phi, as `fit` checks the
    box once. w, psi and the stack come from `_w`, `_psi_of_w` and `_grad_stack`
    as in ``model._terms``, and a call evaluates the expressions of ``loglik``
    and ``loglik_grad`` at ``profile(phi)`` in their order, so it matches them
    bit for bit.
    """

    def __init__(self, series: TimeSeries, kind: PersistenceKind, box: ParamBox):
        self.lag, self.target, self.kind = series.values[:-1], series.values[1:], kind
        self.log_abs, n = _log_abs(self.lag), self.lag.size
        self.log_y2 = _log_y2(self.log_abs)
        self.lo, self.hi = box.lower[[0, 4]].tolist(), box.upper[[0, 4]].tolist()  # alpha, sigma
        self.w, self.psi, self.stack = np.empty(n), np.empty(n), np.empty((3, n))

    def _eval(self, g0, g1, r):
        """alpha, sigma, -loglik and -grad at phi = (g0, g1, r), through the buffers."""
        lag, w, ps, lo, hi = self.lag, self.w, self.psi, self.lo, self.hi
        _w(self.log_abs, r, out=w)
        _psi_of_w(self.kind, w, g0, g1, ps)
        stack = _grad_stack(self.kind, w, ps, self.log_y2, g1, out=self.stack)
        pl = np.multiply(ps, lag, out=ps)  # psi * lag, in both u and xi
        u = np.subtract(self.target, pl, out=w)
        # the means are np.mean's sum and division, without its call overhead
        alpha = min(max(float(u.sum()) / u.size, lo[0]), hi[0])
        np.square(np.subtract(u, alpha, out=u), out=u)
        s = min(max(math.sqrt(float(u.sum()) / u.size), lo[1]), hi[1])
        xi = np.subtract(np.subtract(self.target, alpha, out=w), pl, out=ps)
        grad = stack @ np.multiply(xi, lag, out=w) / (s * s)
        return alpha, s, -sdar_model._gaussian_loglik(xi, s), -grad

    def profile(self, phi):
        """`SdarParams` at phi with alpha and sigma profiled out (validated)."""
        alpha, sigma = self._eval(*map(float, phi))[:2]
        return SdarParams.from_array([alpha, *phi, sigma], self.kind)

    def __call__(self, phi):
        return self._eval(*map(float, phi))[2:]


def fit(
    series: TimeSeries,
    kind: PersistenceKind,
    box: ParamBox | None = None,
    n_starts: int = 16,
    seed: int = 0,
) -> FitResult:
    """Fit an SDAR model by multi-start box-constrained QML.

    Returns the best local maximum of the profile likelihood in phi over
    `minimize` runs, in design order (ties go to the earlier run), from the
    ``_POLISHED`` (6) rows with the best profile values of the `_start_points`
    list: the AR(1) point and ``n_starts`` hypercube points (deterministic
    given ``seed``). `converged` is `_converged` at the estimate.
    """
    if len(series) < 20:
        raise ValueError("series too short: need at least 20 observations")
    if np.std(series.values) == 0.0:
        raise ValueError("degenerate series: zero variance")
    if isinstance(n_starts, bool) or not isinstance(n_starts, (int, np.integer)):
        raise ValueError(f"n_starts must be an integer, got {n_starts!r}")
    if n_starts < 0:
        raise ValueError(f"n_starts must be >= 0, got {n_starts}")
    if box is None:
        box = ParamBox.default(kind)
    # each condition bounds a coordinate from below, so the whole box is valid
    PersistenceParams(*box.lower[_PHI]).validate(kind)

    objective = _ProfileKernel(series, kind, box)
    design = _start_points(series, kind, box, n_starts, seed)
    screen = np.array([objective(phi)[0] for phi in design])
    best = np.sort(np.argsort(screen, kind="stable")[:_POLISHED])
    best_f, best_phi = np.inf, None
    for phi0 in design[best]:
        res = minimize(objective, phi0, box.lower[_PHI], box.upper[_PHI])
        if res.fun < best_f:
            best_f, best_phi = res.fun, res.x

    params = objective.profile(best_phi)
    ll = sdar_model.loglik(params, series)
    grad = sdar_model.loglik_grad(params, series)
    hess = sdar_model.loglik_hess(params, series)
    pgrad = _projected_grad(params.to_array(), grad, box.lower, box.upper)

    try:
        cov = sandwich_cov(params, series, hess)
        std_errors = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        cov = std_errors = None

    return FitResult(
        theta_hat=params,
        covariance=cov,
        std_errors=std_errors,
        loglik=ll,
        aic=aic(ll, 5),
        n_obs=len(series) - 1,
        converged=_converged(pgrad, hess, ll),
        n_starts=int(n_starts),
        grad_norm=float(np.linalg.norm(pgrad)),
    )
