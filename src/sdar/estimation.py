"""Quasi-maximum-likelihood estimation of SDAR parameters.

Maximization is box-constrained quasi-Newton (L-BFGS-B) on the profile
likelihood over phi = (gamma0, gamma1, r), polishing an AR(1) warm start
and the best-screened points of a scale-free Latin hypercube drawn with
numpy, so a fit imports ``scipy.optimize`` and never ``scipy.stats``. For
fixed phi the likelihood is a concave quadratic in alpha and unimodal in
sigma, so their box-constrained maximizers are clipped closed forms, and
by Danskin's theorem the profile gradient is the phi block of the full
gradient. One kernel gives the profile, its value and its gradient, to
the screen, the optimizer and the final check. It builds |y|, ln(y^2) and
its work buffers once per fit, so a call allocates no per-point array, and
`fit` validates the box once, not each point. Standard errors are the
sandwich form (1/n) Hbar^{-1} G Hbar^{-1}, Hbar the empirical mean
Hessian and G the mean outer product of per-observation scores, both at
the estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import model as sdar_model
from .model import PARAM_NAMES, SdarParams
from .persistence import (
    PersistenceKind, PersistenceParams, _check_kind, _grad_stack, _log_y2, _parts,
)
from .series import TimeSeries

_POLISHED = 5  # design points polished after the screen, besides the warm start
_GAIN_REL = 1e-9
_COND_LIMIT = 1e12
_PHI = slice(1, 4)  # (gamma0, gamma1, r) within theta
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


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on the first call.

    ``scipy.optimize`` costs about half a second and 20 MB to import and
    only a fit needs it, so ``import sdar`` and the commands that never
    fit do not load it. No part of sdar imports ``scipy.stats``.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


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


def _start_points(box: ParamBox, lag: np.ndarray, n_starts: int, seed: int) -> np.ndarray:
    """phi design: a Latin hypercube from ``default_rng(seed)`` in (gamma0, log10 kappa, r).

    kappa = gamma1 * c^(2r), c = median |y_{t-1}|, is the state term at a
    typical lag: ridge optima with gamma1 near 0 and large |y|^(2r) are
    where a design uniform in gamma1 rarely starts. gamma0 and r are
    uniform on the box, log10 kappa on [-4, 1]; gamma1 = kappa / c^(2r).
    """
    rng = np.random.default_rng(seed)
    strata = rng.permuted(np.tile(np.arange(n_starts), (3, 1)), axis=1).T
    unit = (strata + rng.random((n_starts, 3))) / n_starts
    lo, span = box.lower[_PHI], (box.upper - box.lower)[_PHI]
    g0, r = lo[0] + unit[:, 0] * span[0], lo[2] + unit[:, 2] * span[2]
    kappa = 10.0 ** (5.0 * unit[:, 1] - 4.0)
    c = float(np.median(np.abs(lag))) or 1.0  # most lags 0: no typical |y| to scale by
    with np.errstate(over="ignore", divide="ignore"):  # extreme c: gamma1 is clipped below
        g1 = kappa / c ** (2.0 * r)
    return _interior(box, np.column_stack([g0, g1, r]))


def _interior(box: ParamBox, pts: np.ndarray) -> np.ndarray:
    """phi start point(s) with free coordinates clipped inside the box, pinned ones set."""
    lower, upper = box.lower[_PHI], box.upper[_PHI]
    span = upper - lower
    free = span > 0
    pts[..., free] = np.clip(
        pts[..., free], (lower + 1e-4 * span)[free], (upper - 1e-4 * span)[free]
    )
    pts[..., ~free] = lower[~free]
    return pts


def _warm_start(series: TimeSeries, kind: PersistenceKind, box: ParamBox):
    """Data-informed phi start: the AR(1) least-squares slope mapped into SDAR space.

    The surface has a poor local maximum where the persistence term
    vanishes and the model degenerates to iid noise around the mean;
    purely random starts fall into it often enough to matter. Seeding
    one start from the linear fit keeps the search anchored in the
    persistent regime.
    """
    y = series.values
    lag, target = y[:-1], y[1:]
    X = np.column_stack([np.ones(lag.size), lag])
    coef, *_ = np.linalg.lstsq(X, target, rcond=None)
    phi = float(np.clip(coef[1], 1e-3, 1.0 - 1e-3))
    g0 = -math.log(phi) if kind is PersistenceKind.M1 else 1.0 / phi
    return _interior(box, np.array([g0, 0.05, 0.5]))


class _ProfileKernel:
    """Profile of the likelihood over phi, and its negated value and phi gradient.

    Built once per fit, it holds the lags, targets, |y| and ln(y^2) of the lags,
    the box's alpha and sigma bounds as floats, and the work buffers w, psi and
    the (3, n-1) psi gradient stack, which a call fills in place: it allocates no
    per-point array and does not validate phi, as `fit` checks the box once. A
    call evaluates the expressions of ``loglik`` and ``loglik_grad`` at
    ``profile(phi)`` in their order, so it matches them bit for bit.
    """

    def __init__(self, series: TimeSeries, kind: PersistenceKind, box: ParamBox):
        self.lag, self.target, self.kind = series.values[:-1], series.values[1:], kind
        self.abs_lag, self.log_y2, n = np.abs(self.lag), _log_y2(self.lag), self.lag.size
        self.lo, self.hi = box.lower[[0, 4]].tolist(), box.upper[[0, 4]].tolist()  # alpha, sigma
        self.w, self.psi, self.stack = np.empty(n), np.empty(n), np.empty((3, n))

    def _eval(self, g0, g1, r):
        """alpha, sigma, -loglik and -grad at phi = (g0, g1, r), through the buffers."""
        lag, w, ps, lo, hi = self.lag, self.w, self.psi, self.lo, self.hi
        _parts(self.kind, self.abs_lag, g0, g1, r, out=(w, ps))
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
    L-BFGS-B runs from an AR(1) warm start and, in design order (ties go
    to the earlier run), the ``_POLISHED`` (5) points of the ``n_starts``-point
    `_start_points` design (deterministic given ``seed``) with the best
    profile values. `converged` is `_converged` at the estimate.
    """
    if len(series) < 20:
        raise ValueError("series too short: need at least 20 observations")
    if np.std(series.values) == 0.0:
        raise ValueError("degenerate series: zero variance")
    if not isinstance(n_starts, (int, np.integer)):
        raise ValueError(f"n_starts must be an integer, got {n_starts!r}")
    if n_starts < 0:
        raise ValueError(f"n_starts must be >= 0, got {n_starts}")
    if box is None:
        box = ParamBox.default(kind)
    # each condition bounds a coordinate from below, so the whole box is valid
    PersistenceParams(*box.lower[_PHI]).validate(kind)

    objective = _ProfileKernel(series, kind, box)
    design = _start_points(box, objective.lag, n_starts, seed)
    screen = np.array([objective(phi)[0] for phi in design])
    best = np.sort(np.argsort(screen, kind="stable")[:_POLISHED])
    best_f, best_phi = np.inf, None
    for phi0 in [_warm_start(series, kind, box), *design[best]]:
        res = minimize(
            objective,
            phi0,
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(box.lower[_PHI], box.upper[_PHI])),
            # no relative-reduction stop: it ends runs early on the profile's flat ridges
            options={"maxiter": 500, "ftol": 0.0, "gtol": 1e-10},
        )
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
