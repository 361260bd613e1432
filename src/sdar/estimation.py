"""Quasi-maximum-likelihood estimation of SDAR parameters.

Maximization is box-constrained quasi-Newton (L-BFGS-B) on the profile
likelihood over phi = (gamma0, gamma1, r), multi-started from a
deterministic Sobol design over the box. For fixed phi the likelihood is
a concave quadratic in alpha and unimodal in sigma, so their box-
constrained maximizers are clipped closed forms, and by Danskin's theorem
the profile gradient is the phi block of the full gradient. Standard errors are
the sandwich form (1/n) * Hbar^{-1} G Hbar^{-1} with Hbar the empirical
mean Hessian and G the empirical mean outer product of per-observation
scores, both evaluated at the estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import model as sdar_model
from .model import PARAM_NAMES, SdarParams
from .persistence import PersistenceKind
from .series import TimeSeries

_GTOL_REL = 1e-6
_BOUNDARY_REL = 1e-6
_COND_LIMIT = 1e12
_PHI = slice(1, 4)  # (gamma0, gamma1, r) within theta


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


@dataclass(frozen=True)
class SandwichMatrices:
    """Empirical mean Hessian and mean outer-product of scores."""

    H_bar: np.ndarray
    G: np.ndarray


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
    at_boundary: np.ndarray | None = None

    def to_json(self) -> str:
        th = self.theta_hat
        doc = {
            "theta_hat": {
                "alpha": th.alpha,
                "gamma0": th.pf.gamma0,
                "gamma1": th.pf.gamma1,
                "r": th.pf.r,
                "sigma": th.sigma,
            },
            "kind": th.kind.value,
            "std_errors": None
            if self.std_errors is None
            else [float(v) for v in self.std_errors],
            "covariance": None
            if self.covariance is None
            else [float(v) for v in self.covariance.ravel()],
            "loglik": self.loglik,
            "aic": self.aic,
            "n_obs": self.n_obs,
            "converged": self.converged,
            "n_starts": self.n_starts,
            "grad_norm": self.grad_norm,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FitResult":
        doc = json.loads(text)
        th = doc["theta_hat"]
        theta = SdarParams.from_array(
            [th["alpha"], th["gamma0"], th["gamma1"], th["r"], th["sigma"]],
            PersistenceKind(doc["kind"]),
        )
        cov = doc["covariance"]
        return cls(
            theta_hat=theta,
            covariance=None if cov is None else np.array(cov).reshape(5, 5),
            std_errors=None
            if doc["std_errors"] is None
            else np.array(doc["std_errors"]),
            loglik=doc["loglik"],
            aic=doc["aic"],
            n_obs=doc["n_obs"],
            converged=doc["converged"],
            n_starts=doc["n_starts"],
            grad_norm=doc["grad_norm"],
        )


def aic(loglik: float, k: int = 5) -> float:
    """Akaike information criterion, 2k - 2*loglik."""
    return 2.0 * k - 2.0 * loglik


def select_model(fits: list[FitResult]) -> int:
    """Index of the fit with minimum AIC; ties go to the first."""
    if not fits:
        raise ValueError("no fits to select from")
    aics = [f.aic for f in fits]
    return int(np.argmin(aics))


def sandwich_cov(
    params: SdarParams, series: TimeSeries
) -> tuple[SandwichMatrices, np.ndarray]:
    """Sandwich covariance (1/n) Hbar^{-1} G Hbar^{-1} at `params`.

    Raises
    ------
    np.linalg.LinAlgError
        If the mean Hessian is numerically singular
        (condition number above 1e12).
    """
    if len(series) < 6:
        raise ValueError("series too short for covariance estimation")
    scores = sdar_model._per_obs_score(params, series)
    hess_t = sdar_model._per_obs_hess(params, series)
    n = scores.shape[1]
    h_bar = hess_t.sum(axis=2) / n
    g = (scores @ scores.T) / n
    g = 0.5 * (g + g.T)
    if np.linalg.cond(h_bar) > _COND_LIMIT:
        raise np.linalg.LinAlgError(
            "mean Hessian is numerically singular; sandwich covariance unavailable"
        )
    h_inv = np.linalg.inv(h_bar)
    cov = h_inv @ g @ h_inv / n
    cov = 0.5 * (cov + cov.T)
    return SandwichMatrices(H_bar=h_bar, G=g), cov


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on the first call.

    scipy costs about a second to import and only a fit needs it, so
    ``import sdar`` and the commands that never fit do not load it.
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


def _start_points(box: ParamBox, n_starts: int, seed: int) -> np.ndarray:
    """phi columns of a scrambled Sobol design over theta, cut from a power-of-two draw."""
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=5, scramble=True, seed=seed)
    unit = sampler.random_base2((n_starts - 1).bit_length())[:n_starts, _PHI]
    return _interior(box, box.lower[_PHI] + unit * (box.upper - box.lower)[_PHI])


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


def _profile(phi, series: TimeSeries, kind: PersistenceKind, box: ParamBox) -> SdarParams:
    """theta at phi with alpha and sigma at their box-constrained maximizers."""
    theta = np.array([0.0, *phi, 1.0])
    u = sdar_model.residuals(SdarParams.from_array(theta, kind), series)
    theta[0] = np.clip(np.mean(u), box.lower[0], box.upper[0])
    theta[4] = np.clip(np.sqrt(np.mean((u - theta[0]) ** 2)), box.lower[4], box.upper[4])
    return SdarParams.from_array(theta, kind)


def fit(
    series: TimeSeries,
    kind: PersistenceKind,
    box: ParamBox | None = None,
    n_starts: int = 16,
    seed: int = 0,
) -> FitResult:
    """Fit an SDAR model by multi-start box-constrained QML.

    Returns the best local maximum of the profile likelihood in phi over
    an AR(1) warm start and ``n_starts`` L-BFGS-B runs started from a
    scrambled Sobol design over the box (deterministic given ``seed``).
    `converged` reflects the projected-gradient norm of the full
    likelihood at the incumbent, re-checked with the analytic gradient.
    """
    if len(series) < 20:
        raise ValueError("series too short: need at least 20 observations")
    if np.std(series.values) == 0.0:
        raise ValueError("degenerate series: zero variance")
    if box is None:
        box = ParamBox.default(kind)

    def neg_profile_and_grad(phi):
        params = _profile(phi, series, kind, box)
        return -sdar_model.loglik(params, series), -sdar_model.loglik_grad(params, series)[_PHI]

    starts = np.vstack(
        [_warm_start(series, kind, box), _start_points(box, n_starts, seed)]
    )
    best_f, best_phi = np.inf, None
    for phi0 in starts:
        res = minimize(
            neg_profile_and_grad,
            phi0,
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(box.lower[_PHI], box.upper[_PHI])),
            # no relative-reduction stop: it ends runs early on the profile's flat ridges
            options={"maxiter": 500, "ftol": 0.0, "gtol": 1e-10},
        )
        if res.fun < best_f:
            best_f = res.fun
            best_phi = res.x

    params = _profile(best_phi, series, kind, box)
    theta = params.to_array()
    ll = sdar_model.loglik(params, series)
    grad = sdar_model.loglik_grad(params, series)
    pgrad = _projected_grad(theta, grad, box.lower, box.upper)
    grad_norm = float(np.linalg.norm(pgrad))
    converged = grad_norm <= _GTOL_REL * max(1.0, abs(ll))

    try:
        _, cov = sandwich_cov(params, series)
        diag = np.diag(cov)
        std_errors = np.sqrt(np.maximum(diag, 0.0))
    except np.linalg.LinAlgError:
        cov = None
        std_errors = None

    span = box.upper - box.lower
    at_boundary = (theta - box.lower <= _BOUNDARY_REL * span) | (
        box.upper - theta <= _BOUNDARY_REL * span
    )

    return FitResult(
        theta_hat=params,
        covariance=cov,
        std_errors=std_errors,
        loglik=ll,
        aic=aic(ll, 5),
        n_obs=len(series) - 1,
        converged=converged,
        n_starts=n_starts,
        grad_norm=grad_norm,
        at_boundary=at_boundary,
    )
