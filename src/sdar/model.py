"""SDAR model mechanics: simulation, residuals, likelihood and derivatives.

The model is Y_t = alpha + psi(Y_{t-1}) * Y_{t-1} + xi_t with Gaussian
innovations xi_t ~ N(0, sigma^2). The full parameter vector is ordered
theta = (alpha, gamma0, gamma1, r, sigma) everywhere; `SdarParams`
round-trips to and from that flat layout.

The quasi-log-likelihood is the exact Gaussian likelihood conditional
on the first observation, including the -0.5*ln(2*pi) constant so that
AIC values are comparable across model families. Analytic gradient and
Hessian come from the score / Hessian entries of the Gaussian
conditional density combined with the persistence-function derivative
stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .persistence import (PersistenceKind, PersistenceParams, _grad_stack, _hess_stack, _log_y2,
                          _parts, psi)
from .series import TimeSeries

PARAM_NAMES = ("alpha", "gamma0", "gamma1", "r", "sigma")


@dataclass(frozen=True)
class SdarParams:
    """Full SDAR parameter vector theta = (alpha, gamma0, gamma1, r, sigma)."""

    alpha: float
    pf: PersistenceParams
    sigma: float
    kind: PersistenceKind

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        self.pf.validate(self.kind)

    def to_array(self) -> np.ndarray:
        return np.array(
            [self.alpha, self.pf.gamma0, self.pf.gamma1, self.pf.r, self.sigma]
        )

    @classmethod
    def from_array(cls, theta, kind: PersistenceKind) -> "SdarParams":
        alpha, g0, g1, r, sigma = (float(v) for v in theta)
        return cls(alpha, PersistenceParams(g0, g1, r), sigma, kind)


def simulate(
    params: SdarParams, n: int, seed: int
) -> TimeSeries:
    """Simulate an SDAR path of length n from a seeded PCG64 stream.

    Deterministic given (params, n, seed); the recursion starts at the
    model's initial condition Y_0 = 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(n) * params.sigma
    y = np.empty(n)
    prev = 0.0
    kind, pf, alpha = params.kind, params.pf, params.alpha
    g0, g1, r = pf.gamma0, pf.gamma1, pf.r
    m1 = kind is PersistenceKind.M1
    for t in range(n):
        w = abs(prev) ** (2.0 * r)
        u = g0 + g1 * w
        ps = math.exp(-u) if m1 else 1.0 / u
        prev = alpha + ps * prev + xi[t]
        y[t] = prev
    return TimeSeries(y)


def _lag(series):
    """The lags Y_1..Y_{n-1}; the first observation is conditioned on."""
    if len(series) < 2:
        raise ValueError("series must have length >= 2")
    return series.values[:-1]


def persistence_series(params: SdarParams, series: TimeSeries) -> np.ndarray:
    """Fitted persistence values psi(y_{t-1}) for t = 2..n (length n-1)."""
    return np.asarray(psi(params.kind, _lag(series), params.pf))


def residuals(params: SdarParams, series: TimeSeries) -> np.ndarray:
    """Innovation estimates xi_t = Y_t - alpha - psi(Y_{t-1}) * Y_{t-1}, t = 2..n."""
    return _terms(params, series)[1]


def loglik(params: SdarParams, series: TimeSeries) -> float:
    """Total Gaussian quasi-log-likelihood (constant included)."""
    return _gaussian_loglik(residuals(params, series), params.sigma)


def _gaussian_loglik(xi, s):
    """Log-likelihood of innovations ``xi`` under N(0, s^2), constant included."""
    n = xi.size
    return float(
        -0.5 * n * math.log(2.0 * math.pi)
        - n * math.log(s)
        - np.dot(xi, xi) / (2.0 * s * s)
    )


def _terms(params, series):
    """Lags, innovations, psi gradient stack (3, n-1) and psi pieces (w, psi, ln y^2, gamma1)."""
    lag, p = _lag(series), params.pf
    pieces = (*_parts(params.kind, np.abs(lag), p.gamma0, p.gamma1, p.r), _log_y2(lag), p.gamma1)
    xi = series.values[1:] - params.alpha - pieces[1] * lag
    return lag, xi, _grad_stack(params.kind, *pieces), pieces


def loglik_grad(params: SdarParams, series: TimeSeries) -> np.ndarray:
    """Analytic gradient of the total log-likelihood in theta order."""
    lag, xi, pg, _ = _terms(params, series)
    s = params.sigma
    s2 = s * s
    g = np.empty(5)
    g[0] = np.sum(xi) / s2
    g[1:4] = pg @ (xi * lag) / s2
    g[4] = np.sum(xi * xi - s2) / (s2 * s)
    return g


def _per_obs_score(params, series):
    """Per-observation score vectors, shape (5, n-1)."""
    lag, xi, pg, _ = _terms(params, series)
    s = params.sigma
    s2 = s * s
    out = np.empty((5, lag.size))
    out[0] = xi / s2
    out[1:4] = pg * (xi * lag) / s2
    out[4] = (xi * xi - s2) / (s2 * s)
    return out


def loglik_hess(params: SdarParams, series: TimeSeries) -> np.ndarray:
    """Analytic 5x5 Hessian of the total log-likelihood in theta order."""
    lag, xi, pg, pieces = _terms(params, series)
    s = params.sigma
    s2, s3, s4 = s * s, s**3, s**4
    ph = _hess_stack(params.kind, *pieces)  # (3, 3, n-1)
    h = np.empty((5, 5, lag.size))
    h[0, 0] = -1.0 / s2
    h[0, 1:4] = h[1:4, 0] = -lag * pg / s2
    h[0, 4] = h[4, 0] = -2.0 * xi / s3
    h[1:4, 1:4] = (xi * lag * ph - lag**2 * pg[:, None, :] * pg[None, :, :]) / s2
    h[1:4, 4] = h[4, 1:4] = -2.0 * xi * lag * pg / s3
    h[4, 4] = 1.0 / s2 - 3.0 * xi * xi / s4
    return h.sum(axis=2)
