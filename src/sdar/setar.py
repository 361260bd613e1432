"""Two-regime SETAR baseline: conditional least squares and MC forecasting.

The threshold variable is y_{t-1}; the low regime (y_{t-1} <= threshold)
follows an AR(d1) and the high regime an AR(d2), each with its own
intercept and noise scale. The threshold is chosen by grid search over
the unique order statistics of y_{t-1} inside a trimmed quantile band,
minimizing the pooled sum of squared residuals. The search runs on
prefix moments of the sorted design: each candidate's normal equations
are a prefix (low regime) or totals minus a prefix (high regime), and
one stacked solve per regime covers every candidate at once.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .estimation import aic, select_model
from .forecast import ForecastResult, _normals, _summarize
from .series import TimeSeries


@dataclass(frozen=True)
class SetarFit:
    """Estimated two-regime SETAR model."""

    c1: float
    phi1: np.ndarray
    sigma1: float
    c2: float
    phi2: np.ndarray
    sigma2: float
    threshold: float
    d1: int
    d2: int
    prop_low: float
    aic: float
    n_obs: int
    loglik: float = float("nan")

    def validate(self) -> None:
        """Check the fields a forecast reads; aic, n_obs and the others are records."""
        for i, d, phi in ((1, self.d1, self.phi1), (2, self.d2, self.phi2)):
            if not (isinstance(d, numbers.Integral) and d >= 1 and np.shape(phi) == (d,)):
                raise ValueError(f"invalid fit: d{i} = {d!r} is not the int len(phi{i}) >= 1")
        scalars = (self.threshold, self.c1, self.c2, self.sigma1, self.sigma2)
        if not all(isinstance(v, numbers.Real) for v in scalars):
            raise ValueError("invalid fit: threshold, intercepts and noise scales must be numbers")
        if not np.isfinite(np.r_[scalars, self.phi1, self.phi2]).all():
            raise ValueError("invalid fit: non-finite threshold, coefficient or noise scale")
        if min(self.sigma1, self.sigma2) < 0.0:
            raise ValueError("invalid fit: negative noise scale")

    def to_json(self) -> str:
        doc = dict(vars(self))  # every field, in declaration order
        doc["phi1"] = [float(v) for v in self.phi1]
        doc["phi2"] = [float(v) for v in self.phi2]
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SetarFit":
        doc = json.loads(text)
        doc["phi1"] = np.array(doc["phi1"], dtype=float)
        doc["phi2"] = np.array(doc["phi2"], dtype=float)
        fit = cls(**doc)
        fit.validate()
        return fit


def fit_setar(
    series: TimeSeries, d1: int, d2: int, trim: float = 0.15
) -> SetarFit:
    """Conditional-least-squares fit of a SETAR(2, d1, d2) model."""
    if not all(isinstance(d, numbers.Integral) and d >= 1 for d in (d1, d2)):
        raise ValueError(f"lag orders must be integers >= 1, got {d1!r} and {d2!r}")
    d1, d2 = int(d1), int(d2)
    if not 0.0 < trim <= 0.25:
        raise ValueError("trim must be in (0, 0.25]")
    y = series.values
    p = max(d1, d2)
    if y.size < 10 * (p + 1):
        raise ValueError(
            f"series too short: need at least {10 * (p + 1)} observations"
        )
    target = y[p:]
    z = y[p - 1 : -1]  # threshold variable y_{t-1}, aligned with target
    rows = target.size

    order = np.argsort(z, kind="stable")
    z_sorted = z[order]
    t_sorted = target[order]
    # Regression rows (1, y_{t-1}, ..., y_{t-p}), in threshold order.
    lags = [y[p - i : y.size - i] for i in range(1, p + 1)]
    x = np.column_stack([np.ones(rows)] + lags)[order]

    # xtx[k], xty[k]: moments of the first k + 1 sorted rows, so the
    # low regime of candidate k is prefix k - 1 and the high regime is
    # the totals minus it. Each regime reads its leading (d+1) block.
    xtx = np.cumsum(x[:, :, None] * x[:, None, :], axis=0)
    xty = np.cumsum(x * t_sorted[:, None], axis=0)
    yty = np.cumsum(t_sorted**2)
    xtx1, xty1 = xtx[:, : d1 + 1, : d1 + 1], xty[:, : d1 + 1]
    xtx2, xty2 = xtx[:, : d2 + 1, : d2 + 1], xty[:, : d2 + 1]

    min_per_regime = p + 2
    lo_q, hi_q = np.quantile(z, [trim, 1.0 - trim])
    # Candidate k: low regime = sorted rows 0..k-1. Use the last
    # occurrence of each distinct z value so duplicates collapse.
    ks = np.flatnonzero(np.diff(z_sorted) > 0) + 1
    z_k = z_sorted[ks - 1]
    keep = (min_per_regime <= ks) & (ks <= rows - min_per_regime)
    ks = ks[keep & (lo_q <= z_k) & (z_k <= hi_q)]
    if ks.size == 0:
        raise ValueError(
            "no admissible threshold: every candidate leaves a regime too small"
        )

    yty1 = yty[ks - 1]
    b1, b2 = xty1[ks - 1], xty2[-1] - xty2[ks - 1]
    beta1, ok1 = _solve_each(xtx1[ks - 1], b1)
    beta2, ok2 = _solve_each(xtx2[-1] - xtx2[ks - 1], b2)
    # Stacked (1, d+1) @ (d+1, 1) products sum like the scalar beta @ b.
    ssr1 = yty1 - (b1[:, None, :] @ beta1[..., None])[:, 0, 0]
    ssr2 = (yty[-1] - yty1) - (b2[:, None, :] @ beta2[..., None])[:, 0, 0]
    ssr = (ssr1 + ssr2).tolist()
    best = None
    for i in np.flatnonzero(ok1 & ok2).tolist():
        if best is None or ssr[i] < ssr[best] - 1e-12 * abs(ssr[best]):
            best = i
    if best is None:
        raise ValueError("threshold search failed: all regressions singular")

    k, beta1, beta2 = int(ks[best]), beta1[best], beta2[best]
    ssr1, ssr2 = ssr1[best], ssr2[best]
    threshold = float(z_sorted[k - 1])
    n1, n2 = k, rows - k
    sigma1 = float(np.sqrt(max(ssr1, 0.0) / n1))
    sigma2 = float(np.sqrt(max(ssr2, 0.0) / n2))
    ll = _gaussian_loglik(n1, sigma1) + _gaussian_loglik(n2, sigma2)
    return SetarFit(
        c1=float(beta1[0]),
        phi1=beta1[1:].copy(),
        sigma1=sigma1,
        c2=float(beta2[0]),
        phi2=beta2[1:].copy(),
        sigma2=sigma2,
        threshold=threshold,
        d1=d1,
        d2=d2,
        prop_low=n1 / rows,
        aic=aic(ll, d1 + d2 + 4),  # two intercepts, AR coefficients, two sigmas
        n_obs=rows,
        loglik=ll,
    )


def _solve_each(a, b):
    """Solutions beta[i] of a[i] beta[i] = b[i]; ok[i] is False where a[i]
    is exactly singular. The stacked solve raises if any a[i] is; only
    then is each system solved on its own."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(b), bool)
    except np.linalg.LinAlgError:
        pass
    beta, ok = np.zeros_like(b), np.ones(len(b), bool)
    for i in range(len(b)):
        try:
            beta[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            ok[i] = False
    return beta, ok


def _gaussian_loglik(n: int, sigma: float) -> float:
    # SSR/(2 sigma^2) = n/2 at the CLS variance estimate. A degenerate
    # exact fit gets a floor on sigma to keep the value finite.
    sigma = max(sigma, 1e-300)
    return -0.5 * n * np.log(2.0 * np.pi) - n * np.log(sigma) - 0.5 * n


def select_setar(
    series: TimeSeries, max_lag: int = 4, trim: float = 0.15
) -> SetarFit:
    """Best-AIC SETAR fit over lag orders d1, d2 in 1..max_lag."""
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    lags = range(1, max_lag + 1)
    fits = [fit_setar(series, d1, d2, trim) for d1 in lags for d2 in lags]
    return fits[select_model(fits)]


def setar_paths(fit: SetarFit, history, z: np.ndarray) -> np.ndarray:
    """The (H, M) SETAR paths from the last observed values; row h is step h + 1.

    Each path iterates the two-regime map, deciding the regime at every
    step from the previous (simulated) value, with regime-specific
    Gaussian noise ``sigma * z``; ``z`` holds the (H, M) standard
    normals and is only read. At h = 1 the regime is decided by real
    data, so it is identical across paths. Each regime mean is a sum of
    lag rows, oldest lag first, with the intercept added last.
    """
    fit.validate()
    p = max(fit.d1, fit.d2)
    history = np.asarray(history, dtype=float)
    if history.size < p:
        raise ValueError(f"history must contain at least {p} values")
    if not np.isfinite(history[-p:]).all():
        raise ValueError(f"history must be finite in its last {p} values")
    H, M = z.shape
    # buf[h : h + p] is the lag state of step h, oldest first; step h
    # writes row p + h, so the paths fill buf[p:].
    buf = np.empty((p + H, M))
    buf[:p] = history[-p:, None]

    def regime_mean(c, phi, lags):
        # phi[k] weighs y_{t-1-k}, the row lags[-1 - k]
        total = phi[-1] * lags[-len(phi)]
        for k in range(len(phi) - 2, -1, -1):
            total += phi[k] * lags[-1 - k]
        return total + c

    for h in range(H):
        lags = buf[h : h + p]
        low = lags[-1] <= fit.threshold
        mean = np.where(low, regime_mean(fit.c1, fit.phi1, lags),
                        regime_mean(fit.c2, fit.phi2, lags))
        sigma = np.where(low, fit.sigma1, fit.sigma2)
        buf[p + h] = mean + sigma * z[h]
    return buf[p:]


def mc_forecast_setar(
    fit: SetarFit,
    history,
    H: int,
    M: int,
    seed: int = 0,
) -> ForecastResult:
    """Monte-Carlo multi-step SETAR forecast from the last observed values.

    The paths are `setar_paths` driven by one seeded draw, `_normals(M, H, seed)`.
    """
    return _summarize(setar_paths(fit, history, _normals(M, H, seed)))
