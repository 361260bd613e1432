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
from dataclasses import dataclass

import numpy as np

from .forecast import ForecastResult, _summarize
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

    def to_json(self) -> str:
        doc = dict(vars(self))  # every field, in declaration order
        doc["phi1"] = [float(v) for v in self.phi1]
        doc["phi2"] = [float(v) for v in self.phi2]
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SetarFit":
        doc = json.loads(text)
        doc["phi1"] = np.array(doc["phi1"])
        doc["phi2"] = np.array(doc["phi2"])
        return cls(**doc)


def fit_setar(
    series: TimeSeries, d1: int, d2: int, trim: float = 0.15
) -> SetarFit:
    """Conditional-least-squares fit of a SETAR(2, d1, d2) model."""
    if d1 < 1 or d2 < 1:
        raise ValueError("lag orders must be >= 1")
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

    # Scalar dots for the winner: sigma is independent of stacked sums.
    k, beta1, beta2 = int(ks[best]), beta1[best], beta2[best]
    ssr1 = yty[k - 1] - beta1 @ b1[best]
    ssr2 = (yty[-1] - yty[k - 1]) - beta2 @ b2[best]
    threshold = float(z_sorted[k - 1])
    n1, n2 = k, rows - k
    sigma1 = float(np.sqrt(max(ssr1, 0.0) / n1))
    sigma2 = float(np.sqrt(max(ssr2, 0.0) / n2))
    ll = _gaussian_loglik(n1, sigma1) + _gaussian_loglik(n2, sigma2)
    k_params = d1 + d2 + 4  # two intercepts, AR coefficients, two sigmas
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
        aic=2.0 * k_params - 2.0 * ll,
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
    best = None
    for d1 in range(1, max_lag + 1):
        for d2 in range(1, max_lag + 1):
            fit = fit_setar(series, d1, d2, trim)
            if best is None or fit.aic < best.aic:
                best = fit
    return best


def mc_forecast_setar(
    fit: SetarFit,
    history,
    H: int,
    M: int,
    seed: int = 0,
    quantile_probs=(0.05, 0.25, 0.5, 0.75, 0.95),
) -> ForecastResult:
    """Monte-Carlo multi-step SETAR forecast from the last observed values.

    Each path iterates the two-regime map, deciding the regime at every
    step from the previous (simulated) value, with regime-specific
    Gaussian noise. At h = 1 the regime is decided by real data, so it
    is identical across paths.
    """
    if H < 1 or M < 1:
        raise ValueError("H and M must be >= 1")
    p = max(fit.d1, fit.d2)
    history = np.asarray(history, dtype=float)
    if history.size < p:
        raise ValueError(f"history must contain at least {p} values")
    coefs = np.r_[fit.threshold, fit.c1, fit.c2, fit.phi1, fit.phi2]
    if not np.isfinite(coefs).all():
        raise ValueError("invalid fit: non-finite threshold or coefficient")
    for scale in (fit.sigma1, fit.sigma2):
        if not (scale >= 0.0 and np.isfinite(scale)):
            raise ValueError(f"invalid fit: noise scale {scale} is not >= 0")

    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((M, H))
    # state[:, -1] is the most recent value.
    state = np.tile(history[-p:], (M, 1))
    paths = np.empty((M, H))
    phi1 = fit.phi1[::-1]  # align with state columns (oldest first)
    phi2 = fit.phi2[::-1]
    for h in range(H):
        prev = state[:, -1]
        low = prev <= fit.threshold
        mean = np.where(
            low,
            fit.c1 + state[:, p - fit.d1 :] @ phi1,
            fit.c2 + state[:, p - fit.d2 :] @ phi2,
        )
        sigma = np.where(low, fit.sigma1, fit.sigma2)
        new = mean + sigma * eps[:, h]
        paths[:, h] = new
        state = np.concatenate([state[:, 1:], new[:, None]], axis=1)
    return _summarize(paths, seed, quantile_probs)
