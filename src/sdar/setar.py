"""Two-regime SETAR baseline: conditional least squares and MC forecasting.

The threshold variable is y_{t-1}; the low regime (y_{t-1} <= threshold)
follows an AR(d1) and the high regime an AR(d2), each with its own
intercept and noise scale. The threshold is chosen by grid search over
the unique order statistics of y_{t-1} inside the band [TRIM, 1 - TRIM],
minimizing the pooled sum of squared residuals. The search runs on
prefix moments of the sorted design: each candidate's normal equations
are a prefix (low regime) or totals minus a prefix (high regime). One
LDL' sweep per regime, vectorized across the candidates, factors them
all at once, and every order d up to the sweep's reads its residual sum
and full-rank flag off the leading pivots; the sweep keeps no factor.
Only the winner's coefficients are solved for, from its own regime rows.
A fit of lag orders (d1, d2) builds the sorted design of order
p = max(d1, d2), with one order-p sweep per regime, and the lag
selection shares it among every pair with that p.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .estimation import aic, select_model
from .forecast import ForecastResult, _chain_means, _normals, _summarize
from .series import TimeSeries

TRIM = 0.15  # the threshold band: the y_{t-1} quantiles [TRIM, 1 - TRIM], fixed


def _is_lag(d) -> bool:  # an integer >= 1; a bool is an Integral but not a lag order
    return isinstance(d, numbers.Integral) and not isinstance(d, bool) and d >= 1


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
            if not (_is_lag(d) and np.shape(phi) == (d,)):
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


def fit_setar(series: TimeSeries, d1: int, d2: int) -> SetarFit:
    """Conditional-least-squares fit of a SETAR(2, d1, d2) model."""
    if not (_is_lag(d1) and _is_lag(d2)):
        raise ValueError(f"lag orders must be integers >= 1, got {d1!r} and {d2!r}")
    d1, d2 = int(d1), int(d2)
    return _assemble(_design(series.values, max(d1, d2)), d1, d2)


def _design(y: np.ndarray, p: int):
    """The threshold-sorted design of lag order p, shared by every pair with
    max(d1, d2) = p: the admissible candidates ks, the (p + 1, rows) regressor
    rows x and targets t in threshold order, and the low and high regimes'
    `_sweep`s of order p, whose leading (d+1) blocks serve every order d <= p."""
    if y.size < 10 * (p + 1):
        raise ValueError(f"series too short: need at least {10 * (p + 1)} observations")
    target = y[p:]
    z = y[p - 1 : -1]  # threshold variable y_{t-1}, aligned with target
    rows = target.size

    # Regression rows (1, y_{t-1}, ..., y_{t-p}) in threshold order: row 1 is
    # the sorted threshold variable, and row i >= 1 is y[p - i + order].
    order = np.argsort(z, kind="stable")
    m, x = p + 1, np.ones((p + 1, rows))
    x[1:] = y[order + np.arange(p - 1, -1, -1)[:, None]]
    z_sorted, t_sorted = x[1], target[order]
    min_per_regime = p + 2
    lo_q, hi_q = np.quantile(z, [TRIM, 1.0 - TRIM])
    # Candidate k: low regime = sorted rows 0..k-1. Use the last
    # occurrence of each distinct z value so duplicates collapse.
    ks = np.flatnonzero(np.diff(z_sorted) > 0) + 1
    z_k = z_sorted[ks - 1]
    keep = (min_per_regime <= ks) & (ks <= rows - min_per_regime)
    ks = ks[keep & (lo_q <= z_k) & (z_k <= hi_q)]
    if ks.size == 0:
        raise ValueError("no admissible threshold: every candidate leaves a regime too small")

    # The moments over the first k rows: the low regime of candidate k, and
    # the totals (last entry), from which the high regime is the difference.
    at = np.append(ks - 1, rows - 1)
    xtx = [[np.cumsum(x[i] * x[j])[at] for j in range(i + 1)] for i in range(m)]
    xty = [np.cumsum(x[i] * t_sorted)[at] for i in range(m)]
    yty = np.cumsum(t_sorted**2)[at]
    sweeps = [_sweep([[part(v) for v in row] for row in xtx], [part(v) for v in xty], part(yty))
              for part in ((lambda v: v[:-1]), (lambda v: v[-1] - v[:-1]))]  # low, high
    return ks, x, t_sorted, sweeps


def _sweep(a, b, yy):
    """LDL' of the stacked systems a beta = b, a[i][j] (j <= i) and b[i] (K,)
    columns over the candidates: the lists (ssr, ok), where ssr[d] and ok[d] are
    the (K,) residual sums yy - sum_j u_j^2 / D_j and full-rank flags of the
    order-d fit. That fit reads the leading (d+1) block, whose pivots D and
    forward terms u are the first d+1 of any larger block's.

    One right-looking pass over the columns, without square roots; no factor
    is kept. An order is full-rank (ok) where each pivot D_j of its block is
    above the rounding of its prefix sums, rows * eps * A_jj (rows = A_00, A_jj
    the diagonal before elimination), as a `matrix_rank` test finds; the
    divisions by a smaller pivot give values, inf or NaN that no ok order reads.
    """
    m = len(b)
    floor = [np.finfo(float).eps * a[0][0] * a[j][j] for j in range(m)]
    s, u = a, b  # the Schur complements and forward terms, updated in the caller's lists
    ssr, ok = [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(m):
            piv = s[j][j]
            ok.append(piv > floor[j] if j == 0 else ok[-1] & (piv > floor[j]))
            ssr.append((yy if j == 0 else ssr[-1]) - u[j] * (u[j] / piv))
            for i in range(j + 1, m):
                lij = s[i][j] / piv
                u[i] = u[i] - lij * u[j]
                for k in range(j + 1, i + 1):
                    s[i][k] = s[i][k] - lij * s[k][j]
    return ssr, ok


def _assemble(design, d1: int, d2: int) -> SetarFit:
    """The SETAR(2, d1, d2) fit at the candidate of least pooled SSR.

    The sweeps score every candidate; the winner's coefficients solve each
    regime's own normal equations, from its rows of x and t, which its ok
    flags say are full-rank; the threshold is its last low row's y_{t-1}.
    """
    ks, x, t, ((ssr1, ok1), (ssr2, ok2)) = design
    ssr1, ssr2 = ssr1[d1], ssr2[d2]
    cands = np.flatnonzero(ok1[d1] & ok2[d2])
    if cands.size == 0:
        raise ValueError("threshold search failed: all regressions singular")
    ssr = (ssr1 + ssr2)[cands]
    # A candidate that beats the best so far lies below every earlier one, so the
    # 1e-12 rule need only visit the first candidate and the strict running minima
    # after it; np.fmin skips NaN, so a NaN starts no record.
    lead = np.r_[True, ssr[1:] < np.fmin.accumulate(ssr)[:-1]]
    best = low_ssr = None
    for i, s in zip(cands[lead].tolist(), ssr[lead].tolist()):
        if best is None or s < low_ssr - 1e-12 * abs(low_ssr):
            best, low_ssr = i, s

    k, rows = int(ks[best]), t.size
    beta1, beta2 = (np.linalg.solve(xr @ xr.T, xr @ tr)
                    for xr, tr in ((x[: d1 + 1, :k], t[:k]), (x[: d2 + 1, k:], t[k:])))
    ssr1, ssr2 = ssr1[best], ssr2[best]
    threshold = float(x[1, k - 1])
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


def _gaussian_loglik(n: int, sigma: float) -> float:
    # SSR/(2 sigma^2) = n/2 at the CLS variance estimate. A degenerate
    # exact fit gets a floor on sigma to keep the value finite.
    sigma = max(sigma, 1e-300)
    return -0.5 * n * np.log(2.0 * np.pi) - n * np.log(sigma) - 0.5 * n


def select_setar(series: TimeSeries, max_lag: int = 4) -> SetarFit:
    """Best-AIC SETAR fit over lag orders d1, d2 in 1..max_lag.

    Each pair's AIC is taken on its own n - max(d1, d2) targets, so pairs of
    different p are scored on different data. That is the rule, not a
    stopgap: a common sample (targets y[max_lag:] for every pair) picked the
    true (3, 3) on 20 of 30 simulated SETAR(2,3,3) series at n = 5000, where
    this rule picks it on 28.
    """
    if not _is_lag(max_lag):
        raise ValueError(f"max_lag must be >= 1 and an integer, got {max_lag!r}")
    lags, designs, fits = range(1, max_lag + 1), {}, []
    for d1 in lags:  # pair order decides which error is raised first
        for d2 in lags:
            p = max(d1, d2)
            if p not in designs:
                designs[p] = _design(series.values, p)
            # (p, p) is the last pair with this p, so its design is dropped there
            fits.append(_assemble(designs.pop(p) if d1 == d2 else designs[p], d1, d2))
    return fits[select_model(fits)]


def setar_paths(fit: SetarFit, history, z: np.ndarray) -> np.ndarray:
    """The (H, M) SETAR paths from the last observed values; row h is step h + 1.

    Each path iterates the two-regime map, deciding the regime at every
    step from the previous (simulated) value, with regime-specific
    Gaussian noise ``sigma * z``; ``z`` holds the (H, M) standard
    normals and is only read. At h = 1 the regime is decided by real
    data, so it is identical across paths. Each path looks its regime's
    coefficients up in one table; the mean is a sum of lag rows, oldest
    lag first, with the intercept added last.
    """
    return _setar_paths(fit, history, z, np.empty(z.shape))


def _setar_paths(fit: SetarFit, history, z: np.ndarray, paths: np.ndarray,
                 means: np.ndarray | None = None) -> np.ndarray:
    """`setar_paths` into ``paths``, which may be ``z``: z[h] is read before paths[h] is set.

    Given an (H,) ``means``, the loop also records means[h], the mean over
    paths of step h + 1's conditional mean, before its noise is added;
    then z[H - 1] is never read and paths[H - 1] never set.
    """
    fit.validate()
    p = max(fit.d1, fit.d2)
    history = np.asarray(history, dtype=float)
    if history.size < p:
        raise ValueError(f"history must contain at least {p} values")
    if not np.isfinite(history[-p:]).all():
        raise ValueError(f"history must be finite in its last {p} values")
    # Lag k of step h is paths[h - k], or the history row head[h - k] for k > h.
    head = np.broadcast_to(history[-p:, None], (p, z.shape[1]))
    # Column 1 is the low regime, 0 the high: the intercept, the weight of each
    # lag 1..p (0 beyond the regime's order: +-0 on a finite lag) and sigma.
    tab = np.zeros((p + 2, 2))
    tab[0], tab[p + 1] = (fit.c2, fit.c1), (fit.sigma2, fit.sigma1)
    tab[1 : fit.d2 + 1, 0], tab[1 : fit.d1 + 1, 1] = fit.phi2, fit.phi1
    for h in range(z.shape[0]):
        lag = {k: paths[h - k] if k <= h else head[h - k] for k in range(1, p + 1)}
        idx = (lag[1] <= fit.threshold).astype(np.intp)
        total = tab[p].take(idx) * lag[p]
        for k in range(p - 1, 0, -1):
            total += tab[k].take(idx) * lag[k]
        total += tab[0].take(idx)
        if means is not None:  # step 1's mean is the same on every path: take it whole
            means[h] = total[0] if h == 0 else total.mean()
            if h == z.shape[0] - 1:
                break
        np.add(total, np.multiply(tab[p + 1].take(idx), z[h], out=paths[h]), out=paths[h])
    return paths


def mc_forecast_setar(
    fit: SetarFit,
    history,
    H: int,
    M: int,
    seed: int = 0,
) -> ForecastResult:
    """Monte-Carlo multi-step SETAR forecast from the last observed values.

    The paths are `setar_paths` driven by one seeded draw, `_normals(M, H, seed)`,
    written over the draw: the fan holds one (H, M) array.
    """
    z = _normals(M, H, seed)
    return _summarize(_setar_paths(fit, history, z, z))


def setar_means(fit: SetarFit, history, z: np.ndarray) -> np.ndarray:
    """The (H,) SETAR forecast means from the last observed values and (H, M) normals ``z``.

    A `rolling_evaluate` forecaster once ``fit`` is bound. The paths of
    `setar_paths` run on the antithetic pair, the 2M columns [z, -z], and
    each step's mean is the average over paths of its conditional mean,
    taken before the step's noise is added, not of the noisy path values
    (Rao-Blackwellization). The mirror cancels the error that is linear
    in the noise within a regime. Step 1 is exact: the regime and the
    lags are the data's. Only z[:H - 1] is read.
    """
    H, M = z.shape
    pair, means = np.empty((H, 2 * M)), np.empty(H)
    np.copyto(pair[:-1, :M], z[:-1])
    np.negative(z[:-1], out=pair[:-1, M:])
    _setar_paths(fit, history, pair, pair, means)
    return means


def exact_means_setar(fit: SetarFit, values, H: int):
    """Exact h-step means of a SETAR(2,1,1) fit, h = 1..H, as a `rolling_evaluate` forecaster.

    A first-order SETAR is a scalar chain, so its means come from the
    grid of `forecast.exact_means_sdar`, with the threshold as a cut: the
    low regime holds y <= threshold. The grid covers ``values``, which
    must hold every forecast origin; the forecaster reads no draw.
    Raises `ValueError` for max(d1, d2) > 1, whose means come from `setar_means`.
    """
    fit.validate()
    if max(fit.d1, fit.d2) > 1:
        raise ValueError(f"exact means need SETAR(2,1,1), got SETAR(2,{fit.d1},{fit.d2})")
    (phi1,), (phi2,) = fit.phi1, fit.phi2
    return _chain_means([(lambda y: phi1 * y + fit.c1, fit.sigma1),
                         (lambda y: phi2 * y + fit.c2, fit.sigma2)], values, H, fit.threshold)
