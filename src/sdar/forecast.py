"""Monte-Carlo multi-step SDAR forecasting and accuracy comparison.

Forecasts iterate the fitted one-step map forward with fresh Gaussian
innovations along each of M simulated paths; per-horizon point
forecasts are the path means and intervals come from the empirical
path distribution. Accuracy is scored per horizon with MAFE, MSFE and
MAPE over forecast origins, where every model reads the same draw of
standard normals, and two models are compared through
relative-efficiency ratios (SDAR over baseline; values below one favor
SDAR).

Paths and draws are (H, M) arrays, one row per step, so every path loop
steps contiguous rows and every summary reduces along axis 1. The draw
is ``default_rng(seed).standard_normal((H, M))``: normal [h, m] drives
path m at step h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SdarParams
from .persistence import psi
from .series import TimeSeries

METRIC_NAMES = ("mafe", "msfe", "mape")
QUANTILE_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)  # the fan levels, ascending


@dataclass(frozen=True)
class ForecastResult:
    """Per-horizon MC forecast means and empirical quantiles."""

    horizon: int
    means: np.ndarray
    quantiles: dict[float, np.ndarray]
    M: int
    path_std: np.ndarray

    def mc_std_error(self) -> np.ndarray:
        """Monte-Carlo standard error of each per-horizon mean."""
        return self.path_std / np.sqrt(self.M)


@dataclass(frozen=True)
class AccuracyReport:
    """MAFE/MSFE/MAPE per horizon; entries are NaN where undefined."""

    mafe: np.ndarray
    msfe: np.ndarray
    mape: np.ndarray
    n_origins: int

    @property
    def horizon(self) -> int:
        return self.mafe.size

    def to_csv(self) -> str:
        return horizon_csv({name: getattr(self, name) for name in METRIC_NAMES})


def _summarize(paths: np.ndarray) -> ForecastResult:
    """Fan summary of an (H, M) path array: means, `QUANTILE_PROBS` quantiles, path std.

    Sorts each row of ``paths`` in place, after the means and path std
    are taken, and lets `np.quantile` partition the sorted rows in place,
    so the caller gets its rows back permuted. The quantiles are those
    of the unsorted rows, bit for bit: the partition finds the same
    order statistics, and on sorted rows it finds them faster.
    """
    H, M = paths.shape
    means = paths.mean(axis=1)
    path_std = paths.std(axis=1, ddof=1) if M > 1 else np.zeros(H)
    paths.sort(axis=1)
    quantiles = np.quantile(paths, QUANTILE_PROBS, axis=1, overwrite_input=True)
    return ForecastResult(horizon=H, means=means, quantiles=dict(zip(QUANTILE_PROBS, quantiles)),
                          M=M, path_std=path_std)


def _normals(M: int, H: int, seed: int) -> np.ndarray:
    """``default_rng(seed).standard_normal((H, M))``: normal [h, m] drives path m at step h.

    H and M must be >= 1.
    """
    if H < 1 or M < 1:
        raise ValueError("H and M must be >= 1")
    return np.random.default_rng(seed).standard_normal((H, M))


def sdar_paths(fit, y_n: float, z: np.ndarray) -> np.ndarray:
    """The (H, M) SDAR paths from last observation y_n; row h is step h + 1 of every path.

    ``z`` holds the (H, M) standard normals that drive the paths; it is
    only read. ``fit`` may be a `FitResult` or the `SdarParams` directly.
    """
    params: SdarParams = getattr(fit, "theta_hat", fit)
    if not np.isfinite(y_n):
        raise ValueError(f"y_n must be finite, got {y_n}")
    paths = np.empty(z.shape)
    state = np.full(z.shape[1], float(y_n))
    for h in range(z.shape[0]):
        ps = psi(params.kind, state, params.pf)
        state = params.alpha + ps * state + z[h] * params.sigma
        paths[h] = state
    return paths


def mc_forecast_sdar(
    fit,
    y_n: float,
    H: int,
    M: int = 10_000,
    seed: int = 0,
) -> ForecastResult:
    """Monte-Carlo forecast of an SDAR model from last observation y_n.

    ``fit`` may be a `FitResult` or the `SdarParams` directly. All M
    innovation draws come from one seeded stream generated up front, so
    the result is deterministic given (fit, y_n, H, M, seed) and
    independent of path evaluation order.
    """
    return _summarize(sdar_paths(fit, y_n, _normals(M, H, seed)))


def rolling_evaluate(
    forecasters,
    series_train: TimeSeries,
    series_test: TimeSeries,
    H: int,
    M: int = 10_000,
    seed: int = 0,
    mode: str = "single-origin",
) -> list[AccuracyReport]:
    """Out-of-sample evaluation of forecasters over the test window.

    Parameters
    ----------
    forecasters : sequence of callables
        ``forecaster(history, z) -> means`` where ``history`` is a
        read-only view of the series up to the forecast origin, ``z``
        the read-only (H, M) standard normals of that origin and
        ``means`` the (H,) point forecasts, such as the path means
        ``paths.mean(axis=1)``. Origin o draws once, with
        ``_normals(M, H, seed + o)``, and every forecaster gets the
        same draw. Parameters are not re-estimated per origin.
    mode : {"single-origin", "rolling-origin"}
        Single-origin scores one forecast, issued from the end of the
        training window (origin 0 only). Rolling issues a full H-step forecast
        from every origin whose targets all lie inside the test window
        (origin o uses the realized test values up to o), giving
        ``len(test) - H + 1`` origins at every horizon.

    Returns one `AccuracyReport` per forecaster, in order.
    """
    train, test = series_train.values, series_test.values
    if mode not in ("single-origin", "rolling-origin"):
        raise ValueError(f"unknown mode {mode!r}")
    if test.size < H:
        raise ValueError(f"test window shorter than horizon {H}")
    n_origins = 1 if mode == "single-origin" else test.size - H + 1
    values = np.concatenate([train, test])
    values.flags.writeable = False
    means = []
    for o in range(n_origins):
        z = _normals(M, H, seed + o)
        z.flags.writeable = False
        history = values[: train.size + o]
        means.append([forecaster(history, z) for forecaster in forecasters])
    means = np.reshape(means, (n_origins, len(forecasters), H))  # raises unless each gives H
    actual = np.lib.stride_tricks.sliding_window_view(test, H)[:n_origins, None]
    nz = actual != 0.0
    err = np.abs(actual - means)
    with np.errstate(divide="ignore", invalid="ignore"):
        pct_err = np.where(nz, err / np.abs(actual), 0.0)  # MAPE skips zero actuals
    # Running sums add the origins in order; np.sum may pair them instead.
    total = np.add.accumulate([err, err**2, pct_err], axis=1)[:, -1]
    count = nz.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mape = np.where(count > 0, total[2] / count, np.nan)
    mafe, msfe = total[:2] / n_origins
    return [AccuracyReport(*row, n_origins) for row in zip(mafe, msfe, mape)]


def relative_efficiency(a: AccuracyReport, b: AccuracyReport) -> np.ndarray:
    """Elementwise accuracy ratios a/b, rows (mafe, msfe, mape).

    A value below 1 means model `a` was the more accurate at that
    horizon. Cells with a zero denominator are NaN.
    """
    if a.horizon != b.horizon:
        raise ValueError("reports cover different horizons")
    if a.n_origins != b.n_origins:
        raise ValueError("reports aggregate different origin counts")
    num, den = (np.array([getattr(r, name) for name in METRIC_NAMES]) for r in (a, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den != 0.0, num / den, np.nan)


def relative_efficiency_csv(re: np.ndarray) -> str:
    """Table-style CSV of a relative-efficiency array (rows = horizons)."""
    return horizon_csv(dict(zip(METRIC_NAMES, re)))


def horizon_csv(columns: dict[str, np.ndarray]) -> str:
    """CSV with one row per horizon: ``h`` from 1, then each column as ``%.10g``."""
    lines = [",".join(["h", *columns])]
    for h, row in enumerate(zip(*columns.values()), start=1):
        lines.append(",".join([str(h), *(f"{v:.10g}" for v in row)]))
    return "\n".join(lines) + "\n"
