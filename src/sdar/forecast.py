"""SDAR forecasting, by Monte Carlo or by exact means, and accuracy comparison.

Monte-Carlo forecasts iterate the fitted one-step map forward with fresh
Gaussian innovations along each of M simulated paths; per-horizon point
forecasts are the path means and intervals come from the empirical
path distribution. Accuracy is scored per horizon with MAFE, MSFE and
MAPE over every origin the test window holds (one if it holds H values),
and two models are compared through relative-efficiency ratios (SDAR
over baseline; values below one favor SDAR).

Exact means need no draw. SDAR, and SETAR with max(d1, d2) = 1, are
scalar chains y' ~ N(m(y), s(y)^2), so their h-step conditional means
obey m_h(y) = E[m_{h-1}(y')] with m_0(y) = y. `exact_means_sdar` and
`setar.exact_means_setar` tabulate that recursion once, on a trapezoid
grid over the states the chain reaches within H steps of the data, and
read each origin off it; a scoring run whose forecasters are all exact
draws nothing. In the CLI's `compare` the shared draw feeds only a SETAR
with max(d1, d2) > 1, whose means `setar.setar_means` takes from each
step's conditional mean averaged over antithetic paths, not from the
path values.

Paths and draws are (H, M) arrays, one row per step, so every path loop
steps contiguous rows and every summary reduces along axis 1. The draw
is ``default_rng(seed).standard_normal((H, M))``: normal [h, m] drives
path m at step h. A fan owns its draw, so its path loop writes step h
over row h of the draw once it has read it, and the fan lives in that
one (H, M) array; the public path loops only read theirs. The fan's
summary sorts each row in place and reads its quantiles off it by index
with numpy 2.4.6's linear ``np.quantile`` rule (Hyndman-Fan type 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SdarParams
from .persistence import psi
from .series import TimeSeries

METRIC_NAMES = ("mafe", "msfe", "mape")
QUANTILE_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)  # the fan levels, ascending
GRID_NODES = 601  # nodes of the exact-means grid, before a cut adds one
GRID_MARGIN = 8.0  # the grid reaches this many noise scales past the data
MASS_TOL = 1e-6  # largest |1 - mass| the grid may hold within H steps of an origin
# Entries of K per row block (64 kB, below malloc's 128 kB mmap threshold). A whole
# K (2.9 MB at 601 nodes), built once and freed, raised the peak RSS of a compare
# whose SETAR draws paths by about 1 MB; blocks rebuilt at every step did not.
K_BLOCK = 2**13


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

    Allocates nothing of full size. The path std is taken one row at a
    time through one reused (M,) buffer, with the ufuncs of numpy's
    ``_var`` (sum / M, subtract, square, sum / (M - 1), sqrt): it is
    ``std(axis=1, ddof=1)`` bit for bit. Then each row of ``paths`` is
    sorted in place (the caller gets its rows back sorted) and the levels
    are read off it by index with ``np.quantile``'s linear rule
    (Hyndman-Fan type 7) as numpy 2.4.6 writes it in ``_get_indexes``,
    ``_get_gamma`` and ``_lerp``: virtual index (M - 1) q, both neighbours
    at -1 from M - 1 on, and the lerp from the upper neighbour where
    gamma >= 0.5. A row holding a NaN reads the NaN its sort leaves last.
    The levels are ``np.quantile`` of the sorted rows bit for bit, and of
    the unsorted rows value for value (``np.sort`` drops a NaN's sign bit).
    """
    H, M = paths.shape
    means = paths.mean(axis=1)
    path_std = np.zeros(H)
    if M > 1:
        dev = np.empty(M)
        for h, row in enumerate(paths):
            np.square(np.subtract(row, np.add.reduce(row) / M, out=dev), out=dev)
            path_std[h] = np.add.reduce(dev)
        np.sqrt(path_std / (M - 1), out=path_std)
    paths.sort(axis=1)
    virtual = (M - 1) * np.array(QUANTILE_PROBS)
    lo = np.where(virtual >= M - 1, -1, np.floor(virtual)).astype(np.intp)
    hi = np.where(lo < 0, -1, lo + 1)
    gamma = (virtual - lo)[:, None]
    a, b = paths.T[lo], paths.T[hi]  # (levels, H): the neighbours of every row
    diff = b - a
    quantiles = np.add(a, diff * gamma)
    np.subtract(b, diff * (1 - gamma), out=quantiles, where=gamma >= 0.5)
    np.copyto(quantiles, paths[:, -1], where=np.isnan(paths[:, -1]))
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
    return _sdar_paths(fit, y_n, z, np.empty(z.shape))


def _sdar_paths(fit, y_n: float, z: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """`sdar_paths` into ``paths``, which may be ``z``: z[h] is read before paths[h] is set."""
    params: SdarParams = getattr(fit, "theta_hat", fit)
    if not np.isfinite(y_n):
        raise ValueError(f"y_n must be finite, got {y_n}")
    state = np.full(z.shape[1], float(y_n))
    for h in range(z.shape[0]):
        mean = params.alpha + psi(params.kind, state, params.pf) * state
        state = np.add(mean, np.multiply(z[h], params.sigma, out=paths[h]), out=paths[h])
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
    independent of path evaluation order. The paths are those of
    `sdar_paths`, written over the draw: the fan holds one (H, M) array.
    """
    z = _normals(M, H, seed)
    return _summarize(_sdar_paths(fit, y_n, z, z))


def _kernel(mean: np.ndarray, scale: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Rows exp(-(nodes - mean[i])^2 / (2 scale[i]^2)): N(mean[i], scale[i]^2) densities
    at ``nodes``, times sqrt(2 pi) scale[i]. One array, scaled in place."""
    k = np.subtract.outer(mean, nodes)
    np.square(k, out=k)
    k *= (-0.5 / scale**2)[:, None]
    return np.exp(k, out=k)


def _chain_means(pieces, values, H: int, cut: float | None = None):
    """The exact-means forecaster of a chain y' ~ N(m_i(y), s_i^2) on piece i.

    ``pieces`` holds one (m_i, s_i) per piece, m_i a function of a state
    array and s_i > 0: one piece, or two split at ``cut``, the first for
    y <= cut. The grid follows the chain: [lo, hi] starts as the range
    of ``values`` (where the origins lie) and the cut, and each of H
    rounds widens it to m's extremes over [lo, hi] plus GRID_MARGIN
    noise scales on each side, sampled at GRID_NODES points, so a chain
    that leaves the data's range for a second basin stays on the grid.
    The grid is then about GRID_NODES evenly spaced trapezoid nodes over
    [lo, hi] plus that margin. The cut is a node that ends one panel and
    starts the next, so m_h, which jumps there, is integrated piece by
    piece. K, the (nodes, nodes) transition matrix, gives m_h = K m_{h-1}
    and the mass kept, K^h 1, in one recursion, K_BLOCK entries at a time.

    The forecaster ``(history, z=None) -> means`` reads only history[-1] =
    y_n. Step 1 is m(y_n); step h >= 2 is the K-row of y_n itself times
    m_{h-1}. It raises `ValueError` where the mass the grid keeps over H
    steps from y_n is off 1 by more than MASS_TOL: the chain leaves the
    grid (an explosive fit, say) or the grid does not resolve s.
    """
    scales = np.array([s for _, s in pieces], dtype=float)
    if not (np.isfinite(scales).all() and (scales > 0.0).all()):
        raise ValueError(f"exact means need positive, finite noise scales, got {scales}")
    if H < 1:
        raise ValueError("H must be >= 1")
    span = np.r_[np.asarray(values, dtype=float), [] if cut is None else cut]
    if not np.isfinite(span).all():
        raise ValueError("values and cut must be finite")

    def split_at_cut(x):  # each piece's share of x, the cut in both
        return [x] if cut is None else [x[x <= cut], x[x >= cut]]

    margin, lo, hi = GRID_MARGIN * scales.max(), span.min(), span.max()
    with np.errstate(over="ignore", invalid="ignore"):  # a chain that overflows fails below
        for _ in range(H):
            x = np.linspace(lo - margin, hi + margin, GRID_NODES)
            ends = np.concatenate([m(x) for (m, _), x in zip(pieces, split_at_cut(x))])
            lo, hi = float(np.minimum(lo, ends.min())), float(np.maximum(hi, ends.max()))
    lo, hi = lo - margin, hi + margin
    if not math.isfinite(hi - lo):
        raise ValueError(f"the chain's means leave every finite grid within {H} steps")
    step = (hi - lo) / (GRID_NODES - 1)
    at = lo if cut is None else cut  # a node, from which the others are whole steps away
    grid = at + step * np.arange(math.floor((lo - at) / step), math.ceil((hi - at) / step) + 1)
    panels = []
    for (m, s), x in zip(pieces, split_at_cut(grid)):
        w = np.full(x.size, step)
        w[[0, -1]] /= 2.0
        panels.append((x, w, m(x), np.full(x.size, s)))
    nodes, weights, mean, scale = map(np.concatenate, zip(*panels))
    # K[i, j] = _kernel[i, j] * weights[j] * norm[i]; it is never held whole, but
    # rebuilt block by block at each step. table rows: m_1 .. m_{H-1} on the nodes,
    # then the mass kept over H - 1 steps, each times the weights, ready for a K-row.
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * scale[:, None])
    rows = max(1, K_BLOCK // nodes.size)
    table, state = np.empty((H, nodes.size)), np.column_stack([nodes, np.ones(nodes.size)])
    for h in range(H - 1):
        state *= weights[:, None]
        state = norm * np.concatenate([_kernel(mean[i : i + rows], scale[i : i + rows], nodes)
                                       @ state for i in range(0, nodes.size, rows)])
        table[h] = state[:, 0]
    table[-1] = state[:, 1]
    table *= weights

    def forecaster(history, z=None):
        y_n = float(history[-1])
        if not math.isfinite(y_n):
            raise ValueError(f"y_n must be finite, got {y_n}")
        m, s = pieces[cut is not None and y_n > cut]
        y_1 = m(np.array([y_n]))
        row = _kernel(y_1, np.array([s], dtype=float), nodes)[0] / (math.sqrt(2.0 * math.pi) * s)
        *ahead, mass = table @ row
        if not abs(1.0 - mass) <= MASS_TOL:
            raise ValueError(f"the forecast grid keeps mass 1 - ({1.0 - mass:.3g}) over {H} "
                             f"steps from y_n = {y_n:.6g}: the chain leaves [{nodes[0]:.6g}, "
                             f"{nodes[-1]:.6g}] or its noise is finer than the grid")
        return np.r_[y_1, ahead]

    return forecaster


def exact_means_sdar(fit, values, H: int):
    """Exact h-step SDAR means, h = 1..H, as a `rolling_evaluate` forecaster.

    ``fit`` may be a `FitResult` or the `SdarParams` directly; the grid
    covers ``values``, which must hold every forecast origin. The
    forecaster reads no draw: ``forecaster(history)`` gives the means
    from history[-1]. See `_chain_means` for the grid and its mass check.
    """
    p: SdarParams = getattr(fit, "theta_hat", fit)
    return _chain_means([(lambda y: p.alpha + psi(p.kind, y, p.pf) * y, p.sigma)], values, H)


def rolling_evaluate(
    forecasters,
    series_train: TimeSeries,
    series_test: TimeSeries,
    H: int,
    M: int | None = 10_000,
    seed: int = 0,
) -> list[AccuracyReport]:
    """Score forecasters at every origin whose H targets lie in the test window.

    Origin o forecasts from the realized values up to o, so there are
    ``len(test) - H + 1`` origins; a window of exactly H values gives one.

    Parameters
    ----------
    forecasters : sequence of callables
        ``forecaster(history, z) -> means`` where ``history`` is a
        read-only view of the series up to the forecast origin, ``z``
        the read-only (H, M) standard normals of that origin and
        ``means`` the (H,) point forecasts, such as the path means
        ``paths.mean(axis=1)``. Origin o draws once, with
        ``_normals(M, H, seed + o)``, and every forecaster gets the
        same draw. With ``M=None`` nothing is drawn and every
        forecaster gets ``z=None``, as the exact-means ones need.
        Parameters are not re-estimated per origin. Origin o at seed
        s + 1 draws what origin o + 1 draws at seed s, so runs at seeds
        s and s + 1 share all but one of their draws: re-seeds meant to
        gauge Monte-Carlo noise must lie at least ``len(test) - H + 1``
        (the origin count) apart.

    Returns one `AccuracyReport` per forecaster, in order.
    """
    train, test = series_train.values, series_test.values
    if H < 1 or (M is not None and M < 1):
        raise ValueError("H and M must be >= 1")
    if test.size < H:
        raise ValueError(f"test window shorter than horizon {H}")
    n_origins = test.size - H + 1
    values = np.concatenate([train, test])
    values.flags.writeable = False
    means = []
    for o in range(n_origins):
        z = None if M is None else _normals(M, H, seed + o)
        if z is not None:
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
