"""Persistence functions and their stationarity/ergodicity checks.

Two specifications of the state-dependent autoregressive coefficient:

* M1 (exponential): psi(y) = exp(-(gamma0 + gamma1 * |y|^(2r)))
* M2 (rational):    psi(y) = 1 / (gamma0 + gamma1 * |y|^(2r))

Both are even in y; y^(2r) is interpreted as |y|^(2r) so the functions
are well defined for negative states (log-volatility data are negative).
Both are psi = g(u) with u = gamma0 + gamma1 * |y|^(2r), g(u) = exp(-u)
or 1/u, so every derivative in y or (gamma0, gamma1, r) comes from one
chain rule in which the form enters only through -g'(u) and g''(u).

The stationarity condition requires sup_y |psi(y)| + |y * psi'(y)| < 1.
The supremum has a closed form: for r > 1/2 the maximum is interior,
for r <= 1/2 it sits at y = 0. A dense-grid numeric maximizer serves as
the independent cross-check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class PersistenceKind(enum.Enum):
    """Which functional form the persistence coefficient takes."""

    M1 = "M1"
    M2 = "M2"


@dataclass(frozen=True)
class PersistenceParams:
    """Parameters (gamma0, gamma1, r) of a persistence function."""

    gamma0: float
    gamma1: float
    r: float

    def validate(self, kind: PersistenceKind) -> None:
        _check_kind(kind)
        if not (self.gamma1 >= 0.0 and np.isfinite(self.gamma1)):
            raise ValueError(f"gamma1 must be >= 0, got {self.gamma1}")
        if not (self.r > 0.0 and np.isfinite(self.r)):
            raise ValueError(f"r must be > 0, got {self.r}")
        if not np.isfinite(self.gamma0):
            raise ValueError(f"gamma0 must be finite, got {self.gamma0}")
        if kind is PersistenceKind.M2 and not self.gamma0 > 1.0:
            raise ValueError(f"M2 requires gamma0 > 1, got {self.gamma0}")


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the stationarity/ergodicity checks for one parameter set."""

    sup_bound_closed_form: float
    sup_bound_numeric: float
    a1_satisfied: bool
    a2_satisfied: bool
    grid_max_location: float


def _check_kind(kind) -> None:
    if not isinstance(kind, PersistenceKind):
        raise ValueError(f"kind must be a PersistenceKind, got {kind!r}")


def _log_y2(y):
    """ln(y^2) with a placeholder 0 at y = 0 (always multiplied by |y|^(2r))."""
    ay = np.atleast_1d(np.abs(np.asarray(y, dtype=float)))
    out = np.zeros_like(ay)
    nz = ay > 0
    out[nz] = 2.0 * np.log(ay[nz])
    return out


def _parts(kind, ay, gamma0, gamma1, r, out=None):
    """w = |y|^(2r) (0 at y = 0) and psi = g(gamma0 + gamma1 * w) from ay = |y|, unvalidated."""
    w, ps = (np.empty_like(ay), np.empty_like(ay)) if out is None else out  # buffers like ay
    np.power(ay, 2.0 * r, out=w)
    np.add(gamma0, np.multiply(gamma1, w, out=ps), out=ps)
    if kind is PersistenceKind.M1:
        return w, np.exp(np.negative(ps, out=ps), out=ps)
    return w, np.divide(1.0, ps, out=ps)


def _neg_dg(kind, ps, out=None):
    """-g'(u) from psi = g(u): psi for M1 (g = exp(-u)), psi^2 for M2 (g = 1/u)."""
    return ps if kind is PersistenceKind.M1 else np.multiply(ps, ps, out=out)


def _d2g(kind, ps):
    """(k, q, c) with g''(u) = k * q and g''(u) / -g'(u) = k * c.

    c is written out, not divided, so it is finite where psi is 0. k goes first
    in each entry, so k * w**2 * q rounds like 2 * w**2 * psi**3.
    """
    return (1.0, ps, 1.0) if kind is PersistenceKind.M1 else (2.0, ps**3, ps)


def psi(kind: PersistenceKind, y, p: PersistenceParams):
    """Evaluate the persistence function at state y (scalar or array)."""
    p.validate(kind)
    _, out = _parts(kind, np.abs(np.asarray(y, dtype=float)), p.gamma0, p.gamma1, p.r)
    return out if out.ndim else float(out)


def psi_dy(kind: PersistenceKind, y, p: PersistenceParams):
    """d psi / dy = g'(u) * gamma1 * d|y|^(2r)/dy.

    At y = 0 with 2r < 1 the derivative of |y|^(2r) is singular; the
    value returned there is 0, the limit of the product y * psi'(y)
    divided by y along the even function. Callers needing the singular
    flag should test ``2 * p.r < 1 and y == 0`` themselves; every
    internal consumer only uses y * psi'(y), whose limit at 0 is 0.
    """
    p.validate(kind)
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    # sign(y) * |y|^(2r-1), with the y=0 limit convention 0.
    ay = np.abs(ya)
    dw, nz = np.zeros_like(ya), ay > 0
    dw[nz] = 2.0 * p.r * np.sign(ya[nz]) * ay[nz] ** (2.0 * p.r - 1.0)
    out = -p.gamma1 * dw * _neg_dg(kind, _parts(kind, ay, p.gamma0, p.gamma1, p.r)[1])
    return out if np.asarray(y).ndim else float(out[0])


def _grad_stack(kind, w, ps, lg, gamma1, out=None):
    """The psi gradient stack g'(u) * du, du = (1, w, gamma1 * w * lg), lg = ln(y^2)."""
    g = np.empty((3, w.size)) if out is None else out  # out: a (3, n) buffer
    dg = np.negative(_neg_dg(kind, ps, out=g[0]), out=g[0])  # g'(u)
    np.multiply(w, dg, out=g[1])
    np.multiply(np.multiply(gamma1, w, out=g[2]), lg, out=g[2])
    g[2] *= dg
    return g


def _hess_stack(kind, w, ps, lg, g1):
    """The psi Hessian stack (3, 3, n) from w = |y|^(2r), psi(y) and lg = ln(y^2).

    h = g''(u) du du' - g'(u) d2u with du = (1, w, g1 * w * lg). d2u is w * lg at
    (gamma1, r) and g1 * w * lg^2 at (r, r); both entries are d2u * -g'(u) * (k g1 w c - 1).
    For both forms this is validated against finite differences; the published M2
    second-derivative list contains slips.
    """
    b1, (k, q, c) = _neg_dg(kind, ps), _d2g(kind, ps)
    curv = k * g1 * w * c - 1.0
    h = np.empty((3, 3, w.size))
    h[0, 0] = k * q
    h[0, 1] = h[1, 0] = k * w * q
    h[0, 2] = h[2, 0] = k * g1 * w * lg * q
    with np.errstate(over="ignore", invalid="ignore"):  # w**2 may overflow where q is 0
        h[1, 1] = np.where(q == 0.0, 0.0, k * w**2 * q)
    h[1, 2] = h[2, 1] = w * lg * b1 * curv
    h[2, 2] = g1 * w * lg**2 * b1 * curv
    return h


def a1_bound_closed_form(kind: PersistenceKind, p: PersistenceParams) -> float:
    """sup over y of |psi(y)| + |y * psi'(y)|, in closed form.

    For r > 1/2 the supremum is interior: M1 gives
    2r * exp(-(2r*gamma0 + 2r - 1) / (2r)) and M2 gives
    (1 + 2r)^2 / (8 r gamma0). For r <= 1/2 (or gamma1 = 0) the maximum
    sits at y = 0 and equals psi(0).
    """
    p.validate(kind)
    m1 = kind is PersistenceKind.M1
    if p.gamma1 == 0.0 or p.r <= 0.5:
        return math.exp(-p.gamma0) if m1 else 1.0 / p.gamma0
    if m1:
        return 2.0 * p.r * math.exp(-(2.0 * p.r * p.gamma0 + 2.0 * p.r - 1.0) / (2.0 * p.r))
    return (1.0 + 2.0 * p.r) ** 2 / (8.0 * p.r * p.gamma0)


_Y_MAX_CAP = 1e12


def _default_y_max(p: PersistenceParams) -> float:
    # Past 10 * (gamma0/gamma1)^(1/2r) the objective's tails are
    # monotone decreasing, so any interior maximum is captured. With
    # tiny gamma1 and small r that scale overflows a float, so it is
    # first sized in log space and capped; for r <= 1/2 the supremum
    # sits at y = 0 anyway.
    if p.gamma1 <= 0.0:
        return 10.0
    g0 = max(abs(p.gamma0), 1.0)
    log_scale = (math.log(g0) - math.log(p.gamma1)) / (2.0 * p.r)
    if log_scale >= math.log(_Y_MAX_CAP / 10.0):
        return _Y_MAX_CAP
    scale = (g0 / p.gamma1) ** (1.0 / (2.0 * p.r))
    return max(10.0 * scale, 10.0)


def a1_bound_numeric(
    kind: PersistenceKind, p: PersistenceParams, grid_points: int = 100_000
) -> float:
    """Grid maximum of |psi| + |y psi'| on a log-dense grid over y <= 0 (the objective is even)."""
    return _a1_grid_max(kind, p, grid_points)[1]


def _a1_grid_max(kind, p, grid_points=100_000):
    p.validate(kind)
    if grid_points < 1000:
        raise ValueError("grid_points must be >= 1000")
    half = np.geomspace(1e-12, _default_y_max(p), grid_points // 2)
    grid = np.concatenate([-half[::-1], [0.0]])  # even bit for bit: psi, psi_dy go through |y|
    vals = np.abs(psi(kind, grid, p)) + np.abs(grid * psi_dy(kind, grid, p))
    k = int(np.argmax(vals))
    return float(grid[k]), float(vals[k])


def check_assumptions(kind: PersistenceKind, p: PersistenceParams) -> AssumptionReport:
    """Check the stationarity bound and the ergodicity boundedness condition.

    a1 holds when sup |psi| + |y psi'| < 1; a2 (psi(y)*y uniformly
    bounded) holds for M1 whenever gamma1 > 0 and for M2 when r >= 1/2
    with gamma1 > 0. With gamma1 = 0 the model degenerates to AR(1) and
    psi(y)*y is linear, hence unbounded; the report flags a2 false but
    estimation remains legitimate in that sub-case.
    """
    closed = a1_bound_closed_form(kind, p)  # validates kind and p
    loc, numeric = _a1_grid_max(kind, p)
    a2 = p.gamma1 > 0.0 and (kind is PersistenceKind.M1 or p.r >= 0.5)
    return AssumptionReport(
        sup_bound_closed_form=closed,
        sup_bound_numeric=numeric,
        a1_satisfied=max(closed, numeric) < 1.0,
        a2_satisfied=a2,
        grid_max_location=loc,
    )
