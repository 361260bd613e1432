"""Persistence functions and their stationarity/ergodicity checks.

Two specifications of the state-dependent autoregressive coefficient:

* M1 (exponential): psi(y) = exp(-(gamma0 + gamma1 * |y|^(2r)))
* M2 (rational):    psi(y) = 1 / (gamma0 + gamma1 * |y|^(2r))

Both are even in y; y^(2r) is interpreted as |y|^(2r) so the functions
are well defined for negative states (log-volatility data are negative).
Both are psi = g(u) with u = gamma0 + gamma1 * |y|^(2r), g(u) = exp(-u)
or 1/u, so every derivative in y or (gamma0, gamma1, r) comes from one
chain rule in which the form enters only through -g'(u) and g''(u).
Every array path in y takes one logarithm, `_log_abs`: ln|y|, -inf at y = 0.
w = |y|^(2r) is `_w` of it, exp(2r ln|y|), exactly 0 at y = 0 and faster
than a power, and ln(y^2) is `_log_y2` of it; only `model.simulate`'s
scalar recursion keeps ``**``.

The stationarity condition requires sup_y |psi(y)| + |y * psi'(y)| < 1.
The supremum has a closed form, taken as exp of its logarithm (interior for
r > 1/2, at y = 0 for r <= 1/2); a dense grid over v = gamma1 * |y|^(2r), where
the objective's shape is free of gamma1 and of the scale of y, cross-checks it.
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
    """Outcome of the stationarity/ergodicity checks for one parameter set. The grid's
    location y* <= 0 is 0.0 at y = 0 and -inf only where |y*| lies past the float range."""

    sup_bound_closed_form: float
    sup_bound_numeric: float
    a1_satisfied: bool
    a2_satisfied: bool
    grid_max_location: float


def _check_kind(kind) -> None:
    if not isinstance(kind, PersistenceKind):
        raise ValueError(f"kind must be a PersistenceKind, got {kind!r}")


def _log_abs(y):
    """ln|y| in a new float array, -inf at y = +-0: the one logarithm of w and ln(y^2)."""
    y = np.asarray(y, dtype=float)
    la = np.abs(y, out=np.empty_like(y))  # an array also for a scalar y
    with np.errstate(divide="ignore"):  # ln 0 = -inf is the y = 0 lane's exact limit
        return np.log(la, out=la)


def _log_y2(la):
    """ln(y^2) = 2 ln|y| from la = ln|y|, with a placeholder 0 at y = 0, where w is 0."""
    return np.where(la == -np.inf, 0.0, 2.0 * la)


def _w(la, r, out):
    """w = |y|^(2r) = exp(2r ln|y|) into ``out`` from la = ln|y|, not as a power:
    exactly 0 at y = +-0, and inf and NaN pass through as they do for ``**``."""
    return np.exp(np.multiply(2.0 * r, la, out=out), out=out)


def _parts(kind, la, gamma0, gamma1, r):
    """w = |y|^(2r) and psi = g(gamma0 + gamma1 * w) from la = ln|y|, unvalidated."""
    w = _w(la, r, np.empty_like(la))
    return w, _psi_of_w(kind, w, gamma0, gamma1, np.empty_like(la))


def _psi_of_w(kind, w, gamma0, gamma1, ps):
    """psi = g(gamma0 + gamma1 * w) into the buffer ps, from w = |y|^(2r)."""
    if gamma1:
        np.multiply(gamma1, w, out=ps)
    else:  # 0 * w is NaN where w overflows to inf; psi is g(gamma0) at every y
        ps.fill(0.0)
    np.add(gamma0, ps, out=ps)
    if kind is PersistenceKind.M1:
        return np.exp(np.negative(ps, out=ps), out=ps)
    return np.divide(1.0, ps, out=ps)


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
    # |y|^(2r) may overflow to inf, where psi is its exact limit: 0 if gamma1 > 0,
    # g(gamma0) if gamma1 = 0
    with np.errstate(over="ignore"):
        _, out = _parts(kind, _log_abs(y), p.gamma0, p.gamma1, p.r)
    return out if out.ndim else float(out)


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
    """sup over y of |psi(y)| + |y * psi'(y)|, in closed form, as exp of `_a1_log_bound`.

    Interior for r > 1/2: 2r * exp(-(2r*gamma0 + 2r - 1) / (2r)) (M1), (1 + 2r)^2 / (8 r
    gamma0) (M2); psi(0) for r <= 1/2 or gamma1 = 0. No intermediate such as 2r overflows:
    the bound is inf past the float maximum and 0 below the least subnormal.
    """
    p.validate(kind)
    with np.errstate(over="ignore"):
        return float(np.exp(_a1_log_bound(kind, p)))


def _a1_log_bound(kind, p):
    """ln of the A1 bound, finite for every valid p; A1 holds iff it is < 0.

    M1: -gamma0 at y = 0, else ln 2 + ln r - gamma0 - 1 + 1/(2r).
    M2: -ln gamma0 at y = 0, else 2 ln(1 + 2r) - ln 8 - ln r - ln gamma0,
    with ln(1 + 2r) taken as ln 2 + ln r where 2r overflows.
    """
    if p.gamma1 == 0.0 or p.r <= 0.5:
        return -p.gamma0 if kind is PersistenceKind.M1 else -math.log(p.gamma0)
    lr = math.log(p.r)
    if kind is PersistenceKind.M1:
        return math.log(2.0) + lr - p.gamma0 - 1.0 + 0.5 / p.r
    l2r = math.log1p(2.0 * p.r) if 2.0 * p.r < math.inf else math.log(2.0) + lr
    return 2.0 * l2r - math.log(8.0) - lr - math.log(p.gamma0)


_GRID_POINTS = 100_000  # the A1 grid: v = 0, then log-spaced v > 0


def a1_bound_numeric(kind: PersistenceKind, p: PersistenceParams) -> float:
    """Grid maximum of |psi(y)| + |y psi'(y)|, taken over v = gamma1 |y|^(2r) >= 0."""
    return _a1_grid_max(kind, p)[1]


def _a1_grid_max(kind, p):
    """(y, value) at the grid maximum of f(v) = g(gamma0 + v) + 2r v (-g'(gamma0 + v)),
    |psi(y)| + |y psi'(y)| at v = gamma1 |y|^(2r) >= 0, whose shape is free of gamma1 and
    of the scale of y. f falls past v = max(1, gamma0) (peak at 1 - 1/(2r) for M1, gamma0
    (2r - 1) / (2r + 1) for M2), so the grid is v = 0, alone if gamma1 = 0, and v log-spaced
    from 1e-12 to 10 max(1, gamma0), at most the float maximum. v (-g') is (v psi) c, c = 1
    (M1) or psi (M2), times 2 and then r, so neither psi^2 underflows nor 2r overflows.
    Edges: gamma0 + v overflows for M2 near the float maximum, where the grid reads low,
    and M1's psi keeps few digits past gamma0 = 708 (0 past 745).
    """
    p.validate(kind)
    top = min(math.log(10.0) + math.log(max(1.0, p.gamma0)), math.log(np.finfo(float).max))
    v = np.zeros(_GRID_POINTS if p.gamma1 else 1)
    np.exp(np.linspace(math.log(1e-12), top, v.size - 1), out=v[1:])
    with np.errstate(over="ignore"):  # gamma0 + v, or M1's psi(0), may overflow to inf
        f = _psi_of_w(kind, v, p.gamma0, 1.0, np.empty_like(v))  # psi = g(gamma0 + v)
        t = np.multiply(v[1:], f[1:])  # the term is 0 at v = 0, also where psi(0) is inf
        if kind is PersistenceKind.M2:
            t *= f[1:]
        t *= 2.0
        f[1:] += np.multiply(t, p.r, out=t)
        k = int(np.argmax(f))  # |y| past the float range is inf; 0.0 - 0.0 is never -0.0
        y = 0.0 - float(np.exp((math.log(v[k]) - math.log(p.gamma1)) / (2.0 * p.r))) if k else 0.0
    return y, float(f[k])


def check_assumptions(kind: PersistenceKind, p: PersistenceParams) -> AssumptionReport:
    """Check the stationarity bound and the ergodicity boundedness condition.

    a1 holds when sup |psi| + |y psi'| < 1, as the closed-form bound alone
    decides; the grid maximum is reported beside it as a cross-check and
    casts no vote. a2 (psi(y)*y uniformly bounded) holds for M1 whenever
    gamma1 > 0 and for M2 when r >= 1/2 with gamma1 > 0. With gamma1 = 0
    the model degenerates to AR(1) and psi(y)*y is linear, hence unbounded;
    the report flags a2 false but estimation remains legitimate in that sub-case.
    """
    closed = a1_bound_closed_form(kind, p)  # validates kind and p
    loc, numeric = _a1_grid_max(kind, p)
    a2 = p.gamma1 > 0.0 and (kind is PersistenceKind.M1 or p.r >= 0.5)
    return AssumptionReport(
        sup_bound_closed_form=closed,
        sup_bound_numeric=numeric,
        a1_satisfied=closed < 1.0,  # False if it is NaN
        a2_satisfied=a2,
        grid_max_location=loc,
    )
