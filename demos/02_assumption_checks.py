"""Stationarity and ergodicity diagnostics for persistence functions.

A fitted state-dependent AR model is geometrically ergodic when the
map y -> psi(y) * y is a contraction on average; a sufficient condition
is sup_y |psi(y)| + |y psi'(y)| < 1. The package evaluates that supremum
both in closed form and on a dense grid, plus a tail condition that
psi(y) * y stays bounded.

Run with: python demos/02_assumption_checks.py
"""

import numpy as np

from sdar import (
    PersistenceKind,
    PersistenceParams,
    a1_bound_closed_form,
    a1_bound_numeric,
    check_assumptions,
    psi,
)

# Parameter sets in the range typically estimated on weekly log
# realized volatility of equity indices.
cases = [
    (PersistenceKind.M1, PersistenceParams(0.3734, 0.0649, 0.3198)),
    (PersistenceKind.M1, PersistenceParams(0.4453, 0.0736, 0.4036)),
    (PersistenceKind.M2, PersistenceParams(1.1808, 0.0785, 0.5596)),
    # and a deliberately explosive one
    (PersistenceKind.M1, PersistenceParams(-1.0, 0.0, 0.5)),
]

for kind, pf in cases:
    report = check_assumptions(kind, pf)
    print(f"{kind.value} gamma0={pf.gamma0} gamma1={pf.gamma1} r={pf.r}")
    print(f"  sup bound closed form: {report.sup_bound_closed_form:.5f}")
    print(f"  sup bound on grid:     {report.sup_bound_numeric:.5f} "
          f"(max at y={report.grid_max_location:.4g})")
    print(f"  contraction (bound < 1): {report.a1_satisfied}")
    print(f"  bounded psi(y)*y tail:   {report.a2_satisfied}")
    print()

# The closed form is piecewise: for r <= 1/2 the supremum sits at the
# origin, for r > 1/2 it moves to an interior maximizer. Show the
# agreement across that boundary.
print("closed form vs grid across the r boundary (M1, gamma0=0.5, gamma1=0.3):")
for r in (0.3, 0.5, 0.7, 1.2):
    pf = PersistenceParams(0.5, 0.3, r)
    cf = a1_bound_closed_form(PersistenceKind.M1, pf)
    num = a1_bound_numeric(PersistenceKind.M1, pf)
    print(f"  r={r:.1f}: closed={cf:.6f} grid={num:.6f} diff={abs(cf - num):.2e}")

# psi itself, tabulated: persistence decays with |y|.
pf = PersistenceParams(0.4, 0.07, 0.32)
ys = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
print("\npersistence profile (M1):")
for y in ys:
    print(f"  psi({y:4.1f}) = {float(psi(PersistenceKind.M1, y, pf)):.4f}")
