"""End-to-end pipeline: daily returns -> weekly volatility -> model fit.

Mirrors the command-line workflow in library calls: aggregate daily
returns into weekly realized volatility, take logs, fit both
persistence forms, and run the ergodicity diagnostics on each
estimate. Uses simulated daily returns (log-normal stochastic
volatility) so the script is self-contained; point load_returns at a
CSV of real returns to run it on actual data.

Run with: python demos/04_volatility_pipeline.py
"""

import numpy as np

from sdar import (
    PersistenceKind,
    TimeSeries,
    check_assumptions,
    fit,
    log_transform,
    persistence_series,
    realized_volatility,
    select_model,
    split,
)

# 3890 trading days of returns with persistent log-normal volatility:
# the weekly log realized volatility then behaves like the series the
# model is built for.
rng = np.random.default_rng(99)
n_days = 3890
log_vol = np.empty(n_days)
prev = mu = np.log(0.01)
for t in range(n_days):
    prev = mu + 0.9 * (prev - mu) + 0.3 * rng.standard_normal()
    log_vol[t] = prev
ret = np.exp(log_vol) * rng.standard_normal(n_days)

returns = TimeSeries(ret)
vol = realized_volatility(returns, week_len=5)
logvol = log_transform(vol)
print(f"{n_days} daily returns -> {len(vol)} weekly volatility points")

train, test = split(logvol, len(logvol) - 20)
print(f"training on {len(train)}, holding out {len(test)}")

kinds = (PersistenceKind.M1, PersistenceKind.M2)
fits = [fit(train, kind, n_starts=8, seed=0) for kind in kinds]
for kind, res in zip(kinds, fits):
    print(f"\n{kind.value}: aic={res.aic:.2f} converged={res.converged}")
    print(f"  theta = {np.round(res.theta_hat.to_array(), 4)}")
    report = check_assumptions(kind, res.theta_hat.pf)
    print(f"  contraction bound {report.sup_bound_closed_form:.3f} "
          f"(satisfied: {report.a1_satisfied})")
    ps = persistence_series(res.theta_hat, train)
    print(f"  fitted persistence over the sample: "
          f"median={np.median(ps):.3f} max={ps.max():.3f}")

best = select_model(fits)
print(f"\nAIC selects {kinds[best].value} "
      f"(margin {abs(fits[0].aic - fits[1].aic):.2f})")

# The two forms fit almost equally well in sample, but the global
# contraction check can still tell them apart. The likelihood is
# nearly flat along combinations of (gamma0, gamma1, r) that give the
# same persistence over the observed range of states, so an estimate
# can drift to a corner where psi exceeds one far outside the data.
# The diagnostic flags exactly that: it evaluates the bound over all
# states, not just the visited ones.
for kind, res in zip(kinds, fits):
    report = check_assumptions(kind, res.theta_hat.pf)
    tag = "ok" if report.a1_satisfied else "violated away from the data"
    print(f"{kind.value}: global contraction {tag}")
