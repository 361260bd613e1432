"""Simulate a state-dependent AR(1) path and recover its parameters.

The model is Y_t = alpha + psi(Y_{t-1}) Y_{t-1} + xi_t, where the
persistence function psi shrinks toward zero as |Y_{t-1}| grows. Two
functional forms are available: an exponential decay (M1) and a
reciprocal form (M2). This script simulates from a known M1 truth,
fits both forms by quasi-maximum likelihood, and prints estimates with
sandwich standard errors.

Run with: python demos/01_simulate_and_estimate.py
"""

from sdar import (
    PersistenceKind,
    PersistenceParams,
    SdarParams,
    fit,
    loglik,
    select_model,
    simulate,
)

truth = SdarParams(
    alpha=-1.5,
    pf=PersistenceParams(gamma0=0.4, gamma1=0.07, r=0.32),
    sigma=0.5,
    kind=PersistenceKind.M1,
)

print("truth:", truth.to_array())
series = simulate(truth, n=3000, seed=7)
print(f"simulated {len(series)} points; "
      f"mean={series.values.mean():.3f} sd={series.values.std():.3f}")

# Fit both persistence forms and let AIC pick one.
fits = {}
for kind in (PersistenceKind.M1, PersistenceKind.M2):
    res = fit(series, kind, n_starts=8, seed=0)
    fits[kind] = res
    print(f"\n{kind.value}: loglik={res.loglik:.3f} aic={res.aic:.3f} "
          f"converged={res.converged}")
    names = ("alpha", "gamma0", "gamma1", "r", "sigma")
    theta = res.theta_hat.to_array()
    for i, name in enumerate(names):
        se = "n/a" if res.std_errors is None else f"{res.std_errors[i]:.4f}"
        print(f"  {name:>6} = {theta[i]:8.4f}  (se {se})")

ordered = list(fits.values())
winner = select_model(ordered)
print(f"\nAIC selects {list(fits)[winner].value}")

# Sanity check: the in-sample likelihood at the estimate should not be
# below the likelihood at the generating parameters.
print(f"loglik at truth:    {loglik(truth, series):.3f}")
print(f"loglik at estimate: {ordered[0].loglik:.3f}")
