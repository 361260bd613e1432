"""Out-of-sample forecast accuracy: state-dependent AR vs SETAR.

Generates data from a known state-dependent AR truth, fits both that
model (by quasi-maximum likelihood) and a two-regime SETAR baseline
(by conditional least squares with threshold grid search), then runs a
rolling-origin evaluation. Accuracy is reported per horizon as MAFE,
MSFE and MAPE, and the two models are compared through relative
efficiency ratios: values below one mean the state-dependent model was
more accurate at that horizon. The SDAR means are exact, read off a
transition grid; the SETAR means average the conditional means of
antithetic Monte-Carlo paths, as the CLI's `compare` scores them.

Run with: python demos/03_forecast_comparison.py
"""

import numpy as np

from sdar import (
    PersistenceKind,
    PersistenceParams,
    SdarParams,
    exact_means_sdar,
    fit,
    mc_forecast_sdar,
    relative_efficiency,
    rolling_evaluate,
    select_setar,
    setar_means,
    simulate,
    split,
)

truth = SdarParams(
    alpha=0.0,
    pf=PersistenceParams(gamma0=0.05, gamma1=0.3, r=1.0),
    sigma=0.5,
    kind=PersistenceKind.M1,
)

series = simulate(truth, n=1040, seed=123)
train, test = split(series, 1000)
print(f"train {len(train)} / test {len(test)} points")

sdar_fit = fit(train, PersistenceKind.M1, n_starts=8, seed=0)
setar_fit = select_setar(train, max_lag=3)
print(f"SDAR loglik={sdar_fit.loglik:.2f} aic={sdar_fit.aic:.2f}")
print(f"SETAR(2,{setar_fit.d1},{setar_fit.d2}) "
      f"threshold={setar_fit.threshold:.3f} aic={setar_fit.aic:.2f}")

H, M = 10, 1000


# A rolling forecaster maps (history, z) to the per-horizon means, where
# z is the origin's (H, M) standard-normal draw. The exact SDAR forecaster
# tabulates its means once over the series' range and reads no draw; the
# SETAR one runs its paths on the 2M antithetic columns [z, -z].
forecast_sdar = exact_means_sdar(sdar_fit, series.values, H)


def forecast_setar(history, z):
    return setar_means(setar_fit, history, z)


acc_sdar, acc_setar = rolling_evaluate([forecast_sdar, forecast_setar], train, test,
                                       H, M=M, seed=1)
print(f"\n{acc_sdar.n_origins} forecast origins")

re = relative_efficiency(acc_sdar, acc_setar)
print("\nrelative efficiency (SDAR / SETAR), < 1 favors SDAR:")
print(f"{'h':>3} {'mafe':>8} {'msfe':>8} {'mape':>8}")
for h in range(H):
    print(f"{h + 1:>3} {re[0, h]:8.4f} {re[1, h]:8.4f} {re[2, h]:8.4f}")

wins = int(np.sum(re[1] < 1.0))
print(f"\nSDAR wins on MSFE at {wins}/{H} horizons")

# A single forecast with interval bands from the end of the sample.
fc = mc_forecast_sdar(sdar_fit, train.values[-1], H=5, M=20_000, seed=2)
print("\n5-step forecast with 90% interval:")
for h in range(5):
    print(f"  h={h + 1}: {fc.means[h]:7.3f}  "
          f"[{fc.quantiles[0.05][h]:7.3f}, {fc.quantiles[0.95][h]:7.3f}]")
