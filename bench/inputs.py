"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same arrays and the same file bytes. The package under test receives
only these generated arrays or files.
"""

from __future__ import annotations

import numpy as np

from sdar.model import SdarParams, simulate
from sdar.persistence import PersistenceKind, PersistenceParams
from sdar.series import TimeSeries, split
from sdar.setar import SetarFit

DEFAULT_SEED = 0

N_WEEKS = 778
N_TRAIN = 578
WEEK_LEN = 5
N_RECOVERY = 5000
HORIZON = 20
FAN_HORIZON = 52

# The paper's M1 truth, and an M2 truth for which assumption A1 holds.
M1_TRUTH = SdarParams(-1.5, PersistenceParams(0.4, 0.07, 0.32), 0.5, PersistenceKind.M1)
M2_TRUTH = SdarParams(-1.5, PersistenceParams(1.5, 0.1, 0.5), 0.5, PersistenceKind.M2)

# SETAR(2,3,3) with fixed coefficients, centred on the M1 truth's
# stationary level (about -3.5) so that paths visit both regimes.
SETAR_FIXED = SetarFit(
    c1=-1.2,
    phi1=np.array([0.5, 0.1, 0.05]),
    sigma1=0.45,
    c2=-1.6,
    phi2=np.array([0.45, 0.05, 0.05]),
    sigma2=0.55,
    threshold=-3.5,
    d1=3,
    d2=3,
    prop_low=0.5,
    aic=float("nan"),
    n_obs=N_TRAIN - 3,
)


def _stream(seed: int, tag: int) -> int:
    """Independent child seed for one generator, derived from the run seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def weekly_log_volatility(seed: int) -> np.ndarray:
    """778 weeks of log volatility simulated from the M1 truth."""
    return simulate(M1_TRUTH, N_WEEKS, _stream(seed, 1)).values


def daily_returns(log_vol: np.ndarray, seed: int) -> np.ndarray:
    """Daily returns whose weekly realized volatility is exactly exp(log_vol).

    Each week's five returns are a random direction scaled to the
    week's volatility, so ingesting them must give back ``log_vol``.
    """
    rng = np.random.default_rng(_stream(seed, 2))
    z = rng.standard_normal((log_vol.size, WEEK_LEN))
    z *= (np.exp(log_vol) / np.linalg.norm(z, axis=1))[:, None]
    return z.ravel()


def returns_csv(returns: np.ndarray) -> str:
    """Headered two-column CSV (day index, return) with round-trip digits."""
    lines = ["day,ret"] + [f"{i},{float(v)!r}" for i, v in enumerate(returns)]
    return "\n".join(lines) + "\n"


def forecast_split(seed: int) -> tuple[TimeSeries, TimeSeries]:
    """The 778 simulated weeks split into 578 training and 200 test weeks."""
    return split(TimeSeries(weekly_log_volatility(seed)), N_TRAIN)


def recovery_truth(replicate: int) -> SdarParams:
    """Replicates alternate between the M1 and the M2 truth."""
    return M1_TRUTH if replicate % 2 == 0 else M2_TRUTH


def recovery_sim_seed(seed: int, replicate: int) -> int:
    return _stream(seed, 100 + replicate)


def mc_seed(seed: int, round_index: int) -> int:
    return _stream(seed, 10_000 + round_index) % (2**31)
