"""Properties checked over seeded numpy draws: the fan summary's quantile
order, the noiseless SDAR skeleton, and the SETAR lag search against the
pairwise fits it shares its designs with."""

import numpy as np
import pytest

from sdar import (
    PersistenceKind,
    PersistenceParams,
    SdarParams,
    TimeSeries,
    fit_setar,
    psi,
    sdar_paths,
    select_setar,
)
from sdar.estimation import select_model
from sdar.forecast import QUANTILE_PROBS, _summarize


def random_sdar(rng) -> SdarParams:
    """Valid SDAR parameters of either kind; gamma1 = 0 (an AR(1)) a quarter of the time."""
    kind = (PersistenceKind.M1, PersistenceKind.M2)[rng.integers(2)]
    gamma0 = rng.uniform(-0.5, 2.0) if kind is PersistenceKind.M1 else rng.uniform(1.01, 4.0)
    gamma1 = rng.uniform(0.0, 1.0) * (rng.random() > 0.25)
    return SdarParams(rng.uniform(-2.0, 2.0), PersistenceParams(gamma0, gamma1, rng.uniform(0.05, 2.0)),
                      rng.uniform(0.1, 2.0), kind)


def test_summary_quantile_columns_are_nondecreasing():
    rng = np.random.default_rng(101)
    for trial in range(300):
        H, M = int(rng.integers(1, 6)), int(rng.integers(1, 300))
        # heavy tails, rows of scales 1e-8 to 1e8, and ties from rounding
        paths = rng.standard_t(rng.uniform(0.5, 10.0), (H, M)) * 10.0 ** rng.integers(-8, 9, (H, 1))
        if trial % 3 == 0:
            paths = np.round(paths, int(rng.integers(-1, 2)))
        fc = _summarize(paths)
        q = np.array([fc.quantiles[p] for p in QUANTILE_PROBS])
        assert (np.diff(q, axis=0) >= 0.0).all(), (trial, H, M)
        assert (q[0] >= paths[:, 0]).all() and (q[-1] <= paths[:, -1]).all()


def test_sdar_paths_without_noise_are_the_skeleton():
    # z = 0: every path is y_{h+1} = alpha + psi(y_h) y_h from y_n
    rng = np.random.default_rng(102)
    for trial in range(200):
        p, y_n, H = random_sdar(rng), rng.uniform(-5.0, 5.0), int(rng.integers(1, 21))
        skeleton, y = np.empty(H), y_n
        for h in range(H):
            y = skeleton[h] = p.alpha + psi(p.kind, y, p.pf) * y
        paths = sdar_paths(p, y_n, np.zeros((H, 3)))
        np.testing.assert_allclose(paths, np.repeat(skeleton[:, None], 3, axis=1),
                                   rtol=1e-9, atol=1e-12, err_msg=f"trial {trial}: {p}")


def test_select_setar_is_the_min_aic_fit_setar():
    # On short series, some rounded to ties; where any pair fails,
    # select_setar raises the first failing pair's error.
    rng = np.random.default_rng(103)
    compared = 0
    for trial in range(40):
        y = rng.standard_normal(int(rng.integers(40, 200))).cumsum() * rng.uniform(0.1, 2.0)
        if trial % 2 == 0:
            y = np.round(y, int(rng.integers(0, 2)))
        s, max_lag = TimeSeries(y), int(rng.integers(1, 5))
        lags = range(1, max_lag + 1)
        try:
            fits = [fit_setar(s, d1, d2) for d1 in lags for d2 in lags]
        except ValueError as first:
            with pytest.raises(ValueError) as got:
                select_setar(s, max_lag)
            assert str(got.value) == str(first)
            continue
        assert select_setar(s, max_lag).to_json() == fits[select_model(fits)].to_json()
        compared += 1
    assert compared >= 25
