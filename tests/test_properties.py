"""Properties checked over seeded numpy draws: psi and the A1 check at the
float range's edges, the fan summary's quantile order, the noiseless SDAR
skeleton, the SETAR lag search against the
pairwise fits it shares its designs with, the JSON round trip of both fit
types, and `--config` entries against the same flags."""

import json

import numpy as np
import pytest

from sdar import (
    FitResult,
    PersistenceKind,
    PersistenceParams,
    SdarParams,
    SetarFit,
    TimeSeries,
    fit,
    check_assumptions,
    fit_setar,
    psi,
    sdar_paths,
    select_setar,
    simulate,
)
from sdar import cli
from sdar.estimation import select_model
from sdar.forecast import QUANTILE_PROBS, _summarize

from conftest import gen_ar1, gen_setar


def random_sdar(rng) -> SdarParams:
    """Valid SDAR parameters of either kind; gamma1 = 0 (an AR(1)) a quarter of the time."""
    kind = (PersistenceKind.M1, PersistenceKind.M2)[rng.integers(2)]
    gamma0 = rng.uniform(-0.5, 2.0) if kind is PersistenceKind.M1 else rng.uniform(1.01, 4.0)
    gamma1 = rng.uniform(0.0, 1.0) * (rng.random() > 0.25)
    return SdarParams(rng.uniform(-2.0, 2.0), PersistenceParams(gamma0, gamma1, rng.uniform(0.05, 2.0)),
                      rng.uniform(0.1, 2.0), kind)


def edge_value(rng, ends, lo, hi) -> float:
    """One of ``ends`` a quarter of the time, else log-uniform on [lo, hi]."""
    if rng.random() < 0.25:
        return float(rng.choice(ends))
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def edge_params(rng, kind, g0_lo, g0_hi, g1_hi, r_hi):
    """gamma0 in [g0_lo, g0_hi] (M2: (1, g0_hi]), gamma1 in {0} u [5e-324, g1_hi] and r in
    [5e-324, r_hi], at their ends, subnormals included, or log-uniform in magnitude."""
    if kind is PersistenceKind.M1:
        bound = -g0_lo if rng.random() < 0.5 else g0_hi
        g0 = np.copysign(edge_value(rng, [0.0, abs(bound)], 5e-324, abs(bound)), bound)
    else:
        g0 = 1.0 + edge_value(rng, [2.3e-16, g0_hi], 2.3e-16, g0_hi)
    g1 = edge_value(rng, [0.0, 5e-324, g1_hi], 5e-324, g1_hi)
    r = edge_value(rng, [5e-324, 0.5, r_hi], 5e-324, r_hi)
    return PersistenceParams(float(g0), g1, r)


def test_psi_is_finite_and_silent_over_the_float_range():
    # every finite y and every valid (gamma0, gamma1, r) but M1's gamma0 < ln(1 / max float),
    # where psi(0) = exp(-gamma0) itself overflows; the suite turns a warning into an error
    rng, big = np.random.default_rng(107), np.finfo(float).max
    y = np.r_[0.0, -0.0, 5e-324, -5e-324, big, -big,
              rng.standard_normal(40) * 10.0 ** rng.integers(-323, 308, 40)]
    for trial in range(400):
        kind = (PersistenceKind.M1, PersistenceKind.M2)[trial % 2]
        p = edge_params(rng, kind, -709.0, big, big, big)
        vals, g0 = psi(kind, y, p), psi(kind, 0.0, p)
        assert np.isfinite(vals).all() and (vals >= 0.0).all() and (vals <= g0).all(), p
        assert [psi(kind, v, p) for v in y[:6]] == vals[:6].tolist()


def test_check_assumptions_is_finite_and_silent_where_its_bound_is_representable():
    # The closed-form bound is at most about r exp(-gamma0), so these ranges keep it
    # a float; the grid maximum exceeds it by rounding at most. Past them,
    # a1_bound_closed_form raises OverflowError (M1 gamma0 < -709.78, M2 r > 6.7e153)
    # or reads NaN (r near the float maximum) or 0 (M2, 8 r gamma0 overflowing), and
    # the grid reads inf where 2 r gamma1 overflows.
    rng = np.random.default_rng(108)
    for trial in range(200):
        kind = (PersistenceKind.M1, PersistenceKind.M2)[trial % 2]
        p = edge_params(rng, kind, -600.0, 1e200, 1e300, 1e40)
        report = check_assumptions(kind, p)
        closed, grid = report.sup_bound_closed_form, report.sup_bound_numeric
        assert np.isfinite([closed, grid]).all() and 0.0 <= grid <= closed * (1 + 1e-12), p
        assert report.a1_satisfied == (closed < 1.0 and grid < 1.0)


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


def fields_bytes(obj) -> list:
    """Every field of a fit, arrays as (dtype, shape, bytes) and scalars with their type."""
    out = []
    for name, value in vars(obj).items():
        if isinstance(value, SdarParams):
            value = value.to_array()
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, float):
            value = np.float64(value).tobytes()
        out.append((name, type(value).__name__, value))
    return out


def assert_round_trip(fit_, cls):
    text = fit_.to_json()
    back = cls.from_json(text)
    assert fields_bytes(back) == fields_bytes(fit_)
    assert back.to_json() == text


def test_fit_result_json_round_trips_bit_for_bit():
    # seeded fits of both kinds on AR(1) and SDAR data; the AR(1) fits whose
    # gamma1_hat is near 0 at r = 3 have no standard errors
    rng, without_se = np.random.default_rng(104), 0
    for trial in range(12):
        seed = int(rng.integers(2**31))
        y = TimeSeries(gen_ar1(200, seed)) if trial % 2 else simulate(random_sdar(rng), 200, seed)
        for kind in PersistenceKind:
            got = fit(y, kind, n_starts=int(rng.integers(0, 5)), seed=seed)
            without_se += got.std_errors is None
            assert_round_trip(got, FitResult)
    assert 0 < without_se < 24


def test_setar_fit_json_round_trips_bit_for_bit():
    rng = np.random.default_rng(105)
    for trial in range(6):
        seed = int(rng.integers(2**31))
        y = gen_setar(int(rng.integers(200, 800)), seed) if trial % 2 else \
            rng.standard_normal(int(rng.integers(200, 800))).cumsum()
        for d1 in range(1, 5):
            for d2 in range(1, 5):
                assert_round_trip(fit_setar(TimeSeries(y), d1, d2), SetarFit)


def flag_specs():
    """(command, flag, argparse spec) for every flag of every subcommand."""
    for command, (_, _, flags) in cli._SUBCOMMANDS.items():
        for flag in flags.split():
            yield command, flag, cli._OWN_FLAGS.get((command, flag)) or cli._FLAGS[flag]


def test_config_entry_is_the_flag(tmp_path):
    # A required flag has no case: the command line must hold it, and there it wins.
    rng, parser, config = np.random.default_rng(106), cli.build_parser(), tmp_path / "config.json"
    required = {"--input": "in.csv", "--fit": "fit.json", "--n-train": "300"}
    for command, flag, spec in flag_specs():
        if flag == "--config" or spec.get("required"):
            continue
        if "choices" in spec:
            values = spec["choices"]
        elif spec.get("type") is int:
            values = [int(v) for v in rng.integers(-1000, 100_000, 3)]
        elif spec.get("type") is float:
            values = [float(v) for v in rng.standard_normal(3) * 10.0 ** rng.integers(-5, 5, 3)]
        else:
            values = ["x.csv", "-1", "a=b"]
        base = [command] + [f"{f}={required[f]}" for c, f, other in flag_specs()
                            if c == command and other.get("required")]
        for value in values:
            config.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
            argv = base + ["--config", str(config)]
            via_config = vars(cli._apply_config(parser, parser.parse_args(argv), argv))
            via_flag = vars(parser.parse_args(base + [f"{flag}={value}"]))
            assert via_config.pop("config") == str(config) and via_flag.pop("config") is None
            assert via_config == via_flag, (command, flag, value)
