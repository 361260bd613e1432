import argparse
import csv
import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import sdar.cli
from sdar import (
    FitResult,
    PersistenceKind,
    PersistenceParams,
    SdarParams,
    SetarFit,
    TimeSeries,
    exact_means_sdar,
    exact_means_setar,
    fit_setar,
    load_returns,
    mc_forecast_sdar,
    mc_forecast_setar,
    realized_volatility,
    rolling_evaluate,
    setar_means,
    simulate,
    split,
)
from sdar.cli import build_parser, main
from sdar.forecast import horizon_csv

from conftest import gen_setar, m1_truth


def fan_csv(fc):
    """The ``forecast.csv`` text of a `ForecastResult`, as ``cmd_forecast`` writes it."""
    return horizon_csv({"mean": fc.means, **{f"q{p:g}": q for p, q in fc.quantiles.items()}})


def write_returns(tmp_path, values, name="input.csv", header="value"):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(f"{v:.12g}" for v in values) + "\n")
    return path


@pytest.fixture
def sdar_csv(tmp_path):
    y = simulate(m1_truth(), 400, seed=77).values
    return write_returns(tmp_path, y)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestIngest:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = write_returns(tmp_path, rng.standard_normal(50) * 0.01)
        out = tmp_path / "out"
        rc = main(["ingest", "--input", str(path), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "volatility.csv")
        assert rows[0] == ["volatility"]
        assert len(rows) - 1 == 10
        assert (out / "log_volatility.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["config"]["week_len"] == 5
        assert "version" in manifest

    def test_missing_input_exit_1(self, tmp_path, capsys):
        rc = main(["ingest", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_week_len_flag(self, tmp_path):
        path = write_returns(tmp_path, np.ones(20) * 0.01)
        out = tmp_path / "o"
        main(["ingest", "--input", str(path), "--week-len", "4",
              "--out", str(out)])
        assert len(read_csv(out / "volatility.csv")) - 1 == 5

    def test_column_index_flag(self, tmp_path):
        first, last = np.linspace(0.01, 0.2, 20), np.full(20, 0.5)
        path = tmp_path / "two.csv"
        path.write_text("a,b\n" + "".join(f"{u:.12g},{v:.12g}\n" for u, v in zip(first, last)))
        out = tmp_path / "o"
        assert main(["ingest", "--input", str(path), "--column", "0", "--out", str(out)]) == 0
        vol = realized_volatility(TimeSeries(first), 5).values
        assert (out / "volatility.csv").read_text() == sdar.cli._series_csv(vol, "volatility")

    def test_config_column_name_with_equals(self, tmp_path):
        # the config entry becomes the one token --column=a=b, split at its first '='
        first, last = np.linspace(0.01, 0.2, 20), np.full(20, 0.5)
        path = tmp_path / "two.csv"
        path.write_text("a=b,c\n" + "".join(f"{u:.12g},{v:.12g}\n" for u, v in zip(first, last)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"column": "a=b"}))
        out = tmp_path / "o"
        assert main(["ingest", "--input", str(path), "--config", str(config), "--out", str(out)]) == 0
        vol = realized_volatility(TimeSeries(first), 5).values
        assert (out / "volatility.csv").read_text() == sdar.cli._series_csv(vol, "volatility")
        assert json.loads((out / "run_manifest.json").read_text())["config"]["column"] == "a=b"


class TestFitSdar:
    def test_both_kinds_with_selection(self, sdar_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        rc = main(["fit-sdar", "--input", str(sdar_csv), "--out", str(out),
                   "--n-starts", "4"])
        assert rc == 0
        sel = json.loads((out / "selection.json").read_text())
        assert sel["selected"] in ("M1", "M2")
        assert set(sel["aic"]) == {"M1", "M2"}
        for kind in ("M1", "M2"):
            doc = json.loads((out / f"fit_{kind}.json").read_text())
            assert set(doc["theta_hat"]) == {
                "alpha", "gamma0", "gamma1", "r", "sigma"
            }
        ps = read_csv(out / "persistence_series.csv")
        assert ps[0] == ["persistence"]
        assert len(ps) - 1 == 399
        assert "converged=True" in capsys.readouterr().out

    def test_single_kind_no_selection(self, sdar_csv, tmp_path):
        out = tmp_path / "fit1"
        rc = main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M1",
                   "--out", str(out), "--n-starts", "4"])
        assert rc == 0
        assert (out / "fit_M1.json").exists()
        assert not (out / "selection.json").exists()

    def test_n_train_restricts_window(self, sdar_csv, tmp_path):
        out = tmp_path / "fitw"
        main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M1",
              "--n-train", "200", "--out", str(out), "--n-starts", "4"])
        doc = json.loads((out / "fit_M1.json").read_text())
        assert doc["n_obs"] == 199

    def test_config_file_overlay(self, sdar_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "M1", "n_starts": 4}))
        out = tmp_path / "fitc"
        rc = main(["fit-sdar", "--input", str(sdar_csv),
                   "--config", str(config), "--out", str(out)])
        assert rc == 0
        assert (out / "fit_M1.json").exists()
        assert not (out / "fit_M2.json").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["n_starts"] == 4

    def test_explicit_flag_beats_config(self, sdar_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "M2"}))
        out = tmp_path / "fitd"
        main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M1",
              "--config", str(config), "--out", str(out), "--n-starts", "4"])
        assert (out / "fit_M1.json").exists()
        assert not (out / "fit_M2.json").exists()


    def test_config_value_takes_the_flag_type(self, sdar_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "M1", "n_starts": "4"}))
        out = tmp_path / "fite"
        rc = main(["fit-sdar", "--input", str(sdar_csv),
                   "--config", str(config), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["n_starts"] == 4

    @pytest.mark.parametrize("bad", [{"n_starts": "four"}, {"n_starts": 2.5},
                                     {"kind": "M3"}, {"seed": None}])
    def test_bad_config_value_exit_1(self, sdar_csv, tmp_path, capsys, bad):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bad))
        out = tmp_path / "fitf"
        rc = main(["fit-sdar", "--input", str(sdar_csv),
                   "--config", str(config), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_config_cannot_supply_required_input(self, sdar_csv, tmp_path, capsys):
        # the command line is parsed alone first, so --input must be on it
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(sdar_csv)}))
        out = tmp_path / "fiti"
        rc = main(["fit-sdar", "--config", str(config), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: the following arguments are required: --input\n"
        assert not out.exists()


    def test_config_not_an_object_exit_1(self, sdar_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        out = tmp_path / "fith"
        rc = main(["fit-sdar", "--input", str(sdar_csv), "--config", str(config),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {config}: config must be a JSON object\n"
        assert not out.exists()

    def test_negative_n_starts_exit_1(self, sdar_csv, tmp_path, capsys):
        out = tmp_path / "fitg"
        rc = main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M1",
                   "--n-starts", "-3", "--out", str(out)])
        assert rc == 1
        assert "error: n_starts must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestFitSetar:
    def test_config_cannot_switch_command(self, tmp_path, capsys):
        y = gen_setar(600, seed=3)
        path = write_returns(tmp_path, y)
        config = tmp_path / "config.json"
        # keys of other stages (n_starts, horizon) are ignored too
        config.write_text(json.dumps({"command": "check", "config": "x.json",
                                      "n_starts": 4, "horizon": 8, "max_lag": 2}))
        out = tmp_path / "setarc"
        rc = main(["fit-setar", "--input", str(path), "--config", str(config),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "setar_fit.json").read_text())
        assert doc["d1"] <= 2 and doc["d2"] <= 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "fit-setar"
        assert manifest["config"]["max_lag"] == 2

    def test_abbreviated_flag_beats_config(self, tmp_path):
        # argparse accepts the unique prefix --max-l for --max-lag
        path = write_returns(tmp_path, gen_setar(600, seed=3))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_lag": 3}))
        out = tmp_path / "setarp"
        rc = main(["fit-setar", "--input", str(path), "--max-l", "1",
                   "--config", str(config), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["max_lag"] == 1
        doc = json.loads((out / "setar_fit.json").read_text())
        assert doc["d1"] == doc["d2"] == 1

    def test_fit_and_artifacts(self, tmp_path):
        y = gen_setar(600, seed=3)
        path = write_returns(tmp_path, y)
        out = tmp_path / "setar"
        rc = main(["fit-setar", "--input", str(path), "--max-lag", "3",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "setar_fit.json").read_text())
        assert 1 <= doc["d1"] <= 3 and 1 <= doc["d2"] <= 3
        assert doc["sigma1"] > 0


class TestForecast:
    def test_sdar_fit_roundtrip(self, sdar_csv, tmp_path):
        fit_dir = tmp_path / "f"
        main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M1",
              "--out", str(fit_dir), "--n-starts", "4"])
        out = tmp_path / "fc"
        rc = main(["forecast", "--input", str(sdar_csv),
                   "--fit", str(fit_dir / "fit_M1.json"),
                   "--horizon", "5", "--mc", "500", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "forecast.csv")
        assert rows[0] == ["h", "mean", "q0.05", "q0.25", "q0.5", "q0.75", "q0.95"]
        assert len(rows) - 1 == 5
        means = [float(r[1]) for r in rows[1:]]
        assert all(np.isfinite(means))

    def test_setar_fit_autodetected(self, tmp_path):
        y = gen_setar(600, seed=4)
        path = write_returns(tmp_path, y)
        fit_dir = tmp_path / "sf"
        main(["fit-setar", "--input", str(path), "--max-lag", "2",
              "--out", str(fit_dir)])
        out = tmp_path / "sfc"
        rc = main(["forecast", "--input", str(path),
                   "--fit", str(fit_dir / "setar_fit.json"),
                   "--horizon", "3", "--mc", "200", "--out", str(out)])
        assert rc == 0
        assert len(read_csv(out / "forecast.csv")) - 1 == 3

    def test_non_finite_setar_fit_exit_1(self, tmp_path, capsys):
        y = gen_setar(600, seed=4)
        path = write_returns(tmp_path, y)
        fit_dir = tmp_path / "sf"
        main(["fit-setar", "--input", str(path), "--max-lag", "2",
              "--out", str(fit_dir)])
        fit_path = fit_dir / "setar_fit.json"
        doc = json.loads(fit_path.read_text())
        doc["threshold"] = doc["sigma1"] = float("nan")
        fit_path.write_text(json.dumps(doc))  # writes the token NaN
        out = tmp_path / "sfc"
        rc = main(["forecast", "--input", str(path), "--fit", str(fit_path),
                   "--horizon", "3", "--mc", "200", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {fit_path}: invalid fit JSON" in err
        assert "invalid fit: non-finite" in err
        assert not (out / "forecast.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("d1", "2"), ("d1", 2.5), ("d1", 0), ("sigma1", None), ("threshold", "x")],
        ids=["d1-string", "d1-float", "d1-zero", "sigma1-null", "threshold-string"],
    )
    def test_mistyped_setar_fit_exit_1(self, tmp_path, capsys, field, value):
        path = write_returns(tmp_path, gen_setar(600, seed=4))
        fit_dir = tmp_path / "sf"
        main(["fit-setar", "--input", str(path), "--max-lag", "2", "--out", str(fit_dir)])
        fit_path = fit_dir / "setar_fit.json"
        doc = json.loads(fit_path.read_text())
        doc[field] = value
        fit_path.write_text(json.dumps(doc))
        out = tmp_path / "sfc"
        rc = main(["forecast", "--input", str(path), "--fit", str(fit_path),
                   "--horizon", "3", "--mc", "200", "--out", str(out)])
        assert rc == 1
        assert f"error: {fit_path}: invalid fit JSON (" in capsys.readouterr().err
        assert not (out / "forecast.csv").exists()

    def test_non_finite_alpha_fit_exit_1(self, sdar_csv, tmp_path, capsys):
        fit_dir = tmp_path / "f"
        main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M1",
              "--out", str(fit_dir), "--n-starts", "2"])
        fit_path = fit_dir / "fit_M1.json"
        doc = json.loads(fit_path.read_text())
        doc["theta_hat"]["alpha"] = float("nan")
        fit_path.write_text(json.dumps(doc))  # writes the token NaN
        out = tmp_path / "fc"
        rc = main(["forecast", "--input", str(sdar_csv), "--fit", str(fit_path),
                   "--horizon", "3", "--mc", "200", "--out", str(out)])
        assert rc == 1
        assert "alpha must be finite" in capsys.readouterr().err
        assert not (out / "forecast.csv").exists()

    @pytest.mark.parametrize("doc", [{"foo": 1}, [1, 2], {"theta_hat": {"alpha": "high"}}],
                             ids=["missing-key", "not-an-object", "mistyped-key"])
    def test_malformed_fit_json_exit_1(self, sdar_csv, tmp_path, capsys, doc):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(doc))
        out = tmp_path / "fc"
        rc = main(["forecast", "--input", str(sdar_csv), "--fit", str(fit_path),
                   "--out", str(out)])
        assert rc == 1
        assert f"error: {fit_path}: invalid fit JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_same_seed_reproduces(self, sdar_csv, tmp_path):
        fit_dir = tmp_path / "f2"
        main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M1",
              "--out", str(fit_dir), "--n-starts", "4"])
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["forecast", "--input", str(sdar_csv),
                  "--fit", str(fit_dir / "fit_M1.json"),
                  "--horizon", "4", "--mc", "300", "--seed", "9",
                  "--out", str(out)])
            outs.append((out / "forecast.csv").read_text())
        assert outs[0] == outs[1]

    def test_sdar_forecast_is_the_library_fan(self, sdar_csv, tmp_path):
        fit_dir, out = tmp_path / "f", tmp_path / "fc"
        main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M1",
              "--out", str(fit_dir), "--n-starts", "4"])
        fit_path = fit_dir / "fit_M1.json"
        main(["forecast", "--input", str(sdar_csv), "--fit", str(fit_path),
              "--horizon", "4", "--mc", "300", "--seed", "9", "--out", str(out)])
        fc = mc_forecast_sdar(FitResult.from_json(fit_path.read_text()),
                              load_returns(sdar_csv).values[-1], 4, 300, 9)
        assert (out / "forecast.csv").read_text() == fan_csv(fc)

    def test_setar_forecast_is_the_library_fan(self, tmp_path):
        path = write_returns(tmp_path, gen_setar(600, seed=4))
        fit_dir, out = tmp_path / "sf", tmp_path / "sfc"
        main(["fit-setar", "--input", str(path), "--max-lag", "2", "--out", str(fit_dir)])
        fit_path = fit_dir / "setar_fit.json"
        main(["forecast", "--input", str(path), "--fit", str(fit_path),
              "--horizon", "4", "--mc", "300", "--seed", "9", "--out", str(out)])
        fc = mc_forecast_setar(SetarFit.from_json(fit_path.read_text()),
                               load_returns(path).values, 4, 300, 9)
        assert (out / "forecast.csv").read_text() == fan_csv(fc)

    def test_bad_fit_json_exit_1(self, sdar_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["forecast", "--input", str(sdar_csv), "--fit", str(bad),
                   "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("flag, value", [("--horizon", "0"), ("--mc", "0"),
                                             ("--mc", "-3")])
    def test_bad_horizon_or_mc_exit_1_naming_the_flags(self, sdar_csv, tmp_path, capsys,
                                                       flag, value):
        # The check comes before any input is read: the fit file does not exist.
        out = tmp_path / "fc"
        rc = main(["forecast", "--input", str(sdar_csv), "--fit", str(tmp_path / "no.json"),
                   flag, value, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: --horizon and --mc must be >= 1\n"
        assert not out.exists()


class TestCompare:
    def test_end_to_end(self, tmp_path, capsys):
        y = simulate(m1_truth(), 450, seed=90).values
        path = write_returns(tmp_path, y)
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", str(path), "--n-train", "430",
                   "--kind", "M1", "--n-starts", "4", "--max-lag", "2",
                   "--horizon", "5", "--mc", "500", "--out", str(out)])
        assert rc == 0
        re_rows = read_csv(out / "re_table.csv")
        assert re_rows[0] == ["h", "mafe", "msfe", "mape"]
        assert len(re_rows) - 1 == 5
        for name in ("sdar_accuracy.csv", "setar_accuracy.csv",
                     "fit_sdar.json", "fit_setar.json", "run_manifest.json"):
            assert (out / name).exists()
        assert "median RE(mafe)" in capsys.readouterr().out

    def test_rolling_accuracy_is_the_library_evaluation(self, tmp_path):
        # SDAR means are exact; a SETAR(2,2,1) averages the conditional means of the
        # 2 x --mc antithetic paths of each origin's draw
        path = write_returns(tmp_path, simulate(m1_truth(), 450, seed=90).values)
        out = tmp_path / "cmp"
        main(["compare", "--input", str(path), "--n-train", "430", "--kind", "M1",
              "--n-starts", "4", "--max-lag", "2", "--horizon", "5", "--mc", "500",
              "--seed", "3", "--mode", "rolling-origin", "--out", str(out)])
        sdar_fit = FitResult.from_json((out / "fit_sdar.json").read_text())
        setar_fit = SetarFit.from_json((out / "fit_setar.json").read_text())
        assert (setar_fit.d1, setar_fit.d2) == (2, 1)
        train, test = split(load_returns(path), 430)
        reports = rolling_evaluate(
            [exact_means_sdar(sdar_fit, np.r_[train.values, test.values], 5),
             lambda history, z: setar_means(setar_fit, history, z)],
            train, test, 5, 500, 3)
        for name, report in zip(("sdar_accuracy.csv", "setar_accuracy.csv"), reports):
            assert (out / name).read_text() == report.to_csv()

    def test_first_order_setar_draws_nothing(self, tmp_path, monkeypatch):
        # both means exact: the library evaluation with M=None, and no normal drawn
        def no_draw(*args):
            raise AssertionError("drew normals")

        monkeypatch.setattr(sdar.forecast, "_normals", no_draw)
        path = write_returns(tmp_path, simulate(m1_truth(), 450, seed=90).values)
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", str(path), "--n-train", "430", "--kind", "M1",
                   "--n-starts", "4", "--max-lag", "1", "--horizon", "5",
                   "--mode", "rolling-origin", "--out", str(out)])
        assert rc == 0
        sdar_fit = FitResult.from_json((out / "fit_sdar.json").read_text())
        setar_fit = SetarFit.from_json((out / "fit_setar.json").read_text())
        train, test = split(load_returns(path), 430)
        values = np.r_[train.values, test.values]
        reports = rolling_evaluate(
            [exact_means_sdar(sdar_fit, values, 5), exact_means_setar(setar_fit, values, 5)],
            train, test, 5, None)
        for name, report in zip(("sdar_accuracy.csv", "setar_accuracy.csv"), reports):
            assert (out / name).read_text() == report.to_csv()

    def test_explosive_sdar_fit_exit_1(self, tmp_path, capsys, monkeypatch):
        # M1 with gamma0 = -2, gamma1 = 0 is an AR(1) with phi = e^2: its mass leaves the grid
        real_fit = sdar.cli.fit
        explosive = SdarParams(-1.5, PersistenceParams(-2.0, 0.0, 0.5), 0.5, PersistenceKind.M1)
        monkeypatch.setattr(sdar.cli, "fit", lambda *args, **kwargs: dataclasses.replace(
            real_fit(*args, **kwargs), theta_hat=explosive))
        path = write_returns(tmp_path, simulate(m1_truth(), 450, seed=90).values)
        rc = main(["compare", "--input", str(path), "--n-train", "430", "--kind", "M1",
                   "--n-starts", "2", "--max-lag", "1", "--horizon", "3",
                   "--out", str(tmp_path / "cmp")])
        assert rc == 1
        assert "error: the forecast grid keeps mass" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_single_origin_is_a_window_of_h_values(self, tmp_path):
        # single-origin on the full file scores what rolling-origin scores on the
        # file cut to n_train + horizon rows: byte for byte, in every artifact
        y = simulate(m1_truth(), 450, seed=90).values
        flags = ["--n-train", "430", "--kind", "M1", "--n-starts", "4", "--max-lag", "2",
                 "--horizon", "5", "--mc", "500", "--seed", "3"]
        runs = {"single-origin": write_returns(tmp_path, y, "full.csv"),
                "rolling-origin": write_returns(tmp_path, y[:435], "cut.csv")}
        for mode, path in runs.items():
            rc = main(["compare", "--input", str(path), *flags, "--mode", mode,
                       "--out", str(tmp_path / mode)])
            assert rc == 0
        for name in ("re_table.csv", "sdar_accuracy.csv", "setar_accuracy.csv",
                     "fit_sdar.json", "fit_setar.json"):
            single, rolling = ((tmp_path / mode / name).read_bytes() for mode in runs)
            assert single == rolling, name

    def test_horizon_exceeding_test_window_exit_1(self, tmp_path, capsys):
        y = simulate(m1_truth(), 450, seed=91).values
        path = write_returns(tmp_path, y)
        rc = main(["compare", "--input", str(path), "--n-train", "440",
                   "--horizon", "30", "--out", str(tmp_path / "x")])
        assert rc == 1


    def test_negative_n_starts_exit_1(self, tmp_path, capsys):
        y = simulate(m1_truth(), 450, seed=91).values
        path = write_returns(tmp_path, y)
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", str(path), "--n-train", "430",
                   "--n-starts", "-1", "--out", str(out)])
        assert rc == 1
        assert "error: n_starts must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_converged_sdar_fit_exit_2(self, tmp_path, monkeypatch):
        real_fit = sdar.cli.fit
        monkeypatch.setattr(sdar.cli, "fit", lambda *args, **kwargs: dataclasses.replace(
            real_fit(*args, **kwargs), converged=False))
        path = write_returns(tmp_path, simulate(m1_truth(), 450, seed=90).values)
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", str(path), "--n-train", "430",
                   "--kind", "M1", "--n-starts", "2", "--max-lag", "1",
                   "--horizon", "3", "--mc", "100", "--out", str(out)])
        assert rc == 2
        assert json.loads((out / "fit_sdar.json").read_text())["converged"] is False
        assert (out / "re_table.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--horizon", "0"), ("--mc", "0"),
                                             ("--horizon", "-2")])
    def test_bad_horizon_or_mc_exit_1_before_fitting(self, tmp_path, capsys,
                                                      monkeypatch, flag, value):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(sdar.cli, "fit", no_fit)
        monkeypatch.setattr(sdar.cli, "select_setar", no_fit)
        y = simulate(m1_truth(), 450, seed=91).values
        path = write_returns(tmp_path, y)
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", str(path), "--n-train", "430",
                   flag, value, "--out", str(out)])
        assert rc == 1
        assert "error: --horizon and --mc must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestCheck:
    def test_satisfied_params_exit_0(self, capsys):
        rc = main(["check", "--kind", "M1", "--gamma0", "0.3734",
                   "--gamma1", "0.0649", "--r", "0.3198"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.688" in out
        assert "True" in out

    def test_violated_params_exit_3(self, capsys):
        rc = main(["check", "--kind", "M1", "--gamma0", "-1.0",
                   "--gamma1", "0.0", "--r", "0.5"])
        assert rc == 3

    def test_tiny_gamma1_small_r_exit_0(self, capsys):
        rc = main(["check", "--kind", "M1", "--gamma0", "0.4",
                   "--gamma1", "1e-6", "--r", "0.001"])
        assert rc == 0
        assert "0.670320" in capsys.readouterr().out

    def test_from_fit_json(self, sdar_csv, tmp_path):
        fit_dir = tmp_path / "f3"
        main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M1",
              "--out", str(fit_dir), "--n-starts", "4"])
        rc = main(["check", "--fit", str(fit_dir / "fit_M1.json")])
        assert rc in (0, 3)

    def test_config_negative_gamma0(self, tmp_path, capsys):
        # the config entry becomes the one token --gamma0=-0.3, not a flag -0.3
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "M1", "gamma0": -0.3, "gamma1": 0.07, "r": 0.32}))
        assert main(["check", "--config", str(config)]) == 3
        out = capsys.readouterr().out
        assert "sup bound (closed form): 1.349859" in out  # e^0.3
        assert main(["check", "--kind", "M1", "--gamma0=-0.3", "--gamma1", "0.07",
                     "--r", "0.32"]) == 3
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("argv, rc, grid", [
        ("--kind M1 --gamma0 0.4 --gamma1 0 --r 200", 0, "0.670320"),
        ("--kind M1 --gamma0 0.4 --gamma1 0.07 --r 200", 3, "98.729187"),
        ("--kind M2 --gamma0 1.5 --gamma1 1e-6 --r 200", 3, "66.793901"),
    ], ids=["M1-gamma1-zero", "M1", "M2"])
    def test_grid_where_power_overflows(self, capsys, argv, rc, grid):
        # |y|^400 overflows on the grid; warnings are errors under pytest
        assert main(["check", *argv.split()]) == rc
        assert f"sup bound (grid):        {grid}\n" in capsys.readouterr().out

    def test_missing_params_exit_1(self, capsys):
        rc = main(["check", "--kind", "M1", "--gamma0", "0.5"])
        assert rc == 1
        assert "gamma1" in capsys.readouterr().err

    def test_pipeline_config_kind_both(self, sdar_csv, tmp_path, capsys):
        # fit-sdar's default kind, in a config shared by the whole pipeline
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "both", "seed": 3, "out": "x"}))
        fit_dir = tmp_path / "f4"
        main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M2",
              "--out", str(fit_dir), "--n-starts", "2"])
        rc = main(["check", "--fit", str(fit_dir / "fit_M2.json"), "--config", str(config)])
        assert rc in (0, 3)
        assert "kind: M2" in capsys.readouterr().out
        rc = main(["check", "--gamma0", "0.4", "--gamma1", "0.07", "--r", "0.32",
                   "--config", str(config)])
        assert rc == 1
        assert "--kind M1|M2" in capsys.readouterr().err

    def test_default_kind_is_the_fits(self, sdar_csv, tmp_path, capsys):
        fit_dir = tmp_path / "f6"
        main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M2",
              "--out", str(fit_dir), "--n-starts", "2"])
        capsys.readouterr()
        assert main(["check", "--fit", str(fit_dir / "fit_M2.json")]) in (0, 3)
        assert "kind: M2" in capsys.readouterr().out
        assert main(["check", "--gamma0", "0.4", "--gamma1", "0.07", "--r", "0.32"]) == 1
        assert capsys.readouterr().err == (
            "error: check needs --fit, or --kind M1|M2 and all of --gamma0 --gamma1 --r\n")

    def test_kind_disagreeing_with_fit_exit_1(self, sdar_csv, tmp_path, capsys):
        fit_dir = tmp_path / "f7"
        main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M1",
              "--out", str(fit_dir), "--n-starts", "2"])
        fit_path = fit_dir / "fit_M1.json"
        capsys.readouterr()
        assert main(["check", "--fit", str(fit_path), "--kind", "M2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --kind M2 disagrees with the M1 fit {fit_path}\n"
        assert main(["check", "--fit", str(fit_path), "--kind", "M1"]) in (0, 3)
        assert "kind: M1" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--gamma0", "--gamma1", "--r"])
    def test_fit_with_parameter_flag_exit_1(self, sdar_csv, tmp_path, capsys, flag):
        fit_dir = tmp_path / "f5"
        main(["fit-sdar", "--input", str(sdar_csv), "--kind", "M1",
              "--out", str(fit_dir), "--n-starts", "2"])
        capsys.readouterr()
        rc = main(["check", "--fit", str(fit_dir / "fit_M1.json"), flag, "5"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: check takes --fit or {flag}, not both\n"

    def test_setar_fit_exit_1(self, tmp_path, capsys):
        fit_path = tmp_path / "setar_fit.json"
        fit_path.write_text(fit_setar(TimeSeries(gen_setar(300, seed=3)), 1, 1).to_json())
        assert main(["check", "--fit", str(fit_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: check requires an SDAR fit JSON\n"

    def test_fit_json_not_an_object_exit_1(self, tmp_path, capsys):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text("[1, 2]")
        rc = main(["check", "--fit", str(fit_path)])
        assert rc == 1
        assert f"error: {fit_path}: invalid fit JSON" in capsys.readouterr().err


COMMON = {"--input", "--column", "--config", "--out"}
EXPECTED_FLAGS = {
    "ingest": COMMON | {"--week-len"},
    "fit-sdar": COMMON | {"--n-train", "--kind", "--n-starts", "--seed"},
    "fit-setar": COMMON | {"--n-train", "--max-lag", "--trim"},
    "forecast": COMMON | {"--fit", "--horizon", "--mc", "--seed"},
    "compare": COMMON | {"--n-train", "--kind", "--n-starts", "--max-lag", "--trim",
                         "--horizon", "--mc", "--mode", "--seed"},
    "check": {"--kind", "--fit", "--gamma0", "--gamma1", "--r", "--config"},
}


class TestFlagSurface:
    def test_each_subcommand_reads_its_flags(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                 for name, p in sub.choices.items()}
        assert flags == EXPECTED_FLAGS
        assert sum(map(len, flags.values())) == 47

    @pytest.mark.parametrize("argv", [
        ["ingest", "--input", "{csv}", "--out", "{tmp}", "--seed", "1"],
        ["fit-setar", "--input", "{csv}", "--out", "{tmp}", "--seed", "1"],
        ["check", "--gamma0", "0.4", "--gamma1", "0.07", "--r", "0.32", "--seed", "1"],
        ["check", "--gamma0", "0.4", "--gamma1", "0.07", "--r", "0.32", "--out", "{tmp}"],
    ], ids=["ingest-seed", "fit-setar-seed", "check-seed", "check-out"])
    def test_flag_that_would_do_nothing_exit_1(self, sdar_csv, tmp_path, capsys, argv):
        argv = [a.format(csv=sdar_csv, tmp=tmp_path / "o") for a in argv]
        assert main(argv) == 1
        assert "error: unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["fit-sdar", "--input", "{csv}", "--kind", "M3", "--out", "{tmp}"],
         "argument --kind: invalid choice: 'M3'"),
        (["compare", "--input", "{csv}", "--out", "{tmp}"],
         "the following arguments are required: --n-train"),
        (["forecast", "--input", "{csv}", "--fit", "f.json", "--horizon", "abc", "--out", "{tmp}"],
         "argument --horizon: invalid int value: 'abc'"),
    ], ids=["bad-choice", "missing-required", "bad-type"])
    def test_usage_error_exit_1(self, sdar_csv, tmp_path, capsys, argv, message):
        argv = [a.format(csv=sdar_csv, tmp=tmp_path / "o") for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: sdar" in capsys.readouterr().out

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [ln for ln in block.splitlines() if ln.startswith("sdar ")]
        parser = build_parser()
        commands = {parser.parse_args(shlex.split(ln)[1:]).command for ln in lines}
        assert commands == set(EXPECTED_FLAGS)
