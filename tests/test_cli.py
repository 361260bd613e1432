import csv
import json

import numpy as np
import pytest

from sdar import PersistenceKind, simulate
from sdar.cli import main

from conftest import gen_setar, m1_truth


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
        assert "error:" in capsys.readouterr().err
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
        assert "error: invalid fit" in capsys.readouterr().err
        assert not (out / "forecast.csv").exists()

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

    def test_bad_fit_json_exit_1(self, sdar_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["forecast", "--input", str(sdar_csv), "--fit", str(bad),
                   "--out", str(tmp_path)])
        assert rc == 1


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

    def test_horizon_exceeding_test_window_exit_1(self, tmp_path, capsys):
        y = simulate(m1_truth(), 450, seed=91).values
        path = write_returns(tmp_path, y)
        rc = main(["compare", "--input", str(path), "--n-train", "440",
                   "--horizon", "30", "--out", str(tmp_path / "x")])
        assert rc == 1


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

    def test_missing_params_exit_1(self, capsys):
        rc = main(["check", "--kind", "M1", "--gamma0", "0.5"])
        assert rc == 1
        assert "gamma1" in capsys.readouterr().err
