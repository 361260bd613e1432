import numpy as np
import pytest

from sdar import (
    IngestError,
    TimeSeries,
    load_returns,
    log_transform,
    realized_volatility,
    split,
)


def write(tmp_path, text, name="returns.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadReturns:
    def test_direct_parse(self, tmp_path):
        path = write(tmp_path, "ret\n0.01\n-0.02\n")
        series = load_returns(path, "ret")
        np.testing.assert_array_equal(series.values, [0.01, -0.02])

    def test_blank_lines_ignored(self, tmp_path):
        path = write(tmp_path, "ret\n0.01\n\n-0.02\n\n")
        series = load_returns(path)
        np.testing.assert_array_equal(series.values, [0.01, -0.02])

    def test_bad_cell_reports_row(self, tmp_path):
        rows = "\n".join(["ret"] + ["0.01"] * 5 + ["abc"])
        path = write(tmp_path, rows + "\n")
        with pytest.raises(IngestError, match="row 7"):
            load_returns(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot open"):
            load_returns(tmp_path / "nope.csv")

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "ret\n0.01\n")
        with pytest.raises(IngestError, match="no column named"):
            load_returns(path, "other")

    def test_column_by_index(self, tmp_path):
        path = write(tmp_path, "date,ret\n2020-01-01,0.5\n")
        series = load_returns(path, 1)
        np.testing.assert_array_equal(series.values, [0.5])

    def test_date_column_default_last(self, tmp_path):
        path = write(tmp_path, "date,ret\n2020-01-01,0.5\n2020-01-02,-0.3\n")
        series = load_returns(path)
        np.testing.assert_array_equal(series.values, [0.5, -0.3])

    @pytest.mark.parametrize("text, column, match", [
        ("", None, "empty file, header row required"),
        ("date,ret\n2020-01-01,0.5\n", 2, "column index 2 out of range"),
        ("date,ret\n2020-01-01,0.5\n2020-01-02\n", 1, "row 3 has no column 1"),
        ("ret\n0.5\ninf\n", None, "row 3: non-finite value 'inf'"),
        ("ret\n\n\n", None, "no data rows"),
    ], ids=["empty", "index-out-of-range", "short-row", "non-finite", "header-only"])
    def test_malformed_file_rejected(self, tmp_path, text, column, match):
        with pytest.raises(IngestError, match=match):
            load_returns(write(tmp_path, text), column)


class TestTimeSeries:
    @pytest.mark.parametrize("values", [np.ones((2, 3)), np.float64(1.0)], ids=["2-d", "0-d"])
    def test_not_1d_rejected(self, values):
        with pytest.raises(IngestError, match="non-empty 1-d array"):
            TimeSeries(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(IngestError, match="non-finite"):
            TimeSeries(np.array([1.0, bad, 2.0]))


class TestRealizedVolatility:
    def test_hand_arithmetic(self):
        vol = realized_volatility(TimeSeries(np.full(5, 0.01)), week_len=5)
        assert vol.values == pytest.approx([np.sqrt(5e-4)])
        assert vol.values[0] == pytest.approx(0.0223607, abs=1e-6)

    def test_floor_rule_drops_partial_week(self):
        vol = realized_volatility(TimeSeries(np.ones(12)), week_len=5)
        assert len(vol) == 2

    def test_3890_daily_returns_give_778_weeks(self):
        returns = TimeSeries(np.ones(3890) * 0.01)
        assert len(realized_volatility(returns, week_len=5)) == 778

    def test_insufficient_data(self):
        with pytest.raises(IngestError, match="insufficient"):
            realized_volatility(TimeSeries(np.ones(4)), week_len=5)

    def test_zero_week_len_rejected(self):
        with pytest.raises(IngestError, match="week_len must be >= 1"):
            realized_volatility(TimeSeries(np.ones(10)), week_len=0)

    def test_nonnegative_and_zero_iff_zero_week(self):
        r = TimeSeries(np.array([0.0, 0.0, 0.1, -0.1]))
        vol = realized_volatility(r, week_len=2)
        assert vol.values[0] == 0.0
        assert vol.values[1] > 0.0

    def test_sign_flip_invariance(self, rng):
        r = rng.standard_normal(50)
        a = realized_volatility(TimeSeries(r), 5).values
        b = realized_volatility(TimeSeries(-r), 5).values
        np.testing.assert_allclose(a, b)


class TestLogTransform:
    def test_ln_one_is_zero(self):
        assert log_transform(TimeSeries(np.array([1.0]))).values[0] == 0.0

    def test_ln_e_is_one(self):
        out = log_transform(TimeSeries(np.array([np.e])))
        assert out.values[0] == pytest.approx(1.0)

    def test_zero_rejected_with_index(self):
        with pytest.raises(IngestError, match="index 0"):
            log_transform(TimeSeries(np.array([0.0, 1.0])))


class TestSplit:
    def test_sizes(self):
        a, b = split(TimeSeries(np.arange(10.0)), 7)
        assert (len(a), len(b)) == (7, 3)

    def test_778_window_leaves_20(self):
        a, b = split(TimeSeries(np.arange(798.0)), 778)
        assert (len(a), len(b)) == (778, 20)

    def test_full_length_rejected(self):
        with pytest.raises(IngestError):
            split(TimeSeries(np.arange(10.0)), 10)

    def test_concat_roundtrip(self, rng):
        values = rng.standard_normal(31)
        a, b = split(TimeSeries(values), 11)
        np.testing.assert_array_equal(
            np.concatenate([a.values, b.values]), values
        )
