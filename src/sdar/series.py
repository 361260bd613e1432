"""Return-series ingestion and weekly realized-volatility construction.

Daily log-returns come in as a CSV column; they are aggregated into
weekly realized volatility (square root of the sum of squared returns
within each fixed-length block), log-transformed, and split into an
estimation window and an out-of-sample window.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class IngestError(ValueError):
    """Raised for malformed input files or invalid series operations."""


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real-valued observations, the universal data carrier."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1:
            raise IngestError("time series must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise IngestError("time series contains non-finite values")

    def __len__(self) -> int:
        return self.values.size


def load_returns(path, column=None) -> TimeSeries:
    """Load a return series from a headered CSV file.

    Parameters
    ----------
    path : str or Path
        CSV file, UTF-8, comma separated, '.' decimal separator,
        header row required.
    column : str or int, optional
        Column name or zero-based index to read. Defaults to the last
        column, so files with a leading date column work unannounced.

    Returns
    -------
    TimeSeries
        All parsed values in file order; blank lines are skipped.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        if column is None:
            idx = len(header) - 1
        elif isinstance(column, int):
            if not 0 <= column < len(header):
                raise IngestError(
                    f"{path}: column index {column} out of range (file has "
                    f"{len(header)} columns)"
                )
            idx = column
        else:
            if column not in header:
                raise IngestError(f"{path}: no column named {column!r} in header")
            idx = header.index(column)

        values: list[float] = []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if idx >= len(row):
                raise IngestError(f"{path}: row {row_no} has no column {idx}")
            cell = row[idx].strip()
            try:
                value = float(cell)
            except ValueError:
                raise IngestError(
                    f"{path}: row {row_no}: cannot parse {cell!r} as a number"
                ) from None
            if not np.isfinite(value):
                raise IngestError(f"{path}: row {row_no}: non-finite value {cell!r}")
            values.append(value)
    if not values:
        raise IngestError(f"{path}: no data rows")
    return TimeSeries(np.array(values))


def realized_volatility(returns: TimeSeries, week_len: int = 5) -> TimeSeries:
    """Weekly realized volatility from a `TimeSeries` of daily returns.

    v_t = sqrt(sum of r_s^2 over week t), using fixed-length blocks of
    ``week_len`` consecutive returns. A trailing partial block is
    discarded.
    """
    if week_len < 1:
        raise IngestError("week_len must be >= 1")
    r = returns.values
    n_weeks = r.size // week_len
    if n_weeks == 0:
        raise IngestError(
            f"insufficient data: {r.size} returns < one week of {week_len}"
        )
    blocks = r[: n_weeks * week_len].reshape(n_weeks, week_len)
    vol = np.sqrt(np.sum(blocks**2, axis=1))
    return TimeSeries(vol)


def log_transform(vol: TimeSeries) -> TimeSeries:
    """Elementwise natural log; rejects nonpositive values by index."""
    bad = np.flatnonzero(vol.values <= 0.0)
    if bad.size:
        raise IngestError(
            f"nonpositive value {vol.values[bad[0]]} at index {bad[0]}; "
            "log transform requires strictly positive input"
        )
    return TimeSeries(np.log(vol.values))


def split(series: TimeSeries, n_train: int) -> tuple[TimeSeries, TimeSeries]:
    """Split into an estimation segment of ``n_train`` points and the rest."""
    n = len(series)
    if not 1 <= n_train < n:
        raise IngestError(
            f"n_train must satisfy 1 <= n_train < {n}, got {n_train}"
        )
    return (
        TimeSeries(series.values[:n_train]),
        TimeSeries(series.values[n_train:]),
    )
