"""Return-panel ingestion and descriptive statistics.

CSV layout: first column ISO-8601 date, remaining columns numeric
log-returns (or prices, converted via :func:`prices_to_log_returns`).
Missing data are rejected, never imputed.
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import dataclass

import numpy as np


CSV_SCHEMA = "# schema: msrisk/1"


class PanelError(ValueError):
    """Raised for malformed input panels or CSV files."""


@dataclass(frozen=True)
class ReturnPanel:
    """Dated T x p matrix of returns with series names.

    Invariants: dates strictly increasing, no missing cells, p >= 2.
    The T >= 10 p fitting guard is enforced at estimation time, not here,
    so that small panels remain usable for I/O and simulation round trips.
    """

    dates: tuple
    names: tuple
    returns: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        names = tuple(str(n) for n in self.names)
        values = np.atleast_2d(np.asarray(self.returns, dtype=float))
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "returns", values)
        t, p = values.shape
        if p < 2:
            raise PanelError("a panel needs at least two series")
        if len(names) != p:
            raise PanelError(f"{len(names)} names for {p} series")
        if len(dates) != t:
            raise PanelError(f"{len(dates)} dates for {t} rows")
        if not np.all(np.isfinite(values)):
            raise PanelError("panel contains missing or non-finite cells")
        for a, b in zip(dates, dates[1:]):
            if b == a:
                raise PanelError(f"duplicate date {a}")
            if b < a:
                raise PanelError(f"dates not increasing at {b}")

    @property
    def n_obs(self) -> int:
        return self.returns.shape[0]

    @property
    def n_series(self) -> int:
        return self.returns.shape[1]

    def select(self, indices) -> "ReturnPanel":
        """Sub-panel on the given column indices (order preserved)."""
        idx = list(indices)
        return ReturnPanel(
            self.dates, [self.names[i] for i in idx], self.returns[:, idx]
        )


@dataclass(frozen=True)
class SummaryStats:
    """Per-series descriptive statistics.

    kurtosis is the raw fourth standardized moment (about 3 under
    normality); jb combines skewness and excess kurtosis as
    T/6 * (S^2 + (K - 3)^2 / 4).
    """

    names: tuple
    minimum: np.ndarray
    maximum: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    skewness: np.ndarray
    kurtosis: np.ndarray
    quantile: np.ndarray
    jb: np.ndarray
    alpha: float


def _write_csv(path, header, rows) -> None:
    """Write a CSV output file: the schema line, the header, then the rows.

    Every CSV the package writes goes through here.  Private, so a traced
    run charges the write to the caller that built the rows.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_csv(path, date_column=None, value_columns=None) -> ReturnPanel:
    """Load a dated panel from CSV.

    date_column / value_columns select columns by header name; by default
    the first column holds dates and every other column is a value series.
    Lines starting with '#' (schema headers) are skipped.  Any row with an
    unparseable cell is an error naming the offending row numbers.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise PanelError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if date_column is None:
        date_idx = 0
    else:
        if date_column not in header:
            raise PanelError(f"{path}: no column named {date_column!r}")
        date_idx = header.index(date_column)
    if value_columns is None:
        value_idx = [i for i in range(len(header)) if i != date_idx]
    else:
        missing = [c for c in value_columns if c not in header]
        if missing:
            raise PanelError(f"{path}: no columns named {missing}")
        value_idx = [header.index(c) for c in value_columns]
    if not value_idx:
        raise PanelError(f"{path}: no value columns")

    dates, values, bad_rows = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise PanelError(f"{path}: ragged row at line {lineno}")
        try:
            dates.append(datetime.date.fromisoformat(row[date_idx].strip()))
            values.append([float(row[i]) for i in value_idx])
        except ValueError:
            bad_rows.append(lineno)
    if bad_rows:
        raise PanelError(f"{path}: unparseable cells in rows {bad_rows}")
    if not dates:
        raise PanelError(f"{path}: no data rows")
    return ReturnPanel(dates, [header[i] for i in value_idx], np.array(values))


def prices_to_log_returns(prices):
    """Log-return differences of a positive price panel.

    Accepts a ReturnPanel holding prices (returns a panel one row shorter,
    keeping the later date of each pair) or a plain T x p array (returns
    the (T-1) x p log-return matrix).
    """
    if isinstance(prices, ReturnPanel):
        rets = prices_to_log_returns(prices.returns)
        return ReturnPanel(prices.dates[1:], prices.names, rets)
    mat = np.atleast_2d(np.asarray(prices, dtype=float))
    if np.any(mat <= 0.0):
        raise PanelError("prices must be strictly positive")
    logp = np.log(mat)
    return logp[1:] - logp[:-1]


def summary_stats(panel: ReturnPanel, alpha: float = 0.01) -> SummaryStats:
    """Descriptive statistics with JB normality statistic and tail quantile.

    The empirical quantile uses type-7 linear interpolation of order
    statistics (numpy's default), documented so external tools can match.
    """
    if not 0.0 < alpha < 1.0:
        raise PanelError("alpha must lie in (0, 1)")
    y = panel.returns
    t = y.shape[0]
    if t < 8:
        raise PanelError("summary statistics need at least 8 observations")
    mean = y.mean(axis=0)
    dev = y - mean
    m2 = np.mean(dev**2, axis=0)
    if np.any(m2 <= 0.0):
        which = [panel.names[i] for i in np.flatnonzero(m2 <= 0.0)]
        raise PanelError(f"degenerate (zero variance) series: {which}")
    skew = np.mean(dev**3, axis=0) / m2**1.5
    kurt = np.mean(dev**4, axis=0) / m2**2
    jb = t / 6.0 * (skew**2 + 0.25 * (kurt - 3.0) ** 2)
    return SummaryStats(
        names=panel.names,
        minimum=y.min(axis=0),
        maximum=y.max(axis=0),
        mean=mean,
        std=y.std(axis=0, ddof=1),
        skewness=skew,
        kurtosis=kurt,
        quantile=np.quantile(y, alpha, axis=0, method="linear"),
        jb=jb,
        alpha=alpha,
    )
