"""Return-panel ingestion and descriptive statistics.

CSV layout: first column ISO-8601 date, remaining columns numeric
log-returns (or prices, converted via :func:`prices_to_log_returns`).
Missing data are rejected, never imputed.
"""

from __future__ import annotations

import csv
import datetime
import io
import itertools
import json
from dataclasses import dataclass

import numpy as np


# The version of every file the package writes: CSV outputs, model and
# attribution JSON.
SCHEMA = "msrisk/1"
CSV_SCHEMA = "# schema: " + SCHEMA


class PanelError(ValueError):
    """Raised for malformed input panels or CSV files."""


@dataclass(frozen=True)
class ReturnPanel:
    """Dated T x p matrix of returns with series names.

    Invariants: dates strictly increasing, distinct series names, no
    missing cells, p >= 2.
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
        if len(set(names)) != p:
            dup = next(n for k, n in enumerate(names) if n in names[:k])
            raise PanelError(f"duplicate series name {dup!r}")
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


def _quoted(text: str) -> str:
    """text as csv.writer's minimal quoting writes it.

    A cell holding the delimiter, a quote or a line break is wrapped in
    double quotes with each inner quote doubled; any other cell is written
    as it is.
    """
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _label(value) -> str:
    """One label cell: a date in ISO form, None empty, anything else str(), then quoted."""
    if isinstance(value, datetime.date):
        return value.isoformat()
    return _quoted("" if value is None else str(value))


def _cells(column) -> list:
    """The cells of one column: per float, per date, or once per distinct label."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    if set(map(type, column)) <= {datetime.date}:
        return list(map(datetime.date.isoformat, column))
    text = {value: _label(value) for value in dict.fromkeys(column)}
    return list(map(text.__getitem__, column))


def _write_csv(path, header, columns) -> None:
    """Write a CSV output file: the schema line, the header, then one row per index.

    Every CSV the package writes goes through here, and it writes the bytes
    csv.writer would for the same rows (``\\r\\n`` line ends, minimal quoting).
    The rows are given as columns of one length.  A float ndarray column is
    written cell by cell as repr of the value, over one ``tolist()``, and a
    column of dates (exactly datetime.date) cell by cell in ISO form; any
    other column holds labels (dates, names, ints, floats, None), and each
    distinct label is formatted once: a date in ISO form, None as an empty
    cell, anything else as str(), quoted where csv would quote it.  The
    body is joined once and written once.  Private, so a traced run charges
    the write to the caller that built the columns.
    """
    _write_cells(path, header, [_cells(column) for column in columns])


def _write_cells(path, header, cells) -> None:
    """_write_csv of columns already formatted by _cells."""
    if len({len(column) for column in cells}) > 1:
        raise ValueError("CSV columns differ in length")
    lines = [",".join(map(_quoted, header)), *map(",".join, zip(*cells)), ""]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_SCHEMA + "\n" + "\r\n".join(lines))


def _write_blocks(path, header, dates, blocks) -> None:
    """_write_csv of rows in blocks of one row per date.

    blocks holds (labels, series) pairs; block b writes the rows
    (dates[t], *labels, *(s[t] for s in series)) for t in turn.  Each
    date is formatted once, however many blocks repeat it.
    """
    if not blocks:
        _write_csv(path, header, [[] for _ in header])
        return
    labels, series = zip(*blocks)
    t_len = len(dates)
    _write_cells(path, header, [
        _cells(dates) * len(blocks),
        *(_cells(list(itertools.chain.from_iterable(itertools.repeat(v, t_len) for v in column)))
          for column in zip(*labels)),
        *(_cells(np.concatenate(column, dtype=float)) for column in zip(*series)),
    ])


def _read_json(path, what: str):
    """JSON of a UTF-8 file (BOM or not); one that does not decode or parse is named."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{what} file {path} is not valid JSON: {exc}") from exc


def _is_comment(row) -> bool:
    return row[0].lstrip().startswith("#")


# Data lines holding any of these take the row loop.  Past a quote or NUL,
# splitting a line on "," no longer gives csv.reader's cells; str.splitlines
# ends a line at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029, where csv.reader
# does not; and np.loadtxt strips \x1c-\x1f as whitespace, so it would read
# a cell holding one that float() rejects.
_ROW_LOOP_CHARS = '"\0\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029'


def _parse_body(body: str, width: int):
    """(dates, values) of the data lines in one np.loadtxt call, or None.

    None means the lines need the row loop: a line holds one of
    _ROW_LOOP_CHARS, a row is ragged, a cell does not parse or there are
    no rows.  A result, when there is one, is the row loop's: without
    those characters a line's cells are its ","-separated fields, and
    loadtxt reads a float exactly where float() does.
    """
    if any(c in body for c in _ROW_LOOP_CHARS):
        return None
    lines = list(filter(None, body.splitlines()))
    if "#" in body:
        lines = [line for line in lines if not line.lstrip().startswith("#")]
    if not lines:
        return None
    # One field per column: the dates as text, the values as floats, so
    # loadtxt also checks that each row has exactly `width` cells.
    dtype = [("c0", object)] + [(f"c{i}", float) for i in range(1, width)]
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        dates = list(map(datetime.date.fromisoformat, map(str.strip, table["c0"].tolist())))
    except ValueError:
        return None
    return dates, np.column_stack([table[f"c{i}"] for i in range(1, width)])


def load_csv(path) -> ReturnPanel:
    """Load a dated panel from CSV.

    The first column holds dates and every other column is a value series,
    named by the header (ReturnPanel.select picks and reorders series).
    Rows whose first cell starts with '#' (schema headers) and empty lines
    are skipped.  Any row with an unparseable cell is an error naming the
    offending row numbers (counted over the rows kept, the header being 1);
    a line the csv module rejects, such as one with a cell over its field
    size limit, is an error naming that line of the file.

    The file is UTF-8 text, with or without a byte-order mark; one that does
    not decode is an error naming it.  The file is read once.  The header
    row is parsed with csv, so quoted names work; the data lines are parsed
    in one np.loadtxt call, with one date.fromisoformat per row.  Where
    that parse cannot give csv.reader's cells or float()'s values, and on
    any error, the rows go through the csv.reader loop of one float() per
    cell instead, so the result, or the ragged-row or unparseable-rows
    error, is always that loop's: cells such as ``1_000`` or non-ASCII
    digits, which float() reads and loadtxt does not, still load.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next((r for r in reader if r and not _is_comment(r)), None)
            body = fh.read()
        except csv.Error as exc:
            raise PanelError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise PanelError(f"{path}: not UTF-8 text: {exc}") from None
    if header is None:
        raise PanelError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if len(header) < 2:
        raise PanelError(f"{path}: no value columns")

    parsed = _parse_body(body, len(header))
    if parsed is None:
        parsed = _parse_rows(path, body, len(header), reader.line_num)
    dates, values = parsed
    return ReturnPanel(dates, header[1:], values)


def _parse_rows(path, body: str, width: int, offset: int):
    """(dates, values) of the data lines by csv.reader and one float() per cell.

    offset is the number of file lines before the body, so that a csv
    error names its line of the file.
    """
    reader = csv.reader(io.StringIO(body, newline=""))
    try:
        rows = [r for r in reader if r and not _is_comment(r)]
    except csv.Error as exc:
        raise PanelError(f"{path}: line {offset + reader.line_num}: {exc}") from None
    dates, values, bad_rows = [], [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            raise PanelError(f"{path}: ragged row at line {lineno}")
        try:
            dates.append(datetime.date.fromisoformat(row[0].strip()))
            values.append([float(cell) for cell in row[1:]])
        except ValueError:
            bad_rows.append(lineno)
    if bad_rows:
        raise PanelError(f"{path}: unparseable cells in rows {bad_rows}")
    if not dates:
        raise PanelError(f"{path}: no data rows")
    return dates, np.array(values)


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
