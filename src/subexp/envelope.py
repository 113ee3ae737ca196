"""Rolling-window variance envelopes for series with drifting volatility.

Given a series Z and a reference position t, the estimator forms K
maximally overlapping windows of length L that end just before t and
computes one sample variance per window.  With L = 4, K = 3 and t = 9 the
windows are laid out like this (indices are 0-based positions in the
series, window j ends at t - j):

    index:      0  1  2  3  4  5  6  7  8 | 9 = t
    j = 1                   [5  6  7  8]
    j = 2                [4  5  6  7]
    j = 3             [3  4  5  6]

The smallest and largest of the K variances form the envelope
[sigma_lo_sq, sigma_hi_sq].  K encodes how much volatility uncertainty
the caller is prepared to admit: a larger K widens the envelope, and the
choice comes from prior knowledge rather than from a data-driven
selector, so none is provided.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _BLOCK_CELLS, DataError, _finite_floats, _integer, _unreadable

__all__ = [
    "DataError",
    "TimeSeries",
    "ColumnSpec",
    "EnvelopeConfig",
    "VarianceEnvelope",
    "rolling_local_variance",
    "variance_envelope",
    "ingest_csv",
]

# ingest_csv parses this many rows per bulk call: few enough that the rows
# held as lists stay small, enough that a 10k-row, two-column file parses
# as fast as in one bulk call over every row
_CHUNK_ROWS = 256


def _bad_observation(i: int, shown, number: bool) -> DataError:
    if number:
        return DataError(f"observation {i} is not finite: {shown!r}; missing values are not imputed")
    return DataError(f"observation {i} is not a number: {shown!r}")


def _bad_timestamp(i: int, shown, number: bool) -> DataError:
    return DataError(f"timestamp {i} is not {'finite' if number else 'a number'}: {shown!r}")


@dataclass(frozen=True)
class TimeSeries:
    """Finite real observations, optionally with finite, strictly increasing timestamps."""

    values: tuple[float, ...]
    timestamps: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise DataError("time series must be nonempty")
        vals = _finite_floats(self.values, _bad_observation)
        object.__setattr__(self, "values", vals)
        if self.timestamps is not None:
            ts = _finite_floats(self.timestamps, _bad_timestamp)
            if len(ts) != len(vals):
                raise DataError(f"{len(ts)} timestamps for {len(vals)} values")
            arr = np.asarray(ts)
            bad = np.flatnonzero(~(arr[1:] > arr[:-1]))
            if bad.size:
                i = int(bad[0]) + 1
                raise DataError(
                    f"timestamps must be strictly increasing; entry {i} ({ts[i]!r}) "
                    f"does not exceed entry {i - 1} ({ts[i - 1]!r})"
                )
            object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EnvelopeConfig:
    """window = L (observations per window, >= 2), num_windows = K (>= 1)."""

    window: int
    num_windows: int
    demean: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", _integer(self.window, "window length", 2))
        object.__setattr__(self, "num_windows", _integer(self.num_windows, "num_windows", 1))


@dataclass(frozen=True)
class VarianceEnvelope:
    sigma_lo_sq: float
    sigma_hi_sq: float
    per_window: tuple[tuple[int, float], ...]

    def to_dict(self) -> dict:
        return {
            "sigma_lo_sq": self.sigma_lo_sq,
            "sigma_hi_sq": self.sigma_hi_sq,
            "per_window": [[j, v] for j, v in self.per_window],
        }


def rolling_local_variance(z: TimeSeries, cfg: EnvelopeConfig, t_index: int | None = None) -> list[float]:
    """Per-window sample variances sigma^2_j for j = 1..K.

    Window j holds the L observations at positions t-L-j+1 .. t-j, all
    strictly before ``t_index`` (default: one past the end of the
    series).  With ``demean`` the usual (L-1)-denominator sample variance
    is used; without it the raw second moment sum(z^2)/(L-1), which
    equals the demeaned value plus L*mean^2/(L-1).

    The K windows are rows of one strided view of the last L+K-1
    observations, reduced in chunks of at most ``_BLOCK_CELLS`` cells.
    Each row is reduced on its own, exactly as ``np.var(w, ddof=1)`` (or
    ``np.sum(w * w) / (L - 1)``) reduces a single window, so the values
    are the same bit for bit.
    """
    t = len(z) if t_index is None else int(t_index)
    L, K = cfg.window, cfg.num_windows
    need = L + K - 1
    if t > len(z):
        raise DataError(f"t_index {t} is beyond the series (length {len(z)})")
    if t < need:
        raise DataError(
            f"need at least {need} observations strictly before t_index "
            f"(window {L} plus {K} shifts), have {max(t, 0)}"
        )
    # row j-1 is window j: reversing puts the window ending at t-1 first
    windows = sliding_window_view(np.asarray(z.values[t - need : t]), L)[::-1]
    step = max(1, _BLOCK_CELLS // L)
    out = []
    # a variance that overflows is inf or nan, which variance_envelope names,
    # so numpy's warning is not printed
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, K, step):
            w = windows[i : i + step]
            var = np.var(w, axis=1, ddof=1) if cfg.demean else (w * w).sum(axis=1) / (L - 1)
            out.extend(var.tolist())
    return out


def _bad_variance(i: int, shown, number: bool) -> ValueError:
    what = "must be finite and >= 0, got" if number else "is not a number:"
    return ValueError(f"local variance {i + 1} {what} {shown!r}")


def variance_envelope(sigmas: Sequence[float]) -> VarianceEnvelope:
    """Envelope (min, max) over a nonempty list of local variances.

    The first entry that is not a number or not finite is named, before
    the first negative one."""
    vals = _finite_floats(sigmas, _bad_variance)
    if not vals:
        raise ValueError("need at least one local variance")
    for i, v in enumerate(vals):
        if v < 0:
            raise _bad_variance(i, v, True)
    return VarianceEnvelope(min(vals), max(vals), tuple(enumerate(vals, start=1)))


@dataclass(frozen=True)
class ColumnSpec:
    """Which CSV columns to read.

    Columns are picked by 0-based index or by header name.  ``header``
    None means "infer": a header row is assumed exactly when some column
    is referenced by name.
    """

    value: int | str = 0
    timestamp: int | str | None = None
    header: bool | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.value, str):
            object.__setattr__(self, "value", _integer(self.value, "value column index", 0))
        if not isinstance(self.timestamp, (str, type(None))):
            object.__setattr__(self, "timestamp", _integer(self.timestamp, "timestamp column index", 0))

    def needs_header(self) -> bool:
        by_name = isinstance(self.value, str) or isinstance(self.timestamp, str)
        if self.header is None:
            return by_name
        if by_name and not self.header:
            raise ValueError("columns referenced by name require a header row")
        return self.header


def _resolve(col: int | str, names: list[str] | None, what: str) -> int:
    if isinstance(col, str):
        assert names is not None
        try:
            return names.index(col)
        except ValueError:
            raise DataError(f"{what} column {col!r} not found in header {names!r}") from None
    return col


def _cell(row: list[str], idx: int, row_no: int, what: str) -> float:
    if idx >= len(row):
        raise DataError(f"row {row_no}: no column {idx} for the {what} ({len(row)} fields)")
    text = row[idx].strip()
    try:
        v = float(text)
    except ValueError:
        raise DataError(f"row {row_no}: non-numeric {what} {text!r}") from None
    if not math.isfinite(v):
        raise DataError(f"row {row_no}: {what} is {text!r}; missing or non-finite values are rejected")
    return v


def _validate_rows(rows: list[list[str]], cols: list[tuple[int, str]], start: int) -> list[list[float]]:
    """The cells ``_bulk_column`` gives for each ``(index, name)`` column of
    ``cols``, parsed row by row (the first row is data row ``start``),
    raising a DataError at the first bad row."""
    columns: list[list[float]] = [[] for _ in cols]
    for row_no, row in enumerate(rows, start=start):
        if not row or all(not c.strip() for c in row):
            raise DataError(f"row {row_no}: blank row (rows are never skipped silently)")
        for cells, (i, what) in zip(columns, cols):
            cells.append(_cell(row, i, row_no, what))
    return columns


def _bulk_column(rows: list[list[str]], i: int) -> tuple[float, ...]:
    """Cell ``i`` of every row, parsed as finite floats in one pass.

    Raises ValueError or IndexError on any bad cell.
    """
    vals = tuple(map(float, map(itemgetter(i), rows)))  # float() ignores padding as strip() does
    if not all(map(math.isfinite, vals)):
        raise ValueError("non-finite cell")
    return vals


def _columns(rows: Iterator[list[str]], spec: ColumnSpec, path: str) -> list[list[float]]:
    """The value column, then the timestamp column if one is chosen, of the
    rows ``csv.reader`` yields, each parsed on its own ``_CHUNK_ROWS`` rows
    at a time."""
    names: list[str] | None = None
    if spec.needs_header():
        header = next(rows, None)
        if header is None:
            raise DataError(f"{path} is empty, expected a header row")
        names = [c.strip() for c in header]
    cols = [(_resolve(spec.value, names, "value"), "value")]
    if spec.timestamp is not None:
        cols.append((_resolve(spec.timestamp, names, "timestamp"), "timestamp"))
    columns: list[list[float]] = [[] for _ in cols]
    row_no = 1
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        try:
            parsed = [_bulk_column(chunk, i) for i, _ in cols]
        except (ValueError, IndexError):  # walk this chunk alone to name its first bad row
            parsed = _validate_rows(chunk, cols, row_no)
        for cells, new in zip(columns, parsed):
            cells.extend(new)
        row_no += len(chunk)
    if not columns[0]:
        raise DataError(f"{path} contains no data rows")
    return columns


def ingest_csv(path: str, spec: ColumnSpec = ColumnSpec()) -> TimeSeries:
    """Read a numeric series from a CSV file.

    Every data row must parse; non-numeric, missing, or non-finite cells
    raise :class:`DataError` naming the 1-based data row (counted after
    the header, when there is one).  Nothing is skipped silently.

    The input is read once, from the start, so a pipe is read as a file
    is.  Each selected column is parsed straight to floats on its own,
    ``_CHUNK_ROWS`` rows at a time; only a chunk that fails is walked row
    by row, to name its first bad row.  At most one chunk of rows is held
    as lists.  A file that cannot be read is reported as such even when
    the bad row comes first: the rest of the input is read before a bad
    row is reported.
    """
    try:
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            try:
                columns = _columns(rows, spec, path)
            except UnicodeDecodeError:  # a ValueError, but an unreadable file, not a bad row
                raise
            except ValueError:
                deque(rows, maxlen=0)  # a read error further on wins over a bad row
                raise
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(_unreadable("input file", path, exc))
    return TimeSeries(*columns)
