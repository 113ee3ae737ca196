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
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


class DataError(ValueError):
    """Malformed or insufficient input data (files, rows, series)."""


@dataclass(frozen=True)
class TimeSeries:
    """Finite real observations, optionally with strictly increasing timestamps."""

    values: tuple[float, ...]
    timestamps: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise DataError("time series must be nonempty")
        vals = []
        for i, v in enumerate(self.values):
            fv = float(v)
            if not math.isfinite(fv):
                raise DataError(f"observation {i} is not finite: {fv!r}; missing values are not imputed")
            vals.append(fv)
        object.__setattr__(self, "values", tuple(vals))
        if self.timestamps is not None:
            ts = tuple(float(t) for t in self.timestamps)
            if len(ts) != len(vals):
                raise DataError(f"{len(ts)} timestamps for {len(vals)} values")
            for i in range(1, len(ts)):
                if not ts[i] > ts[i - 1]:
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
        if self.window < 2:
            raise ValueError(f"window length must be >= 2, got {self.window!r}")
        if self.num_windows < 1:
            raise ValueError(f"num_windows must be >= 1, got {self.num_windows!r}")


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
    arr = np.asarray(z.values)
    out = []
    for j in range(1, K + 1):
        w = arr[t - L - j + 1 : t - j + 1]
        if cfg.demean:
            out.append(float(np.var(w, ddof=1)))
        else:
            out.append(float(np.sum(w * w) / (L - 1)))
    return out


def variance_envelope(sigmas: Sequence[float]) -> VarianceEnvelope:
    """Envelope (min, max) over a nonempty list of local variances."""
    vals = [float(s) for s in sigmas]
    if not vals:
        raise ValueError("need at least one local variance")
    for j, v in enumerate(vals, start=1):
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"local variance {j} must be finite and >= 0, got {v!r}")
    per = tuple((j, v) for j, v in enumerate(vals, start=1))
    return VarianceEnvelope(min(vals), max(vals), per)


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
    return int(col)


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


def ingest_csv(path: str, spec: ColumnSpec = ColumnSpec()) -> TimeSeries:
    """Read a numeric series from a CSV file.

    Every data row must parse; non-numeric, missing, or non-finite cells
    raise :class:`DataError` naming the 1-based data row (counted after
    the header, when there is one).  Nothing is skipped silently.
    """
    if not os.path.exists(path):
        raise DataError(f"input file does not exist: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader]
    names: list[str] | None = None
    if spec.needs_header():
        if not rows:
            raise DataError(f"{path} is empty, expected a header row")
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
    v_idx = _resolve(spec.value, names, "value")
    t_idx = _resolve(spec.timestamp, names, "timestamp") if spec.timestamp is not None else None
    if not rows:
        raise DataError(f"{path} contains no data rows")
    values = []
    stamps = [] if t_idx is not None else None
    for row_no, row in enumerate(rows, start=1):
        if not row or all(not c.strip() for c in row):
            raise DataError(f"row {row_no}: blank row (rows are never skipped silently)")
        values.append(_cell(row, v_idx, row_no, "value"))
        if t_idx is not None:
            stamps.append(_cell(row, t_idx, row_no, "timestamp"))
    return TimeSeries(tuple(values), tuple(stamps) if stamps is not None else None)
