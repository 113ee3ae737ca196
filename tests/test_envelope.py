import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subexp import envelope
from subexp.envelope import (
    ColumnSpec,
    DataError,
    EnvelopeConfig,
    TimeSeries,
    ingest_csv,
    rolling_local_variance,
    variance_envelope,
)

# small dyadic values so that shift/scale identities hold without rounding
dyadic = st.integers(min_value=-64, max_value=64).map(lambda k: k / 8.0)


def textbook_variance(window, demean):
    # independent oracle: direct two-pass summation
    L = len(window)
    if demean:
        mu = sum(window) / L
        return sum((x - mu) ** 2 for x in window) / (L - 1)
    return sum(x * x for x in window) / (L - 1)


def oracle_rolling(values, L, K, t, demean=True):
    out = []
    for j in range(1, K + 1):
        w = values[t - L - j + 1 : t - j + 1]
        out.append(textbook_variance(w, demean))
    return out


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TimeSeries(())

    def test_rejects_nan_with_explicit_message(self):
        with pytest.raises(DataError, match="not imputed"):
            TimeSeries((1.0, math.nan, 2.0))

    def test_rejects_inf(self):
        with pytest.raises(DataError):
            TimeSeries((math.inf,))

    def test_timestamp_length_mismatch(self):
        with pytest.raises(DataError):
            TimeSeries((1.0, 2.0), timestamps=(0.0,))

    def test_timestamps_must_increase(self):
        with pytest.raises(DataError, match="increas"):
            TimeSeries((1.0, 2.0, 3.0), timestamps=(0.0, 2.0, 2.0))

    def test_len(self):
        assert len(TimeSeries((1.0, 2.0, 3.0))) == 3


class TestEnvelopeConfig:
    def test_window_lower_bound(self):
        with pytest.raises(ValueError):
            EnvelopeConfig(window=1, num_windows=1)

    def test_num_windows_lower_bound(self):
        with pytest.raises(ValueError):
            EnvelopeConfig(window=2, num_windows=0)


class TestRollingLocalVariance:
    def test_constant_series_is_zero(self):
        z = TimeSeries(tuple([3.25] * 12))
        out = rolling_local_variance(z, EnvelopeConfig(window=4, num_windows=3))
        assert out == [0.0, 0.0, 0.0]

    def test_alternating_signs(self):
        # +-1 alternation: every length-2 window holds {-1, 1}, variance 2
        z = TimeSeries(tuple((-1.0) ** i for i in range(10)))
        out = rolling_local_variance(z, EnvelopeConfig(window=2, num_windows=3))
        assert out == [2.0, 2.0, 2.0]
        assert out == oracle_rolling(list(z.values), 2, 3, len(z))

    def test_raw_second_moment_of_constant(self):
        c = 1.5
        z = TimeSeries(tuple([c] * 8))
        out = rolling_local_variance(
            z, EnvelopeConfig(window=2, num_windows=2, demean=False)
        )
        # sum of two c^2 over denominator 1
        assert out == [2 * c * c] * 2 == [4.5, 4.5]

    def test_matches_textbook_oracle(self):
        rng = np.random.default_rng(61)
        vals = [float(v) for v in rng.normal(size=40)]
        z = TimeSeries(tuple(vals))
        for demean in (True, False):
            got = rolling_local_variance(
                z, EnvelopeConfig(window=5, num_windows=4, demean=demean), t_index=30
            )
            want = oracle_rolling(vals, 5, 4, 30, demean)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_windows_end_strictly_before_t(self):
        # values after position t must not influence the result
        vals = [float(v) for v in np.random.default_rng(3).normal(size=30)]
        z1 = TimeSeries(tuple(vals))
        z2 = TimeSeries(tuple(vals[:20] + [999.0] * 10))
        cfg = EnvelopeConfig(window=6, num_windows=3)
        assert rolling_local_variance(z1, cfg, t_index=20) == rolling_local_variance(
            z2, cfg, t_index=20
        )

    def test_default_t_is_series_end(self):
        vals = [float(v) for v in np.random.default_rng(4).normal(size=15)]
        z = TimeSeries(tuple(vals))
        cfg = EnvelopeConfig(window=4, num_windows=2)
        assert rolling_local_variance(z, cfg) == rolling_local_variance(z, cfg, t_index=15)

    def test_insufficient_history_reports_requirement(self):
        z = TimeSeries(tuple(range(5)))
        with pytest.raises(DataError, match="need at least 6"):
            rolling_local_variance(z, EnvelopeConfig(window=4, num_windows=3), t_index=5)

    def test_t_beyond_series(self):
        z = TimeSeries((1.0, 2.0, 3.0))
        with pytest.raises(DataError, match="beyond"):
            rolling_local_variance(z, EnvelopeConfig(window=2, num_windows=1), t_index=4)

    def test_raw_equals_demeaned_plus_mean_term(self):
        rng = np.random.default_rng(71)
        vals = [float(v) for v in rng.normal(loc=2.0, size=25)]
        z = TimeSeries(tuple(vals))
        L, K, t = 6, 4, 22
        dem = rolling_local_variance(z, EnvelopeConfig(L, K, demean=True), t_index=t)
        raw = rolling_local_variance(z, EnvelopeConfig(L, K, demean=False), t_index=t)
        for j in range(K):
            w = vals[t - L - j : t - j]
            mu = sum(w) / L
            assert raw[j] == pytest.approx(dem[j] + L * mu * mu / (L - 1), rel=1e-12)

    # a power-of-two window keeps the window mean exactly representable for
    # dyadic data, so the equivariance identities hold without any tolerance
    @given(vals=st.lists(dyadic, min_size=8, max_size=20), c=st.integers(-8, 8))
    @settings(max_examples=100, deadline=None)
    def test_shift_equivariance_exact(self, vals, c):
        cfg = EnvelopeConfig(window=4, num_windows=2)
        base = rolling_local_variance(TimeSeries(tuple(vals)), cfg)
        shifted = rolling_local_variance(TimeSeries(tuple(v + c for v in vals)), cfg)
        assert shifted == base

    @given(vals=st.lists(dyadic, min_size=8, max_size=20), k=st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_scale_equivariance_exact_for_powers_of_two(self, vals, k):
        s = 2.0**k
        cfg = EnvelopeConfig(window=4, num_windows=2)
        base = rolling_local_variance(TimeSeries(tuple(vals)), cfg)
        scaled = rolling_local_variance(TimeSeries(tuple(s * v for v in vals)), cfg)
        assert scaled == [s * s * b for b in base]

    def test_shift_equivariance_close_for_general_windows(self):
        rng = np.random.default_rng(13)
        vals = [float(v) for v in rng.normal(size=20)]
        cfg = EnvelopeConfig(window=5, num_windows=3)
        base = rolling_local_variance(TimeSeries(tuple(vals)), cfg)
        shifted = rolling_local_variance(TimeSeries(tuple(v + 7.5 for v in vals)), cfg)
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_longer_windows_concentrate(self):
        # iid data: the spread of local variances shrinks as L grows
        rng = np.random.default_rng(101)
        vals = tuple(float(v) for v in rng.uniform(-1, 1, size=6000))
        z = TimeSeries(vals)
        spreads = []
        for L in (10, 100, 1000):
            out = rolling_local_variance(z, EnvelopeConfig(window=L, num_windows=5))
            spreads.append(max(out) - min(out))
        assert spreads[2] < spreads[0]


class TestOverflowingVariance:
    """A variance beyond the float range is inf or nan, without numpy's
    warning, and ``variance_envelope`` names it; the CLI prints one JSON line."""

    BIG = (1e200, 2e200, 3e200, 4e200)

    @pytest.mark.parametrize("demean", [True, False])
    def test_no_warning_and_the_envelope_names_it(self, demean):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigmas = rolling_local_variance(TimeSeries(self.BIG), EnvelopeConfig(2, 2, demean=demean))
        assert sigmas == [math.inf, math.inf]
        with pytest.raises(ValueError, match=r"^local variance 1 must be finite and >= 0, got inf$"):
            variance_envelope(sigmas)

    @pytest.mark.parametrize("demean", ["--demean", "--no-demean"])
    def test_the_cli_prints_one_json_line(self, capsys, tmp_path, demean):
        from subexp import cli

        path = tmp_path / "big.csv"
        path.write_text("".join(f"{v!r}\n" for v in self.BIG))
        code = cli.main(["envelope", "--input", str(path), "--window", "2", "--num-windows", "2", demean])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": {"code": 2, "message": "local variance 1 must be finite and >= 0, got inf"}}


class TestVarianceEnvelope:
    def test_constant_inputs(self):
        env = variance_envelope([2.0, 2.0, 2.0])
        assert (env.sigma_lo_sq, env.sigma_hi_sq) == (2.0, 2.0)

    def test_min_max(self):
        env = variance_envelope([0.5, 1.5, 1.0])
        assert (env.sigma_lo_sq, env.sigma_hi_sq) == (0.5, 1.5)
        assert env.per_window == ((1, 0.5), (2, 1.5), (3, 1.0))

    def test_ordering_invariant(self):
        env = variance_envelope([3.0, 0.25])
        assert env.sigma_lo_sq <= env.sigma_hi_sq

    def test_validation(self):
        with pytest.raises(ValueError):
            variance_envelope([])
        with pytest.raises(ValueError):
            variance_envelope([1.0, -0.5])
        with pytest.raises(ValueError):
            variance_envelope([math.nan])

    def test_to_dict(self):
        obj = variance_envelope([1.0, 4.0]).to_dict()
        assert obj["sigma_lo_sq"] == 1.0
        assert obj["sigma_hi_sq"] == 4.0
        assert obj["per_window"] == [[1, 1.0], [2, 4.0]]


class TestRegimeSwitching:
    def test_envelope_brackets_both_regimes(self):
        # two uniform-noise regimes, variance a^2/3 each; windows drawn
        # entirely inside one regime estimate that regime's variance
        rng = np.random.default_rng(314)
        a1, a2 = 0.3, 0.9
        n = 2000
        vals = np.concatenate([rng.uniform(-a1, a1, n), rng.uniform(-a2, a2, n)])
        z = TimeSeries(tuple(float(v) for v in vals))
        cfg = EnvelopeConfig(window=200, num_windows=20)
        sig1 = rolling_local_variance(z, cfg, t_index=n)
        sig2 = rolling_local_variance(z, cfg, t_index=2 * n)
        env = variance_envelope(sig1 + sig2)
        assert env.sigma_lo_sq == pytest.approx(a1**2 / 3, rel=0.15)
        assert env.sigma_hi_sq == pytest.approx(a2**2 / 3, rel=0.15)


class TestIngestCsv:
    def test_single_column(self, tmp_path):
        p = tmp_path / "samples.csv"
        p.write_text("0.3\n1.2\n2.5\n")
        z = ingest_csv(str(p))
        assert z.values == (0.3, 1.2, 2.5)
        assert z.timestamps is None

    def test_header_and_named_column(self, tmp_path):
        p = tmp_path / "returns.csv"
        p.write_text("date,ret\n1,0.5\n2,-0.25\n")
        z = ingest_csv(str(p), ColumnSpec(value="ret"))
        assert z.values == (0.5, -0.25)

    def test_named_timestamp_column(self, tmp_path):
        p = tmp_path / "returns.csv"
        p.write_text("date,ret\n10,0.5\n20,-0.25\n")
        z = ingest_csv(str(p), ColumnSpec(value="ret", timestamp="date"))
        assert z.timestamps == (10.0, 20.0)

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("abc\n1.0\n")
        with pytest.raises(DataError, match="row 1"):
            ingest_csv(str(p))

    def test_non_numeric_after_header_names_data_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("ret\nabc\n")
        with pytest.raises(DataError, match="row 1.*'abc'"):
            ingest_csv(str(p), ColumnSpec(value="ret"))

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\nnan\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_csv(str(p))

    def test_blank_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\n\n2.0\n")
        with pytest.raises(DataError, match="blank"):
            ingest_csv(str(p))

    def test_missing_file(self):
        with pytest.raises(DataError, match="does not exist"):
            ingest_csv("/nonexistent/nowhere.csv")

    def test_missing_column_in_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="not found"):
            ingest_csv(str(p), ColumnSpec(value="ret"))

    def test_column_index_out_of_range_names_row(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_csv(str(p), ColumnSpec(value=1))

    def test_name_without_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            ColumnSpec(value="ret", header=False).needs_header()

    def test_decreasing_timestamps_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("5,1.0\n4,2.0\n")
        with pytest.raises(DataError):
            ingest_csv(str(p), ColumnSpec(value=1, timestamp=0))

    def test_roundtrip_into_rolling_variance(self, tmp_path):
        rng = np.random.default_rng(8)
        vals = [float(v) for v in rng.normal(size=12)]
        p = tmp_path / "series.csv"
        p.write_text("".join(f"{v!r}\n" for v in vals))
        z = ingest_csv(str(p))
        got = rolling_local_variance(z, EnvelopeConfig(window=3, num_windows=2))
        want = oracle_rolling(vals, 3, 2, 12)
        assert got == pytest.approx(want, rel=1e-12)


def loop_rolling(values, L, K, t, demean):
    # one np.var (or raw second moment) per window, as a direct reference
    arr = np.asarray(values)
    out = []
    for j in range(1, K + 1):
        w = arr[t - L - j + 1 : t - j + 1]
        out.append(float(np.var(w, ddof=1)) if demean else float(np.sum(w * w) / (L - 1)))
    return out


class TestChunkedWindows:
    @pytest.mark.parametrize("chunk", ["default", "1", "L", "3L+1"])
    def test_equals_per_window_loop(self, monkeypatch, chunk):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            L = int(rng.integers(2, 150))
            K = int(rng.integers(1, 120))
            size = {"default": envelope._BLOCK_CELLS, "1": 1, "L": L, "3L+1": 3 * L + 1}[chunk]
            monkeypatch.setattr(envelope, "_BLOCK_CELLS", size)
            n = L + K - 1 + int(rng.integers(0, 30))
            offset = float(rng.choice([0.0, 1e3, -1e6]))
            vals = (offset + 10.0 ** rng.uniform(-3, 5) * rng.standard_normal(n)).tolist()
            z = TimeSeries(tuple(vals))
            t = int(rng.integers(L + K - 1, n + 1))
            for demean in (True, False):
                got = rolling_local_variance(z, EnvelopeConfig(L, K, demean), t)
                assert got == loop_rolling(vals, L, K, t, demean)
                assert all(type(v) is float for v in got)


class TestBulkIngest:
    CASES = {
        "padded": ("t,z\n 1 , 0.5\n2,\t-0.25 \n", ColumnSpec(value="z", timestamp="t")),
        "underscore": ("1_0\n2\n", ColumnSpec()),
        "signed_fraction": ("+.5\n-.25\n", ColumnSpec()),
        "nan_last": ("1\n2\nnan\n", ColumnSpec()),
        "inf_last_timestamp": ("1,1\n2,2\ninf,3\n", ColumnSpec(value=1, timestamp=0)),
        "ragged": ("1,2\n3\n4,5\n", ColumnSpec(value=1)),
        "whitespace_only": ("1\n   \n2\n", ColumnSpec()),
        "whitespace_cells": ("1,2\n , \n", ColumnSpec(value=1)),
        "non_numeric_timestamp": ("a,1\n2,2\n", ColumnSpec(value=1, timestamp=0)),
        "clean": ("1.0,0.1\n2.0,1e-3\n3.0,-7\n", ColumnSpec(value=1, timestamp=0)),
        "crlf": ("t,z\r\n1,0.5\r\n2,-0.25\r\n", ColumnSpec(value="z", timestamp="t")),
        "quoted": ('"t","z"\n"1"," 0.5"\n"2","-0.25"\n', ColumnSpec(value="z", timestamp="t")),
        "quoted_newline_elsewhere": ('1,"a\nb"\n2,"c"\n', ColumnSpec()),
        "header_only": ("t,z\n", ColumnSpec(value="z")),
        "unknown_header_column": ("t,z\n1,x\n", ColumnSpec(value="y")),
        "decreasing_timestamps": ("2,1\n1,2\n", ColumnSpec(value=1, timestamp=0)),
    }

    @staticmethod
    def outcome(path, spec):
        try:
            z = ingest_csv(path, spec)
        except DataError as exc:
            return "error", str(exc)
        return "ok", (z.values, z.timestamps)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bulk_path_matches_row_validator(self, tmp_path, monkeypatch, case):
        text, spec = self.CASES[case]
        p = tmp_path / "in.csv"
        p.write_text(text)
        bulk = self.outcome(str(p), spec)

        def refuse(rows, idx):
            raise ValueError("force the row validator")

        monkeypatch.setattr(envelope, "_bulk_column", refuse)
        assert bulk == self.outcome(str(p), spec)

    @pytest.mark.parametrize("spec", [ColumnSpec(value="z", timestamp="t"), ColumnSpec(value="z")])
    def test_the_bulk_pass_is_taken(self, tmp_path, monkeypatch, spec):
        # the corpus test above patches _bulk_column; this shows that the
        # patch point is live, so that test cannot pass without the row walk
        p = tmp_path / "in.csv"
        p.write_text("t,z\n1,0.5\n2,-0.25\n")
        want = self.outcome(str(p), spec)
        calls = []
        bulk = envelope._bulk_column

        def spy(rows, idx):
            calls.append(idx)
            return bulk(rows, idx)

        monkeypatch.setattr(envelope, "_bulk_column", spy)
        assert self.outcome(str(p), spec) == want
        assert calls

    def test_nan_timestamp_is_not_finite(self):
        with pytest.raises(DataError, match=r"^timestamp 1 is not finite: nan$"):
            TimeSeries((1.0, 2.0, 3.0), timestamps=(0.0, float("nan"), 2.0))

    def test_first_non_finite_observation_is_named(self):
        with pytest.raises(DataError, match=r"observation 2 is not finite: inf"):
            TimeSeries((1.0, 2.0, float("inf"), float("nan")))


def ingest_corpus():
    """(id, text, spec) for files of 520 data rows with one bad row at a
    chunk edge, the first row or the last, read with and without a header
    and with and without a timestamp column."""
    rows = 520
    bad = {
        "blank": lambda r: "",
        "blank_cells": lambda r: " , ",
        "missing_column": lambda r: f"{r}",
        "non_numeric": lambda r: f"{r},x",
        "non_finite_value": lambda r: f"{r},inf",
        "non_finite_timestamp": lambda r: f"nan,{r}",
    }
    specs = {
        ("header", "pair"): ColumnSpec(value="z", timestamp="t"),
        ("header", "value"): ColumnSpec(value="z"),
        ("no_header", "pair"): ColumnSpec(value=1, timestamp=0),
        ("no_header", "value"): ColumnSpec(value=1),
    }
    for kind, at, (header, cols) in itertools.product(bad, (1, 255, 256, 257, 511, 512, 513, rows), specs):
        lines = [bad[kind](r) if r == at else f"{r},{(r % 97) / 7!r}" for r in range(1, rows + 1)]
        text = ("t,z\n" if header == "header" else "") + "".join(f"{line}\n" for line in lines)
        yield f"{kind}-{at}-{header}-{cols}", text, specs[header, cols]


def corpus_outcome(path, spec):
    """The error message, or a digest of the series read."""
    try:
        z = ingest_csv(path, spec)
    except DataError as exc:
        return ["error", str(exc)]
    return ["ok", hashlib.sha256(repr((z.values, z.timestamps)).encode()).hexdigest()]


class TestOnePassIngest:
    # outcomes of the two-pass reader that read a file again to name its
    # bad row, which every chunk size must reproduce
    FROZEN = json.loads((Path(__file__).parent / "ingest_corpus_outcomes.json").read_text())

    @pytest.mark.parametrize("chunk", [1, 2, 7, "default"])
    def test_every_chunk_size_gives_the_frozen_outcomes(self, tmp_path, monkeypatch, chunk):
        if chunk != "default":
            monkeypatch.setattr(envelope, "_CHUNK_ROWS", chunk)
        p = tmp_path / "in.csv"
        got = {}
        for case, text, spec in ingest_corpus():
            p.write_text(text)
            got[case] = corpus_outcome(str(p), spec)
        assert got == self.FROZEN

    def test_a_bad_chunk_alone_is_walked(self, tmp_path, monkeypatch):
        p = tmp_path / "in.csv"
        p.write_text("".join(f"{r}\n" for r in range(1, 600)) + "x\n")
        walked = []
        walk = envelope._validate_rows

        def spy(rows, idx, start):
            walked.append((start, len(rows)))
            return walk(rows, idx, start)

        monkeypatch.setattr(envelope, "_validate_rows", spy)
        with pytest.raises(DataError, match="^row 600: non-numeric value 'x'$"):
            ingest_csv(str(p))
        assert walked == [(513, 88)]


def nine_rows(line):
    return "".join(f"{line(r)}\n" for r in range(1, 10))


class TestColumnWiseIngest:
    # each column is parsed on its own; these outcomes were frozen from the
    # reader that interleaved the value and timestamp cells of each row
    R = range(1, 10)
    CASES = {
        "same_index": (
            nine_rows(lambda r: f"{r},{r / 4}"),
            ColumnSpec(value=1, timestamp=1),
            ("ok", (tuple(r / 4 for r in R), tuple(r / 4 for r in R))),
        ),
        "same_name": (
            "t,z\n" + nine_rows(lambda r: f"{r},{r / 4}"),
            ColumnSpec(value="z", timestamp="z"),
            ("ok", (tuple(r / 4 for r in R), tuple(r / 4 for r in R))),
        ),
        "same_index_bad_row": (
            nine_rows(lambda r: "x,1" if r == 8 else f"{r},{r}"),
            ColumnSpec(value=0, timestamp=0),
            ("error", "row 8: non-numeric value 'x'"),
        ),
        "timestamp_left": (
            nine_rows(lambda r: f"{r},a,{-r / 8}"),
            ColumnSpec(value=2, timestamp=0),
            ("ok", (tuple(-r / 8 for r in R), tuple(float(r) for r in R))),
        ),
        "timestamp_left_short_row": (
            nine_rows(lambda r: f"{r}" if r == 8 else f"{r},a,{r}"),
            ColumnSpec(value=2, timestamp=0),
            ("error", "row 8: no column 2 for the value (1 fields)"),
        ),
        "both_bad": (
            nine_rows(lambda r: "x,y" if r == 8 else f"{r},{r}"),
            ColumnSpec(value=1, timestamp=0),
            ("error", "row 8: non-numeric value 'y'"),
        ),
        "both_non_finite": (
            nine_rows(lambda r: "nan,inf" if r == 8 else f"{r},{r}"),
            ColumnSpec(value=1, timestamp=0),
            ("error", "row 8: value is 'inf'; missing or non-finite values are rejected"),
        ),
        "bad_value_missing_timestamp": (
            nine_rows(lambda r: "x" if r == 8 else f"{r},{r}"),
            ColumnSpec(value=0, timestamp=1),
            ("error", "row 8: non-numeric value 'x'"),
        ),
        "header_names_a_column_twice": (
            "t,z,z\n" + nine_rows(lambda r: f"{r},{r / 2},{-r}"),
            ColumnSpec(value="z", timestamp="t"),
            ("ok", (tuple(r / 2 for r in R), tuple(float(r) for r in R))),
        ),
        "header_names_a_column_twice_bad_second": (
            "z,z\n" + nine_rows(lambda r: f"{r},x" if r == 8 else f"{r},{r}"),
            ColumnSpec(value="z"),
            ("ok", (tuple(float(r) for r in R), None)),
        ),
    }

    @pytest.mark.parametrize("chunk", [1, 2, 7, "default"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_frozen_outcome_at_every_chunk_size(self, tmp_path, monkeypatch, case, chunk):
        if chunk != "default":
            monkeypatch.setattr(envelope, "_CHUNK_ROWS", chunk)
        text, spec, want = self.CASES[case]
        p = tmp_path / "in.csv"
        p.write_text(text)
        assert TestBulkIngest.outcome(str(p), spec) == want


class TestNegativeColumnIndex:
    @pytest.mark.parametrize("kwargs", [{"value": -1}, {"value": -5}, {"timestamp": -1}])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError, match="column index must be >= 0"):
            ColumnSpec(**kwargs)


class TestUnreadableInput:
    """A file ``csv`` cannot read is a DataError naming it."""

    @pytest.mark.parametrize(
        "content, reason",
        [(b"\xff\xfe\x00", "'utf-8' codec can't decode"), (b"1\n" + b"7" * 200_000 + b"\n", "field larger than field limit")],
    )
    def test_names_the_file(self, tmp_path, content, reason):
        p = tmp_path / "in.csv"
        p.write_bytes(content)
        with pytest.raises(DataError, match=f"^cannot read input file {p}: {reason}"):
            ingest_csv(str(p))

    @pytest.mark.parametrize(
        "head, spec",
        [(b"1\nx\n", ColumnSpec()), (b"t,z\n1,2\n", ColumnSpec(value="z", timestamp="t")),
         (b"t,z\n1,2\n", ColumnSpec(value="nope"))],
    )
    @pytest.mark.parametrize("tail", [b"\xff\n", b"7" * 200_000 + b"\n"], ids=["undecodable", "field_limit"])
    def test_a_late_read_error_wins_over_an_early_bad_row(self, tmp_path, head, spec, tail):
        # the message is the one that reading every row first gives
        p = tmp_path / "in.csv"
        p.write_bytes(head + b"3,4\n" * 10_000 + tail)
        with open(p, newline="") as fh, pytest.raises((UnicodeDecodeError, csv.Error)) as first:
            list(csv.reader(fh))
        with pytest.raises(DataError) as got:
            ingest_csv(str(p), spec)
        assert str(got.value) == f"cannot read input file {p}: {first.value}"

    def test_a_directory(self, tmp_path):
        with pytest.raises(DataError, match=f"^cannot read input file {tmp_path}: Is a directory$"):
            ingest_csv(str(tmp_path))


class TestStreamingMemory:
    # ru_maxrss would carry the forking test process's own peak across exec,
    # so the probe reads VmHWM, the peak RSS of its own memory map
    PROBE = (
        "import sys\n"
        "from subexp.envelope import ColumnSpec, ingest_csv\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        "before = peak_kb()\n"
        "z = ingest_csv(sys.argv[1], ColumnSpec(value='z', timestamp='t'))\n"
        "assert len(z) == 200_000 and z.timestamps[-1] == 199_999.0\n"
        "print((peak_kb() - before) / 1024)\n"
    )

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    def test_rows_are_not_held_as_lists(self, tmp_path):
        # 2e5 rows of two columns: holding every row as a list of strings
        # grew peak RSS by about 71 MB, parsing in one pass by about 20 MB
        p = tmp_path / "big.csv"
        p.write_text("t,z\n" + "".join(f"{i},{(i % 97) / 7!r}\n" for i in range(200_000)))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", self.PROBE, str(p)], env=env, capture_output=True, text=True, check=True)
        assert float(out.stdout) < 40.0

    BAD_LAST_ROW_PROBE = (
        "import sys\n"
        "from subexp.envelope import ColumnSpec, DataError, ingest_csv\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        "before = peak_kb()\n"
        "try:\n"
        "    ingest_csv(sys.argv[1], ColumnSpec(value='z', timestamp='t'))\n"
        "except DataError as exc:\n"
        "    assert str(exc) == \"row 200000: non-numeric value 'x'\", exc\n"
        "else:\n"
        "    sys.exit('the bad row was not reported')\n"
        "print((peak_kb() - before) / 1024)\n"
    )

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    def test_a_bad_last_row_is_named_without_holding_the_rows(self, tmp_path):
        # reading the file again, all rows as lists, to name the bad row grew
        # peak RSS by about 63 MB; one pass holds at most one chunk as lists
        p = tmp_path / "big.csv"
        p.write_text("t,z\n" + "".join(f"{i},{(i % 97) / 7!r}\n" for i in range(199_999)) + "199999,x\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", self.BAD_LAST_ROW_PROBE, str(p)], env=env, capture_output=True,
                             text=True, check=True)
        assert float(out.stdout) < 40.0
