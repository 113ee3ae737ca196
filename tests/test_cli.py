import ast
import csv
import gc
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from subexp import cli
from subexp.envelope import ColumnSpec, EnvelopeConfig, ingest_csv, rolling_local_variance, variance_envelope
from subexp.lln import MeanPolicy, NoiseSpec, SimConfig, log_schedule, rate_check, second_moment_upper
from subexp.maximal import GridSpec, MaximalDist, eval_maximal
from subexp.mle import SampleSet, mle_estimate
from subexp.scenarios import ScenarioFamily, sublinear_expect


def run_json(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, (json.loads(out) if out else None), err


def run_text(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def error_line(err):
    lines = [ln for ln in err.splitlines() if ln.strip()]
    assert len(lines) == 1, f"expected a single error line, got {err!r}"
    return json.loads(lines[0])


class TestEstimate:
    def test_inline_values(self, capsys):
        code, obj, err = run_json(capsys, ["estimate", "--values", "0.3,1.2,2.5"])
        assert code == 0 and err == ""
        assert obj["result"]["mu_lo_hat"] == 0.3
        assert obj["result"]["mu_hi_hat"] == 2.5
        assert obj["result"]["n"] == 3
        assert obj["meta"]["command"] == "estimate"

    def test_csv_input(self, capsys, tmp_path):
        p = tmp_path / "samples.csv"
        p.write_text("0.3\n1.2\n2.5\n")
        code, obj, _ = run_json(capsys, ["estimate", "--input", str(p)])
        assert code == 0
        assert obj["result"]["mu_lo_hat"] == 0.3
        assert obj["result"]["mu_hi_hat"] == 2.5

    def test_matches_library_call_exactly(self, capsys):
        # the CLI is an adapter: its numbers must be the library's numbers
        values = (0.125, -3.5, 7.25, 0.0)
        code, obj, _ = run_json(capsys, ["estimate", "--values", ",".join(map(repr, values))])
        assert code == 0
        want = mle_estimate(SampleSet(values)).to_dict(n=len(values))
        assert obj["result"] == want

    def test_both_input_and_values_rejected(self, capsys, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1\n")
        code, out, err = run_text(capsys, ["estimate", "--input", str(p), "--values", "1,2"])
        assert code == 2
        assert error_line(err)["error"]["code"] == 2

    def test_neither_input_nor_values_rejected(self, capsys):
        code, out, err = run_text(capsys, ["estimate"])
        assert code == 2

    @pytest.mark.parametrize(
        "values, message",
        [
            ("1,x", "observation 1 is not a number: 'x'"),
            ("not-a-number", "observation 0 is not a number: 'not-a-number'"),
            ("1,,2", "observation 1 is not a number: ''"),
            ("1,nan", "observation 1 is not finite: nan"),
        ],
    )
    def test_a_bad_value_is_named(self, capsys, values, message):
        code, out, err = run_text(capsys, ["estimate", "--values", values])
        assert (code, out) == (2, "")
        assert error_line(err) == {"error": {"code": 2, "message": message}}

    def test_csv_format(self, capsys):
        code, out, _ = run_text(capsys, ["estimate", "--values", "1,2", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# version=")
        assert lines[1] == "# command=estimate"
        assert lines[2] == "# seed=0"
        assert lines[3].startswith("# config_digest=")
        assert lines[4] == "mu_lo_hat,mu_hi_hat,delta,n"
        assert lines[5] == "1.0,2.0,1.0,2"


class TestEval:
    def test_interval_square(self, capsys):
        code, obj, _ = run_json(
            capsys, ["eval", "--mu-lo", "-1", "--mu-hi", "2", "--fn", "square", "--step", "1e-3"]
        )
        assert code == 0
        assert obj["result"]["value"] == 4.0
        assert obj["result"]["argmax"] == 2.0

    def test_matches_library_grid_scan(self, capsys):
        code, obj, _ = run_json(
            capsys,
            ["eval", "--mu-lo", "-1", "--mu-hi", "1", "--fn", "poly:0,0,-1", "--points", "41"],
        )
        assert code == 0
        fn = cli.build_fn("poly:0,0,-1", 1.0)
        want = eval_maximal(MaximalDist(-1.0, 1.0), fn, GridSpec(num=41))
        assert obj["result"]["value"] == want.value
        assert obj["result"]["argmax"] == want.argmax
        assert obj["result"]["error_bound"] == want.error_bound

    def test_family_file(self, capsys, tmp_path):
        fam = ScenarioFamily.from_list(
            [
                {"atoms": [[-1.0, 1.0]]},
                {"atoms": [[2.0, 1.0]]},
            ]
        )
        p = tmp_path / "family.json"
        p.write_text(json.dumps(fam.to_list()))
        code, obj, _ = run_json(capsys, ["eval", "--family", str(p), "--fn", "square"])
        assert code == 0
        want = sublinear_expect(fam, cli.build_fn("square", 2.0))
        assert obj["result"]["value"] == want.value == 4.0
        assert obj["result"]["argmax_index"] == want.argmax_index == 1

    def test_family_and_interval_mutually_exclusive(self, capsys, tmp_path):
        p = tmp_path / "f.json"
        p.write_text("[]")
        code, _, err = run_text(
            capsys,
            ["eval", "--family", str(p), "--mu-lo", "0", "--mu-hi", "1", "--fn", "identity"],
        )
        assert code == 2

    def test_interval_requires_both_ends(self, capsys):
        code, _, err = run_text(capsys, ["eval", "--mu-lo", "0", "--fn", "identity"])
        assert code == 2
        assert "mu-lo" in error_line(err)["error"]["message"] or "mu" in err

    def test_inverted_interval_is_validation_error(self, capsys):
        code, _, err = run_text(
            capsys, ["eval", "--mu-lo", "2", "--mu-hi", "1", "--fn", "identity"]
        )
        assert code == 2

    def test_step_and_points_conflict(self, capsys):
        code, _, err = run_text(
            capsys,
            ["eval", "--mu-lo", "0", "--mu-hi", "1", "--fn", "identity", "--step", "0.1", "--points", "5"],
        )
        assert code == 2

    def test_refine_matches_library(self, capsys):
        code, obj, _ = run_json(
            capsys,
            ["eval", "--mu-lo", "-1", "--mu-hi", "2", "--fn", "square", "--points", "7", "--refine"],
        )
        assert code == 0
        want = eval_maximal(MaximalDist(-1.0, 2.0), cli.build_fn("square", 2.0), GridSpec(num=7, refine=True))
        assert obj["result"]["error_bound"] == want.error_bound
        assert obj["result"]["value"] == want.value == 4.0
        assert obj["result"]["argmax"] == want.argmax == 2.0
        assert 0.0 <= want.error_bound <= 4.0 * 0.5 / 2

    def test_oversized_grid_is_validation_error(self, capsys):
        # 1e12 nodes would need 7.28 TiB; the grid is rejected before any allocation
        code, _, err = run_text(
            capsys, ["eval", "--mu-lo", "0", "--mu-hi", "1", "--fn", "square", "--step", "1e-12"]
        )
        assert code == 2
        message = error_line(err)["error"]["message"]
        assert "needs 1000000000001 nodes" in message
        assert "--step/--points" in message

    def test_unknown_fn(self, capsys):
        code, _, err = run_text(
            capsys, ["eval", "--mu-lo", "0", "--mu-hi", "1", "--fn", "sigmoid"]
        )
        assert code == 2
        assert "sigmoid" in error_line(err)["error"]["message"]

    def test_missing_family_file(self, capsys):
        code, _, err = run_text(
            capsys, ["eval", "--family", "/nonexistent.json", "--fn", "identity"]
        )
        assert code == 3


class TestBuildFn:
    def test_registry_values(self):
        assert cli.build_fn("identity", 2.0)(1.5) == 1.5
        assert cli.build_fn("square", 2.0)(3.0) == 9.0
        assert cli.build_fn("abs:1", 2.0)(0.0) == 1.0
        assert cli.build_fn("poly:1,0,2", 2.0)(3.0) == 1 + 2 * 9
        assert cli.build_fn("indicator:0,5", 2.0)(1.0) == 1.0 / 6.0

    @pytest.mark.parametrize(
        "spec", ["identity", "square", "abs:0.5", "sin:3", "cos:-2", "poly:1,-2,0.5,3", "indicator:0.5,4"]
    )
    def test_array_call_matches_scalar_calls(self, spec):
        # an array in, an array of the same shape out: the grid evaluators
        # then never fall back to a per-point loop
        f = cli.build_fn(spec, 2.0)
        xs = np.linspace(-2.0, 2.0, 41).reshape(1, 41)
        out = f(xs)
        assert isinstance(out, np.ndarray) and out.shape == xs.shape
        assert out.ravel().tolist() == [float(f(float(x))) for x in xs.ravel()]

    def test_poly_lipschitz_covers_interval(self):
        f = cli.build_fn("poly:0,1,-2", 3.0)
        xs = np.linspace(-3, 3, 200)
        slopes = np.abs(np.diff([f(float(x)) for x in xs]) / np.diff(xs))
        assert slopes.max() <= f.lipschitz + 1e-9

    def test_poly_constants_are_the_exact_sums_rounded_up(self):
        # a plain float sum understated the Lipschitz constant of this one:
        # 889.1893255153149 against the exact 889.189325515315...
        coeffs = [1.5736804947476521, -2.9873636798933356, -0.3276768356711912,
                  1.3292401940446954, -1.6274266723772841, 2.6716241733235337]
        cases = [(coeffs, 2.7141396270733025)]
        rng = np.random.default_rng(2000)
        for _ in range(500):
            cases.append((rng.uniform(-3.0, 3.0, int(rng.integers(2, 8))).tolist(), float(rng.uniform(0.1, 4.0))))
        for coeffs, radius in cases:
            f = cli.build_fn("poly:" + ",".join(map(repr, coeffs)), radius)
            r = Fraction(radius)
            lip = sum(k * abs(Fraction(c)) * r ** (k - 1) for k, c in enumerate(coeffs) if k >= 1)
            bnd = sum(abs(Fraction(c)) * r**k for k, c in enumerate(coeffs))
            for got, exact in ((f.lipschitz, lip), (f.bound, bnd)):
                # the smallest float that is not below the exact value
                assert got >= exact and math.nextafter(got, -math.inf) < exact, (coeffs, radius)

    def test_bad_args(self):
        with pytest.raises(cli.CliError):
            cli.build_fn("poly", 1.0)
        with pytest.raises(cli.CliError):
            cli.build_fn("sin:a", 1.0)
        with pytest.raises(cli.CliError):
            cli.build_fn("indicator:1", 1.0)
        for spec in ("indicator:1,inf", "indicator:1,nan", "indicator:1,-inf"):
            with pytest.raises(cli.CliError) as info:
                cli.build_fn(spec, 1.0)
            assert info.value.code == 2 and repr(spec) in info.value.message


class TestRate:
    def test_csv_matches_library(self, capsys):
        argv = [
            "rate",
            "--mu-lo", "-1", "--mu-hi", "1",
            "--noise", "uniform:0.3",
            "--n-max", "400",
            "--reps", "40",
            "--seed", "42",
            "--format", "csv",
        ]
        code, out, _ = run_text(capsys, argv)
        assert code == 0
        d = MaximalDist(-1.0, 1.0)
        policies = [
            MeanPolicy.constant(-1.0),
            MeanPolicy.constant(0.0),
            MeanPolicy.constant(1.0),
            MeanPolicy.periodic((-1.0, 1.0)),
        ]
        report = rate_check(
            d, policies, NoiseSpec.uniform(0.3), SimConfig(n=400, reps=40, seed=42), log_schedule(400)
        )
        got_rows = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(report.csv_rows())
        assert got_rows == buf.getvalue().splitlines()

    def test_bound_column_is_worst_second_moment_over_n(self, capsys):
        code, obj, _ = run_json(
            capsys,
            [
                "rate",
                "--mu-lo", "-1", "--mu-hi", "1",
                "--noise", "uniform:0.3",
                "--n-max", "100",
                "--reps", "10",
                "--n-schedule", "10,100",
                "--seed", "42",
            ],
        )
        assert code == 0
        smu = second_moment_upper(MaximalDist(-1.0, 1.0), NoiseSpec.uniform(0.3))
        assert abs(smu - 1.03) < 1e-15
        for row in obj["result"]["rows"]:
            assert row["target_or_bound"] == smu / row["n"]

    @pytest.mark.parametrize("mu_hi,count", [("1.000001", 4), ("1", 1)])
    def test_default_policies_are_distinct_by_value(self, capsys, mu_hi, count):
        # on [1, 1.000001] the three constants share the label constant(1) but not their means
        code, obj, _ = run_json(capsys, ["rate", "--mu-lo", "1", "--mu-hi", mu_hi, "--n-max", "10", "--reps", "3"])
        assert code == 0
        assert len(obj["result"]["policies"]) == count
        assert len(obj["result"]["rows"]) == count * len(log_schedule(10))

    def test_adversarial_policy_rejected(self, capsys):
        for spec in ("adversarial", "adversarial:up"):
            code, _, err = run_text(
                capsys,
                ["rate", "--mu-lo", "0", "--mu-hi", "1", "--policy", spec],
            )
            assert code == 2
            assert "library-only" in error_line(err)["error"]["message"]


class TestLln:
    def test_csv_columns(self, capsys):
        argv = [
            "lln",
            "--mu-lo", "-1", "--mu-hi", "1",
            "--fn", "identity",
            "--policy", "constant:1",
            "--n-max", "50",
            "--reps", "5",
            "--n-schedule", "1,50",
            "--points", "11",
            "--format", "csv",
        ]
        code, out, _ = run_text(capsys, argv)
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "n,policy_id,estimate,target_or_bound,gap,stderr"
        # constant(1), no noise: the average is exactly 1 at every n
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "1.0" and first[3] == "1.0"

    # the grid sees sin(7 * +-1) = +-0.657 only; the supremum is 1.0
    SIN7 = ["lln", "--mu-lo", "-1", "--mu-hi", "1", "--fn", "sin:7", "--policy", "constant:1",
            "--noise", "uniform:0.1", "--n-max", "100", "--reps", "5", "--step", "0.5"]

    def test_target_carries_its_error_bound_in_json(self, capsys):
        code, obj, _ = run_json(capsys, self.SIN7)
        assert code == 0
        target = obj["result"]["rows"][0]["target_or_bound"]
        assert target + obj["result"]["target_error_bound"] >= 1.0

    def test_target_carries_its_error_bound_in_csv(self, capsys):
        code, out, _ = run_text(capsys, [*self.SIN7, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[4].startswith("# target_error_bound=")
        bound = float(lines[4].split("=", 1)[1])
        target = float(lines[6].split(",")[3])
        assert lines[5] == "n,policy_id,estimate,target_or_bound,gap,stderr"
        assert target + bound >= 1.0

    @pytest.mark.parametrize("refine", [True, False])
    def test_refine_sets_the_target_error_bound(self, capsys, refine):
        code, obj, _ = run_json(capsys, [*self.SIN7, "--refine" if refine else "--no-refine"])
        want = eval_maximal(MaximalDist(-1.0, 1.0), cli.build_fn("sin:7", 1.0), GridSpec(step=0.5, refine=refine))
        assert code == 0
        assert obj["result"]["target_error_bound"] == want.error_bound
        assert obj["result"]["rows"][0]["target_or_bound"] == want.value
        assert (want.error_bound < 1e-9) if refine else (want.error_bound == 1.75)

    @pytest.mark.parametrize("key, refine", [("refine = true", True), ("no-refine = false", True),
                                             ("no-refine = true", False)])
    def test_refine_keys_in_a_config_file(self, capsys, tmp_path, key, refine):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(key + "\n")
        code, obj, _ = run_json(capsys, [*self.SIN7, "--config", str(cfg)])
        want = eval_maximal(MaximalDist(-1.0, 1.0), cli.build_fn("sin:7", 1.0), GridSpec(step=0.5, refine=refine))
        assert code == 0 and obj["result"]["target_error_bound"] == want.error_bound

    def test_policy_required(self, capsys):
        code, _, err = run_text(
            capsys, ["lln", "--mu-lo", "0", "--mu-hi", "1", "--fn", "identity"]
        )
        assert code == 2
        assert "policy" in error_line(err)["error"]["message"]


class TestEnvelope:
    @pytest.fixture()
    def returns_csv(self, tmp_path):
        rng = np.random.default_rng(55)
        vals = rng.normal(scale=0.1, size=200)
        p = tmp_path / "returns.csv"
        p.write_text("".join(f"{float(v)!r}\n" for v in vals))
        return p, [float(v) for v in vals]

    def test_matches_library(self, capsys, returns_csv):
        p, vals = returns_csv
        code, obj, _ = run_json(
            capsys, ["envelope", "--input", str(p), "--window", "60", "--num-windows", "20"]
        )
        assert code == 0
        series = ingest_csv(str(p), ColumnSpec())
        sig = rolling_local_variance(series, EnvelopeConfig(window=60, num_windows=20))
        env = variance_envelope(sig)
        assert obj["result"]["sigma_lo_sq"] == env.sigma_lo_sq
        assert obj["result"]["sigma_hi_sq"] == env.sigma_hi_sq
        assert obj["result"]["L"] == 60 and obj["result"]["K"] == 20
        assert obj["result"]["demean"] is True

    def test_no_demean_flag(self, capsys, returns_csv):
        p, _ = returns_csv
        code, obj, _ = run_json(
            capsys,
            ["envelope", "--input", str(p), "--window", "10", "--num-windows", "2", "--no-demean"],
        )
        assert code == 0
        assert obj["result"]["demean"] is False

    def test_insufficient_history_is_data_error(self, capsys, returns_csv):
        p, _ = returns_csv
        code, _, err = run_text(
            capsys, ["envelope", "--input", str(p), "--window", "150", "--num-windows", "60"]
        )
        assert code == 3
        assert "need at least" in error_line(err)["error"]["message"]

    def test_missing_input(self, capsys):
        code, _, err = run_text(
            capsys, ["envelope", "--input", "/no/such.csv", "--window", "5", "--num-windows", "2"]
        )
        assert code == 3

    def test_csv_per_window_rows(self, capsys, returns_csv):
        p, _ = returns_csv
        code, out, _ = run_text(
            capsys,
            ["envelope", "--input", str(p), "--window", "50", "--num-windows", "3", "--format", "csv"],
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "j,sigma_sq"
        assert len(lines) == 4


class TestColumnsByName:
    # --column and --timestamp-column take a header name as well as an index
    WINDOWS = ["--window", "5", "--num-windows", "4"]

    @pytest.fixture()
    def tz_csv(self, tmp_path):
        rng = np.random.default_rng(61)
        p = tmp_path / "tz.csv"
        p.write_text("t,z\n" + "".join(f"{t}.5,{float(v)!r}\n" for t, v in enumerate(rng.normal(size=40))))
        return p

    @pytest.fixture()
    def series(self, tz_csv):
        series = ingest_csv(str(tz_csv), ColumnSpec(value="z", timestamp="t"))
        assert series.timestamps[:2] == (0.5, 1.5) and series.values[0] != 0.5
        return series

    def test_envelope(self, capsys, tz_csv, series):
        argv = ["envelope", "--input", str(tz_csv), "--column", "z", "--timestamp-column", "t", *self.WINDOWS]
        code, obj, err = run_json(capsys, argv)
        assert code == 0 and err == ""
        env = variance_envelope(rolling_local_variance(series, EnvelopeConfig(window=5, num_windows=4)))
        assert obj["result"] == {**env.to_dict(), "L": 5, "K": 4, "demean": True}

    def test_estimate(self, capsys, tz_csv, series):
        code, obj, err = run_json(capsys, ["estimate", "--input", str(tz_csv), "--column", "z"])
        assert code == 0 and err == ""
        sample = SampleSet(series.values)
        assert obj["result"] == mle_estimate(sample).to_dict(n=sample.n)

    @pytest.mark.parametrize("command", ["estimate", "envelope"])
    def test_a_missing_name_is_a_data_error(self, capsys, tz_csv, command):
        argv = [command, "--input", str(tz_csv), "--column", "w", *(self.WINDOWS if command == "envelope" else [])]
        code, out, err = run_text(capsys, argv)
        assert code == 3 and out == ""
        assert error_line(err) == {"error": {"code": 3, "message": "value column 'w' not found in header ['t', 'z']"}}


class TestVerifyAxioms:
    def test_small_run_passes(self, capsys):
        code, obj, _ = run_json(capsys, ["verify-axioms", "--cases", "50"])
        assert code == 0
        assert obj["result"]["pass"] is True
        assert set(obj["result"]["checks"]) == {
            "monotonicity",
            "constant_preserving",
            "sub_additivity",
            "positive_homogeneity",
        }
        for check in obj["result"]["checks"].values():
            assert check["pass"] is True
            assert check["max_violation"] <= check["tolerance"]


class TestOutputPlumbing:
    def test_output_file_written_atomically(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        code = cli.main(["estimate", "--values", "1,2,3", "-o", str(out)])
        capsys.readouterr()
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["result"]["mu_lo_hat"] == 1.0
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".subexp-")]

    def test_failed_run_leaves_no_output_file(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        code = cli.main(
            ["envelope", "--input", "/no/such.csv", "--window", "5", "--num-windows", "2", "-o", str(out)]
        )
        capsys.readouterr()
        assert code == 3
        assert not out.exists()
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".subexp-")]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "rate",
            "--mu-lo", "-1", "--mu-hi", "1",
            "--noise", "uniform:0.3",
            "--n-max", "200", "--reps", "20", "--seed", "7",
            "--format", "csv",
        ]
        assert cli.main(argv + ["-o", str(a)]) == 0
        assert cli.main(argv + ["-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_meta_carries_digest_and_seed(self, capsys):
        code, obj, _ = run_json(capsys, ["estimate", "--values", "1,2", "--seed", "9"])
        assert code == 0
        assert obj["meta"]["seed"] == 9
        assert re.fullmatch(r"[0-9a-f]{16}", obj["meta"]["config_digest"])

    def test_digest_ignores_output_path(self, capsys, tmp_path):
        _, obj1, _ = run_json(capsys, ["estimate", "--values", "1,2"])
        out = tmp_path / "x.json"
        cli.main(["estimate", "--values", "1,2", "-o", str(out)])
        capsys.readouterr()
        obj2 = json.loads(out.read_text())
        assert obj1["meta"]["config_digest"] == obj2["meta"]["config_digest"]

    def test_digest_tracks_parameters(self, capsys):
        _, obj1, _ = run_json(capsys, ["estimate", "--values", "1,2"])
        _, obj2, _ = run_json(capsys, ["estimate", "--values", "1,3"])
        assert obj1["meta"]["config_digest"] != obj2["meta"]["config_digest"]


class TestErrorReporting:
    def test_unknown_command(self, capsys):
        code, _, err = run_text(capsys, ["frobnicate"])
        assert code == 2
        error_line(err)

    def test_no_command(self, capsys):
        code, _, err = run_text(capsys, [])
        assert code == 2

    def test_error_is_single_json_line(self, capsys):
        code, _, err = run_text(capsys, ["estimate", "--values", "not-a-number"])
        assert code == 2
        obj = error_line(err)
        assert obj["error"]["code"] == 2
        assert "not-a-number" in obj["error"]["message"]

    def test_internal_errors_map_to_exit_4(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("wires crossed")

        monkeypatch.setitem(cli._HANDLERS, "estimate", boom)
        code, _, err = run_text(capsys, ["estimate", "--values", "1,2"])
        assert code == 4
        obj = error_line(err)
        assert obj["error"]["code"] == 4
        assert "wires crossed" in obj["error"]["message"]


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("values=1,2,3\nseed=5\n")
        code, obj, _ = run_json(capsys, ["estimate", "--config", str(cfg)])
        assert code == 0
        assert obj["meta"]["seed"] == 5
        assert obj["result"]["mu_lo_hat"] == 1.0

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("values=1,2,3\nseed=5\n")
        code, obj, _ = run_json(capsys, ["estimate", "--config", str(cfg), "--seed", "9"])
        assert code == 0
        assert obj["meta"]["seed"] == 9

    def test_repeatable_flag_from_cli_drops_file_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("policy=constant:0\n")
        argv = [
            "lln",
            "--config", str(cfg),
            "--mu-lo", "-1", "--mu-hi", "1",
            "--fn", "identity",
            "--policy", "constant:1",
            "--n-max", "10", "--reps", "2", "--n-schedule", "10", "--points", "3",
        ]
        code, obj, _ = run_json(capsys, argv)
        assert code == 0
        assert obj["result"]["policies"] == ["constant(1)"]

    def test_config_only_repeatable_flag_is_used(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("policy=constant:0\n")
        argv = [
            "lln",
            "--config", str(cfg),
            "--mu-lo", "-1", "--mu-hi", "1",
            "--fn", "identity",
            "--n-max", "10", "--reps", "2", "--n-schedule", "10", "--points", "3",
        ]
        code, obj, _ = run_json(capsys, argv)
        assert code == 0
        assert obj["result"]["policies"] == ["constant(0)"]

    def test_boolean_keys(self, capsys, tmp_path):
        data = tmp_path / "series.csv"
        rng = np.random.default_rng(1)
        data.write_text("".join(f"{float(v)!r}\n" for v in rng.normal(size=30)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("demean=false\n")
        code, obj, _ = run_json(
            capsys,
            ["envelope", "--config", str(cfg), "--input", str(data), "--window", "5", "--num-windows", "2"],
        )
        assert code == 0
        assert obj["result"]["demean"] is False
        # explicit flag overrides the file
        code, obj, _ = run_json(
            capsys,
            ["envelope", "--config", str(cfg), "--input", str(data), "--window", "5",
             "--num-windows", "2", "--demean"],
        )
        assert code == 0
        assert obj["result"]["demean"] is True

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("turbo=yes\n")
        code, _, err = run_text(capsys, ["estimate", "--values", "1", "--config", str(cfg)])
        assert code == 2
        assert "turbo" in error_line(err)["error"]["message"]

    def test_missing_config_file(self, capsys):
        code, _, err = run_text(capsys, ["estimate", "--values", "1", "--config", "/no/file.cfg"])
        assert code == 3

    def test_nested_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("config=other.cfg\n")
        code, _, err = run_text(capsys, ["estimate", "--values", "1", "--config", str(cfg)])
        assert code == 2

    def test_comments_and_blank_lines_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nvalues=4,5\n")
        code, obj, _ = run_json(capsys, ["estimate", "--config", str(cfg)])
        assert code == 0
        assert obj["result"]["mu_lo_hat"] == 4.0


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        # importing scipy.optimize once cost most of every CLI call's start-up
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        # the exact expectation kernel needs no fractions module either
        probe = (
            "import subexp.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'fractions')))"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestRejectedBeforeWork:
    def test_degenerate_eval_with_overflowing_value(self, capsys):
        code, out, err = run_text(
            capsys, ["eval", "--mu-lo", "1", "--mu-hi", "1", "--fn", "poly:1e308,1e308", "--points", "3"]
        )
        assert code == 2 and out == ""
        assert "non-finite value" in error_line(err)["error"]["message"]

    def test_eval_on_an_interval_wider_than_a_float(self, capsys):
        code, _, err = run_text(
            capsys, ["eval", "--mu-lo=-1e308", "--mu-hi=1e308", "--fn", "identity", "--points", "3"]
        )
        assert code == 2
        assert "is too wide" in error_line(err)["error"]["message"]

    @pytest.mark.parametrize("column", ["-5", "-1"])
    def test_negative_column_index(self, capsys, tmp_path, column):
        p = tmp_path / "two.csv"
        p.write_text("1,2\n3,4\n5,6\n")
        code, out, err = run_text(
            capsys, ["envelope", "--input", str(p), "--column", column, "--window", "2", "--num-windows", "1"]
        )
        assert code == 2 and out == ""
        assert "column index must be >= 0" in error_line(err)["error"]["message"]

    @pytest.mark.parametrize("command", ["rate", "lln"])
    def test_draw_budget(self, capsys, monkeypatch, command):
        from subexp import lln

        monkeypatch.setattr(lln, "_MAX_DRAWS", 1000)
        argv = [command, "--mu-lo=-1", "--mu-hi=2", "--n-max", "501", "--reps", "2"]
        if command == "lln":
            argv += ["--fn", "square", "--policy", "constant:0"]
        code, out, err = run_text(capsys, argv)
        assert code == 2 and out == ""
        message = error_line(err)["error"]["message"]
        assert "2 * 501 = 1002 draws, over the limit of 1000" in message
        assert "--reps/--n-max" in message
        code, _, _ = run_text(capsys, argv[:4] + ["500"] + argv[5:])
        assert code == 0


def fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)


# prints the loaded numpy and subexp modules as a JSON list
LOADED = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'subexp'))))"
)


class TestImportBudget:
    # a CLI call imports only the layers its command runs
    def test_import_subexp_loads_no_layer_and_no_numpy(self):
        out = fresh_interpreter(f"import subexp; {LOADED}")
        assert json.loads(out.stdout) == ["subexp"]

    def test_estimate_values_loads_no_numpy(self):
        out = fresh_interpreter(
            "import contextlib, io; from subexp import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['estimate', '--values', '0.3,1.2,2.5']) == 0\n"
            f"{LOADED}"
        )
        loaded = json.loads(out.stdout)
        assert not [m for m in loaded if m.startswith("numpy")]
        assert loaded == ["subexp", "subexp.cli", "subexp.mle"]

    def test_envelope_input_loads_only_envelope(self, tmp_path):
        # the finite-float rule lives in the package module, which every command loads
        series = tmp_path / "series.csv"
        series.write_text("0.5\n1.5\n-2.0\n3.0\n")
        out = fresh_interpreter(
            "import contextlib, io; from subexp import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['envelope', '--input', {str(series)!r}, '--window', '2', '--num-windows', '2']) == 0\n"
            f"{LOADED}"
        )
        loaded = [m for m in json.loads(out.stdout) if m.split(".")[0] == "subexp"]
        assert loaded == ["subexp", "subexp.cli", "subexp.envelope"]

    def test_eval_family_loads_only_scenarios(self, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps([{"atoms": [[0.0, 0.5], [2.0, 0.5]]}, {"atoms": [[1.0, 1.0]]}]))
        out = fresh_interpreter(
            "import contextlib, io; from subexp import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['eval', '--family', {str(fam)!r}, '--fn', 'abs:0.25']) == 0\n"
            f"{LOADED}"
        )
        loaded = [m for m in json.loads(out.stdout) if m.split(".")[0] == "subexp"]
        assert loaded == ["subexp", "subexp.cli", "subexp.scenarios"]

    def test_every_exported_name_is_the_defining_modules_object(self):
        out = fresh_interpreter(
            "import importlib, json, subexp\n"
            "names = [n for n in subexp.__all__ if n != '__version__']\n"
            "same = [getattr(subexp, n) is getattr(importlib.import_module(getattr(subexp, n).__module__), n)"
            " for n in names]\n"
            "homes = sorted({getattr(subexp, n).__module__ for n in names})\n"
            "print(json.dumps([len(names), len(set(names)), all(same), homes,"
            " sorted(set(subexp.__all__) - set(dir(subexp)))]))"
        )
        count, distinct, same, homes, missing_from_dir = json.loads(out.stdout)
        assert count == distinct == 53
        assert same
        layers = ("axioms", "envelope", "joint", "lln", "maximal", "mle", "scenarios")
        assert homes == ["subexp", *(f"subexp.{m}" for m in layers)]
        assert missing_from_dir == []

    def test_unknown_attribute_raises_attribute_error(self):
        out = fresh_interpreter(
            "import subexp\n"
            "try:\n"
            "    subexp.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
            "print(hasattr(subexp, 'lln'))"
        )
        assert out.stdout.splitlines() == ["module 'subexp' has no attribute 'no_such_name'", "False"]

    def test_package_attributes_follow_the_defining_module(self, monkeypatch):
        # a patch of the defining module (as the benchmark tracer makes) is
        # seen through the package and by the commands' local imports
        import subexp
        from subexp import mle

        calls = []
        real = mle.mle_estimate

        def counted(sample):
            calls.append(sample.n)
            return real(sample)

        monkeypatch.setattr(mle, "mle_estimate", counted)
        assert subexp.mle_estimate is counted
        assert cli.main(["estimate", "--values", "1,2,3"]) == 0
        assert calls == [3]
        monkeypatch.undo()
        assert subexp.mle_estimate is real

    def test_simulation_error_is_a_validation_error(self, capsys):
        # SimulationError is a RuntimeError, which main catches as subexp.SimulationError
        code, _, err = run_text(capsys, ["lln", "--mu-lo=-1", "--mu-hi=2", "--fn", "square",
                                         "--policy", "constant:5", "--n-max", "10", "--reps", "2"])
        assert code == 2 and "outside" in error_line(err)["error"]["message"]


class TestPublicNamesOnly:
    # the CLI reaches the library through the package's public names, so
    # subexp._EXPORTS is the one table that says which layer a name loads
    TREE = ast.parse(Path(cli.__file__).read_text())

    def test_every_library_name_is_exported(self):
        import subexp

        used = {
            node.attr
            for node in ast.walk(self.TREE)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "subexp"
        }
        assert used and used <= set(subexp.__all__)

    def test_no_layer_is_imported_by_name(self):
        imports = [node for node in ast.walk(self.TREE) if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert not [node.module for node in imports if isinstance(node, ast.ImportFrom) and node.level > 0]
        modules = {alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names}
        modules |= {node.module for node in imports if isinstance(node, ast.ImportFrom)}
        assert not [m for m in modules if m.split(".")[0] == "subexp" and m != "subexp"]
        assert "typing" not in modules  # no TYPE_CHECKING block


class TestSingleLineErrors:
    def test_rate_with_an_overflowing_second_moment(self, capsys):
        code, out, err = run_text(capsys, ["rate", "--mu-lo=-1", "--mu-hi=1e200", "--n-max", "10", "--reps", "2"])
        assert code == 2 and out == ""
        message = error_line(err)["error"]["message"]
        assert message.startswith("worst-case second moment over [-1.0, 1e+200] with noise none overflows")

    def test_rate_with_overflowing_noise(self, capsys):
        code, _, err = run_text(capsys, ["rate", "--mu-lo=0", "--mu-hi=1", "--noise", "two_point:1e200",
                                         "--n-max", "10", "--reps", "2"])
        assert code == 2
        assert error_line(err)["error"]["message"].startswith("second moment of noise two_point:1e+200 overflows")

    @pytest.mark.parametrize("noise,limit", [("uniform:1e308", "8.988465674311579e+307"),
                                             ("uniform:inf", "8.988465674311579e+307"),
                                             ("two_point:inf", "1.7976931348623157e+308")])
    def test_lln_with_undrawable_noise(self, capsys, noise, limit):
        code, out, err = run_text(capsys, ["lln", "--mu-lo=0", "--mu-hi=0", "--fn", "identity", "--policy",
                                           "constant:0", "--noise", noise, "--n-max", "3", "--reps", "1",
                                           "--points", "3"])
        assert code == 2 and out == ""
        assert f"noise half-width must be at most {limit}, got" in error_line(err)["error"]["message"]

    def test_overflow_in_a_registry_function_prints_only_the_error_line(self):
        # run in a fresh interpreter so that a numpy warning would reach stderr
        out = subprocess.run(
            [sys.executable, "-m", "subexp.cli", "eval", "--mu-lo", "0", "--mu-hi", "1",
             "--fn", "poly:1e308,1e308", "--points", "3"],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            capture_output=True, text=True,
        )
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.count("\n") == 1
        message = json.loads(out.stderr)["error"]["message"]
        assert message == "test function returned non-finite value at point 1.0"


    def test_poly_power_beyond_the_float_range(self, capsys):
        # radius**2 overflows a float; this was an OverflowError (exit 4)
        code, out, err = run_text(capsys, ["eval", "--mu-lo=-1e200", "--mu-hi=1e200", "--fn", "poly:0,0,1",
                                           "--points", "3"])
        assert code == 2 and out == ""
        assert error_line(err)["error"]["message"] == "test function returned non-finite value at point -1e+200"

    @pytest.mark.parametrize("fn, message", [
        ("poly:nan,1", "bound must be >= 0 (or inf), got nan"),
        ("poly:1,nan", "lipschitz constant must be finite and >= 0, got nan"),
        ("poly:inf,1", "test function returned non-finite value at point -1.0"),
        ("poly:1,-inf,0", "lipschitz constant must be finite and >= 0, got inf"),
    ])
    def test_poly_with_a_non_finite_coefficient(self, capsys, fn, message):
        code, out, err = run_text(capsys, ["eval", "--mu-lo=-1", "--mu-hi=1", "--fn", fn, "--points", "3"])
        assert code == 2 and out == ""
        assert error_line(err)["error"]["message"] == message


class TestFiniteJson:
    def test_rate_with_an_overflowing_monte_carlo_mean(self):
        # run in a fresh interpreter so that a numpy warning would reach stderr
        out = subprocess.run(
            [sys.executable, "-m", "subexp.cli", "rate", "--mu-lo", "0", "--mu-hi", "0",
             "--noise", "two_point:1.3407807929942596e154", "--n-max", "10", "--reps", "5"],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            capture_output=True, text=True,
        )
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.count("\n") == 1
        message = json.loads(out.stderr)["error"]["message"]
        assert message.startswith("policy constant(0) at n=1: the Monte-Carlo mean inf")

    @pytest.mark.parametrize("argv", [
        ["estimate", "--values=-1e308,1e308"],  # delta overflows
        ["lln", "--mu-lo=-1", "--mu-hi=1", "--fn", "poly:0,1e308", "--policy", "constant:-1",
         "--n-max", "10", "--reps", "1", "--points", "3"],  # gap overflows
    ])
    def test_an_overflowing_result_is_an_error_not_infinity(self, capsys, argv):
        code, out, err = run_text(capsys, argv)
        assert code == 2 and out == ""
        assert error_line(err)["error"]["message"] == f"{argv[0]} result holds a non-finite number"

    @pytest.mark.parametrize("argv", [
        ["estimate", "--values=-1e308,1e308", "--format", "csv"],  # delta overflows
        ["eval", "--mu-lo=-1.3e154", "--mu-hi", "1.3e154", "--fn", "square", "--points", "2",
         "--format", "csv"],  # error_bound overflows
    ])
    def test_csv_output_rejects_a_non_finite_result_like_json(self, capsys, argv):
        code, out, err = run_text(capsys, argv)
        assert code == 2 and out == ""
        assert error_line(err)["error"]["message"] == f"{argv[0]} result holds a non-finite number"



class TestEntry:
    @pytest.fixture()
    def inputs(self, tmp_path):
        rng = np.random.default_rng(21)
        fam = [{"atoms": [[float(p), 0.2] for p in rng.uniform(-2.0, 2.0, 5)]} for _ in range(3)]
        (tmp_path / "family.json").write_text(json.dumps(fam))
        (tmp_path / "series.csv").write_text("".join(f"{v!r}\n" for v in rng.standard_normal(500).tolist()))
        (tmp_path / "bad.csv").write_text("1\n2\nx\n4\n")
        return tmp_path

    # the five commands of the benchmark's cli_calls workload, a validation
    # error (exit 2) and a data error (exit 3); paths are relative to `inputs`
    COMMANDS = [
        ["estimate", "--values=0.3,-1.2,2.5,0.7"],
        ["eval", "--family", "family.json", "--fn", "abs:0.25"],
        ["eval", "--mu-lo=-1", "--mu-hi=2", "--fn", "square"],
        ["envelope", "--input", "series.csv", "--window", "20", "--num-windows", "50"],
        ["rate", "--mu-lo=-1", "--mu-hi=2", "--noise", "uniform:0.5", "--n-max", "1000", "--reps", "20",
         "--seed", "4", "--policy=constant:-1", "--policy=constant:0.5", "--policy=constant:2",
         "--policy=periodic:-1,2"],
        ["estimate", "--values=1,x"],
        ["envelope", "--input", "bad.csv", "--window", "2", "--num-windows", "1"],
    ]

    @pytest.mark.parametrize("argv, want", [
        (["estimate", "--values=0.3,1.2"], 0),
        (["estimate", "--values=1,x"], 2),
        (["estimate", "--input", "no-such-file.csv"], 3),
    ])
    def test_main_in_process_leaves_the_collector_alone(self, capsys, argv, want):
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        assert cli.main(argv) == want
        capsys.readouterr()
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)

    @pytest.mark.parametrize("argv, want", [(["estimate", "--values=0.3,1.2"], 0), (["estimate", "--values=1,x"], 2)])
    def test_entry_runs_main_without_collections_and_freezes(self, argv, want):
        # collections counts the collector runs: none may happen while main
        # imports and computes; the report is the last line on stderr
        probe = (
            "import gc, json, sys\n"
            "from subexp import cli\n"
            "runs = lambda: sum(s['collections'] for s in gc.get_stats())\n"
            "real_main, seen = cli.main, {}\n"
            "def main():\n"
            "    seen['enabled'] = gc.isenabled()\n"
            "    before = runs()\n"
            "    import numpy\n"
            "    [[i] for i in range(100000)]  # enough allocations to trigger a collection\n"
            "    code = real_main()\n"
            "    seen['runs'] = runs() - before\n"
            "    return code\n"
            "cli.main = main\n"
            f"sys.argv = ['subexp', *{argv!r}]\n"
            "code = cli._entry()\n"
            "print(json.dumps([code, seen, gc.isenabled(), gc.get_freeze_count() > 0]), file=sys.stderr)\n"
        )
        out = fresh_interpreter(probe)
        code, seen, enabled_after, frozen_after = json.loads(out.stderr.splitlines()[-1])
        assert code == want
        assert seen == {"enabled": False, "runs": 0}
        assert not enabled_after and frozen_after

    def test_process_output_is_byte_identical_to_main_in_process(self, capsys, monkeypatch, inputs):
        monkeypatch.chdir(inputs)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        codes = []
        for argv in self.COMMANDS:
            codes.append(cli.main(list(argv)))
            out, err = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", "subexp.cli", *argv], env=env, capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (codes[-1], out, err), argv
        assert codes == [0, 0, 0, 0, 0, 2, 3]

    def test_console_script_points_at_the_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["scripts"]["subexp"] == "subexp.cli:_entry"


class TestNanPolicyMeans:
    @pytest.mark.parametrize("spec", ["constant:nan", "periodic:0,nan", "random:0,nan"])
    def test_a_nan_mean_exits_2_naming_the_step(self, capsys, spec):
        argv = ["rate", "--mu-lo", "0", "--mu-hi", "1", "--policy", spec, "--n-max", "10", "--reps", "2",
                "--n-schedule", "10"]
        code, out, err = run_text(capsys, argv)
        assert code == 2 and out == ""
        message = error_line(err)["error"]["message"]
        assert re.fullmatch(r"policy \w+\([0-9,nan]+\) produced mean nan at step \d+, outside \[0\.0, 1\.0\]", message)


class TestDistinctPolicyLabels:
    def test_narrow_interval_lists_four_labels(self, capsys):
        code, obj, _ = run_json(capsys, ["rate", "--mu-lo", "1", "--mu-hi", "1.000001", "--n-max", "10",
                                         "--reps", "3", "--n-schedule", "10"])
        assert code == 0
        want = ["constant(1)", "constant(1.0000005)", "constant(1.000001)", "periodic(1,1.000001)"]
        assert obj["result"]["policies"] == want
        assert [row["policy_id"] for row in obj["result"]["rows"]] == want


class TestNoAbbreviatedFlags:
    def test_an_abbreviated_config_flag_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("values=1,2,3\n")
        code, out, err = run_text(capsys, ["estimate", "--values", "5,6", "--conf", str(cfg)])
        assert code == 2 and out == ""
        assert error_line(err)["error"]["message"] == f"unrecognized arguments: --conf {cfg}"

    def test_an_abbreviated_repeatable_flag_does_not_join_the_config_values(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("policy=constant:0\n")
        argv = ["rate", "--config", str(cfg), "--mu-lo", "0", "--mu-hi", "1", "--pol", "constant:1",
                "--n-max", "10", "--reps", "2", "--n-schedule", "10"]
        code, out, err = run_text(capsys, argv)
        assert code == 2 and out == ""
        assert error_line(err)["error"]["message"] == "unrecognized arguments: --pol constant:1"

    @pytest.mark.parametrize("argv", [["estimate", "--val", "1,2"], ["estimate", "--values", "1,2", "--form", "csv"]])
    def test_every_flag_must_be_spelled_out(self, capsys, argv):
        code, _, err = run_text(capsys, argv)
        assert code == 2
        assert error_line(err)["error"]["message"].startswith("unrecognized arguments: --")


# every flag that names a file to read, with {} for the path
_READERS = [
    ["eval", "--fn", "square", "--family", "{}"],
    ["estimate", "--input", "{}"],
    ["envelope", "--window", "2", "--num-windows", "1", "--input", "{}"],
    ["estimate", "--values", "1", "--config", "{}"],
]


class TestUnreadableFiles:
    """A file that cannot be read is a data error naming it (exit 3), and
    an output path that cannot be written is a validation error (exit 2);
    neither is an internal error."""

    @staticmethod
    def _not_utf8(tmp_path):
        path = tmp_path / "latin.bin"
        path.write_bytes(b"\xff\xfe\x00")
        return str(path)

    @pytest.mark.parametrize("argv", _READERS)
    def test_a_directory_as_input(self, capsys, tmp_path, argv):
        argv = [a.format(tmp_path) for a in argv]
        code, out, err = run_text(capsys, argv)
        assert code == 3 and out == ""
        assert error_line(err)["error"]["message"].endswith(f"{tmp_path}: Is a directory")

    @pytest.mark.parametrize("argv", _READERS)
    def test_a_file_that_is_not_utf8(self, capsys, tmp_path, argv):
        path = self._not_utf8(tmp_path)
        code, out, err = run_text(capsys, [a.format(path) for a in argv])
        assert code == 3 and out == ""
        message = error_line(err)["error"]["message"]
        assert message.startswith("cannot read ") and path in message and "utf-8" in message

    @pytest.mark.parametrize("target", ["{}", "{}/no/such/dir/out.json"])
    def test_an_unwritable_output_path(self, capsys, tmp_path, target):
        target = target.format(tmp_path)
        code, out, err = run_text(capsys, ["estimate", "--values", "1,2", "-o", target])
        assert code == 2 and out == ""
        assert error_line(err)["error"]["message"].startswith(f"cannot write output file {target}: ")
        assert [p.name for p in tmp_path.iterdir()] == []  # no temporary file left behind

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--fn", "square", "--family", "/no/fam.json"], "family file does not exist: /no/fam.json"),
            (["estimate", "--input", "/no/x.csv"], "input file does not exist: /no/x.csv"),
            (["envelope", "--window", "2", "--num-windows", "1", "--input", "/no/x.csv"],
             "input file does not exist: /no/x.csv"),
            (["estimate", "--values", "1", "--config", "/no/c.cfg"], "config file does not exist: /no/c.cfg"),
        ],
    )
    def test_missing_files_keep_their_messages(self, capsys, argv, message):
        code, _, err = run_text(capsys, argv)
        assert code == 3
        assert error_line(err)["error"]["message"] == message


class TestOneCellGrid:
    """A step wider than the interval gives its two endpoints."""

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["eval", "--mu-lo", "-1", "--mu-hi", "2", "--fn", "square", "--step", "inf"], 4.0),
            (["eval", "--mu-lo", "0", "--mu-hi", "1e-300", "--fn", "square", "--step", "1e300"], 0.0),
        ],
    )
    def test_eval(self, capsys, argv, value):
        code, obj, err = run_json(capsys, argv)
        assert code == 0, err
        assert obj["result"]["value"] == value

    def test_lln(self, capsys):
        argv = ["lln", "--mu-lo", "-1", "--mu-hi", "2", "--fn", "square", "--step", "inf",
                "--policy", "constant:0", "--n-max", "5", "--reps", "2"]
        code, obj, err = run_json(capsys, argv)
        assert code == 0, err
        assert {row["target_or_bound"] for row in obj["result"]["rows"]} == {4.0}


_E = ["--mu-lo", "0", "--mu-hi", "1"]
_LLN = ["lln", *_E, "--fn", "square", "--n-max", "20", "--reps", "2", "--points", "3"]


class TestErrorPaths:
    """Each CLI error path exits with its code and its one stderr line."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (_LLN + ["--policy", "constant:x"], 2, "bad policy spec 'constant:x'"),
            (_LLN + ["--policy", "constant:1,2"], 2, "constant policy needs exactly one mean, got 'constant:1,2'"),
            (_LLN + ["--policy", "periodic"], 2, "periodic policy needs means, got 'periodic'"),
            (_LLN + ["--policy", "random"], 2, "random policy needs means, got 'random'"),
            (_LLN + ["--policy", "foo:1"], 2, "unknown policy kind 'foo' (constant:mu, periodic:a,b, random:a,b)"),
            (_LLN + ["--policy", "constant:0", "--noise", "foo"], 2,
             "unknown noise kind 'foo' (none, uniform:a, two_point:a)"),
            (_LLN + ["--policy", "constant:0", "--n-schedule", "a,b"], 2,
             "bad schedule 'a,b', expected comma-separated integers"),
            (_LLN + ["--policy", "constant:0", "--n-schedule", "0,5"], 2, "schedule entries must be >= 1, got '0,5'"),
            (_LLN, 2, "need at least one --policy"),
            (["lln"], 2, "the following arguments are required: --mu-lo, --mu-hi, --fn"),
            # the first bad input names the error: interval, policy, noise, config, schedule, function
            (["lln", "--mu-lo", "1", "--mu-hi", "0", "--fn", "square"], 2, "mu_lo must not exceed mu_hi, got [1.0, 0.0]"),
            (_LLN + ["--policy", "foo", "--noise", "foo"], 2,
             "unknown policy kind 'foo' (constant:mu, periodic:a,b, random:a,b)"),
            (_LLN + ["--policy", "constant:0", "--noise", "foo", "--reps", "0"], 2,
             "unknown noise kind 'foo' (none, uniform:a, two_point:a)"),
            (_LLN + ["--policy", "constant:0", "--reps", "0", "--n-schedule", "x"], 2, "reps must be >= 1, got 0"),
            (_LLN + ["--policy", "constant:0", "--n-schedule", "x", "--fn", "nope"], 2,
             "bad schedule 'x', expected comma-separated integers"),
            (["rate", *_E, "--n-max", "20", "--reps", "2", "--policy", "random:0,x"], 2, "bad policy spec 'random:0,x'"),
            (["rate", *_E, "--n-max", "20", "--reps", "2", "--noise", "gauss:1"], 2,
             "unknown noise kind 'gauss' (none, uniform:a, two_point:a)"),
            (["rate", *_E, "--n-max", "20", "--reps", "2", "--n-schedule", ","], 2,
             "bad schedule ',', expected comma-separated integers"),
            (_LLN + ["--policy", "constant:0", "--noise", "none:5"], 2, "bad noise spec 'none:5': none takes no argument"),
            (["rate", *_E, "--n-max", "20", "--reps", "2", "--noise", "none:"], 2,
             "bad noise spec 'none:': none takes no argument"),
        ],
    )
    def test_simulation_inputs(self, capsys, argv, code, message):
        got, out, err = run_text(capsys, argv)
        assert (got, out) == (code, "")
        assert error_line(err) == {"error": {"code": code, "message": message}}

    @pytest.mark.parametrize(
        "argv, text, code, message",
        [
            (["estimate", "--config"], None, 2, "--config needs a file path"),
            (["estimate", "--config={}"], "values=1,2\n", 0, None),
            (["estimate", "--config", "{}"], "values 1,2\n", 2, "{}:1: expected key=value, got 'values 1,2'"),
            (["eval", *_E, "--fn", "square", "--config", "{}"], "# c\nrefine = maybe\n", 2,
             "{}:2: refine must be true or false, got 'maybe'"),
            (["eval", "--fn", "square", "--family", "{}"], '[{"atoms": [[1, 1]]', 3, None),
            (["eval", "--fn", "square", "--family", "{}"], '[{"atomz": 1}]', 3,
             "{}: measure object must look like {{'atoms': [[point, weight], ...]}}, got {{'atomz': 1}}"),
        ],
    )
    def test_config_and_family_files(self, capsys, tmp_path, argv, text, code, message):
        path = tmp_path / "input.txt"
        if text is not None:
            path.write_text(text)
        got, out, err = run_text(capsys, [a.format(path) for a in argv])
        assert got == code
        if code == 0:
            assert err == "" and json.loads(out)["result"]["mu_hi_hat"] == 2.0
            return
        assert out == ""
        line = error_line(err)["error"]["message"]
        if message is None:  # the JSON decoder's own wording follows the path
            assert line.startswith(f"{path} is not valid JSON: ")
        else:
            assert line == message.format(path)


class TestSpecArguments:
    """Every argument of a function spec is used or refused."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", *_E, "--fn", "indicator:0.5,2.9"], "indicator k must be a whole number, got 'indicator:0.5,2.9'"),
            (["eval", *_E, "--fn", "indicator:1,0.5"], "indicator k must be a whole number, got 'indicator:1,0.5'"),
            (["eval", *_E, "--fn", "indicator:1,inf"], "indicator k must be a whole number, got 'indicator:1,inf'"),
            (["eval", *_E, "--fn", "identity:5"], "too many arguments in function spec 'identity:5'"),
            (["eval", *_E, "--fn", "square:1,2"], "too many arguments in function spec 'square:1,2'"),
            (["eval", *_E, "--fn", "abs:1,2"], "too many arguments in function spec 'abs:1,2'"),
            (["eval", *_E, "--fn", "sin:1,2,3"], "too many arguments in function spec 'sin:1,2,3'"),
            (["eval", *_E, "--fn", "cos:1,2"], "too many arguments in function spec 'cos:1,2'"),
        ],
    )
    def test_refused(self, capsys, argv, message):
        code, out, err = run_text(capsys, argv)
        assert (code, out) == (2, "")
        assert error_line(err) == {"error": {"code": 2, "message": message}}

    @pytest.mark.parametrize("spec", ["indicator:0.5,4.0", "identity:", "abs:0.5", "cos:2"])
    def test_accepted(self, capsys, spec):
        code, obj, err = run_json(capsys, ["eval", *_E, "--fn", spec, "--points", "5"])
        assert code == 0 and err == ""
        assert obj["result"]["value"] == eval_maximal(MaximalDist(0.0, 1.0), cli.build_fn(spec, 1.0), GridSpec(num=5)).value


class TestConfigAndHeaderSettings:
    def test_a_true_boolean_key_sets_the_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("refine = True\npoints = 7\n")
        code, obj, _ = run_json(capsys, ["eval", *_E, "--fn", "square", "--config", str(cfg)])
        want = eval_maximal(MaximalDist(0.0, 1.0), cli.build_fn("square", 1.0), GridSpec(num=7, refine=True))
        assert code == 0 and obj["result"]["error_bound"] == want.error_bound

    @pytest.mark.parametrize("value, refine", [("false", True), ("true", False)])
    def test_a_no_refine_key_sets_the_opposite_value(self, capsys, tmp_path, value, refine):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no-refine = {value}\npoints = 7\n")
        code, obj, _ = run_json(capsys, ["eval", *_E, "--fn", "sin:3", "--config", str(cfg)])
        want = eval_maximal(MaximalDist(0.0, 1.0), cli.build_fn("sin:3", 1.0), GridSpec(num=7, refine=refine))
        assert code == 0 and obj["result"]["error_bound"] == want.error_bound
        assert want.error_bound != eval_maximal(MaximalDist(0.0, 1.0), cli.build_fn("sin:3", 1.0),
                                                GridSpec(num=7, refine=not refine)).error_bound

    @pytest.mark.parametrize("value, demean", [("false", True), ("true", False), ("no", True), ("1", False)])
    def test_a_no_demean_key_sets_the_opposite_value(self, capsys, tmp_path, value, demean):
        data = tmp_path / "series.csv"
        data.write_text("1\n2\n4\n3\n5\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no-demean={value}\n")
        code, obj, _ = run_json(capsys, ["envelope", "--config", str(cfg), "--input", str(data), "--window", "2",
                                         "--num-windows", "2"])
        assert code == 0 and obj["result"]["demean"] is demean

    @pytest.mark.parametrize("header, text", [("yes", "r\n1\n3\n2\n"), ("no", "1\n3\n2\n")])
    def test_an_explicit_header_setting(self, capsys, tmp_path, header, text):
        path = tmp_path / "x.csv"
        path.write_text(text)
        code, obj, _ = run_json(capsys, ["estimate", "--input", str(path), "--header", header])
        assert code == 0 and (obj["result"]["mu_lo_hat"], obj["result"]["mu_hi_hat"], obj["result"]["n"]) == (1.0, 3.0, 3)


class TestOutputTarget:
    """``-o`` replaces the file the path names, keeps links, and refuses
    anything that is not a regular file."""

    ARGV = ["estimate", "--values", "1,2"]

    @staticmethod
    def _no_temp_files(*dirs):
        return not [p for d in dirs for p in os.listdir(d) if p.startswith(".subexp-")]

    def test_a_symlink_is_written_through(self, capsys, tmp_path):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "result.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(os.path.join("data", "result.json"))
        assert cli.main([*self.ARGV, "-o", str(link)]) == 0
        capsys.readouterr()
        assert link.is_symlink() and os.readlink(link) == os.path.join("data", "result.json")
        assert json.loads(target.read_text())["result"]["mu_hi_hat"] == 2.0
        assert self._no_temp_files(tmp_path, tmp_path / "data")

    def test_a_dangling_symlink_creates_its_target(self, capsys, tmp_path):
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "new.json")
        assert cli.main([*self.ARGV, "-o", str(link)]) == 0
        capsys.readouterr()
        assert link.is_symlink() and json.loads((tmp_path / "new.json").read_text())["result"]["n"] == 2

    @pytest.mark.parametrize("via_link", [False, True])
    def test_a_fifo_is_refused_before_anything_is_written(self, capsys, tmp_path, via_link):
        fifo = tmp_path / "pipe.fifo"
        os.mkfifo(fifo)
        path = fifo
        if via_link:
            path = tmp_path / "link"
            path.symlink_to(fifo)
        code, out, err = run_text(capsys, [*self.ARGV, "-o", str(path)])
        assert (code, out) == (2, "")
        assert error_line(err)["error"]["message"] == f"cannot write output file {path}: not a regular file"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert self._no_temp_files(tmp_path)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664), (0o027, 0o640)])
    def test_a_new_file_gets_0666_minus_the_umask(self, capsys, tmp_path, umask, mode):
        out = tmp_path / "result.json"
        old = os.umask(umask)
        try:
            assert cli.main([*self.ARGV, "-o", str(out)]) == 0
        finally:
            os.umask(old)
        capsys.readouterr()
        assert stat.S_IMODE(out.stat().st_mode) == mode

    @pytest.mark.parametrize("mode", [0o644, 0o640, 0o664])
    def test_a_replaced_file_keeps_its_mode(self, capsys, tmp_path, mode):
        out = tmp_path / "result.json"
        out.write_text("old\n")
        out.chmod(mode)
        old = os.umask(0o077)
        try:
            assert cli.main([*self.ARGV, "-o", str(out)]) == 0
        finally:
            os.umask(old)
        capsys.readouterr()
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert json.loads(out.read_text())["result"]["n"] == 2


class TestFamilyAtoms:
    """A malformed atom in a family file exits 3 and names the atom."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[{"atoms": [[1.0]]}]', "atom 0 must be a (point, weight) pair, got [1.0]"),
            ('[{"atoms": [[1.0, 1.0, 3]]}]', "atom 0 must be a (point, weight) pair, got [1.0, 1.0, 3]"),
            ('[{"atoms": [5.0]}]', "atom 0 must be a (point, weight) pair, got 5.0"),
            ('[{"atoms": [[1' + "0" * 400 + ', 1.0]]}]', "atom 0 point must be finite, got 1" + "0" * 400),
            ('[{"atoms": [[1.0, 1' + "0" * 400 + "]]}]", "atom 0 weight must be finite, got 1" + "0" * 400),
        ],
        ids=["one_entry", "three_entries", "not_a_pair", "huge_point", "huge_weight"],
    )
    def test_exits_3(self, capsys, tmp_path, text, message):
        path = tmp_path / "family.json"
        path.write_text(text)
        code, out, err = run_text(capsys, ["eval", "--family", str(path), "--fn", "identity"])
        assert (code, out) == (3, "")
        assert error_line(err) == {"error": {"code": 3, "message": f"{path}: {message}"}}

    def test_an_int_past_the_decoders_digit_limit_exits_3(self, capsys, tmp_path):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        path = tmp_path / "family.json"
        path.write_text('[{"atoms": [[1' + "0" * 5000 + ", 1.0]]}]")
        code, out, err = run_text(capsys, ["eval", "--family", str(path), "--fn", "identity"])
        assert (code, out) == (3, "")
        assert error_line(err)["error"]["message"].startswith(f"{path} is not valid JSON: ")


class TestPipedInput:
    ARGV = ["envelope", "--input", "/dev/stdin", "--window", "2", "--num-windows", "1"]

    @staticmethod
    def run(argv, stdin):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        return subprocess.run([sys.executable, "-m", "subexp.cli", *argv], input=stdin, env=env, capture_output=True, text=True)

    def test_a_bad_row_is_named(self):
        # a pipe is read once, as a file is, and a failed chunk walked row by row
        proc = self.run(self.ARGV, "1\nx\n3\n")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert error_line(proc.stderr) == {"error": {"code": 3, "message": "row 2: non-numeric value 'x'"}}

    def test_a_bad_row_past_the_first_chunk_is_named(self):
        proc = self.run(self.ARGV, "1\n" * 300 + "x\n" + "2\n" * 300)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert error_line(proc.stderr) == {"error": {"code": 3, "message": "row 301: non-numeric value 'x'"}}

    def test_matches_the_same_rows_in_a_file(self, capsys, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("1\n2.5\n-3\n")
        assert cli.main([*self.ARGV[:2], str(p), *self.ARGV[3:]]) == 0
        proc = self.run(self.ARGV, p.read_text())
        assert (proc.returncode, proc.stderr) == (0, "")
        # the digest covers the input path, so compare the results
        assert json.loads(proc.stdout)["result"] == json.loads(capsys.readouterr().out)["result"]


class TestRefineOverflow:
    def test_cell_bounds_that_overflow_print_no_warning(self):
        # (f(a) + f(b)) / 2 overflows on every cell; an inf bound keeps its
        # cell live, so the certificate stays L * h / 2
        argv = ["eval", "--mu-lo=-1", "--mu-hi=1", "--fn", "abs:1.7e308", "--points", "5", "--refine"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "subexp.cli", *argv], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["result"] == {"argmax": -1.0, "error_bound": 0.25, "value": 1.7e308}


class TestNegativeExponentValues:
    # argparse alone takes -1e308 for an option and says "expected one argument"
    TAILS = {
        "eval": ["--mu-hi", "1", "--fn", "identity", "--points", "3"],
        "lln": ["--mu-hi", "1", "--fn", "identity", "--policy", "constant:0", "--n-max", "4", "--reps", "2", "--points", "3"],
        "rate": ["--mu-hi", "1", "--n-max", "4", "--reps", "2"],
    }

    @pytest.mark.parametrize("value", ["-1e308", "-1.5e-3", "-.5", "-2E+3", "-inf", "-nan", "-Infinity"])
    @pytest.mark.parametrize("command", sorted(TAILS))
    def test_flag_space_value_equals_flag_equals_value(self, capsys, command, value):
        spaced = run_text(capsys, [command, "--mu-lo", value, *self.TAILS[command]])
        joined = run_text(capsys, [command, f"--mu-lo={value}", *self.TAILS[command]])
        assert spaced == joined
        assert "expected one argument" not in spaced[2]

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["estimate"], "--values", "-1,2,3"),
            (["rate", "--mu-lo", "-1", "--mu-hi", "1", "--n-max", "10", "--reps", "2"], "--n-schedule", "-5,10"),
        ],
    )
    def test_a_negative_list_is_a_value(self, capsys, argv, flag, value):
        spaced = run_text(capsys, [*argv, flag, value])
        assert spaced == run_text(capsys, [*argv, f"{flag}={value}"])
        assert "expected one argument" not in spaced[2]


class TestLlnOverflowWarnings:
    # a draw or running sum that overflows to inf exits 2 naming the
    # non-finite mean, with no numpy warning in front of the error line
    BIG = ["--mu-lo=0", "--mu-hi", "1.7e308", "--n-max", "4", "--reps", "1"]

    @pytest.mark.parametrize(
        "extra",
        [
            [*BIG, "--policy", "constant:1.7e308", "--noise", "none"],  # the running sum
            [*BIG, "--policy", "constant:1.7e308", "--noise", "uniform:8e307"],  # a fixed mean plus noise
            [*BIG, "--policy", "random:1.7e308", "--noise", "uniform:8e307"],  # a drawn mean plus noise
            # a running sum of inf meets a draw of -inf: inf + -inf is nan
            ["--mu-lo=-1e308", "--mu-hi", "7e307", "--policy", "periodic:7e307,7e307,-1e308",
             "--noise", "two_point:8e307", "--n-max", "16", "--reps", "3"],
        ],
    )
    def test_stderr_is_one_json_error_line(self, extra):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "subexp.cli", "lln", "--fn", "identity", "--points", "3", *extra],
            env=env, capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1
        assert error_line(proc.stderr)["error"]["message"].endswith("at running mean inf")
