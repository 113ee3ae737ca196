"""The README's CLI contract, swept over extreme inputs in process.

Every call must exit 0, 2 or 3; a failure prints exactly one JSON error
line and nothing on stdout, a success prints nothing on stderr; no
warning (numpy's overflow warnings included) is raised; and no output
holds ``Infinity``, ``NaN`` or ``inf``.  The sweep makes 1098 calls and
covers every command: every ordered pair of the endpoints below, for
``eval`` (three function specs on the plain grid and one with
``--refine``), ``lln`` (one call on the plain grid and one with
``--refine``), ``rate``, ``estimate`` and ``envelope`` (the
series lo, hi, lo, hi), with the function spec, noise, policy,
demeaning and output format taken in turn; and ``verify-axioms`` with a
few case counts and seeds.
"""

import itertools
import json
import re
import warnings

import pytest

from subexp import cli

ENDPOINTS = (0.0, -0.0, 5e-324, 1e-300, 1.3e154, 1.7e308, -1.7e308, float("nan"), float("inf"), -1.0, 2.0)
PAIRS = list(itertools.product(ENDPOINTS, repeat=2))
FNS = ("identity", "square", "abs:1.7e308", "sin", "cos:1e300", "poly:1e308,1e308", "indicator:1,2")
# --refine's cell bounds can overflow only for a function that can exceed
# about 9e307; a bounded one would only spend the refinement's evaluation cap
UNBOUNDED = ("identity", "square", "abs:1.7e308", "poly:1e308,1e308")
NOISES = ("none", "uniform:1", "uniform:8e307", "two_point:1.3407807929942596e154")
FORMATS = ("json", "csv")
NON_FINITE = re.compile(r"(?<![A-Za-z])(?:Infinity|NaN|nan|inf)(?![A-Za-z])")


def eval_cases(tmp_path):
    for k, (lo, hi) in enumerate(PAIRS):
        grid = [(fn, ()) for fn in (FNS[k % 7], FNS[(k + 2) % 7], FNS[(k + 4) % 7])]
        refined = [(UNBOUNDED[k % 4], ("--refine",))]
        for j, (fn, refine) in enumerate(grid + refined):
            yield ["eval", f"--mu-lo={lo!r}", f"--mu-hi={hi!r}", "--fn", fn, "--points", "3", *refine,
                   "--format", FORMATS[(k + j) % 2]]


def lln_cases(tmp_path):
    for k, (lo, hi) in enumerate(PAIRS):
        policy = (f"constant:{hi!r}", f"random:{lo!r},{hi!r}", f"periodic:{lo!r},{hi!r}")[k % 3]
        for j, (fn, refine) in enumerate([(FNS[k % 7], ()), (UNBOUNDED[k % 4], ("--refine",))]):
            yield ["lln", f"--mu-lo={lo!r}", f"--mu-hi={hi!r}", "--fn", fn, "--policy", policy, "--noise",
                   NOISES[(k + j) % 4], "--n-max", "8", "--reps", "2", "--points", "3", *refine,
                   "--format", FORMATS[(k + j) % 2]]


def rate_cases(tmp_path):
    for k, (lo, hi) in enumerate(PAIRS):
        yield ["rate", f"--mu-lo={lo!r}", f"--mu-hi={hi!r}", "--noise", NOISES[k % 4], "--n-max", "8",
               "--reps", "2", "--format", FORMATS[k % 2]]


def estimate_cases(tmp_path):
    for k, (lo, hi) in enumerate(PAIRS):
        yield ["estimate", f"--values={lo!r},{hi!r}", "--format", FORMATS[k % 2]]


def envelope_cases(tmp_path):
    for k, (lo, hi) in enumerate(PAIRS):
        series = tmp_path / f"series{k}.csv"
        series.write_text(f"{lo!r}\n{hi!r}\n{lo!r}\n{hi!r}\n")
        yield ["envelope", "--input", str(series), "--window", "2", "--num-windows", "2",
               ("--demean", "--no-demean")[k % 2], "--format", FORMATS[k // 2 % 2]]


def verify_axioms_cases(tmp_path):
    for cases, seed in itertools.product(("0", "1", "2"), ("0", "1", "-1")):
        yield ["verify-axioms", "--cases", cases, "--seed", seed, "--format", FORMATS[int(cases) % 2]]


SWEEP = {
    "eval": (eval_cases, 484),
    "lln": (lln_cases, 242),
    "rate": (rate_cases, 121),
    "estimate": (estimate_cases, 121),
    "envelope": (envelope_cases, 121),
    "verify-axioms": (verify_axioms_cases, 9),
}


def violations(argv, code, out, err, caught):
    found = []
    if code not in (0, 2, 3):
        found.append(f"exit {code}")
    if code == 0 and err:
        found.append("stderr on success")
    if code != 0:
        if out:
            found.append("stdout on failure")
        try:
            assert err.endswith("\n") and err.count("\n") == 1
            assert json.loads(err)["error"]["code"] == code
        except (AssertionError, ValueError, KeyError, TypeError):
            found.append("not one JSON error line")
    if caught:
        found.append(f"warnings {[str(w.message) for w in caught]}")
    if NON_FINITE.search(out):
        found.append("non-finite number printed")
    return [f"{argv}: {v}" for v in found]


@pytest.mark.parametrize("command", sorted(SWEEP))
def test_every_call_keeps_the_contract(capsys, tmp_path, command):
    cases, count = SWEEP[command]
    argvs = list(cases(tmp_path))
    assert len(argvs) == count
    found, codes = [], set()
    for argv in argvs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        out, err = capsys.readouterr()
        found += violations(argv, code, out, err, caught)
        codes.add(code)
    assert found == []
    assert {0, 2} <= codes  # the sweep reaches both the results and the refusals


def test_the_sweep_covers_every_command():
    assert set(SWEEP) == set(cli._HANDLERS)
