"""Every count, seed and column index takes one rule, ``subexp._integer``.

An int, a numpy integer or a float with no fractional part is accepted and
stored as a Python int; a bool, a fractional or non-finite float, a string
and None are rejected with ``{what} must be an integer, got ...``, and a
value below the least allowed keeps ``{what} must be >= {least}, got ...``.
"""

import json
import math

import numpy as np
import pytest

import subexp

UNIT = subexp.MaximalDist(0.0, 1.0)
SQUARE = subexp.BoundedLipschitzFn(lambda x: x * x, 2.0, name="square")


def _rate(cfg, schedule):
    return subexp.rate_check(UNIT, [subexp.MeanPolicy.constant(0.5)], subexp.NoiseSpec.uniform(0.1), cfg, schedule)


# name -> (what, least, a call with the value); each call returns the count as
# it was stored or used, except unbiasedness_check's, which keeps no count
ENTRY_POINTS = {
    "GridSpec.num": ("num", 1, lambda v: subexp.GridSpec(num=v).num),
    "dirac_family.n_atoms": ("n_atoms", 1, lambda v: len(subexp.dirac_family(UNIT, v))),
    "SimConfig.n": ("n", 1, lambda v: subexp.SimConfig(n=v, reps=1, seed=0).n),
    "SimConfig.reps": ("reps", 1, lambda v: subexp.SimConfig(n=1, reps=v, seed=0).reps),
    "SimConfig.seed": ("seed", 0, lambda v: subexp.SimConfig(n=1, reps=1, seed=v).seed),
    "log_schedule.n_max": ("n_max", 1, lambda v: subexp.log_schedule(v)[-1]),
    "n_schedule entry": ("n_schedule entry", 1, lambda v: _rate(subexp.SimConfig(n=5, reps=2, seed=0), [v]).rows[0].n),
    "EnvelopeConfig.window": ("window length", 2, lambda v: subexp.EnvelopeConfig(window=v, num_windows=1).window),
    "EnvelopeConfig.num_windows": (
        "num_windows", 1, lambda v: subexp.EnvelopeConfig(window=2, num_windows=v).num_windows,
    ),
    "ColumnSpec.value": ("value column index", 0, lambda v: subexp.ColumnSpec(value=v).value),
    "ColumnSpec.timestamp": ("timestamp column index", 0, lambda v: subexp.ColumnSpec(timestamp=v).timestamp),
    "run_axiom_suite.cases": ("cases", 1, lambda v: subexp.run_axiom_suite(cases=v, seed=0).cases),
    "run_axiom_suite.seed": ("seed", 0, lambda v: subexp.run_axiom_suite(cases=1, seed=v).seed),
    "BoundedLipschitzFnN.arity": ("arity", 1, lambda v: subexp.BoundedLipschitzFnN(lambda *x: x[0], v, 1.0).arity),
    "indicator_approx.k": ("k", 1, lambda v: int(subexp.indicator_approx(0.0, v).lipschitz)),
    "point_capacity.k_max": (
        "k_max", 1, lambda v: len(subexp.point_capacity(subexp.JointSpec((UNIT,)), (0.5,), v).trace),
    ),
    "unbiasedness_check.n": ("n", 1, lambda v: subexp.unbiasedness_check(UNIT, v, 3)),
}
# values with another meaning there: a string is a column name, a timestamp
# column of None means none, and a num of None means the grid takes a step
NOT_COUNTS = {"ColumnSpec.value": ("3",), "ColumnSpec.timestamp": ("3", None), "GridSpec.num": (None,)}
BAD = [2.5, True, math.inf, math.nan, "3", None]


@pytest.mark.parametrize(
    "entry, bad",
    [(e, bad) for e in ENTRY_POINTS for bad in BAD if bad not in NOT_COUNTS.get(e, ())],
    ids=lambda v: v if isinstance(v, str) and v in ENTRY_POINTS else repr(v),
)
def test_a_value_that_is_not_an_integer_is_rejected(entry, bad):
    what, _least, call = ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == f"{what} must be an integer, got {bad!r}"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_value_below_the_least_keeps_its_message(entry):
    what, least, call = ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as info:
        call(least - 1)
    assert str(info.value) == f"{what} must be >= {least}, got {least - 1}"


@pytest.mark.parametrize("entry", [e for e in ENTRY_POINTS if e != "unbiasedness_check.n"])
@pytest.mark.parametrize("value", [3.0, np.int64(3)], ids=repr)
def test_a_whole_float_or_numpy_integer_is_stored_as_an_int(entry, value):
    got = ENTRY_POINTS[entry][2](value)
    assert type(got) is int and got == 3


@pytest.mark.parametrize("value", [3.0, np.int64(3)], ids=repr)
def test_unbiasedness_check_takes_a_whole_float_or_numpy_integer(value):
    assert subexp.unbiasedness_check(UNIT, value, 3) == subexp.unbiasedness_check(UNIT, 3, 3)


def test_a_fractional_node_count_builds_no_grid():
    with pytest.raises(ValueError, match=r"^num must be an integer, got 2\.5$"):
        subexp.GridSpec(num=2.5)


def test_a_whole_float_node_count_scans_the_same_grid():
    assert subexp.eval_maximal(UNIT, SQUARE, subexp.GridSpec(num=3.0)) == subexp.eval_maximal(
        UNIT, SQUARE, subexp.GridSpec(num=3)
    )


def test_a_numpy_node_count_gives_a_python_float_bound():
    assert type(subexp.eval_maximal(UNIT, SQUARE, subexp.GridSpec(num=np.int64(5))).error_bound) is float


def test_numpy_seeds_and_schedule_entries_serialise():
    report = _rate(subexp.SimConfig(n=10, reps=2, seed=np.int64(3)), [np.int64(10)])
    obj = json.loads(json.dumps(report.to_json_obj()))
    assert obj["seed"] == 3 and [row["n"] for row in obj["rows"]] == [10]


def test_an_int_too_long_to_print_is_shown_by_its_size():
    huge = -(10**5000)
    with pytest.raises(ValueError) as info:
        subexp.SimConfig(n=1, reps=1, seed=huge)
    assert str(info.value) == f"seed must be >= 0, got <negative int of {huge.bit_length()} bits>"
