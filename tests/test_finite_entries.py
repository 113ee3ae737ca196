"""Every container of floats applies one rule: each entry parses as a
finite float, and the first bad entry is named.

``DiscreteMeasure``, ``SampleSet`` and ``TimeSeries`` share it, and so do
``MaximalDist``'s endpoints and ``point_capacity``'s coordinates.  A measure
checks the shape of every atom first, then every point and weight, then
the weights' signs, then their sum.
"""

import math

import numpy as np
import pytest

import subexp
from subexp.envelope import DataError

DM, SS, TS = subexp.DiscreteMeasure, subexp.SampleSet, subexp.TimeSeries
BIG = 10**400  # an int too large for a float
HUGE = 10**5000  # an int with more digits than int-to-str conversion allows
HUGE_SHOWN = f"<int of {HUGE.bit_length()} bits>"
nan, inf = math.nan, math.inf
SUM = "weights must sum to 1 within 1e-12 (got {}); renormalise before constructing the measure"
PAIR = "atom 0 must be a (point, weight) pair, got "
NOT_IMPUTED = "; missing values are not imputed"


def _short(value):  # a test id that does not spell out BIG
    return value[:48] if isinstance(value, str) else None


def _raises(call, exc_type, message):
    with pytest.raises(exc_type) as info:
        call()
    assert type(info.value) is exc_type
    assert str(info.value) == message


# each message word for word as the containers worded it before they shared
# the rule, several faults in one input included
@pytest.mark.parametrize(
    "call, exc_type, message",
    [
        (lambda: DM([("x", 1.0)]), ValueError, "atom 0 point is not a real number: 'x'"),
        (lambda: DM([(0.0, "w")]), ValueError, "atom 0 weight is not a real number: 'w'"),
        (lambda: DM([(None, 1.0)]), ValueError, "atom 0 point is not a real number: None"),
        (lambda: DM([(0.0, None)]), ValueError, "atom 0 weight is not a real number: None"),
        (lambda: DM(["01"]), ValueError, PAIR + "'01'"),
        (lambda: DM([b"01"]), ValueError, PAIR + "b'01'"),
        (lambda: DM([{"p": 1, "w": 1}]), ValueError, PAIR + "{'p': 1, 'w': 1}"),
        (lambda: DM([{0: 1.0, 1: 0.0}]), ValueError, SUM.format(0.0)),  # indexed, not iterated
        (lambda: DM([(1.0, 0.5, 2.0)]), ValueError, PAIR + "(1.0, 0.5, 2.0)"),
        (lambda: DM([(1.0,)]), ValueError, PAIR + "(1.0,)"),
        (lambda: DM([5.0]), ValueError, PAIR + "5.0"),
        (lambda: DM([(nan, 1.0)]), ValueError, "atom 0 point must be finite, got nan"),
        (lambda: DM([(0.0, nan)]), ValueError, "atom 0 weight must be finite, got nan"),
        (lambda: DM([(inf, 1.0)]), ValueError, "atom 0 point must be finite, got inf"),
        (lambda: DM([(0.0, -inf)]), ValueError, "atom 0 weight must be finite, got -inf"),
        (lambda: DM([(np.float64("nan"), 1.0)]), ValueError, "atom 0 point must be finite, got nan"),
        (lambda: DM([(np.float64("inf"), 1.0)]), ValueError, "atom 0 point must be finite, got inf"),
        (lambda: DM([(BIG, 1.0)]), ValueError, f"atom 0 point must be finite, got {BIG}"),
        (lambda: DM([(0.0, 0.5), (1.0, -BIG)]), ValueError, f"atom 1 weight must be finite, got {-BIG}"),
        (lambda: DM([("nan", 1.0)]), ValueError, "atom 0 point must be finite, got nan"),
        (lambda: DM([("inf", 1.0)]), ValueError, "atom 0 point must be finite, got inf"),
        (lambda: DM([(0.0, False)]), ValueError, SUM.format(0.0)),
        (lambda: DM([(0.0, -0.5), (1.0, 1.5)]), ValueError, "atom 0 has negative weight -0.5"),
        (lambda: DM([(0.0, 0.5), (1.0, 0.25)]), ValueError, SUM.format(0.75)),
        (lambda: DM([]), ValueError, "a measure needs at least one atom"),
        (lambda: DM([("x", "y")]), ValueError, "atom 0 point is not a real number: 'x'"),
        (lambda: DM([(0.0, 0.5), ("y", nan)]), ValueError, "atom 1 point is not a real number: 'y'"),
        (lambda: DM([(0.0, 1.0), (1.0, [2.0])]), ValueError, "atom 1 weight is not a real number: [2.0]"),
        (lambda: DM.dirac(inf), ValueError, "atom 0 point must be finite, got inf"),
        (lambda: DM.uniform([]), ValueError, "uniform measure needs at least one point"),
        (lambda: SS(()), ValueError, "sample set must be nonempty"),
        (lambda: SS(("1", "abc")), ValueError, "observation 1 is not a number: 'abc'"),
        (lambda: SS((1.0, None)), ValueError, "observation 1 is not a number: None"),
        (lambda: SS((2.0, 1.0, [3.0])), ValueError, "observation 2 is not a number: [3.0]"),
        (lambda: SS((1.0, nan)), ValueError, "observation 1 is not finite: nan"),
        (lambda: SS((inf,)), ValueError, "observation 0 is not finite: inf"),
        (lambda: SS((1.0, BIG)), ValueError, f"observation 1 is not finite: {BIG}"),
        (lambda: SS(("nan",)), ValueError, "observation 0 is not finite: nan"),
        (lambda: SS((np.float64("nan"),)), ValueError, "observation 0 is not finite: nan"),
        (lambda: SS((np.float64("-inf"),)), ValueError, "observation 0 is not finite: -inf"),
        (lambda: SS(("x", inf)), ValueError, "observation 0 is not a number: 'x'"),
        (lambda: SS((inf, "x")), ValueError, "observation 0 is not finite: inf"),
        (lambda: TS(()), DataError, "time series must be nonempty"),
        (lambda: TS(("1", "abc")), DataError, "observation 1 is not a number: 'abc'"),
        (lambda: TS((1.0, None)), DataError, "observation 1 is not a number: None"),
        (lambda: TS((1.0, nan)), DataError, "observation 1 is not finite: nan" + NOT_IMPUTED),
        (lambda: TS((1.0, BIG)), DataError, f"observation 1 is not finite: {BIG}" + NOT_IMPUTED),
        (lambda: TS(("nan",)), DataError, "observation 0 is not finite: nan" + NOT_IMPUTED),
        (lambda: TS((np.float64("inf"),)), DataError, "observation 0 is not finite: inf" + NOT_IMPUTED),
        (lambda: TS(("x", inf)), DataError, "observation 0 is not a number: 'x'"),
        (lambda: TS((inf, "x")), DataError, "observation 0 is not finite: inf" + NOT_IMPUTED),
        (lambda: TS((1.0, nan), (0.0, 0.0)), DataError, "observation 1 is not finite: nan" + NOT_IMPUTED),
        (lambda: TS((1.0, 2.0), (0, BIG)), DataError, f"timestamp 1 is not a number: {BIG}"),
        (lambda: TS((1.0, 2.0), ("a", "b")), DataError, "timestamp 0 is not a number: 'a'"),
        (lambda: TS((1.0, 2.0), (0.0, nan)), DataError,
         "timestamps must be strictly increasing; entry 1 (nan) does not exceed entry 0 (0.0)"),
        (lambda: TS((1.0, 2.0), (nan, 0.0)), DataError,
         "timestamps must be strictly increasing; entry 1 (0.0) does not exceed entry 0 (nan)"),
        (lambda: TS((1.0, 2.0), (1.0, 0.0)), DataError,
         "timestamps must be strictly increasing; entry 1 (0.0) does not exceed entry 0 (1.0)"),
        (lambda: TS((1.0, 2.0), (0.0,)), DataError, "1 timestamps for 2 values"),
    ],
    ids=_short,
)
def test_a_bad_entry_keeps_its_message(call, exc_type, message):
    _raises(call, exc_type, message)


# repr of such an int raises ValueError; each container names the entry instead
@pytest.mark.parametrize(
    "call, exc_type, message",
    [
        (lambda: DM([(HUGE, 1.0)]), ValueError, f"atom 0 point must be finite, got {HUGE_SHOWN}"),
        (lambda: DM([(0.0, 0.5), (1.0, -HUGE)]), ValueError,
         f"atom 1 weight must be finite, got <negative int of {HUGE.bit_length()} bits>"),
        (lambda: SS([HUGE]), ValueError, f"observation 0 is not finite: {HUGE_SHOWN}"),
        (lambda: SS([[HUGE]]), ValueError, "observation 0 is not a number: <unprintable list>"),
        (lambda: TS((1.0, HUGE)), DataError, f"observation 1 is not finite: {HUGE_SHOWN}" + NOT_IMPUTED),
        (lambda: TS((1.0, 2.0), (0, HUGE)), DataError, f"timestamp 1 is not a number: {HUGE_SHOWN}"),
        (lambda: subexp.MaximalDist(0, HUGE), ValueError, f"interval endpoints must be finite, got [0, {HUGE_SHOWN}]"),
    ],
    ids=_short,
)
def test_an_int_too_long_to_print_is_named(call, exc_type, message):
    _raises(call, exc_type, message)


@pytest.mark.parametrize(
    "call, stored",
    [
        (lambda: DM([{0: 1.0, 1: 1.0}]).atoms, ((1.0, 1.0),)),
        (lambda: DM([(True, 1.0)]).atoms, ((1.0, 1.0),)),
        (lambda: DM([(np.float64(2.5), 0.5), ("3", 0.5)]).atoms, ((2.5, 0.5), (3.0, 0.5))),
        (lambda: SS((True, False, " 2 ")).values, (1.0, 0.0, 2.0)),
        (lambda: TS((np.float64(1.5), 2)).values, (1.5, 2.0)),
    ],
)
def test_entries_are_stored_as_floats(call, stored):
    assert repr(call()) == repr(stored)  # the repr of a bool or np.float64 differs


@pytest.mark.parametrize(
    "cls, exc_type, message",
    [(SS, ValueError, "observation 1 is not a number: 'x'"), (TS, DataError, "observation 1 is not a number: 'x'")],
)
def test_a_bad_entry_of_an_iterator_is_named(cls, exc_type, message):
    _raises(lambda: cls(iter(("1", "x"))), exc_type, message)
    assert cls(x for x in ("1", 2.5)).values == (1.0, 2.5)


@pytest.mark.parametrize(
    "atoms, message",
    [
        ([(0.0, -0.5), ("y", 1.5)], "atom 1 point is not a real number: 'y'"),
        ([(0.0, -0.5), (inf, 1.5)], "atom 1 point must be finite, got inf"),
        ([(0.0, -0.5), "bad"], "atom 1 must be a (point, weight) pair, got 'bad'"),
        ([("x", 1.0), "bad"], "atom 1 must be a (point, weight) pair, got 'bad'"),
    ],
)
def test_a_measure_names_the_shape_then_the_entries_then_the_signs(atoms, message):
    _raises(lambda: DM(atoms), ValueError, message)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DM.uniform(["x"]), "atom 0 point is not a real number: 'x'"),
        (lambda: DM.uniform([0.0, BIG]), f"atom 1 point must be finite, got {BIG}"),
        (lambda: DM.dirac("x"), "atom 0 point is not a real number: 'x'"),
        (lambda: DM.dirac(BIG), f"atom 0 point must be finite, got {BIG}"),
    ],
    ids=_short,
)
def test_uniform_and_dirac_name_a_bad_point(call, message):
    _raises(call, ValueError, message)


@pytest.mark.parametrize(
    "stamps, message",
    [
        ((0.0, inf), "timestamp 1 is not finite: inf"),
        ((-inf, 0.0), "timestamp 0 is not finite: -inf"),
        ((-inf, inf), "timestamp 0 is not finite: -inf"),
        ((inf,), "timestamp 0 is not finite: inf"),
        ((nan,), "timestamp 0 is not finite: nan"),
    ],
)
def test_an_infinite_timestamp_is_rejected(stamps, message):
    _raises(lambda: TS((1.0,) * len(stamps), stamps), DataError, message)


def test_an_iterator_of_timestamps_is_read_once():
    _raises(lambda: TS((1.0, 2.0), (x for x in (0.0, "a"))), DataError, "timestamp 1 is not a number: 'a'")
    assert TS((1.0, 2.0), (x for x in (0.0, "1"))).timestamps == (0.0, 1.0)


UNIT = subexp.MaximalDist(0.0, 1.0)
ENDS = "interval endpoints must be finite, got "
COORD = "coordinate {} of the point is not finite: "


# MaximalDist endpoints and point_capacity coordinates take the same rule:
# a bad endpoint is shown as the rule shows it, the other one as given
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: subexp.MaximalDist("x", 1.0), ENDS + "['x', 1.0]"),
        (lambda: subexp.MaximalDist(0.0, None), ENDS + "[0.0, None]"),
        (lambda: subexp.MaximalDist(1, inf), ENDS + "[1, inf]"),
        (lambda: subexp.MaximalDist(np.float64(-inf), 1.0), ENDS + "[-inf, 1.0]"),
        (lambda: subexp.MaximalDist("nan", 1.0), ENDS + "[nan, 1.0]"),
        (lambda: subexp.MaximalDist(nan, "x"), ENDS + "[nan, 'x']"),
        (lambda: subexp.MaximalDist(BIG, 0.0), ENDS + f"[{BIG}, 0.0]"),
        (lambda: subexp.MaximalDist.from_dict({"mu_lo": None, "mu_hi": 1}), ENDS + "[None, 1]"),
        (lambda: subexp.point_capacity(subexp.JointSpec((UNIT, UNIT)), (0.0, BIG), 4), COORD.format(1) + str(BIG)),
        (lambda: subexp.point_capacity(subexp.JointSpec((UNIT, UNIT)), ("x", 0.5), 4), COORD.format(0) + "'x'"),
        (lambda: subexp.point_capacity(subexp.JointSpec((UNIT, UNIT)), (0.5, [1.0]), 4), COORD.format(1) + "[1.0]"),
        (lambda: subexp.point_capacity(subexp.JointSpec((UNIT,)), (HUGE,), 4), COORD.format(0) + HUGE_SHOWN),
    ],
    ids=_short,
)
def test_an_endpoint_or_coordinate_that_is_not_a_finite_number_is_named(call, message):
    _raises(call, ValueError, message)


def test_endpoints_and_coordinates_are_stored_as_floats():
    d = subexp.MaximalDist(np.float64(-1.5), "2")
    assert repr((d.mu_lo, d.mu_hi)) == "(-1.5, 2.0)"
    j = subexp.JointSpec((d, d))
    assert subexp.point_capacity(j, ("0", np.float64(3.0)), 2) == subexp.point_capacity(j, (0.0, 3.0), 2)


VAR = "local variance {} must be finite and >= 0, got {}"


# variance_envelope takes the rule too: any entry that is not a finite
# number is named before the first negative one
@pytest.mark.parametrize(
    "sigmas, message",
    [
        ([1.0, "x"], "local variance 2 is not a number: 'x'"),
        ([None], "local variance 1 is not a number: None"),
        ([1.0, inf], VAR.format(2, "inf")),
        ([-0.5, nan], VAR.format(2, "nan")),
        ([-0.5, 2.0, -1.0], VAR.format(1, "-0.5")),
        ([0.5, BIG], VAR.format(2, BIG)),
        (iter([0.5, "2", -2]), VAR.format(3, "-2.0")),
    ],
    ids=_short,
)
def test_variance_envelope_names_the_first_bad_variance(sigmas, message):
    _raises(lambda: subexp.variance_envelope(sigmas), ValueError, message)


def test_variances_are_stored_as_floats():
    env = subexp.variance_envelope(iter(["0.5", 2, np.float64(-0.0)]))
    assert repr(env.per_window) == "((1, 0.5), (2, 2.0), (3, -0.0))"
    assert repr((env.sigma_lo_sq, env.sigma_hi_sq)) == "(-0.0, 2.0)"


class TestFiniteFloats:
    """The shared rule itself, ``subexp._finite_floats``."""

    @staticmethod
    def _named(values):
        calls = []

        def bad(i, shown, number):
            calls.append((i, shown, number))
            return LookupError(i)

        with pytest.raises(LookupError):
            subexp._finite_floats(values, bad)
        return calls

    def test_good_entries_come_back_as_a_tuple_of_floats(self):
        def bad(*args):
            raise AssertionError(args)

        got = subexp._finite_floats(["1.5", 2, np.float64(-3.0), True], bad)
        assert got == (1.5, 2.0, -3.0, 1.0) and type(got) is tuple
        assert {type(x) for x in got} == {float}

    @pytest.mark.parametrize(
        "values, call",
        [
            ([1.0, "x", nan], (1, "x", False)),
            ([1.0, None], (1, None, False)),
            ([nan, "x"], (0, nan, True)),
            ([2.0, np.float64("-inf")], (1, -inf, True)),
            ([0.0, BIG, "x"], (1, BIG, True)),
            ([0.0, HUGE, "x"], (1, subexp._Unprintable(HUGE), True)),
        ],
    )
    def test_only_the_first_bad_entry_is_named(self, values, call):
        (got,) = self._named(values)
        assert got[0] == call[0] and got[2] is call[2]
        assert repr(got[1]) == repr(call[1]) and type(got[1]) is type(call[1])
