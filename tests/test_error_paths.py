"""Each library error path raises its exception type with its message."""

import numpy as np
import pytest

import subexp
from subexp.envelope import ColumnSpec, DataError, ingest_csv


def _raises(call, exc_type, message):
    with pytest.raises(exc_type) as info:
        call()
    assert type(info.value) is exc_type
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, exc_type, message",
    [
        (lambda: subexp.DiscreteMeasure([("x", 1.0)]), ValueError, "atom 0 point is not a real number: 'x'"),
        (lambda: subexp.DiscreteMeasure([(1.0, 0.5, 2.0)]), ValueError,
         "atom 0 must be a (point, weight) pair, got (1.0, 0.5, 2.0)"),
        (lambda: subexp.DiscreteMeasure.uniform([]), ValueError, "uniform measure needs at least one point"),
        (lambda: subexp.DiscreteMeasure.from_dict({"atoms": 3}), ValueError, "'atoms' must be an array, got 3"),
        (lambda: subexp.ScenarioFamily.from_list({"atoms": []}), ValueError,
         "a family must be a JSON array of measures, got {'atoms': []}"),
        (lambda: subexp.MaximalDist.from_dict({"mu_lo": 0.0}), ValueError,
         'expected {"mu_lo": ..., "mu_hi": ...}, got {\'mu_lo\': 0.0}'),
        (lambda: subexp.MeanPolicy.periodic([]), ValueError, "periodic policy needs at least one mean"),
        (lambda: subexp.MeanPolicy.random_choice([]), ValueError, "random policy needs at least one mean"),
        (lambda: subexp.log_schedule(0), ValueError, "n_max must be >= 1, got 0"),
        (lambda: subexp.solve_minimax_oracle(subexp.SampleSet((1.0, 2.0)), []), ValueError,
         "candidate grid must be nonempty"),
        (lambda: subexp.run_axiom_suite(cases=0), ValueError, "cases must be >= 1, got 0"),
        (lambda: subexp.BoundedLipschitzFnN(lambda x: x, 0, 1.0), ValueError, "arity must be >= 1, got 0"),
        (lambda: subexp.ScenarioFamily(()), ValueError, "a scenario family must contain at least one measure"),
        (lambda: subexp.asymmetry_probe(subexp.MaximalDist(0.0, 1.0), subexp.MaximalDist(0.0, 1.0),
                                        subexp.BoundedLipschitzFnN(lambda x, y, z: x, 3, 1.0), subexp.GridSpec(num=3)),
         ValueError, "asymmetry probe needs a binary function, got arity 3"),
        (lambda: subexp.unbiasedness_check(subexp.MaximalDist(0.0, 1.0), 0, 3), ValueError, "n must be >= 1, got 0"),
        (lambda: subexp.variance_envelope([]), ValueError, "need at least one local variance"),
        (lambda: subexp.dirac_family(subexp.MaximalDist(1.0, 1.0), 0), ValueError, "n_atoms must be >= 1, got 0"),
        (lambda: subexp.dirac_family(subexp.MaximalDist(0.0, 1.0), 1), ValueError,
         "n_atoms must be >= 2 on a nondegenerate interval"),
        (lambda: subexp.SimConfig(n=1, reps=1, seed=-1), ValueError, "seed must be >= 0, got -1"),
        (lambda: subexp.run_axiom_suite(cases=1, seed=-1), ValueError, "seed must be >= 0, got -1"),
        (lambda: subexp.NoiseSpec("none", 5.0), ValueError, "none noise takes no half-width, got 5.0"),
        (lambda: subexp.NoiseSpec("none", -1.0), ValueError, "none noise takes no half-width, got -1.0"),
    ],
)
def test_rejected_arguments(call, exc_type, message):
    _raises(call, exc_type, message)


@pytest.mark.parametrize("k", [2.5, 0.5, float("inf"), float("nan")])
def test_indicator_k_must_be_a_positive_integer(k):
    _raises(lambda: subexp.indicator_approx(0.0, k), ValueError, f"k must be an integer, got {k!r}")


@pytest.mark.parametrize("k", [3, 3.0, np.int64(3)])
def test_indicator_k_may_be_any_whole_number(k):
    phi = subexp.indicator_approx(0.0, k)
    assert phi.lipschitz == 3.0 and phi.name == "indicator_approx(x*=0.0, k=3)"


@pytest.mark.parametrize(
    "values, message",
    [
        (("1", "abc"), "observation 1 is not a number: 'abc'"),
        ((1.0, None), "observation 1 is not a number: None"),
        ((2.0, 1.0, [3.0]), "observation 2 is not a number: [3.0]"),
    ],
)
@pytest.mark.parametrize("cls, exc_type", [(subexp.TimeSeries, DataError), (subexp.SampleSet, ValueError)])
def test_a_non_numeric_observation_is_named(cls, exc_type, values, message):
    _raises(lambda: cls(values), exc_type, message)


@pytest.mark.parametrize(
    "text, spec, message",
    [
        ("", ColumnSpec(header=True), "{} is empty, expected a header row"),
        ("", ColumnSpec(value="r"), "{} is empty, expected a header row"),
        ("t,r\n", ColumnSpec(value="r"), "{} contains no data rows"),
        ("", ColumnSpec(header=False), "{} contains no data rows"),
    ],
)
def test_a_csv_without_data(tmp_path, text, spec, message):
    path = tmp_path / "series.csv"
    path.write_text(text)
    _raises(lambda: ingest_csv(str(path), spec), DataError, message.format(path))



BIG = 10**400  # an int too large for a float


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: subexp.DiscreteMeasure((5.0,)), "atom 0 must be a (point, weight) pair, got 5.0"),
        (lambda: subexp.DiscreteMeasure(("01",)), "atom 0 must be a (point, weight) pair, got '01'"),
        (lambda: subexp.DiscreteMeasure(({"p": 1, "w": 1},)), "atom 0 must be a (point, weight) pair, got {'p': 1, 'w': 1}"),
        (lambda: subexp.DiscreteMeasure.from_dict({"atoms": [[0.0, 1.0], [1.0]]}),
         "atom 1 must be a (point, weight) pair, got [1.0]"),
        (lambda: subexp.DiscreteMeasure.from_dict({"atoms": [[1.0, 1.0, 3]]}),
         "atom 0 must be a (point, weight) pair, got [1.0, 1.0, 3]"),
    ],
)
def test_a_malformed_atom_is_named(call, message):
    _raises(call, ValueError, message)


@pytest.mark.parametrize(
    "call, exc_type, message",
    [
        (lambda: subexp.DiscreteMeasure([(BIG, 1.0)]), ValueError, f"atom 0 point must be finite, got {BIG}"),
        (lambda: subexp.DiscreteMeasure([(0.0, 0.5), (1.0, -BIG)]), ValueError,
         f"atom 1 weight must be finite, got {-BIG}"),
        (lambda: subexp.SampleSet((1.0, BIG)), ValueError, f"observation 1 is not finite: {BIG}"),
        (lambda: subexp.TimeSeries((1.0, BIG)), DataError,
         f"observation 1 is not finite: {BIG}; missing values are not imputed"),
        (lambda: subexp.TimeSeries((1.0, 2.0), (0, BIG)), DataError, f"timestamp 1 is not finite: {BIG}"),
        (lambda: subexp.MaximalDist(0, BIG), ValueError, f"interval endpoints must be finite, got [0, {BIG}]"),
        (lambda: subexp.MaximalDist(-BIG, 0.0), ValueError, f"interval endpoints must be finite, got [{-BIG}, 0.0]"),
    ],
)
def test_an_int_too_large_for_a_float(call, exc_type, message):
    _raises(call, exc_type, message)


@pytest.mark.parametrize(
    "stamps, message",
    [
        (("a", "b"), "timestamp 0 is not a number: 'a'"),
        ((None, 1.0), "timestamp 0 is not a number: None"),
        ((0.0, [1.0]), "timestamp 1 is not a number: [1.0]"),
    ],
)
def test_a_non_numeric_timestamp_is_named(stamps, message):
    _raises(lambda: subexp.TimeSeries((1.0, 2.0), stamps), DataError, message)
