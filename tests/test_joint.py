import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subexp import joint, maximal
from subexp.joint import (
    BoundedLipschitzFnN,
    JointSpec,
    asymmetry_probe,
    compose_independent,
    indicator_approx,
    point_capacity,
)
from subexp.axioms import random_family, random_fn
from subexp.maximal import GridSpec, MaximalDist, convolve_scaled, eval_maximal
from subexp.mle import unbiasedness_check
from subexp.scenarios import (
    BoundedLipschitzFn,
    DiscreteMeasure,
    EvaluationError,
    ScenarioFamily,
    sublinear_expect,
)

SUM2 = BoundedLipschitzFnN(lambda x, y: x + y, 2, 2.0, name="x+y")
PROD2 = BoundedLipschitzFnN(lambda x, y: x * y, 2, 2.0, name="x*y")


def nested_oracle(marginals, f, grid):
    """Independent evaluation by explicit recursion over plain python floats."""

    def level(i, prefix):
        if i == len(marginals):
            return float(f(*prefix))
        m = marginals[i]
        if isinstance(m, MaximalDist):
            return max(level(i + 1, prefix + (float(x),)) for x in grid.points(m))
        best = -math.inf
        for meas in m.measures:
            num, den = Fraction(0), Fraction(0)
            for p, w in meas.atoms:
                num += Fraction(w) * Fraction(level(i + 1, prefix + (p,)))
                den += Fraction(w)
            best = max(best, float(num / den))
        return best

    return level(0, ())


class TestComposeIndependent:
    def test_sum_over_two_unit_intervals(self):
        j = JointSpec((MaximalDist(0.0, 1.0), MaximalDist(0.0, 1.0)))
        res = compose_independent(j, SUM2, GridSpec(num=11))
        assert res.value == 2.0

    def test_single_marginal_reduces_to_interval_scan(self):
        d = MaximalDist(0.0, 1.0)
        f1 = BoundedLipschitzFnN(lambda x: x, 1, 1.0)
        res = compose_independent(JointSpec((d,)), f1, GridSpec(num=21))
        ref = eval_maximal(d, BoundedLipschitzFn(lambda x: x, 1.0), GridSpec(num=21))
        assert res.value == ref.value == 1.0
        assert res.error_bound == ref.error_bound

    def test_product_with_negative_interval(self):
        # sup over [0,1] x [-1,0] of x*y is 0 (either coordinate at 0)
        j = JointSpec((MaximalDist(0.0, 1.0), MaximalDist(-1.0, 0.0)))
        res = compose_independent(j, PROD2, GridSpec(num=11))
        assert res.value == 0.0
        oracle = nested_oracle(j.marginals, PROD2.fn, GridSpec(num=11))
        assert res.value == oracle

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            compose_independent(JointSpec((MaximalDist(0.0, 1.0),)), SUM2, GridSpec(num=5))

    def test_error_bound_accumulates_per_axis(self):
        d1, d2 = MaximalDist(0.0, 1.0), MaximalDist(-1.0, 2.0)
        g = GridSpec(num=7)
        res = compose_independent(JointSpec((d1, d2)), SUM2, g)
        want = SUM2.lipschitz * (g.spacing(d1) + g.spacing(d2)) / 2
        assert res.error_bound == pytest.approx(want, rel=1e-12)

    def test_family_marginals_are_exact_no_certificate(self):
        famA = ScenarioFamily((DiscreteMeasure.uniform([0.0, 1.0]), DiscreteMeasure.dirac(0.5)))
        famB = ScenarioFamily((DiscreteMeasure.dirac(-1.0), DiscreteMeasure.dirac(1.0)))
        res = compose_independent(JointSpec((famA, famB)), PROD2, GridSpec(num=5))
        assert res.error_bound == 0.0
        oracle = nested_oracle((famA, famB), PROD2.fn, GridSpec(num=5))
        assert res.value == pytest.approx(oracle, abs=1e-14)

    def test_mixed_marginals_match_nested_oracle(self):
        rng = np.random.default_rng(31)
        g = GridSpec(num=9)
        for _ in range(20):
            fam = ScenarioFamily(
                (
                    DiscreteMeasure.uniform(sorted(rng.uniform(-2, 2, size=3).tolist())),
                    DiscreteMeasure.dirac(float(rng.uniform(-2, 2))),
                )
            )
            d = MaximalDist(-1.0, float(rng.uniform(-0.5, 1.5)))
            w = float(rng.uniform(-2, 2))
            f = BoundedLipschitzFnN(
                lambda x, y, w=w: math.sin(w * x) + x * y, 2, abs(w) + 4.0
            )
            res = compose_independent(JointSpec((fam, d)), f, g)
            oracle = nested_oracle((fam, d), f.fn, g)
            assert res.value == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_three_fold_composition_against_oracle(self):
        j = JointSpec(
            (
                MaximalDist(0.0, 1.0),
                ScenarioFamily((DiscreteMeasure.uniform([-1.0, 1.0]), DiscreteMeasure.dirac(0.0))),
                MaximalDist(-1.0, 0.5),
            )
        )
        f = BoundedLipschitzFnN(lambda x, y, z: x * y + z * z - 0.3 * y, 3, 6.0)
        g = GridSpec(num=7)
        res = compose_independent(j, f, g)
        oracle = nested_oracle(j.marginals, f.fn, g)
        assert res.value == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_all_maximal_marginals_commute_on_grid_values(self):
        # with only interval marginals the reduction is a plain box maximum,
        # so marginal order cannot change the grid value
        f = BoundedLipschitzFnN(lambda x, y: math.sin(3 * x) * (y + 2), 2, 12.0)
        fr = BoundedLipschitzFnN(lambda y, x: f.fn(x, y), 2, 12.0)
        d1, d2 = MaximalDist(0.0, 1.0), MaximalDist(-1.0, 1.0)
        g = GridSpec(num=33)
        v12 = compose_independent(JointSpec((d1, d2)), f, g).value
        v21 = compose_independent(JointSpec((d2, d1)), fr, g).value
        assert v12 == v21

    def test_nonnegative_factorized_product_rule(self):
        # E[f1(X) f2(Y)] = E[f1] E[f2] for nonnegative factors, family case
        rng = np.random.default_rng(41)
        g = GridSpec(num=5)
        for _ in range(25):
            famA = ScenarioFamily(
                tuple(
                    DiscreteMeasure.uniform(rng.uniform(-2, 2, size=int(rng.integers(1, 4))).tolist())
                    for _ in range(int(rng.integers(1, 3)))
                )
            )
            famB = ScenarioFamily((DiscreteMeasure.uniform(rng.uniform(-2, 2, size=2).tolist()),))
            c1, c2 = float(rng.uniform(2.5, 4)), float(rng.uniform(2.5, 4))
            f1 = lambda x, c=c1: c + math.sin(x)
            f2 = lambda y, c=c2: c + math.cos(y)
            f = BoundedLipschitzFnN(lambda x, y: f1(x) * f2(y), 2, 10.0)
            lhs = compose_independent(JointSpec((famA, famB)), f, g).value
            rhs = sublinear_expect(famA, f1).value * sublinear_expect(famB, f2).value
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestExactFamilyMarginals:
    def test_family_only_equals_sublinear_expect(self):
        rng = np.random.default_rng(61)
        g = GridSpec(num=3)
        for _ in range(300):
            fam = random_family(rng)
            f = random_fn(rng)
            res = compose_independent(JointSpec((fam,)), BoundedLipschitzFnN(f.fn, 1, f.lipschitz), g)
            assert res.value == sublinear_expect(fam, f).value
            assert res.error_bound == 0.0

    @pytest.mark.parametrize("c", [3.0, 1e300, 5e-324, -7.25])
    def test_constant_is_preserved(self, c):
        rng = np.random.default_rng(62)
        f = BoundedLipschitzFnN(lambda x, y, z: c, 3, 0.0)
        for _ in range(40):
            j = JointSpec((random_family(rng), MaximalDist(-1.0, 1.0), random_family(rng)))
            assert compose_independent(j, f, GridSpec(num=3)).value == c

    def test_mixed_marginals_equal_nested_oracle(self):
        rng = np.random.default_rng(63)
        g = GridSpec(num=5)
        for _ in range(30):
            j = JointSpec((random_family(rng), MaximalDist(-1.0, float(rng.uniform(-0.5, 1.5))), random_family(rng)))
            w = float(rng.uniform(-2, 2))
            f = BoundedLipschitzFnN(lambda x, y, z, w=w: math.sin(w * x) + x * y - z * abs(z), 3, 50.0)
            assert compose_independent(j, f, g).value == nested_oracle(j.marginals, f.fn, g)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_on_family_axis_raises(self, bad):
        fam = ScenarioFamily((DiscreteMeasure.uniform([0.0, 1.0]), DiscreteMeasure.dirac(0.5)))
        f = BoundedLipschitzFnN(lambda x, y: np.where(x == 1.0, bad, x + y), 2, 1.0)
        with pytest.raises(EvaluationError, match="family marginal 0 at point 1.0"):
            compose_independent(JointSpec((fam, MaximalDist(0.0, 1.0))), f, GridSpec(num=5))


class TestNonFiniteValues:
    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_only_maximal_marginals_raise(self, bad, arity):
        # -inf at y > 0.5 would vanish in the max over y; it must raise anyway
        f = BoundedLipschitzFnN(lambda *xs: np.where(xs[-1] > 0.5, bad, sum(xs)), arity, float(arity))
        j = JointSpec((MaximalDist(0.0, 1.0),) * arity)
        point = (0.75,) if arity == 1 else (0.0, 0.75)
        with pytest.raises(EvaluationError, match=re.escape(f"at point {point!r}")) as info:
            compose_independent(j, f, GridSpec(num=5))
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_family_axis_message_is_the_same_in_one_cell_blocks(self, bad, monkeypatch):
        monkeypatch.setattr(joint, "_BLOCK_CELLS", 1)
        fam = ScenarioFamily((DiscreteMeasure.uniform([0.0, 1.0]), DiscreteMeasure.dirac(0.5)))
        f = BoundedLipschitzFnN(lambda x, y: np.where(x == 1.0, bad, x + y), 2, 1.0)
        with pytest.raises(EvaluationError, match="non-finite value on family marginal 0 at point 1.0"):
            compose_independent(JointSpec((fam, MaximalDist(0.0, 1.0))), f, GridSpec(num=5))


def _random_marginal(rng, family):
    if family:
        return random_family(rng, max_measures=2)
    lo = float(rng.uniform(-2, 1))
    return MaximalDist(lo, lo + float(rng.choice([0.0, rng.uniform(0.1, 2)])))


class TestBlockEvaluation:
    LAYOUTS = ["F", "M", "FM", "MF", "FMM", "MMF", "MFM", "FMMF", "MMMM", "MFMF"]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_any_block_size_gives_identical_results(self, layout, monkeypatch):
        rng = np.random.default_rng(71 + self.LAYOUTS.index(layout))
        n = len(layout)
        for _ in range(4):
            j = JointSpec(tuple(_random_marginal(rng, c == "F") for c in layout))
            w = rng.uniform(-1, 1, size=n)
            f = BoundedLipschitzFnN(
                lambda *xs, w=w: np.sin(sum(wi * x for wi, x in zip(w, xs))) + xs[0] * xs[-1], n, 30.0
            )
            g = GridSpec(num=int(rng.integers(2, 5)))
            want = compose_independent(j, f, g)
            assert want.value == nested_oracle(j.marginals, f.fn, g)
            for cells in (1, 2, 3, 7, 50):
                monkeypatch.setattr(joint, "_BLOCK_CELLS", cells)
                assert compose_independent(j, f, g) == want
            monkeypatch.undo()

    def test_max_of_five_peak_memory(self):
        # 15**5 cells: the whole tensor would take over 60 MB; blocks keep
        # the traced peak a few MB
        d = MaximalDist(-1.0, 1.0)
        f = BoundedLipschitzFnN(lambda *xs: np.maximum.reduce(list(xs)), 5, 1.0)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = compose_independent(JointSpec((d,) * 5), f, GridSpec(num=15))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert res.value == d.mu_hi
        assert peak < 16 * 2**20
        check = unbiasedness_check(d, 5, 15)
        assert check.upper_ok and check.lower_ok


class TestAsymmetryProbe:
    def test_sum_is_symmetric(self):
        dA = ScenarioFamily((DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0)))
        dB = ScenarioFamily((DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0)))
        probe = asymmetry_probe(dA, dB, SUM2, GridSpec(num=5))
        assert probe.ab == probe.ba == 2.0

    def test_known_asymmetric_pair(self):
        # with B a two-dirac family and A containing a symmetric measure,
        # x*y^2 sees the same value both ways here: 1.0 each
        dA = ScenarioFamily((DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0)))
        dB = ScenarioFamily((DiscreteMeasure.uniform([-1.0, 1.0]), DiscreteMeasure.dirac(0.0)))
        f = BoundedLipschitzFnN(lambda x, y: x * y * y, 2, 3.0)
        probe = asymmetry_probe(dA, dB, f, GridSpec(num=5))
        oracle_ab = nested_oracle((dA, dB), f.fn, GridSpec(num=5))
        oracle_ba = nested_oracle((dB, dA), lambda y, x: f.fn(x, y), GridSpec(num=5))
        assert probe.ab == pytest.approx(oracle_ab, abs=1e-14)
        assert probe.ba == pytest.approx(oracle_ba, abs=1e-14)
        assert probe.ab == pytest.approx(1.0, abs=1e-14)
        assert probe.ba == pytest.approx(1.0, abs=1e-14)

    def test_order_matters_for_mean_uncertain_outer(self):
        # x*y with A ambiguous in sign and B symmetric two-point: the inner
        # stage can adapt to the outer draw in one order but not the other
        dA = ScenarioFamily((DiscreteMeasure.uniform([-1.0, 1.0]),))
        dB = ScenarioFamily((DiscreteMeasure.dirac(-1.0), DiscreteMeasure.dirac(1.0)))
        probe = asymmetry_probe(dA, dB, PROD2, GridSpec(num=3))
        assert probe.ab == pytest.approx(
            nested_oracle((dA, dB), PROD2.fn, GridSpec(num=3)), abs=1e-14
        )
        assert probe.ba == pytest.approx(
            nested_oracle((dB, dA), lambda y, x: x * y, GridSpec(num=3)), abs=1e-14
        )
        assert probe.ab != probe.ba
        assert probe.ab == 1.0 and probe.ba == 0.0

    def test_single_measure_families_are_order_free(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            dA = ScenarioFamily((DiscreteMeasure.uniform(rng.uniform(-2, 2, size=3).tolist()),))
            dB = ScenarioFamily((DiscreteMeasure.uniform(rng.uniform(-2, 2, size=2).tolist()),))
            w = float(rng.uniform(-1.5, 1.5))
            f = BoundedLipschitzFnN(lambda x, y, w=w: x * y + w * math.cos(x - y), 2, 5.0)
            probe = asymmetry_probe(dA, dB, f, GridSpec(num=3))
            assert probe.ab == pytest.approx(probe.ba, rel=1e-12, abs=1e-12)

    def test_arity_validation(self):
        dA = ScenarioFamily((DiscreteMeasure.dirac(0.0),))
        f3 = BoundedLipschitzFnN(lambda x, y, z: x, 3, 1.0)
        with pytest.raises(ValueError):
            asymmetry_probe(dA, dA, f3, GridSpec(num=3))


class TestIndicatorApprox:
    def test_exactly_one_at_target(self):
        phi = indicator_approx(0.0, 5)
        assert phi(0.0) == 1.0

    def test_unit_distance_value(self):
        phi = indicator_approx(0.0, 5)
        assert phi(1.0) == 1.0 / 6.0

    def test_monotone_in_k(self):
        xs = np.linspace(-3, 3, 31)
        for x in xs:
            prev = math.inf
            for k in (1, 2, 5, 20, 100):
                v = indicator_approx(0.5, k)(float(x))
                assert v <= prev + 1e-15
                prev = v

    def test_declared_lipschitz_constant(self):
        phi = indicator_approx(0.25, 7)
        assert phi.lipschitz == 7.0
        assert phi.bound == 1.0

    @given(
        x=st.floats(min_value=-10, max_value=10),
        y=st.floats(min_value=-10, max_value=10),
        k=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=150, deadline=None)
    def test_slope_never_exceeds_k(self, x, y, k):
        phi = indicator_approx(1.5, k)
        assert abs(phi(x) - phi(y)) <= k * abs(x - y) * (1 + 1e-12) + 1e-15

    def test_k_validation(self):
        with pytest.raises(ValueError):
            indicator_approx(0.0, 0)


class TestPointCapacity:
    def test_point_inside_both_intervals(self):
        j = JointSpec((MaximalDist(0.0, 1.0), MaximalDist(0.0, 1.0)))
        res = point_capacity(j, (0.5, 1.0), k_max=10)
        assert res.value == 1.0
        assert all(t == 1.0 for t in res.trace)

    def test_point_outside(self):
        j = JointSpec((MaximalDist(0.0, 1.0),))
        res = point_capacity(j, (2.0,), k_max=10)
        assert res.value == 0.0

    def test_trace_values_unit_distance(self):
        # distance 1 from the interval: trace k = 1/(1+k)
        j = JointSpec((MaximalDist(0.0, 1.0),))
        res = point_capacity(j, (2.0,), k_max=4)
        assert res.trace == (0.5, 1.0 / 3.0, 0.25, 0.2)

    def test_trace_multiplies_over_coordinates(self):
        j = JointSpec((MaximalDist(0.0, 1.0), MaximalDist(0.0, 1.0)))
        res = point_capacity(j, (2.0, -0.5), k_max=3)
        want = tuple((1 / (1 + k * 1.0)) * (1 / (1 + k * 0.5)) for k in (1, 2, 3))
        assert res.trace == pytest.approx(want, rel=1e-15)

    def test_trace_is_monotone_and_converges(self):
        j = JointSpec((MaximalDist(-1.0, 1.0), MaximalDist(0.0, 2.0)))
        res = point_capacity(j, (1.5, 2.25), k_max=200)
        arr = np.asarray(res.trace)
        assert np.all(np.diff(arr) <= 1e-15)
        assert arr[-1] < 0.05
        assert res.value == 0.0

    def test_family_marginal_rejected(self):
        fam = ScenarioFamily((DiscreteMeasure.dirac(0.0),))
        with pytest.raises(TypeError):
            point_capacity(JointSpec((fam,)), (0.0,), k_max=5)

    def test_dimension_mismatch(self):
        j = JointSpec((MaximalDist(0.0, 1.0),))
        with pytest.raises(ValueError):
            point_capacity(j, (0.0, 1.0), k_max=5)

    def test_k_max_validation(self):
        j = JointSpec((MaximalDist(0.0, 1.0),))
        with pytest.raises(ValueError):
            point_capacity(j, (0.0,), k_max=0)


class TestJointSpec:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JointSpec(())

    def test_rejects_wrong_types(self):
        with pytest.raises(TypeError):
            JointSpec((3.0,))


class TestPointCapacityCoordinates:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_is_rejected(self, bad):
        j = JointSpec((MaximalDist(0.0, 1.0), MaximalDist(0.0, 1.0)))
        with pytest.raises(ValueError, match=re.escape(f"coordinate 1 of the point is not finite: {bad!r}")):
            point_capacity(j, (0.5, bad), k_max=3)


class TestRunsOfGridAxes:
    LAYOUTS = ["MMFMM", "FMMMF"]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_runs_split_by_a_family_axis_match_the_oracle_at_any_block_size(self, layout, monkeypatch):
        rng = np.random.default_rng(91 + self.LAYOUTS.index(layout))
        n = len(layout)
        for _ in range(3):
            j = JointSpec(tuple(_random_marginal(rng, c == "F") for c in layout))
            w = rng.uniform(-1, 1, size=n)
            f = BoundedLipschitzFnN(
                lambda *xs, w=w: np.sin(sum(wi * x for wi, x in zip(w, xs))) + xs[1] * xs[-2], n, 30.0
            )
            g = GridSpec(num=int(rng.integers(2, 4)))
            want = nested_oracle(j.marginals, f.fn, g)
            for cells in (1, 2, 3, 7, 50, joint._BLOCK_CELLS):
                monkeypatch.setattr(joint, "_BLOCK_CELLS", cells)
                assert compose_independent(j, f, g).value == want
            monkeypatch.undo()

    @pytest.mark.parametrize("cells", [7, joint._BLOCK_CELLS])
    @pytest.mark.parametrize("shift", [0.0, 1.0])
    @pytest.mark.parametrize("last_first", [False, True])
    def test_a_function_writing_into_its_arguments(self, shift, last_first, cells, monkeypatch):
        # the coordinates of the trailing axes are shared by every block, so a
        # write into them must not reach the next block, and a write into one
        # argument must not happen before a write into another fails
        monkeypatch.setattr(joint, "_BLOCK_CELLS", cells)

        def writes(x, y):
            if last_first:
                y += shift
            x += shift
            if not last_first:
                y += shift
            return x + y

        fam = ScenarioFamily((DiscreteMeasure.uniform([0.0, 0.5, 1.0]), DiscreteMeasure.dirac(-1.0)))
        d = MaximalDist(-1.0, 2.0)
        for marginals in ((d, d), (fam, d), (d, fam)):
            j = JointSpec(marginals)
            pure = BoundedLipschitzFnN(lambda x, y: (x + shift) + (y + shift), 2, 2.0)
            got = compose_independent(j, BoundedLipschitzFnN(writes, 2, 2.0), GridSpec(num=7))
            assert got == compose_independent(j, pure, GridSpec(num=7))


class TestCellBudget:
    def test_cell_limit_is_checked_before_calling_f(self, monkeypatch):
        monkeypatch.setattr(maximal, "_MAX_CELLS", 100)
        calls = []

        def f(*xs):
            calls.append(xs)
            return sum(xs)

        d = MaximalDist(0.0, 1.0)
        fam = ScenarioFamily((DiscreteMeasure.uniform([0.0, 0.5, 1.0]), DiscreteMeasure.dirac(0.25)))
        assert compose_independent(JointSpec((d, d)), BoundedLipschitzFnN(f, 2, 1.0), GridSpec(num=10)).value == 2.0
        assert calls
        calls.clear()
        for marginals, grid, text in (
            ((d, d), GridSpec(num=11), "a composition of 2 marginals needs 121 grid cells with num=11"),
            ((d, fam, d), GridSpec(step=0.2), "a composition of 3 marginals needs 144 grid cells with step=0.2"),
        ):
            with pytest.raises(ValueError, match=re.escape(f"{text}, over the limit of 100")):
                compose_independent(JointSpec(marginals), BoundedLipschitzFnN(f, len(marginals), 1.0), grid)
        assert calls == []

    def test_an_oversized_composition_fails_fast(self):
        # arity 8 on 21 nodes is 3.8e10 cells, about 16 minutes of evaluation
        f = BoundedLipschitzFnN(lambda *xs: sum(xs), 8, 1.0)
        with pytest.raises(ValueError, match=f"needs {21**8} grid cells with num=21, over the limit of {2**30}"):
            compose_independent(JointSpec((MaximalDist(0.0, 1.0),) * 8), f, GridSpec(num=21))


class TestOneGridWalker:
    # compose_independent on (d, d) and convolve_scaled scan the same product
    # grid, so for f(x, y) = g(a*x + b*y) they see the same values in the same order
    D = MaximalDist(-1.0, 2.0)
    G = {
        "smooth": lambda z: np.sin(3.0 * z) - 0.1 * z * z,
        "tie": lambda z: -np.abs(z - 0.5),
        "scalar": lambda z: math.cos(float(z)),
        "non_finite": lambda z: np.where(z > 1.2, np.nan, z),
    }

    @pytest.mark.parametrize("case", list(G))
    @pytest.mark.parametrize("cells", [1, 3, 7, maximal._BLOCK_CELLS])
    @pytest.mark.parametrize("a, b, grid", [(1.0, 1.0, GridSpec(num=13)), (0.5, 2.0, GridSpec(step=0.07))])
    def test_compose_and_convolve_agree_at_any_block_size(self, case, cells, a, b, grid, monkeypatch):
        monkeypatch.setattr(joint, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(maximal, "_BLOCK_CELLS", cells)
        g = self.G[case]
        fn2 = BoundedLipschitzFnN(lambda x, y: g(a * x + b * y), 2, 4.0 * max(a, b))
        fn1 = BoundedLipschitzFn(g, 4.0)

        def both():
            out = []
            for run in (lambda: compose_independent(JointSpec((self.D, self.D)), fn2, grid).value,
                        lambda: convolve_scaled(self.D, a, b, fn1, grid).value):
                try:
                    out.append(run())
                except EvaluationError as exc:
                    out.append(str(exc))
            return out

        composed, convolved = both()
        assert composed == convolved
        if case == "non_finite":
            assert composed.startswith("non-finite value nan at point (")


class TestOneCellGrid:
    def test_compose_on_a_step_wider_than_the_interval(self):
        f = BoundedLipschitzFnN(lambda x, y: x + y, 2, 1.0)
        j = JointSpec((MaximalDist(0.0, 1.0), MaximalDist(-1.0, 2.0)))
        res = compose_independent(j, f, GridSpec(step=math.inf))
        assert res.value == 3.0


class TestProductScansIgnoreRefine:
    """Only ``eval_maximal`` reads ``GridSpec.refine``; the product-grid scans
    return the plain grid result and certificate."""

    D = MaximalDist(0.0, 1.0)

    def test_compose_independent(self):
        f = BoundedLipschitzFnN(lambda x, y: np.sin(7 * x) * y, 2, 8.0)
        j = JointSpec((self.D, self.D))
        assert compose_independent(j, f, GridSpec(num=11, refine=True)) == compose_independent(j, f, GridSpec(num=11))

    def test_convolve_scaled(self):
        f = BoundedLipschitzFn(lambda x: np.sin(7 * x), 7.0, 1.0)
        refined = convolve_scaled(self.D, 1.0, 0.5, f, GridSpec(num=11, refine=True))
        assert refined == convolve_scaled(self.D, 1.0, 0.5, f, GridSpec(num=11))
        assert eval_maximal(self.D, f, GridSpec(num=11, refine=True)) != eval_maximal(self.D, f, GridSpec(num=11))


class TestDeclaredConstants:
    """BoundedLipschitzFnN checks its constants as BoundedLipschitzFn does."""

    @pytest.mark.parametrize(
        "lipschitz, bound, message",
        [
            (1.0, -1.0, "bound must be >= 0 (or inf), got -1.0"),
            (1.0, math.nan, "bound must be >= 0 (or inf), got nan"),
            (-1.0, 1.0, "lipschitz constant must be finite and >= 0, got -1.0"),
            (math.inf, 1.0, "lipschitz constant must be finite and >= 0, got inf"),
        ],
    )
    def test_same_rule_and_message(self, lipschitz, bound, message):
        for make in (lambda: BoundedLipschitzFn(abs, lipschitz, bound), lambda: BoundedLipschitzFnN(max, 2, lipschitz, bound)):
            with pytest.raises(ValueError, match=re.escape(message)):
                make()
