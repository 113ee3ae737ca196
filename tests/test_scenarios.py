import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subexp.axioms import random_family, random_fn, run_axiom_suite
from subexp.scenarios import (
    BoundedLipschitzFn,
    DiscreteMeasure,
    EvaluationError,
    ScenarioFamily,
    _expectations,
    capacity,
    expect_linear,
    sublinear_expect,
)


def loop_expectation(measure, f):
    # independent oracle: plain accumulation over atoms
    return math.fsum(w * f(p) for p, w in measure.atoms)


class TestDiscreteMeasure:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(())

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative weight"):
            DiscreteMeasure(((0.0, -0.1), (1.0, 1.1)))

    def test_rejects_bad_total_instead_of_renormalising(self):
        with pytest.raises(ValueError, match="renormalise"):
            DiscreteMeasure(((0.0, 0.4), (1.0, 0.4)))

    def test_accepts_total_within_tolerance(self):
        m = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5 + 5e-13)))
        assert len(m.atoms) == 2

    def test_rejects_total_outside_tolerance(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(((0.0, 0.5), (1.0, 0.5 + 5e-12)))

    def test_rejects_non_finite_point(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(((math.inf, 1.0),))
        with pytest.raises(ValueError):
            DiscreteMeasure(((math.nan, 1.0),))

    def test_duplicate_points_merge_on_query(self):
        m = DiscreteMeasure(((1.0, 0.25), (1.0, 0.25), (0.0, 0.5)))
        assert m.merged_atoms() == ((0.0, 0.5), (1.0, 0.5))
        assert m.support() == (0.0, 1.0)
        assert expect_linear(m, lambda x: x) == 0.5

    def test_json_roundtrip(self):
        m = DiscreteMeasure(((-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)))
        assert DiscreteMeasure.from_dict(m.to_dict()) == m
        with pytest.raises(ValueError):
            DiscreteMeasure.from_dict({"weights": [1.0]})


class TestScenarioFamily:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ScenarioFamily(())

    def test_rejects_non_measures(self):
        with pytest.raises(TypeError):
            ScenarioFamily((1.0,))

    def test_support_union(self):
        fam = ScenarioFamily((DiscreteMeasure.dirac(2.0), DiscreteMeasure.uniform([0.0, 1.0])))
        assert fam.support() == (0.0, 1.0, 2.0)

    def test_list_roundtrip(self):
        fam = ScenarioFamily((DiscreteMeasure.dirac(0.0), DiscreteMeasure.uniform([0.0, 2.0])))
        assert ScenarioFamily.from_list(fam.to_list()) == fam


class TestExpectLinear:
    def test_dirac_at_zero(self):
        assert expect_linear(DiscreteMeasure.dirac(0.0), lambda x: x) == 0.0

    def test_two_point_mean(self):
        m = DiscreteMeasure(((1.0, 0.5), (3.0, 0.5)))
        assert expect_linear(m, lambda x: x) == 2.0

    def test_three_atom_square(self):
        # 0.25*1 + 0.5*0 + 0.25*4 = 1.25, cross-checked by the loop oracle
        m = DiscreteMeasure(((-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)))
        val = expect_linear(m, lambda x: x * x)
        assert val == 1.25
        assert val == loop_expectation(m, lambda x: x * x)

    def test_matches_loop_oracle_on_random_measures(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            fam = random_family(rng)
            f = random_fn(rng)
            for m in fam.measures:
                got = expect_linear(m, f)
                want = loop_expectation(m, f)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_non_finite_value_identifies_atom(self):
        m = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5)))
        with pytest.raises(EvaluationError, match="atom 1"):
            expect_linear(m, lambda x: math.inf if x == 1.0 else x)

    def test_raising_fn_identifies_atom(self):
        m = DiscreteMeasure(((0.0, 0.5), (4.0, 0.5)))
        with pytest.raises(EvaluationError, match="atom 0"):
            expect_linear(m, lambda x: 1.0 / x)


class TestSublinearExpect:
    def test_single_dirac(self):
        fam = ScenarioFamily((DiscreteMeasure.dirac(0.0),))
        res = sublinear_expect(fam, lambda x: x)
        assert res.value == 0.0
        assert res.argmax_index == 0

    def test_two_diracs_square(self):
        fam = ScenarioFamily((DiscreteMeasure.dirac(-1.0), DiscreteMeasure.dirac(2.0)))
        res = sublinear_expect(fam, lambda x: x * x)
        assert res.value == 4.0
        assert res.argmax_index == 1

    def test_uniform_vs_dirac(self):
        fam = ScenarioFamily((DiscreteMeasure.uniform([0.0, 2.0]), DiscreteMeasure.dirac(1.0)))
        res = sublinear_expect(fam, lambda x: abs(x - 1.0))
        assert res.value == 1.0
        assert res.argmax_index == 0

    def test_tie_goes_to_lowest_index(self):
        m = DiscreteMeasure.uniform([0.0, 1.0])
        fam = ScenarioFamily((m, m, DiscreteMeasure.dirac(0.5)))
        assert sublinear_expect(fam, lambda x: x).argmax_index == 0


class TestCapacity:
    def test_dirac_hit(self):
        fam = ScenarioFamily((DiscreteMeasure.dirac(0.0),))
        assert capacity(fam, lambda p: p == 0.0) == 1.0

    def test_sup_over_two_diracs(self):
        fam = ScenarioFamily((DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0)))
        assert capacity(fam, lambda p: p == 1.0) == 1.0

    def test_uniform_half(self):
        fam = ScenarioFamily((DiscreteMeasure.uniform([0.0, 1.0, 2.0, 3.0]),))
        assert capacity(fam, lambda p: p <= 1.0) == 0.5

    def test_predicate_failure_propagates(self):
        fam = ScenarioFamily((DiscreteMeasure.dirac(0.0),))
        with pytest.raises(ZeroDivisionError):
            capacity(fam, lambda p: 1 / 0 > 0)

    def test_limit_of_indicator_approximations(self):
        # capacity of a point event is the k -> inf limit of the worst-case
        # expectation of 1/(1+k|x-x*|); on a finite support the residual is
        # bounded by 1/(1+k*gap) with gap the smallest nonzero distance
        fam = ScenarioFamily(
            (DiscreteMeasure(((0.0, 0.5), (1.0, 0.5))), DiscreteMeasure.uniform([1.0, 2.0, 3.0]))
        )
        x_star = 1.0
        cap = capacity(fam, lambda p: p == x_star)
        gap = min(abs(p - x_star) for p in fam.support() if p != x_star)
        prev = math.inf
        for k in (1, 10, 100, 10_000, 1_000_000):
            approx = sublinear_expect(fam, lambda x: 1.0 / (1.0 + k * abs(x - x_star))).value
            assert approx <= prev + 1e-15
            assert approx >= cap - 1e-15
            prev = approx
        assert abs(prev - cap) <= 1.0 / (1.0 + 1_000_000 * gap)


class TestExactKernel:
    @staticmethod
    def fraction_mean(measure, values):
        num = sum((Fraction(w) * Fraction(v) for (_, w), v in zip(measure.atoms, values)), Fraction(0))
        return float(num / sum((Fraction(w) for _, w in measure.atoms), Fraction(0)))

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, n: rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n),
            lambda rng, n: rng.choice([5e-324, -5e-324, 1e-310, 2.2e-308, 0.0, -0.0, 1.0], n),
            lambda rng, n: np.full(n, rng.uniform(-1e6, 1e6)),
            lambda rng, n: rng.choice([1.7e308, -1.7e308, 1e300, 3.0], n),
        ],
        ids=["wide", "subnormal", "constant", "huge"],
    )
    def test_matches_fraction_reference(self, draw):
        rng = np.random.default_rng(17)
        for _ in range(300):
            fam = random_family(rng)
            n = sum(len(m.atoms) for m in fam.measures)
            rows = np.array([draw(rng, n) for _ in range(3)])  # leading axes as on the joint path
            got = _expectations(fam, rows)
            assert got.shape == (3, len(fam))
            starts = np.cumsum([0] + [len(m.atoms) for m in fam.measures])
            for row, means in zip(rows, got):
                want = [self.fraction_mean(m, row[a:b]) for m, a, b in zip(fam.measures, starts, starts[1:])]
                assert means.tolist() == want


class TestAxioms:
    def test_constant_preserving_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            fam = random_family(rng)
            c = float(rng.uniform(-20, 20))
            assert sublinear_expect(fam, lambda x: c).value == c

    def test_monotonicity_is_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            fam = random_family(rng)
            f = random_fn(rng)
            h = random_fn(rng)
            lo = sublinear_expect(fam, f).value
            hi = sublinear_expect(fam, lambda x: f(x) + abs(h(x))).value
            assert lo <= hi

    def test_suite_passes(self):
        report = run_axiom_suite(cases=300, seed=3)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["monotonicity"].max_violation == 0.0
        assert by_name["constant_preserving"].max_violation == 0.0
        assert by_name["sub_additivity"].max_violation <= 1e-12
        assert by_name["positive_homogeneity"].max_violation <= 1e-12

    @given(lam=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity_property(self, lam):
        fam = ScenarioFamily(
            (DiscreteMeasure(((-1.0, 0.25), (0.5, 0.75))), DiscreteMeasure.uniform([-2.0, 3.0]))
        )
        base = sublinear_expect(fam, lambda x: x + abs(x)).value
        scaled = sublinear_expect(fam, lambda x: lam * (x + abs(x))).value
        assert scaled == pytest.approx(lam * base, rel=1e-12, abs=1e-12)


class TestBoundedLipschitzFn:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedLipschitzFn(lambda x: x, -1.0)
        with pytest.raises(ValueError):
            BoundedLipschitzFn(lambda x: x, math.inf)

    def test_callable(self):
        f = BoundedLipschitzFn(lambda x: 2 * x, 2.0, name="double")
        assert f(3.0) == 6.0

    @given(
        x=st.floats(min_value=-50, max_value=50),
        y=st.floats(min_value=-50, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_declared_constants_hold_for_generator(self, x, y):
        rng = np.random.default_rng(99)
        for _ in range(5):
            f = random_fn(rng)
            assert abs(f(x) - f(y)) <= f.lipschitz * abs(x - y) + 1e-9
            if math.isfinite(f.bound):
                assert abs(f(x)) <= f.bound + 1e-9


class TestDistinctPoints:
    # ScenarioFamily.support and the family axes of joint.compose_independent
    # share one computation of the distinct points
    FAMILIES = {
        "duplicates": ((1.0, 0.5, 1.0), (0.5, -2.0), (1.0,)),
        "zero_first": ((1.0, 0.0), (-0.0, 2.0)),
        "negative_zero_first": ((1.0, -0.0), (0.0, -1.0), (0.0,)),
    }
    SUPPORT = {
        "duplicates": ((-2.0, 0.5, 1.0), (-1.0, 1.0, 1.0)),
        "zero_first": ((0.0, 1.0, 2.0), (1.0, 1.0, 1.0)),
        "negative_zero_first": ((-1.0, -0.0, 1.0), (-1.0, -1.0, 1.0)),
    }
    # compose_independent of (family,), (family, [-1, 0]) and ([-1, 0], family)
    # with functions that read the sign of a zero
    COMPOSE = {
        "duplicates": (2.0, 4.0, 1.5),
        "zero_first": (2.0, 4.0, -1.5),
        "negative_zero_first": (0.5, 1.5, 3.0),
    }

    @staticmethod
    def family(name):
        return ScenarioFamily(tuple(DiscreteMeasure.uniform(pts) for pts in TestDistinctPoints.FAMILIES[name]))

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_support_keeps_the_first_of_equal_points(self, name):
        support = self.family(name).support()
        points, signs = self.SUPPORT[name]
        assert support == points
        assert [math.copysign(1.0, p) for p in support] == list(signs)
        assert all(type(p) is float for p in support)

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_family_axes_use_the_same_points(self, name):
        from subexp.joint import BoundedLipschitzFnN, JointSpec, compose_independent
        from subexp.maximal import GridSpec, MaximalDist

        fam, d, g = self.family(name), MaximalDist(-1.0, 0.0), GridSpec(num=3)

        def sign(x):
            return np.copysign(1.0, x) + x

        cases = (
            ((fam,), sign),
            ((fam, d), lambda x, y: sign(x) * (1 - y)),
            ((d, fam), lambda y, x: -sign(x) * (1 - y)),
        )
        got = tuple(
            compose_independent(JointSpec(marginals), BoundedLipschitzFnN(fn, len(marginals), 1.0), g).value
            for marginals, fn in cases
        )
        assert got == self.COMPOSE[name]


def _blowup(x):
    # overflows (with a numpy warning, unless silenced) above x ~ 0.71
    return np.exp(1000.0 * x)


def _lln_with_blowup():
    from subexp.lln import MeanPolicy, NoiseSpec, SimConfig, empirical_lln
    from subexp.maximal import GridSpec, MaximalDist

    # the target max over [0, 0.5] is finite; running means reach past 0.71
    f = BoundedLipschitzFn(_blowup, 1.0)
    policies = [MeanPolicy.constant(0.5)]
    cfg = SimConfig(50, 20, 1)
    return empirical_lln(MaximalDist(0.0, 0.5), f, policies, NoiseSpec.uniform(1.0), cfg, GridSpec(num=3))


def _non_finite_cases():
    from subexp.joint import BoundedLipschitzFnN, JointSpec, compose_independent
    from subexp.maximal import GridSpec, MaximalDist, convolve_scaled, eval_maximal

    f = BoundedLipschitzFn(_blowup, 1.0)
    unit, grid = MaximalDist(0.0, 1.0), GridSpec(num=3)
    pole = BoundedLipschitzFn(lambda x: 1.0 / (x - 0.25), 100.0)  # finite on the nodes 0 and 1 only
    family = ScenarioFamily((DiscreteMeasure.dirac(0.0), DiscreteMeasure.uniform([0.5, 1.0])))
    atom = "test function returned non-finite value inf at atom 1 (point 1.0)"
    point = "test function returned non-finite value at point {}"
    return {
        "expect_linear": (lambda: expect_linear(DiscreteMeasure.uniform([0.0, 1.0]), f), re.escape(atom)),
        "sublinear_expect": (lambda: sublinear_expect(family, f), re.escape(atom)),
        "eval_maximal_grid": (lambda: eval_maximal(unit, f, grid), re.escape(point.format(1.0))),
        "eval_maximal_degenerate": (lambda: eval_maximal(MaximalDist(1.0, 1.0), f, grid), re.escape(point.format(1.0))),
        "eval_maximal_refine": (
            lambda: eval_maximal(unit, pole, GridSpec(num=2, refine=True)),
            re.escape(point.format(0.25)),
        ),
        "convolve_scaled": (
            lambda: convolve_scaled(unit, 1.0, 1.0, f, grid),
            re.escape("non-finite value inf at point (0.0, 1.0)"),
        ),
        "compose_maximal": (
            lambda: compose_independent(
                JointSpec((unit, unit)), BoundedLipschitzFnN(lambda x, y: _blowup(x + y), 2, 1.0), grid
            ),
            re.escape("non-finite value inf at point (0.0, 1.0)"),
        ),
        "compose_family": (
            lambda: compose_independent(JointSpec((family,)), BoundedLipschitzFnN(_blowup, 1, 1.0), grid),
            re.escape("non-finite value on family marginal 0 at point 1.0"),
        ),
        "empirical_lln": (_lln_with_blowup, r"test function returned non-finite value inf at running mean 0\.\d+$"),
    }


class TestOneEvaluator:
    # every path applies test functions through scenarios._evaluate

    @pytest.mark.parametrize("first", [-0.0, 0.0])
    @pytest.mark.parametrize(
        "sign", [lambda x: np.copysign(1.0, x), lambda x: math.copysign(1.0, x)], ids=["numpy", "scalar_only"]
    )
    def test_family_compose_equals_sublinear_expect_on_signed_zeros(self, first, sign):
        from subexp.joint import BoundedLipschitzFnN, JointSpec, compose_independent
        from subexp.maximal import GridSpec

        member = DiscreteMeasure(((first, 0.5), (-first, 0.5)))
        fam = ScenarioFamily((member, DiscreteMeasure.dirac(0.0)))
        want = math.copysign(1.0, first)  # equal points are evaluated once, at the first atom's
        assert sublinear_expect(fam, sign).value == want
        assert compose_independent(JointSpec((fam,)), BoundedLipschitzFnN(sign, 1, 0.0), GridSpec(num=3)).value == want
        assert expect_linear(member, sign) == want

    @pytest.mark.parametrize("path", list(_non_finite_cases()))
    def test_non_finite_value_raises_evaluation_error_without_warning(self, path, recwarn):
        call, message = _non_finite_cases()[path]
        with pytest.raises(EvaluationError, match=message):
            call()
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("path", ["sublinear_expect", "expect_linear", "compose_independent"])
    def test_an_exception_raised_by_a_scalar_only_fn_propagates(self, path):
        from subexp.joint import BoundedLipschitzFnN, JointSpec, compose_independent
        from subexp.maximal import GridSpec

        def f(x):
            return 1.0 / float(x)

        fam = ScenarioFamily((DiscreteMeasure.uniform([0.0, 2.0]),))
        calls = {
            "sublinear_expect": lambda: sublinear_expect(fam, f),
            "expect_linear": lambda: expect_linear(fam.measures[0], f),
            "compose_independent": lambda: compose_independent(
                JointSpec((fam,)), BoundedLipschitzFnN(f, 1, 1.0), GridSpec(num=3)
            ),
        }
        with pytest.raises(ZeroDivisionError):
            calls[path]()

    @pytest.mark.parametrize(
        "path", ["sublinear_expect", "grid", "refine", "convolve_scaled", "compose_maximal", "compose_family", "lln"]
    )
    def test_the_scalar_fallback_passes_python_floats(self, path):
        from subexp.joint import BoundedLipschitzFnN, JointSpec, compose_independent
        from subexp.lln import MeanPolicy, NoiseSpec, SimConfig, empirical_lln
        from subexp.maximal import GridSpec, MaximalDist, convolve_scaled, eval_maximal

        seen = set()

        def f(*xs):
            seen.update(type(x) for x in xs if not isinstance(x, np.ndarray))
            return math.fsum(xs)  # scalar only: an array raises TypeError

        unit, grid = MaximalDist(0.0, 1.0), GridSpec(num=3)
        f1, f2 = BoundedLipschitzFn(f, 4.0), BoundedLipschitzFnN(f, 2, 1.0)
        fam = ScenarioFamily((DiscreteMeasure.uniform([0.0, 1.0]),))
        calls = {
            "sublinear_expect": lambda: sublinear_expect(fam, f),
            "grid": lambda: eval_maximal(unit, f1, grid),
            "refine": lambda: eval_maximal(unit, f1, GridSpec(num=3, refine=True)),
            "convolve_scaled": lambda: convolve_scaled(unit, 1.0, 1.0, f1, grid),
            "compose_maximal": lambda: compose_independent(JointSpec((unit, unit)), f2, grid),
            "compose_family": lambda: compose_independent(JointSpec((fam, unit)), f2, grid),
            "lln": lambda: empirical_lln(
                unit, f1, [MeanPolicy.constant(0.5)], NoiseSpec.uniform(0.1), SimConfig(20, 2, 1), grid
            ),
        }
        calls[path]()
        assert seen == {float}
