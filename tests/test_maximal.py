import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subexp import cli, maximal
from subexp.joint import BoundedLipschitzFnN, JointSpec, compose_independent
from subexp.maximal import (
    GridSpec,
    MaximalDist,
    convolve_scaled,
    dirac_family,
    eval_maximal,
    interval_distance,
)
from subexp.scenarios import BoundedLipschitzFn, DiscreteMeasure, EvaluationError, sublinear_expect

SQUARE = BoundedLipschitzFn(lambda x: x * x, 4.0, name="square")
NEG_SQUARE = BoundedLipschitzFn(lambda x: -x * x, 4.0, name="neg_square")
IDENT = BoundedLipschitzFn(lambda x: x, 1.0, name="id")


def brute_max(d, f, n):
    # independent oracle: dense scan with plain python loop bookkeeping
    best_v, best_x = -math.inf, None
    for x in np.linspace(d.mu_lo, d.mu_hi, n):
        v = float(f(float(x)))
        if v > best_v:
            best_v, best_x = v, float(x)
    return best_v, best_x


class TestMaximalDist:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaximalDist(1.0, 0.0)
        with pytest.raises(ValueError):
            MaximalDist(0.0, math.inf)

    def test_helpers(self):
        d = MaximalDist(-1.0, 2.0)
        assert d.width == 3.0
        assert not d.degenerate
        assert d.contains(0.0) and not d.contains(2.5)
        assert MaximalDist(1.5, 1.5).degenerate

    def test_json_roundtrip(self):
        d = MaximalDist(-1.0, 2.0)
        assert MaximalDist.from_dict(d.to_dict()) == d


class TestGridSpec:
    def test_exactly_one_of_step_num(self):
        with pytest.raises(ValueError):
            GridSpec()
        with pytest.raises(ValueError):
            GridSpec(step=0.1, num=5)
        with pytest.raises(ValueError):
            GridSpec(step=0.0)
        with pytest.raises(ValueError):
            GridSpec(num=0)
        # a single node is only meaningful on a degenerate interval
        with pytest.raises(ValueError):
            GridSpec(num=1).points(MaximalDist(0.0, 1.0))
        assert list(GridSpec(num=1).points(MaximalDist(2.0, 2.0))) == [2.0]

    def test_node_limit_is_checked_before_allocating(self, monkeypatch):
        monkeypatch.setattr(maximal, "_MAX_GRID_NODES", 11)
        unit = MaximalDist(0.0, 1.0)
        assert len(GridSpec(num=11).points(unit)) == GridSpec(step=0.1).nodes(unit) == 11
        for g, d, count in (
            (GridSpec(num=12), unit, "12"),
            (GridSpec(step=0.09), unit, "13"),
            (GridSpec(step=1e-300), unit, "1e+300"),
        ):
            with pytest.raises(ValueError, match=re.escape(f"needs {count} nodes, over the limit of 11")):
                g.points(d)
            with pytest.raises(ValueError, match="--step/--points"):
                g.spacing(d)

    def test_points_include_endpoints_exactly(self):
        d = MaximalDist(-1.0, 2.0)
        pts = GridSpec(step=0.3).points(d)
        assert pts[0] == -1.0 and pts[-1] == 2.0
        pts = GridSpec(num=7).points(d)
        assert len(pts) == 7 and pts[0] == -1.0 and pts[-1] == 2.0

    def test_step_is_upper_bound_on_spacing(self):
        d = MaximalDist(0.0, 1.0)
        g = GridSpec(step=0.3)
        pts = g.points(d)
        assert np.max(np.diff(pts)) <= 0.3 + 1e-15
        assert g.spacing(d) <= 0.3

    def test_degenerate_interval_single_point(self):
        pts = GridSpec(step=0.1).points(MaximalDist(2.0, 2.0))
        assert list(pts) == [2.0]


class TestEvalMaximal:
    def test_square_on_wide_interval(self):
        res = eval_maximal(MaximalDist(-1.0, 2.0), SQUARE, GridSpec(step=1e-3))
        assert res.value == 4.0
        assert res.argmax == 2.0
        assert res.error_bound <= 4.0 * 1e-3 / 2 + 1e-15

    def test_degenerate_is_exact(self):
        res = eval_maximal(MaximalDist(0.0, 0.0), SQUARE, GridSpec(step=1e-3))
        assert res == (0.0, 0.0, 0.0)
        res = eval_maximal(MaximalDist(1.5, 1.5), IDENT, GridSpec(num=5))
        assert res == (1.5, 1.5, 0.0)

    def test_interior_max_of_concave_fn(self):
        # true max of -x^2 on [-1, 2] is 0 at x = 0
        res = eval_maximal(MaximalDist(-1.0, 2.0), NEG_SQUARE, GridSpec(step=1e-3))
        oracle_v, oracle_x = brute_max(MaximalDist(-1.0, 2.0), NEG_SQUARE, 3_000_001)
        assert abs(res.value - oracle_v) <= res.error_bound + 4.0 * 1e-6 / 2
        assert abs(res.value - 0.0) <= res.error_bound
        assert abs(res.argmax - 0.0) <= 1e-3
        assert abs(oracle_x - 0.0) <= 1e-6

    def test_value_never_exceeds_true_max_plus_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            lo = float(rng.uniform(-3, 0))
            hi = lo + float(rng.uniform(0.1, 4))
            c = float(rng.uniform(lo, hi))
            f = BoundedLipschitzFn(lambda x, c=c: -abs(x - c), 1.0)
            res = eval_maximal(MaximalDist(lo, hi), f, GridSpec(step=0.01))
            # true sup is 0 at c; the grid value lower-bounds it within the certificate
            assert -res.error_bound <= res.value <= 0.0

    def test_refinement_on_supersets_is_monotone(self):
        d = MaximalDist(-1.0, 2.0)
        f = BoundedLipschitzFn(lambda x: math.sin(3 * x) - 0.2 * abs(x), 3.2)
        prev = -math.inf
        for n in (3, 5, 9, 17, 33):  # each grid refines the previous one
            res = eval_maximal(d, f, GridSpec(num=n))
            assert res.value >= prev
            prev = res.value

    def test_two_step_sizes_agree_within_bounds(self):
        d = MaximalDist(-2.0, 1.0)
        f = BoundedLipschitzFn(lambda x: math.cos(2 * x) + 0.5 * x, 2.5)
        r1 = eval_maximal(d, f, GridSpec(step=0.01))
        r2 = eval_maximal(d, f, GridSpec(step=0.003))
        assert abs(r1.value - r2.value) <= r1.error_bound + r2.error_bound

    def test_argmax_tie_breaks_to_smallest_point(self):
        res = eval_maximal(MaximalDist(-1.0, 1.0), SQUARE, GridSpec(num=5))
        assert res.argmax == -1.0  # f(-1) == f(1) == 1

    def test_refine_tightens_certificate(self):
        d = MaximalDist(-1.0, 2.0)
        coarse = eval_maximal(d, NEG_SQUARE, GridSpec(step=0.25))
        fine = eval_maximal(d, NEG_SQUARE, GridSpec(step=0.25, refine=True))
        assert fine.value >= coarse.value
        assert fine.error_bound <= 4.0 * 1e-11
        assert abs(fine.value) <= 1e-12
        assert abs(fine.argmax) <= 1e-6

    def test_refine_never_hurts_boundary_max(self):
        d = MaximalDist(0.0, 1.0)
        plain = eval_maximal(d, IDENT, GridSpec(num=4))
        refined = eval_maximal(d, IDENT, GridSpec(num=4, refine=True))
        assert refined.value >= plain.value
        assert refined.value == 1.0


def tents(lo, hi, lip, peaks):
    """max of tents h - s*|x - c| (s <= lip) and its exact maximum on [lo, hi]."""

    def f(x):
        return np.max([h - s * np.abs(x - c) for c, h, s in peaks], axis=0)

    true_max = max(h - s * max(lo - c, c - hi, 0.0) for c, h, s in peaks)
    return BoundedLipschitzFn(f, lip), true_max


class TestRefineSoundness:
    @pytest.mark.parametrize(
        "fn, true_max",
        [
            # a spike between grid nodes, where the grid sees only zeros
            (lambda x: max(0.0, 1 - 40 * abs(x - 0.5)), 1.0),
            # the same spike off the dyadic points, next to a grid maximum of 0.5
            (lambda x: max(0.5 - 0.1 * abs(x - 2.0), 1 - 40 * abs(x - 0.3)), 1.0),
        ],
        ids=["spike_on_zero_grid", "spike_next_to_grid_max"],
    )
    def test_spike_between_nodes_is_found_or_certified(self, fn, true_max):
        f = BoundedLipschitzFn(fn, 40.0)
        res = eval_maximal(MaximalDist(0.0, 3.0), f, GridSpec(num=4, refine=True))
        assert res.value >= true_max - res.error_bound
        assert res.value <= true_max
        assert res.error_bound <= 40.0 * 1e-11

    @given(
        lo=st.floats(min_value=-5, max_value=5),
        width=st.floats(min_value=0.01, max_value=5),
        num=st.integers(min_value=2, max_value=40),
        lip=st.floats(min_value=0.1, max_value=50),
        raw=st.lists(
            st.tuples(
                st.floats(min_value=-0.5, max_value=1.5),
                st.floats(min_value=-2, max_value=2),
                st.floats(min_value=0.5, max_value=1.0),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_lipschitz_functions(self, lo, width, num, lip, raw):
        hi = lo + width
        d = MaximalDist(lo, hi)
        f, true_max = tents(d.mu_lo, d.mu_hi, lip, [(lo + u * width, h, s * lip) for u, h, s in raw])
        plain = eval_maximal(d, f, GridSpec(num=num))
        refined = eval_maximal(d, f, GridSpec(num=num, refine=True))
        slack = 1e-12 * (1.0 + lip * (abs(d.mu_lo) + abs(d.mu_hi)))
        assert 0.0 <= refined.error_bound <= plain.error_bound
        assert refined.value >= plain.value
        assert true_max - slack <= refined.value + refined.error_bound
        assert refined.value <= true_max + slack
        assert d.contains(refined.argmax)

    def test_refine_keeps_smallest_argmax_on_ties(self):
        res = eval_maximal(MaximalDist(-1.0, 1.0), SQUARE, GridSpec(num=5, refine=True))
        assert (res.value, res.argmax) == (1.0, -1.0)

    def test_evaluation_cap_stops_with_honest_certificate(self):
        # a flat-topped declared constant of 400 needs far more cells than the cap allows
        calls = []

        def neg_square(x):
            calls.append(np.size(x))
            return -x * x

        d = MaximalDist(-1.0, 2.0)
        f = BoundedLipschitzFn(neg_square, 400.0)
        res = eval_maximal(d, f, GridSpec(step=0.25, refine=True))
        assert sum(calls) - 13 <= maximal._REFINE_MAX_EVALS
        assert res.value <= 0.0 <= res.value + res.error_bound
        assert 400.0 * 1e-11 < res.error_bound <= 400.0 * 0.25 / 2

    @pytest.mark.parametrize("lo, hi, spec", [(0.0, 2.0, "abs:1.7e308"), (-0.0, 1.7e308, "identity")])
    def test_a_cell_whose_bound_is_inf_is_not_searched(self, lo, hi, spec):
        # the values at a cell's larger end overflow any sum with a value
        # inside it, so no search could lower the bound returned below inf,
        # and the certificate is L*h/2 either way
        d = MaximalDist(lo, hi)
        fn = cli.build_fn(spec, max(abs(lo), abs(hi)))
        points = []

        def counted(x):
            points.append(np.size(x))
            return fn.fn(x)

        f = BoundedLipschitzFn(counted, fn.lipschitz, fn.bound)
        refined = eval_maximal(d, f, GridSpec(num=3, refine=True))
        assert sum(points) == 3  # the grid nodes only
        assert refined == eval_maximal(d, fn, GridSpec(num=3))

    def test_a_bound_that_overflows_in_its_lipschitz_term_is_searched(self, capsys):
        # f = -x^4 with L = 4e231: the one cell bounds at inf through L*w/2,
        # its parts do not, and L*h/2 overflows too
        argv = ["eval", "--mu-lo=0", "--mu-hi=1e77", "--fn", "poly:0,0,0,0,-1", "--points", "2", "--refine"]
        assert cli.main(argv) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert math.isfinite(res["error_bound"]) and res["value"] == 0.0
        loose = eval_maximal(MaximalDist(0.0, 4.0), BoundedLipschitzFn(np.sin, 1e308), GridSpec(num=2, refine=True))
        assert math.isfinite(loose.error_bound)

    def test_a_bound_that_overflows_in_its_values_sum_is_searched_where_f_can_drop(self):
        # f(0) = f(5e8) = 1e308 overflow their sum, but with L = 1e300 the
        # values inside drop far enough for the parts' bounds to be finite
        points = []

        def vee(x):
            points.append(np.size(x))
            return (1e8 - np.minimum(x, 5e8 - x)) * 1e300

        res = eval_maximal(MaximalDist(0.0, 5e8), BoundedLipschitzFn(vee, 1e300), GridSpec(num=2, refine=True))
        assert res == maximal.GridMax(1e308, 0.0, 0.0)
        assert sum(points) > 2

    def test_scalar_only_function_under_the_cap(self, monkeypatch):
        monkeypatch.setattr(maximal, "_REFINE_MAX_EVALS", 2000)
        calls = []

        def neg_square(x):
            calls.append(x)
            return -float(x) ** 2  # float() of an array raises: scalar loop

        d = MaximalDist(-1.0, 2.0)
        f = BoundedLipschitzFn(neg_square, 400.0)
        res = eval_maximal(d, f, GridSpec(step=0.25, refine=True))
        scalar_calls = [x for x in calls if np.ndim(x) == 0]
        assert 13 < len(scalar_calls) <= 13 + 2000
        assert res.value <= 0.0 <= res.value + res.error_bound
        assert 400.0 * 1e-11 < res.error_bound <= 400.0 * 0.25 / 2


class TestDiracFamily:
    def test_two_atoms(self):
        fam = dirac_family(MaximalDist(0.0, 1.0), 2)
        assert fam.measures == (DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0))

    def test_three_atoms(self):
        fam = dirac_family(MaximalDist(0.0, 1.0), 3)
        assert [m.atoms[0][0] for m in fam.measures] == [0.0, 0.5, 1.0]

    def test_degenerate_collapses_to_one(self):
        fam = dirac_family(MaximalDist(2.0, 2.0), 5)
        assert fam.measures == (DiscreteMeasure.dirac(2.0),)

    def test_validation(self):
        with pytest.raises(ValueError):
            dirac_family(MaximalDist(0.0, 1.0), 1)
        with pytest.raises(ValueError):
            dirac_family(MaximalDist(0.0, 1.0), 0)

    def test_representation_equivalence_is_exact(self):
        # grid evaluation and the dirac-family upper expectation are the same
        # computation on the same points, so they must agree bit for bit
        d = MaximalDist(-1.0, 2.0)
        fam = dirac_family(d, 4)
        grid_val = eval_maximal(d, SQUARE, GridSpec(num=4)).value
        fam_val = sublinear_expect(fam, SQUARE).value
        assert grid_val == fam_val == 4.0

    def test_representation_equivalence_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            lo = float(rng.uniform(-5, 2))
            hi = lo + float(rng.uniform(0, 3))
            n = int(rng.integers(2, 40))
            s, b, c = (float(rng.uniform(-2, 2)) for _ in range(3))
            f = BoundedLipschitzFn(
                lambda x, s=s, b=b, c=c: s * abs(x - c) + b * x, abs(s) + abs(b)
            )
            d = MaximalDist(lo, hi)
            assert (
                eval_maximal(d, f, GridSpec(num=n)).value
                == sublinear_expect(dirac_family(d, n), f).value
            )


class TestConvolveScaled:
    def test_sum_of_two_copies(self):
        res = convolve_scaled(MaximalDist(0.0, 1.0), 1.0, 1.0, IDENT, GridSpec(num=11))
        assert res.value == 2.0
        assert res.argmax == (1.0, 1.0)

    def test_zero_second_weight_matches_single_eval(self):
        d = MaximalDist(-1.0, 1.0)
        for f in (IDENT, SQUARE, NEG_SQUARE):
            single = eval_maximal(d, f, GridSpec(num=21))
            conv = convolve_scaled(d, 1.0, 0.0, f, GridSpec(num=21))
            assert conv.value == single.value
            assert conv.argmax[0] == single.argmax

    def test_matches_two_dim_brute_force(self):
        # independent oracle: plain double loop over the same grid
        d = MaximalDist(0.0, 1.0)
        f = BoundedLipschitzFn(math.sin, 1.0, bound=1.0, name="sin")
        a, b = 1.0, 2.0
        grid = GridSpec(num=101)
        res = convolve_scaled(d, a, b, f, grid)
        pts = grid.points(d)
        best = -math.inf
        for x in pts:
            for y in pts:
                best = max(best, math.sin(a * float(x) + b * float(y)))
        assert res.value == best

    def test_distribution_of_scaled_sum_is_rescaled_interval(self):
        # sup of f(ax + by) over the square equals sup of f((a+b)z) on the
        # interval, up to both grid certificates
        d = MaximalDist(0.0, 1.0)
        f = BoundedLipschitzFn(math.sin, 1.0, bound=1.0)
        a, b = 1.0, 2.0
        conv = convolve_scaled(d, a, b, f, GridSpec(step=1e-3))
        direct = eval_maximal(
            d, BoundedLipschitzFn(lambda z: math.sin(3.0 * z), 3.0, bound=1.0), GridSpec(step=1e-3)
        )
        assert abs(conv.value - direct.value) <= conv.error_bound + direct.error_bound

    def test_randomized_rescaling_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            lo = float(rng.uniform(-2, 0))
            hi = lo + float(rng.uniform(0.2, 2))
            a = float(rng.uniform(0, 2))
            b = float(rng.uniform(0, 2))
            w = float(rng.uniform(-3, 3))
            f = BoundedLipschitzFn(lambda x, w=w: math.sin(w * x), abs(w), bound=1.0)
            g = BoundedLipschitzFn(
                lambda z, w=w, a=a, b=b: math.sin(w * ((a + b) * z)), abs(w) * (a + b), bound=1.0
            )
            d = MaximalDist(lo, hi)
            conv = convolve_scaled(d, a, b, f, GridSpec(step=0.01))
            direct = eval_maximal(d, g, GridSpec(step=0.01))
            assert abs(conv.value - direct.value) <= conv.error_bound + direct.error_bound + 1e-12

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            convolve_scaled(MaximalDist(0.0, 1.0), -1.0, 1.0, IDENT, GridSpec(num=5))
        with pytest.raises(ValueError):
            convolve_scaled(MaximalDist(0.0, 1.0), 1.0, -0.5, IDENT, GridSpec(num=5))

    def test_error_bound_scales_with_coefficients(self):
        d = MaximalDist(0.0, 1.0)
        g = GridSpec(num=11)
        h = g.spacing(d)
        res = convolve_scaled(d, 1.5, 0.25, IDENT, g)
        assert res.error_bound == pytest.approx(1.0 * (1.5 + 0.25) * h / 2, rel=1e-12)

    def test_argmax_tie_breaks_lexicographically(self):
        res = convolve_scaled(MaximalDist(-1.0, 1.0), 1.0, 1.0, SQUARE, GridSpec(num=3))
        # (x+y)^2 peaks at (-1,-1) and (1,1); smallest pair wins
        assert res.argmax == (-1.0, -1.0)


class TestIntervalDistance:
    def test_inside(self):
        assert interval_distance(MaximalDist(0.0, 1.0), 0.5) == 0.0

    def test_left_of(self):
        assert interval_distance(MaximalDist(0.0, 1.0), -2.0) == 2.0

    def test_right_of(self):
        assert interval_distance(MaximalDist(-1.0, 3.0), 3.25) == 0.25

    def test_zero_exactly_on_interval_boundary(self):
        d = MaximalDist(-1.0, 3.0)
        assert interval_distance(d, -1.0) == 0.0
        assert interval_distance(d, 3.0) == 0.0

    @given(
        x=st.floats(min_value=-100, max_value=100),
        y=st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_lipschitz(self, x, y):
        d = MaximalDist(-1.5, 2.5)
        dx, dy = interval_distance(d, x), interval_distance(d, y)
        assert abs(dx - dy) <= abs(x - y) * (1 + 1e-15) + 1e-15
        if d.contains(x):
            assert dx == 0.0
        else:
            assert dx > 0.0


class TestNonFiniteEdges:
    def test_degenerate_interval_checks_the_value(self):
        huge = BoundedLipschitzFn(lambda x: x * math.inf, 1.0, name="huge")
        with pytest.raises(ValueError, match="non-finite value at point"):
            eval_maximal(MaximalDist(1.0, 1.0), huge, GridSpec(num=3))

    def test_overflowing_width_is_rejected_naming_the_interval(self, capsys):
        # no step can help here, so the message names the width, not the node count
        wide = MaximalDist(-1e308, 1e308)
        for call in (
            lambda: eval_maximal(wide, IDENT, GridSpec(num=3)),
            lambda: GridSpec(num=3).spacing(wide),
            lambda: dirac_family(wide, 3),
            lambda: GridSpec(step=1.0).points(wide),
            lambda: GridSpec(step=1e300).spacing(wide),
        ):
            with pytest.raises(ValueError, match=re.escape("interval [-1e+308, 1e+308] is too wide")):
                call()
        for argv in (
            ["eval", "--mu-lo=-1e308", "--mu-hi=1e308", "--fn", "identity"],  # the default step
            ["lln", "--mu-lo=-1e308", "--mu-hi=1e308", "--fn", "identity", "--policy", "constant:0", "--n-max", "4",
             "--reps", "1"],
        ):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert json.loads(err)["error"]["message"] == (
                "interval [-1e+308, 1e+308] is too wide: its width overflows to inf"
            )


class TestConvolveScaledFiniteness:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_raises_naming_the_point(self, bad):
        f = BoundedLipschitzFn(lambda x: np.where(x > 1.5, bad, x), 1.0)
        with pytest.raises(EvaluationError, match=re.escape(f"non-finite value {bad!r} at point (0.6000000000000001, 1.0)")):
            convolve_scaled(MaximalDist(0.0, 1.0), 1.0, 1.0, f, GridSpec(num=11))

    def test_scalar_only_function_is_checked_too(self):
        f = BoundedLipschitzFn(lambda x: math.inf if float(x) > 1.5 else float(x), 1.0)
        with pytest.raises(EvaluationError, match="non-finite value inf"):
            convolve_scaled(MaximalDist(0.0, 1.0), 1.0, 1.0, f, GridSpec(num=11))


class TestNonFiniteMessages:
    def test_point_is_printed_as_a_python_float(self):
        f = BoundedLipschitzFn(lambda x: np.where(x > 0.75, np.inf, x), 1.0)
        with pytest.raises(ValueError) as info:
            eval_maximal(MaximalDist(0.0, 1.0), f, GridSpec(num=3))
        assert str(info.value) == "test function returned non-finite value at point 1.0"

    def test_overflow_inside_the_function_warns_nothing(self, recwarn):
        f = BoundedLipschitzFn(lambda x: x * 1e308 + 1e308, 1.0)
        with pytest.raises(ValueError, match="non-finite value at point 1.0"):
            eval_maximal(MaximalDist(0.0, 1.0), f, GridSpec(num=3))
        assert [str(w.message) for w in recwarn] == []


class TestConvolveScaledBlocks:
    D = MaximalDist(-1.0, 2.0)
    CASES = {
        # z = x + xbar is constant along anti-diagonals, so the maximum is tied
        "tie": BoundedLipschitzFn(lambda z: -np.abs(z - 0.5), 1.0),
        "smooth": BoundedLipschitzFn(lambda z: np.sin(3.0 * z) - 0.1 * z * z, 4.0),
        "scalar": BoundedLipschitzFn(lambda z: math.cos(float(z)), 1.0),
        "non_finite": BoundedLipschitzFn(lambda z: np.where(z > 1.2, np.nan, z), 1.0),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_any_block_size_gives_identical_results(self, case, monkeypatch):
        f = self.CASES[case]

        def run():
            try:
                return convolve_scaled(self.D, 1.0, 1.0, f, GridSpec(num=13))
            except EvaluationError as exc:
                return str(exc)

        want = run()
        for cells in (1, 3, 7):
            monkeypatch.setattr(maximal, "_BLOCK_CELLS", cells)
            assert run() == want
        if case == "tie":
            # the smallest x of the tied cells, then the smallest xbar
            assert want.argmax == (-1.0, 1.5) and want.value == -0.0
        if case == "non_finite":
            assert want == "non-finite value nan at point (-0.75, 2.0)"

    def test_peak_memory_stays_small(self):
        # 3001 nodes: the whole 3001 x 3001 box would take about 72 MB per array
        f = BoundedLipschitzFn(lambda z: -np.abs(z - 0.3), 1.0)
        tracemalloc.start()
        try:
            res = convolve_scaled(self.D, 1.0, 1.0, f, GridSpec(step=1e-3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(res.value) < 1e-12
        assert peak < 16 * 2**20

    def test_cell_limit_is_checked_before_calling_f(self, monkeypatch):
        monkeypatch.setattr(maximal, "_MAX_CELLS", 120)
        calls = []

        def f(z):
            calls.append(z)
            return z

        assert convolve_scaled(self.D, 1.0, 1.0, BoundedLipschitzFn(f, 1.0), GridSpec(num=10)).value == 4.0
        calls.clear()
        message = "convolve_scaled needs 121 grid cells with num=11, over the limit of 120"
        with pytest.raises(ValueError, match=re.escape(message)):
            convolve_scaled(self.D, 1.0, 1.0, BoundedLipschitzFn(f, 1.0), GridSpec(num=11))
        assert calls == []

    def test_an_oversized_box_fails_fast(self):
        with pytest.raises(ValueError, match=re.escape(f"needs {60001**2} grid cells with step=5e-05")):
            convolve_scaled(self.D, 1.0, 1.0, IDENT, GridSpec(step=5e-5))


class TestGridBlocks:
    AXES = [np.arange(3.0), 10.0 * np.arange(4.0), 100.0 * np.arange(2.0)]

    @pytest.mark.parametrize("block", [1, 3, 7, 8, 9, 24, maximal._BLOCK_CELLS])
    def test_blocks_cover_the_grid_once_in_row_major_order(self, block):
        seen = []
        for coords in maximal._grid_blocks(self.AXES, block, GridSpec(num=2), "a test grid"):
            assert len(coords) == 3 and coords[0].size <= block
            assert all(c.shape == coords[0].shape and not c.flags.writeable for c in coords)
            seen += zip(*(c.ravel().tolist() for c in coords))
        assert seen == list(itertools.product(*(a.tolist() for a in self.AXES)))

    def test_the_budget_is_checked_before_the_first_block(self, monkeypatch):
        monkeypatch.setattr(maximal, "_MAX_CELLS", 23)
        with pytest.raises(ValueError, match="^a test grid needs 24 grid cells with num=2, over the limit of 23;"):
            next(maximal._grid_blocks(self.AXES, 7, GridSpec(num=2), "a test grid"))


class TestOneCellGrid:
    """A step wider than the interval, or one the width underflows
    against, gives the interval's two endpoints."""

    @pytest.mark.parametrize("d, step", [(MaximalDist(0.0, 1.0), math.inf), (MaximalDist(0.0, 1e-300), 1e300)])
    def test_two_nodes(self, d, step):
        grid = GridSpec(step=step)
        assert grid.nodes(d) == 2
        assert grid.points(d).tolist() == [d.mu_lo, d.mu_hi]
        assert grid.spacing(d) == d.width <= step

    def test_eval_maximal(self):
        res = eval_maximal(MaximalDist(-1.0, 2.0), BoundedLipschitzFn(lambda x: x * x, 4.0), GridSpec(step=math.inf))
        assert (res.value, res.argmax, res.error_bound) == (4.0, 2.0, 6.0)

    def test_convolve_scaled(self):
        f = BoundedLipschitzFn(lambda x: x, 1.0)
        res = convolve_scaled(MaximalDist(0.0, 1.0), 1.0, 2.0, f, GridSpec(step=math.inf))
        assert (res.value, res.argmax) == (3.0, (1.0, 1.0))


class TestOneCertificateRule:
    """eval_maximal, convolve_scaled and every maximal axis of
    compose_independent report ``maximal._certificate``'s bound bit for bit."""

    FN = BoundedLipschitzFn(lambda x: np.sin(3.0 * x), 3.0, name="sin3")
    FN1 = BoundedLipschitzFnN(lambda x: np.sin(3.0 * x), 1, 3.0)
    FN2 = BoundedLipschitzFnN(lambda x, y: np.sin(3.0 * x) - np.cos(y), 2, 3.0)
    FIXED = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (5e-324, 5e-324), (0.0, 5e-324), (-1e-310, 2.5e-310)]

    @classmethod
    def cases(cls):
        rng = np.random.default_rng(22)
        drawn = []
        for _ in range(40):
            lo = float(rng.uniform(-10.0, 10.0))
            drawn.append((lo, lo + float(rng.uniform(0.0, 0.1))))
        dists = [MaximalDist(lo, hi) for lo, hi in cls.FIXED + drawn]
        grids = [GridSpec(num=n) for n in (2, 3, 17)] + [GridSpec(step=s) for s in (0.1, 1e-3, math.inf)]
        return [(d, g) for d in dists for g in grids] + [(d, GridSpec(num=1)) for d in dists if d.degenerate]

    def test_every_path_reports_the_one_rule(self):
        cases = self.cases()
        for i, (d, grid) in enumerate(cases):
            other, _ = cases[(i + 7) % len(cases)]
            rule = maximal._certificate(3.0, grid, d)
            assert eval_maximal(d, self.FN, grid).error_bound == rule
            assert convolve_scaled(d, 0.5, 1.75, self.FN, grid).error_bound == maximal._certificate(3.0 * 2.25, grid, d)
            assert compose_independent(JointSpec((d,)), self.FN1, grid).error_bound == rule
            both = rule + maximal._certificate(3.0, grid, other)
            assert compose_independent(JointSpec((d, other)), self.FN2, grid).error_bound == both

    @pytest.mark.parametrize("grid", [GridSpec(num=1), GridSpec(num=3), GridSpec(step=math.inf)])
    @pytest.mark.parametrize("refine", [False, True])
    def test_negative_zero_interval_keeps_its_sign(self, grid, refine):
        d = MaximalDist(-0.0, -0.0)
        res = eval_maximal(d, IDENT, GridSpec(num=grid.num, step=grid.step, refine=refine))
        assert repr(tuple(res)) == repr((-0.0, -0.0, 0.0))

    @pytest.mark.parametrize("n_atoms", [1, 2, 5])
    def test_negative_zero_interval_gives_one_dirac_at_negative_zero(self, n_atoms):
        fam = dirac_family(MaximalDist(-0.0, -0.0), n_atoms)
        assert repr([m.atoms for m in fam.measures]) == repr([((-0.0, 1.0),)])
