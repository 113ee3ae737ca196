import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subexp.maximal import MaximalDist
from subexp.mle import (
    MleResult,
    SampleSet,
    likelihood,
    mle_estimate,
    solve_minimax_oracle,
    unbiasedness_check,
)

samples_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=50,
)


def enumerate_oracle(values, grid):
    """Reference solver written independently: test every interval with
    positive likelihood and keep the shortest (then lexicographically
    smallest) one."""
    lo_true, hi_true = min(values), max(values)
    feasible = [
        (g1, g2)
        for g1, g2 in itertools.product(grid, repeat=2)
        if g1 <= g2 and g1 <= lo_true and hi_true <= g2
    ]
    return min(feasible, key=lambda p: (p[1] - p[0], p[0], p[1]))


class TestSampleSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSet(())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SampleSet((1.0, math.nan))
        with pytest.raises(ValueError):
            SampleSet((math.inf,))

    def test_extremes(self):
        s = SampleSet((0.3, 1.2, 2.5))
        assert s.n == 3
        assert s.min == 0.3
        assert s.max == 2.5

    def test_stored_extremes_stay_out_of_repr_and_equality(self):
        s = SampleSet((2.5, 0.3, 1.2))
        assert repr(s) == "SampleSet(values=(2.5, 0.3, 1.2))"
        assert s == SampleSet((2.5, 0.3, 1.2)) and hash(s) == hash(SampleSet((2.5, 0.3, 1.2)))
        with pytest.raises(AttributeError):
            s.min = 0.0


class TestLikelihood:
    def test_covering_interval(self):
        s = SampleSet((0.3, 1.2, 2.5))
        assert likelihood(s, 0.0, 3.0) == 1

    def test_interval_missing_smallest_sample(self):
        s = SampleSet((0.3, 1.2, 2.5))
        assert likelihood(s, 0.5, 3.0) == 0

    def test_degenerate_interval_single_sample(self):
        assert likelihood(SampleSet((1.0,)), 1.0, 1.0) == 1

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            likelihood(SampleSet((1.0,)), 2.0, 1.0)

    def test_monotone_under_enlargement(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            vals = rng.uniform(-5, 5, size=int(rng.integers(1, 10)))
            s = SampleSet(tuple(float(v) for v in vals))
            lo = float(rng.uniform(-6, 6))
            hi = lo + float(rng.uniform(0, 6))
            pad = float(rng.uniform(0, 3))
            assert likelihood(s, lo, hi) <= likelihood(s, lo - pad, hi + pad)


class TestMleEstimate:
    def test_three_samples(self):
        res = mle_estimate(SampleSet((0.3, 1.2, 2.5)))
        assert (res.mu_lo_hat, res.mu_hi_hat) == (0.3, 2.5)
        assert res.delta == 2.2

    def test_single_sample_degenerate(self):
        res = mle_estimate(SampleSet((5.0,)))
        assert (res.mu_lo_hat, res.mu_hi_hat) == (5.0, 5.0)
        assert res.delta == 0.0

    def test_repeated_sample(self):
        res = mle_estimate(SampleSet((-1.0, -1.0, -1.0)))
        assert (res.mu_lo_hat, res.mu_hi_hat) == (-1.0, -1.0)

    def test_to_dict(self):
        res = mle_estimate(SampleSet((0.0, 1.0)))
        assert res.to_dict() == {"mu_lo_hat": 0.0, "mu_hi_hat": 1.0, "delta": 1.0}
        assert res.to_dict(n=2)["n"] == 2

    def test_result_orders_endpoints(self):
        with pytest.raises(ValueError):
            MleResult(1.0, 0.0)

    @given(values=samples_strategy)
    @settings(max_examples=200, deadline=None)
    def test_permutation_and_duplication_invariance(self, values):
        s = mle_estimate(SampleSet(tuple(values)))
        r = mle_estimate(SampleSet(tuple(reversed(values))))
        dup = mle_estimate(SampleSet(tuple(values + values)))
        assert (s.mu_lo_hat, s.mu_hi_hat) == (r.mu_lo_hat, r.mu_hi_hat)
        assert (s.mu_lo_hat, s.mu_hi_hat) == (dup.mu_lo_hat, dup.mu_hi_hat)

    @given(values=samples_strategy)
    @settings(max_examples=200, deadline=None)
    def test_interval_is_sample_range(self, values):
        res = mle_estimate(SampleSet(tuple(values)))
        assert res.mu_lo_hat == min(values)
        assert res.mu_hi_hat == max(values)


class TestSolveMinimaxOracle:
    def test_against_sample_with_padding_grid(self):
        s = SampleSet((0.3, 1.2, 2.5))
        grid = [0.0, 0.3, 1.2, 2.5, 3.0]
        res = solve_minimax_oracle(s, grid)
        assert (res.mu_lo_hat, res.mu_hi_hat) == (0.3, 2.5)

    def test_single_sample(self):
        res = solve_minimax_oracle(SampleSet((1.0,)), [0.0, 1.0, 2.0])
        assert (res.mu_lo_hat, res.mu_hi_hat) == (1.0, 1.0)

    def test_two_samples_fifteen_pairs(self):
        # 5 grid nodes -> 15 ordered pairs; the shortest covering one wins
        res = solve_minimax_oracle(SampleSet((-2.0, 2.0)), [-3.0, -2.0, 0.0, 2.0, 3.0])
        assert (res.mu_lo_hat, res.mu_hi_hat) == (-2.0, 2.0)

    def test_enumerates_every_pair(self, monkeypatch):
        from subexp import mle

        pairs = []
        real = mle.likelihood

        def counted(s, lo, hi):
            pairs.append((lo, hi))
            return real(s, lo, hi)

        monkeypatch.setattr(mle, "likelihood", counted)
        grid = [-3.0, -2.0, -0.5, 0.0, 1.0, 2.0, 3.0]
        solve_minimax_oracle(SampleSet((-2.0, 0.0, 2.0)), grid)
        assert pairs == [(lo, hi) for i, lo in enumerate(grid) for hi in grid[i:]]

    def test_grid_must_contain_extremes(self):
        with pytest.raises(ValueError):
            solve_minimax_oracle(SampleSet((0.3, 1.2)), [0.0, 1.0, 2.0])

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            vals = [float(v) for v in rng.uniform(-4, 4, size=int(rng.integers(1, 8)))]
            extra = [float(v) for v in rng.uniform(-5, 5, size=int(rng.integers(0, 6)))]
            grid = sorted(set(vals + extra))
            got = solve_minimax_oracle(SampleSet(tuple(vals)), grid)
            want = enumerate_oracle(vals, grid)
            assert (got.mu_lo_hat, got.mu_hi_hat) == want

    def test_agrees_with_closed_form_when_grid_has_extremes(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            vals = [float(v) for v in rng.uniform(-4, 4, size=int(rng.integers(1, 12)))]
            grid = sorted(set(vals))
            got = solve_minimax_oracle(SampleSet(tuple(vals)), grid)
            closed = mle_estimate(SampleSet(tuple(vals)))
            assert (got.mu_lo_hat, got.mu_hi_hat) == (closed.mu_lo_hat, closed.mu_hi_hat)

    @given(values=samples_strategy)
    @example(values=[0.0, 5e-324])  # shrink rounds to 0.0 on a subnormal range
    @settings(max_examples=100, deadline=None)
    def test_width_below_range_has_zero_likelihood(self, values):
        s = SampleSet(tuple(values))
        rng_width = s.max - s.min
        if rng_width == 0.0:
            return
        shrink = rng_width * 0.49
        # the lower end sits strictly above the minimum even where shrink is
        # 0.0, and the upper end not below it where subnormal rounding crosses
        lo = max(s.min + shrink, math.nextafter(s.min, math.inf))
        assert likelihood(s, lo, max(s.max - shrink, lo)) == 0


class TestUnbiasednessCheck:
    def test_unit_interval_three_samples(self):
        res = unbiasedness_check(MaximalDist(0.0, 1.0), n=3, atoms_per_axis=5)
        assert res.upper_ok and res.lower_ok
        assert res.upper_value == 1.0
        assert res.lower_value == 0.0

    def test_degenerate_interval(self):
        res = unbiasedness_check(MaximalDist(2.0, 2.0), n=4, atoms_per_axis=3)
        assert res.upper_ok and res.lower_ok
        assert res.upper_value == 2.0
        assert res.lower_value == 2.0

    def test_single_sample_wide_interval(self):
        res = unbiasedness_check(MaximalDist(-1.0, 2.0), n=1, atoms_per_axis=7)
        assert res.upper_ok and res.lower_ok
        assert res.upper_value == 2.0
        assert res.lower_value == -1.0

    def test_holds_across_dimensions_and_grids(self):
        for n in (1, 2, 3):
            for atoms in (2, 4, 9):
                res = unbiasedness_check(MaximalDist(-0.5, 1.5), n=n, atoms_per_axis=atoms)
                assert res.upper_ok and res.lower_ok

    def test_validation(self):
        with pytest.raises(ValueError):
            unbiasedness_check(MaximalDist(0.0, 1.0), n=0, atoms_per_axis=3)
        with pytest.raises(ValueError):
            unbiasedness_check(MaximalDist(0.0, 1.0), n=2, atoms_per_axis=1)
