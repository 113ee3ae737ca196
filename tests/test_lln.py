import json
import math
import re
import sys
import warnings

import numpy as np
import pytest

from subexp import lln
from subexp.lln import (
    MeanPolicy,
    NoiseSpec,
    SimConfig,
    SimulationError,
    empirical_lln,
    log_schedule,
    rate_check,
    second_moment_upper,
    simulate_path,
)
from subexp.maximal import GridSpec, MaximalDist, eval_maximal
from subexp.scenarios import BoundedLipschitzFn

IDENT = BoundedLipschitzFn(lambda x: x, 1.0, name="id")
SQUARE = BoundedLipschitzFn(lambda x: x * x, 4.0, name="square")


class TestNoiseSpec:
    def test_second_moments_exact(self):
        assert NoiseSpec.none().second_moment == 0.0
        assert NoiseSpec.uniform(0.3).second_moment == 0.3**2 / 3
        assert NoiseSpec.two_point(0.5).second_moment == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", 1.0)
        with pytest.raises(ValueError):
            NoiseSpec.uniform(0.0)
        with pytest.raises(ValueError):
            NoiseSpec.two_point(-1.0)

    def test_sample_ranges(self):
        rng = np.random.default_rng(0)
        assert np.all(NoiseSpec.none().sample(rng, 50) == 0.0)
        u = NoiseSpec.uniform(0.4).sample(rng, 500)
        assert np.all(np.abs(u) <= 0.4)
        t = NoiseSpec.two_point(0.7).sample(rng, 500)
        assert set(np.unique(t)) == {-0.7, 0.7}

    def test_labels(self):
        assert NoiseSpec.none().label == "none"
        assert NoiseSpec.uniform(0.3).label == "uniform:0.3"


class TestNoiseLimit:
    # numpy's uniform(-a, a) needs a finite 2a; every draw needs a finite a
    HALF_MAX = sys.float_info.max / 2

    @pytest.mark.parametrize("kind,a", [("uniform", 1e308), ("uniform", math.inf), ("two_point", math.inf)])
    def test_undrawable_half_width_names_the_limit(self, kind, a):
        limit = self.HALF_MAX if kind == "uniform" else sys.float_info.max
        with pytest.raises(ValueError) as exc:
            NoiseSpec(kind, a)
        assert str(exc.value) == f"{kind} noise half-width must be at most {limit!r}, got {a!r}"

    @pytest.mark.parametrize("noise", [NoiseSpec.uniform(HALF_MAX), NoiseSpec.two_point(sys.float_info.max)])
    def test_largest_half_width_draws_finite_values(self, noise):
        x = noise.sample(np.random.default_rng(0), 1000)
        assert np.all(np.isfinite(x)) and np.all(np.abs(x) <= noise.half_width)


class TestMeanPolicy:
    def test_constant_vector(self):
        rng = np.random.default_rng(0)
        v = MeanPolicy.constant(0.0).mean_vector(5, rng)
        assert np.all(v == 0.0) and v.shape == (5,)

    def test_constant_vector_is_a_read_only_view(self):
        v = MeanPolicy.constant(0.5).mean_vector(1 << 20, None)
        assert v.strides == (0,) and not v.flags.writeable
        assert v.shape == (1 << 20,) and v[-1] == 0.5

    def test_a_one_mean_period_is_a_read_only_view(self):
        v = MeanPolicy.periodic([0.5]).mean_vector(1 << 20, None)
        assert v.strides == (0,) and not v.flags.writeable
        assert v.shape == (1 << 20,) and v[-1] == 0.5

    def test_periodic_vector(self):
        rng = np.random.default_rng(0)
        v = MeanPolicy.periodic([-1.0, 1.0]).mean_vector(4, rng)
        assert v.tolist() == [-1.0, 1.0, -1.0, 1.0]

    def test_periodic_truncates(self):
        rng = np.random.default_rng(0)
        v = MeanPolicy.periodic([1.0, 2.0, 3.0]).mean_vector(5, rng)
        assert v.tolist() == [1.0, 2.0, 3.0, 1.0, 2.0]

    def test_random_choice_support(self):
        rng = np.random.default_rng(0)
        v = MeanPolicy.random_choice([0.0, 1.0]).mean_vector(200, rng)
        assert set(np.unique(v)) == {0.0, 1.0}

    def test_adversarial_has_no_vector(self):
        rng = np.random.default_rng(0)
        pol = MeanPolicy.adversarial(lambda avg: 0.0)
        with pytest.raises(ValueError):
            pol.mean_vector(3, rng)

    def test_policy_ids(self):
        assert MeanPolicy.constant(1.0).label == "constant(1)"
        assert MeanPolicy.periodic([-1, 1]).label == "periodic(-1,1)"
        assert MeanPolicy.random_choice([0, 1]).label == "random(0,1)"
        assert MeanPolicy.adversarial(lambda a: 0.0, "push_up").label == "adversarial(push_up)"


class TestSimulatePath:
    def test_constant_zero_no_noise(self):
        d = MaximalDist(-1.0, 1.0)
        cfg = SimConfig(n=5, reps=3, seed=0)
        x = simulate_path(d, MeanPolicy.constant(0.0), NoiseSpec.none(), cfg)
        assert x.shape == (3, 5)
        assert np.all(x == 0.0)

    def test_periodic_exact_path(self):
        d = MaximalDist(-1.0, 1.0)
        cfg = SimConfig(n=4, reps=1, seed=0)
        x = simulate_path(d, MeanPolicy.periodic([-1.0, 1.0]), NoiseSpec.none(), cfg)
        assert x[0].tolist() == [-1.0, 1.0, -1.0, 1.0]

    def test_two_point_noise_support(self):
        d = MaximalDist(1.0, 1.0)
        cfg = SimConfig(n=200, reps=1, seed=1)
        x = simulate_path(d, MeanPolicy.constant(1.0), NoiseSpec.two_point(0.5), cfg)
        assert set(np.unique(x)) == {0.5, 1.5}

    def test_bit_identical_reruns(self):
        d = MaximalDist(-1.0, 1.0)
        cfg = SimConfig(n=64, reps=5, seed=42)
        pol = MeanPolicy.random_choice([-1.0, 1.0])
        a = simulate_path(d, pol, NoiseSpec.uniform(0.3), cfg)
        b = simulate_path(d, pol, NoiseSpec.uniform(0.3), cfg)
        assert np.array_equal(a, b)

    def test_replication_r_uses_the_rth_spawned_child(self):
        # the path of replication r can be rebuilt from SeedSequence(seed).spawn(reps)[r] alone
        means = [-1.0, 0.0, 1.0]
        pol = MeanPolicy.random_choice(means)
        full = simulate_path(MaximalDist(-1.0, 1.0), pol, NoiseSpec.uniform(0.2), SimConfig(n=32, reps=3, seed=100))
        for r, child in enumerate(np.random.SeedSequence(100).spawn(3)):
            rng = np.random.default_rng(child)
            mus = rng.choice(np.asarray(means), size=32)
            assert np.array_equal(full[r], mus + rng.uniform(-0.2, 0.2, 32))

    def test_neighbouring_seeds_share_no_replication(self):
        d = MaximalDist(-1.0, 1.0)
        pol, noise = MeanPolicy.constant(0.0), NoiseSpec.uniform(0.5)
        rows = [{row.tobytes() for row in simulate_path(d, pol, noise, SimConfig(n=8, reps=200, seed=s))}
                for s in (0, 1)]
        assert len(rows[0]) == len(rows[1]) == 200
        assert not rows[0] & rows[1]

    def test_mean_outside_interval_names_step(self):
        d = MaximalDist(0.0, 1.0)
        cfg = SimConfig(n=4, reps=1, seed=0)
        with pytest.raises(SimulationError, match="step 0"):
            simulate_path(d, MeanPolicy.constant(2.0), NoiseSpec.none(), cfg)

    def test_adversarial_sees_running_average(self):
        seen = []

        def cb(avg):
            seen.append(avg)
            return 1.0

        d = MaximalDist(-1.0, 1.0)
        cfg = SimConfig(n=3, reps=1, seed=0)
        x = simulate_path(d, MeanPolicy.adversarial(cb), NoiseSpec.none(), cfg)
        assert x[0].tolist() == [1.0, 1.0, 1.0]
        assert seen == [0.0, 1.0, 1.0]  # 0.0 before the first observation

    def test_adversarial_violation_names_step(self):
        d = MaximalDist(-1.0, 1.0)
        cfg = SimConfig(n=10, reps=1, seed=0)
        calls = iter([0.0, 0.0, 0.0, 5.0])
        pol = MeanPolicy.adversarial(lambda avg: next(calls), "spike")
        with pytest.raises(SimulationError, match="step 3"):
            simulate_path(d, pol, NoiseSpec.none(), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=0, reps=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=1, reps=0, seed=0)


class TestLogSchedule:
    def test_ends_at_n_max(self):
        s = log_schedule(10_000)
        assert s[-1] == 10_000
        assert s == sorted(set(s))
        assert s[0] >= 1

    def test_small_n(self):
        assert log_schedule(1) == [1]
        assert log_schedule(3) == [1, 2, 3]


class TestEmpiricalLln:
    def test_degenerate_interval_hits_target_exactly(self):
        d = MaximalDist(0.0, 0.0)
        rep = empirical_lln(
            d,
            IDENT,
            [MeanPolicy.constant(0.0)],
            NoiseSpec.none(),
            SimConfig(n=100, reps=3, seed=0),
            GridSpec(num=2),
            n_schedule=[1, 10, 100],
        )
        for row in rep.rows:
            assert row.estimate == 0.0
            assert row.target_or_bound == 0.0
            assert row.gap == 0.0

    def test_constant_extremes_reach_target_without_noise(self):
        d = MaximalDist(-1.0, 1.0)
        rep = empirical_lln(
            d,
            IDENT,
            [MeanPolicy.constant(-1.0), MeanPolicy.constant(1.0)],
            NoiseSpec.none(),
            SimConfig(n=50, reps=2, seed=0),
            GridSpec(num=11),
            n_schedule=[1, 50],
        )
        assert all(r.target_or_bound == 1.0 for r in rep.rows)
        for row in rep.max_rows():
            assert row.estimate == 1.0
            assert row.gap == 0.0

    def test_square_with_noise_converges(self):
        # frozen seed; the policy-class maximum at n = 10^4 sits close to
        # the true worst case 1
        d = MaximalDist(-1.0, 1.0)
        policies = [MeanPolicy.constant(c) for c in (-1.0, 0.0, 1.0)]
        rep = empirical_lln(
            d,
            SQUARE,
            policies,
            NoiseSpec.uniform(0.1),
            SimConfig(n=10_000, reps=200, seed=7),
            GridSpec(num=201),
            n_schedule=[100, 10_000],
        )
        assert all(r.target_or_bound == 1.0 for r in rep.rows)
        last = rep.max_rows()[-1]
        assert last.n == 10_000
        assert abs(last.gap) < 0.05

    def test_gap_shrinks_for_constant_argmax_policy(self):
        # E[f(S_n/n)] decreases toward the target as n grows; allow
        # Monte-Carlo slack of three joint standard errors
        d = MaximalDist(-1.0, 1.0)
        rep = empirical_lln(
            d,
            SQUARE,
            [MeanPolicy.constant(1.0)],
            NoiseSpec.uniform(0.4),
            SimConfig(n=4096, reps=300, seed=3),
            GridSpec(num=101),
            n_schedule=[4, 4096],
        )
        first, last = rep.rows[0], rep.rows[-1]
        assert last.estimate <= first.estimate + 3 * (first.stderr + last.stderr)
        assert abs(last.gap) <= 3 * last.stderr + 1e-3

    def test_empty_policies_rejected(self):
        d = MaximalDist(0.0, 1.0)
        with pytest.raises(ValueError):
            empirical_lln(
                d, IDENT, [], NoiseSpec.none(), SimConfig(n=10, reps=1, seed=0), GridSpec(num=3)
            )

    def test_schedule_beyond_n_rejected(self):
        d = MaximalDist(0.0, 1.0)
        with pytest.raises(ValueError, match="beyond"):
            empirical_lln(
                d,
                IDENT,
                [MeanPolicy.constant(0.5)],
                NoiseSpec.none(),
                SimConfig(n=10, reps=1, seed=0),
                GridSpec(num=3),
                n_schedule=[5, 20],
            )

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="n_schedule must be nonempty"):
            empirical_lln(MaximalDist(0.0, 1.0), IDENT, [MeanPolicy.constant(0.5)], NoiseSpec.none(),
                          SimConfig(n=10, reps=1, seed=0), GridSpec(num=3), n_schedule=[])

    def test_report_shape_and_columns(self):
        d = MaximalDist(0.0, 1.0)
        rep = empirical_lln(
            d,
            IDENT,
            [MeanPolicy.constant(0.0), MeanPolicy.constant(1.0)],
            NoiseSpec.none(),
            SimConfig(n=10, reps=2, seed=0),
            GridSpec(num=3),
            n_schedule=[1, 10],
        )
        assert rep.kind == "lln"
        assert len(rep.rows) == 4  # 2 policies x 2 sample sizes
        assert rep.CSV_COLUMNS == ("n", "policy_id", "estimate", "target_or_bound", "gap", "stderr")
        obj = rep.to_json_obj()
        assert obj["kind"] == "lln"
        assert len(obj["rows"]) == 4
        assert "lower bound" in obj["estimate_semantics"]
        assert rep.violations() == []  # only rate reports flag violations

    def test_report_carries_the_target_error_bound(self):
        d = MaximalDist(-1.0, 1.0)
        sin7 = BoundedLipschitzFn(lambda x: math.sin(7 * x), 7.0, name="sin7")
        grid = GridSpec(step=0.5)
        cfg = SimConfig(n=100, reps=5, seed=0)
        rep = empirical_lln(d, sin7, [MeanPolicy.constant(1.0)], NoiseSpec.uniform(0.1), cfg, grid)
        assert rep.target_error_bound == eval_maximal(d, sin7, grid).error_bound == 1.75
        assert rep.to_json_obj()["target_error_bound"] == 1.75
        rate = rate_check(d, [MeanPolicy.constant(1.0)], NoiseSpec.uniform(0.1), cfg, [1, 100])
        assert rate.target_error_bound == 0.0
        assert "target_error_bound" not in rate.to_json_obj()  # a rate bound is exact


class TestSecondMomentUpper:
    def test_degenerate_no_noise(self):
        assert second_moment_upper(MaximalDist(0.0, 0.0), NoiseSpec.none()) == 0.0

    def test_wider_endpoint_wins(self):
        assert second_moment_upper(MaximalDist(-1.0, 2.0), NoiseSpec.none()) == 4.0

    def test_uniform_noise_adds_a2_over_3(self):
        v = second_moment_upper(MaximalDist(-1.0, 1.0), NoiseSpec.uniform(0.3))
        assert v == 1.0 + 0.3**2 / 3
        assert abs(v - 1.03) < 1e-15


class TestRateCheck:
    def test_no_noise_distance_is_identically_zero(self):
        d = MaximalDist(-1.0, 1.0)
        rep = rate_check(
            d,
            [MeanPolicy.constant(1.0), MeanPolicy.periodic([-1.0, 1.0])],
            NoiseSpec.none(),
            SimConfig(n=100, reps=5, seed=0),
            n_schedule=[1, 10, 100],
        )
        for row in rep.rows:
            assert row.estimate == 0.0
            assert row.gap == -row.target_or_bound
        assert rep.violations() == []

    def test_degenerate_uniform_noise_saturates_bound(self):
        # with mu fixed at 0 the distance equals |mean of the noise| and
        # E[mean^2] = a^2/(3n): the bound holds with near equality
        d = MaximalDist(0.0, 0.0)
        a = 0.6
        rep = rate_check(
            d,
            [MeanPolicy.constant(0.0)],
            NoiseSpec.uniform(a),
            SimConfig(n=64, reps=4000, seed=11),
            n_schedule=[1, 8, 64],
        )
        for row in rep.rows:
            assert row.target_or_bound == a**2 / 3 / row.n
            assert abs(row.gap) <= 3 * row.stderr
        assert rep.violations() == []

    def test_two_point_bound_value(self):
        d = MaximalDist(-1.0, 1.0)
        rep = rate_check(
            d,
            [MeanPolicy.constant(1.0)],
            NoiseSpec.two_point(0.5),
            SimConfig(n=100, reps=50, seed=5),
            n_schedule=[10, 100],
        )
        for row in rep.rows:
            assert row.target_or_bound == 1.25 / row.n
        assert rep.violations() == []

    def test_no_violations_across_random_configs(self):
        master = np.random.default_rng(2024)
        d = MaximalDist(-1.0, 1.0)
        for _ in range(12):
            kind = master.integers(0, 3)
            if kind == 0:
                pol = MeanPolicy.constant(float(master.uniform(-1, 1)))
            elif kind == 1:
                pol = MeanPolicy.periodic(master.uniform(-1, 1, size=2).tolist())
            else:
                pol = MeanPolicy.random_choice(master.uniform(-1, 1, size=3).tolist())
            noise = (
                NoiseSpec.none()
                if master.integers(0, 2) == 0
                else NoiseSpec.uniform(float(master.uniform(0.05, 0.5)))
            )
            rep = rate_check(
                d,
                [pol],
                noise,
                SimConfig(n=256, reps=200, seed=int(master.integers(0, 10_000))),
                n_schedule=[1, 16, 256],
            )
            assert rep.violations() == []

    def test_csv_rows_use_repr_floats(self):
        d = MaximalDist(0.0, 0.0)
        rep = rate_check(
            d,
            [MeanPolicy.constant(0.0)],
            NoiseSpec.none(),
            SimConfig(n=10, reps=2, seed=0),
            n_schedule=[10],
        )
        row = rep.csv_rows()[0]
        assert row[0] == 10
        assert row[2] == repr(0.0)


class TestViolationLevel:
    # at a degenerate interval with two_point:1 noise, dist(S_n/n)^2 is the
    # squared mean noise, whose expectation is exactly the bound 1/n
    EXACT = (MaximalDist(0.0, 0.0), [MeanPolicy.constant(0.0)], NoiseSpec.two_point(1.0))
    REPRO = ["rate", "--mu-lo", "0", "--mu-hi", "0", "--noise", "two_point:1", "--policy", "constant:0", "--n-max", "100"]

    @pytest.mark.parametrize("reps", [1, 2, 5])
    def test_rows_whose_replications_agree_are_not_flagged(self, capsys, reps):
        # the n=2 row of two replications that both gave 1.0 has gap 0.5 and stderr 0.0
        from subexp import cli

        assert cli.main(self.REPRO + ["--reps", str(reps)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["violations"] == 0
        assert result["violation_level"] == lln.VIOLATION_LEVEL

    @pytest.mark.parametrize("reps", [1, 2, 3, 5])
    def test_the_exact_bound_flags_nothing(self, reps):
        d, policies, noise = self.EXACT
        rep = rate_check(d, policies, noise, SimConfig(n=1000, reps=reps, seed=3), log_schedule(1000))
        assert rep.violations() == []

    @pytest.mark.parametrize("reps", [1, 3])
    def test_an_lln_report_flags_nothing(self, reps):
        # its row_range is the default inf, however far the estimate lies from the target
        pol = [MeanPolicy.constant(1.0)]
        rep = empirical_lln(MaximalDist(0.0, 1.0), IDENT, pol, NoiseSpec.uniform(0.5), SimConfig(n=50, reps=reps, seed=0),
                            GridSpec(num=2), [1, 50])
        far = lln.SimReport("lln", tuple(lln.SimRow(r.n, r.policy_id, 1e300, 0.0, 1e300, 0.0) for r in rep.rows),
                            0, rep.noise, rep.policies, reps=reps)
        assert rep.row_range == far.row_range == math.inf
        assert rep.violations() == far.violations() == [] and rep.to_json_obj()["violations"] == 0

    @pytest.mark.parametrize("kind", ["lln", "rate"])
    def test_a_report_without_rows_flags_nothing(self, kind):
        assert lln.SimReport(kind, (), 0, "none", ()).violations() == []

    def test_a_bound_ten_times_too_small_is_flagged(self, monkeypatch):
        m2 = lln.second_moment_upper
        monkeypatch.setattr(lln, "second_moment_upper", lambda d, noise: m2(d, noise) / 10)
        d, policies, noise = self.EXACT
        rep = rate_check(d, policies, noise, SimConfig(n=100, reps=2000, seed=0), log_schedule(100))
        assert 1 in [row.n for row in rep.violations()]


MIXED = [
    MeanPolicy.constant(-1.0),
    MeanPolicy.random_choice([-1.0, 0.5, 2.0]),
    MeanPolicy.periodic([2.0, -1.0, 0.0]),
    MeanPolicy.constant(-1.0),
]
CHASE = MeanPolicy.adversarial(lambda avg: 2.0 if avg < 0.5 else -1.0, "chase")


class TestSharedNoise:
    @pytest.mark.parametrize("noise", [NoiseSpec.uniform(0.5), NoiseSpec.two_point(0.3), NoiseSpec.none()])
    @pytest.mark.parametrize("policies", [MIXED, MIXED + [CHASE]], ids=["four", "with_adversarial"])
    def test_multi_policy_calls_equal_single_calls(self, noise, policies):
        d = MaximalDist(-1.0, 2.0)
        cfg = SimConfig(n=300, reps=7, seed=11)
        schedule = [1, 2, 17, 120, 300]
        grid = GridSpec(num=31)
        rate = rate_check(d, policies, noise, cfg, schedule)
        lln_rep = empirical_lln(d, SQUARE, policies, noise, cfg, grid, schedule)
        k = len(schedule)
        for i, pol in enumerate(policies):
            assert rate.rows[i * k : (i + 1) * k] == rate_check(d, [pol], noise, cfg, schedule).rows
            single = empirical_lln(d, SQUARE, [pol], noise, cfg, grid, schedule)
            assert lln_rep.rows[i * k : (i + 1) * k] == single.rows

    @pytest.mark.parametrize("noise", [NoiseSpec.uniform(0.5), NoiseSpec.two_point(0.3), NoiseSpec.none()])
    @pytest.mark.parametrize("reps", [1, 2, 7])
    def test_rows_are_the_statistics_of_simulate_path(self, noise, reps):
        d = MaximalDist(-1.0, 2.0)
        cfg = SimConfig(n=120, reps=reps, seed=11)
        schedule = [1, 2, 17, 120]
        policies = [MIXED[0], MIXED[1], MIXED[2], CHASE]
        rep = empirical_lln(d, IDENT, policies, noise, cfg, GridSpec(num=31), schedule)
        k = len(schedule)
        for i, pol in enumerate(policies):
            sums = np.cumsum(simulate_path(d, pol, noise, cfg), axis=1)
            for row, n in zip(rep.rows[i * k : (i + 1) * k], schedule):
                col = sums[:, n - 1] / n
                assert row.estimate == np.mean(col)
                assert row.stderr == (np.std(col, ddof=1) / math.sqrt(reps) if reps > 1 else 0.0)

    def test_first_failing_policy_in_list_order_is_reported(self):
        # the random policy fails at some replication; the constant one before any
        d = MaximalDist(-1.0, 1.0)
        cfg = SimConfig(n=50, reps=3, seed=5)
        risky = MeanPolicy.random_choice([0.0, 4.0])
        with pytest.raises(SimulationError) as single:
            rate_check(d, [risky], NoiseSpec.none(), cfg, [50])
        for policies in ([risky, MeanPolicy.constant(7.0)], [MeanPolicy.constant(0.0), risky, CHASE]):
            with pytest.raises(SimulationError) as mixed:
                rate_check(d, policies, NoiseSpec.none(), cfg, [50])
            assert str(mixed.value) == str(single.value)

    def test_transform_error_of_an_earlier_policy_comes_first(self):
        d = MaximalDist(0.0, 1.0)
        cfg = SimConfig(n=20, reps=4, seed=0)
        noise = NoiseSpec.uniform(0.5)

        def picky(x):
            if x < 0:
                raise ValueError(f"negative running mean {x!r}")
            return x

        fn = BoundedLipschitzFn(picky, 1.0, name="picky")
        with pytest.raises(ValueError, match="negative running mean") as single:
            empirical_lln(d, fn, [MeanPolicy.constant(0.0)], noise, cfg, GridSpec(num=3), [1, 20])
        policies = [MeanPolicy.constant(0.0), MeanPolicy.constant(3.0)]
        with pytest.raises(ValueError) as mixed:
            empirical_lln(d, fn, policies, noise, cfg, GridSpec(num=3), [1, 20])
        assert str(mixed.value) == str(single.value)


def _outcome(call):
    """A report's repr, or the type and message of the error it raised."""
    try:
        return repr(call())
    except (SimulationError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestPairKernel:
    """``_experiment`` sums paths two per complex ``np.cumsum``, in chunks of
    ``lln._PAIR_CHUNK`` draws; neither the pairing nor the chunk size may
    change a report or an error."""

    D = MaximalDist(-1.0, 2.0)
    # one mean in 100 leaves the interval: the policy fails in a later replication
    RISKY = MeanPolicy.random_choice([0.0] * 99 + [4.0])
    CFG = SimConfig(n=30, reps=7, seed=3)
    # chunk boundaries at 7 and 14 for a chunk of 7 draws; unsorted on purpose
    SCHEDULE = [30, 1, 7, 8, 2, 14, 15, 29]
    POLICY_SETS = {
        "one": [MIXED[1]],
        "two": [MIXED[0], CHASE],
        "three": [MIXED[2], MIXED[1], CHASE],
        "five": [MIXED[0], MIXED[1], MIXED[2], CHASE, MeanPolicy.constant(0.5)],
    }
    FAILING = [MIXED[0], CHASE, RISKY, MIXED[1], MIXED[2]]

    @staticmethod
    def _at_chunk_sizes(monkeypatch, run):
        """run()'s outcome at the default chunk size, asserted equal at 1, 2 and 7."""
        want = _outcome(run)
        for chunk in (1, 2, 7):
            with monkeypatch.context() as m:
                m.setattr(lln, "_PAIR_CHUNK", chunk)
                assert _outcome(run) == want, chunk
        return want

    def test_complex_lanes_are_two_float_cumsums(self):
        big = sys.float_info.max
        rng = np.random.default_rng(7)
        magnitudes = 10.0 ** rng.uniform(-300, 300, 8) * rng.choice([-1.0, 1.0], 8)
        inputs = [
            np.array([-0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0]),
            np.array([-0.0, 1.0, -1.0, -0.0, 5e-324, -5e-324, -0.0, 0.0]),
            np.array([big, big, -1.0, -big, 2.0, 0.0, -0.0, 1.0]),  # overflows to inf
            np.array([-big, -big, big, big, big, -0.0, 1.0, 2.0]),  # to -inf, then stays
            np.array([big, big, -math.inf, 1.0, -0.0, 0.0, 3.0, -big]),  # inf - inf
            np.array([math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0, 1.0, 1.0]),
            magnitudes,
        ]
        with np.errstate(all="ignore"):
            for a in inputs:
                for b in inputs:
                    z = np.empty(len(a), dtype=complex)
                    z.real, z.imag = a, b
                    np.cumsum(z, out=z)
                    assert z.real.tobytes() == np.cumsum(a).tobytes()
                    assert z.imag.tobytes() == np.cumsum(b).tobytes()

    @pytest.mark.parametrize("noise", [NoiseSpec.none(), NoiseSpec.uniform(0.5), NoiseSpec.two_point(0.3)])
    @pytest.mark.parametrize("reps", [1, 2, 7])
    @pytest.mark.parametrize("policies", list(POLICY_SETS.values()), ids=list(POLICY_SETS))
    def test_chunk_size_changes_no_report(self, monkeypatch, noise, reps, policies):
        cfg = SimConfig(n=30, reps=reps, seed=3)
        rate = self._at_chunk_sizes(monkeypatch, lambda: rate_check(self.D, policies, noise, cfg, self.SCHEDULE))
        grid = GridSpec(num=31)
        law = self._at_chunk_sizes(
            monkeypatch, lambda: empirical_lln(self.D, SQUARE, policies, noise, cfg, grid, self.SCHEDULE)
        )
        assert rate.startswith("SimReport(kind='rate'") and law.startswith("SimReport(kind='lln'")

    @pytest.mark.parametrize("noise", [NoiseSpec.none(), NoiseSpec.uniform(0.5), NoiseSpec.two_point(0.3)])
    def test_a_policy_failing_mid_run_keeps_its_error(self, monkeypatch, noise):
        failed = {}
        for _ in lln._walk(self.D, [self.RISKY], noise, self.CFG, 30, failed):
            pass
        assert failed[0][0] > 0  # earlier replications of it were summed first
        policies = self.FAILING
        for run in (
            lambda: rate_check(self.D, policies, noise, self.CFG, self.SCHEDULE),
            lambda: empirical_lln(self.D, SQUARE, policies, noise, self.CFG, GridSpec(num=31), self.SCHEDULE),
        ):
            assert self._at_chunk_sizes(monkeypatch, run) == f"SimulationError: {failed[0][1]}"

    def test_an_earlier_transform_error_still_comes_first(self, monkeypatch):
        def picky(x):
            if x < -1.0:
                raise ValueError(f"running mean {x!r} below -1")
            return x

        fn = BoundedLipschitzFn(picky, 1.0, name="picky")
        noise = NoiseSpec.uniform(0.5)
        first = [MeanPolicy.constant(-1.0), self.RISKY]
        got = self._at_chunk_sizes(
            monkeypatch, lambda: empirical_lln(self.D, fn, first, noise, self.CFG, GridSpec(num=3), self.SCHEDULE)
        )
        assert got.startswith("ValueError: running mean ")
        # with the failing policy first, no earlier path reaches the transform
        got = self._at_chunk_sizes(
            monkeypatch,
            lambda: empirical_lln(self.D, fn, first[::-1], noise, self.CFG, GridSpec(num=3), self.SCHEDULE),
        )
        assert got.startswith("SimulationError: policy random(")

    @pytest.mark.parametrize("reps", [1, 2, 7])
    def test_a_leading_negative_zero_keeps_its_sign(self, monkeypatch, reps):
        # S_1 = -0.0 in the real lane, the imaginary lane, and paired with
        # itself; the test function reports the sign it sees (the Monte-Carlo
        # mean of -0.0 alone would read 0.0).  No noise kind draws -0.0, and
        # mu + 0.0 is +0.0, so the noise is patched to -0.0.
        monkeypatch.setattr(NoiseSpec, "sample", lambda self, rng, n: np.full(n, -0.0))
        sign = BoundedLipschitzFn(lambda x: math.copysign(1.0, x), 1.0, name="sign")
        lead = MeanPolicy.periodic([-0.0, 1.0])
        cfg = SimConfig(n=30, reps=reps, seed=3)
        for policies in ([lead], [lead, lead], [MIXED[0], lead], [MIXED[0], lead, lead]):
            run = lambda: empirical_lln(self.D, sign, policies, NoiseSpec.none(), cfg, GridSpec(num=3), [1, 2, 30])
            self._at_chunk_sizes(monkeypatch, run)
            firsts = [row.estimate for row in run().rows if row.policy_id == lead.label]
            assert firsts == [-1.0, 1.0, 1.0] * (len(firsts) // 3)

    def test_an_overflowing_sum_prints_no_warning(self, monkeypatch):
        # a running sum that overflows to inf, within a chunk or at a chunk
        # boundary, raises no numpy warning (the README promises none)
        big = sys.float_info.max
        d = MaximalDist(0.0, big)
        clip = BoundedLipschitzFn(lambda x: min(x, 1.0), 1.0, name="clip")
        policies = [MeanPolicy.constant(big), MeanPolicy.constant(1.0), MeanPolicy.constant(big)]
        cfg = SimConfig(n=4, reps=2, seed=0)
        for chunk in (1, 2, 7, lln._PAIR_CHUNK):
            with monkeypatch.context() as m:
                m.setattr(lln, "_PAIR_CHUNK", chunk)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rep = empirical_lln(d, clip, policies, NoiseSpec.none(), cfg, GridSpec(num=3), [1, 2, 4])
            assert [row.estimate for row in rep.rows] == [1.0] * 9


class TestChunkedDraws:
    """The draws the simulation makes (uniform noise, two-point signs and a
    random policy's means) are one stream each: taken in chunks from a
    replication's generator they are the one call's draws bit for bit, so a
    walk may draw its path a chunk at a time and keep every output."""

    N = 100_003
    DRAWS = {
        "uniform": lambda rng, n: rng.uniform(-0.7, 0.7, n),
        "integers": lambda rng, n: rng.integers(0, 2, n),
        "choice": lambda rng, n: rng.choice(np.array([-1.0, 0.25, 0.5]), size=n),
    }

    @pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 16])
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    def test_chunks_are_the_one_calls_draws(self, draw, chunk):
        make = self.DRAWS[draw]
        whole = make(lln._rep_rng(11, 3), self.N)
        rng = lln._rep_rng(11, 3)
        parts = np.concatenate([make(rng, min(chunk, self.N - i)) for i in range(0, self.N, chunk)])
        assert parts.dtype == whole.dtype and parts.tobytes() == whole.tobytes()


class TestAdversarialChunks:
    """``_adversarial_means`` reads the noise and writes the means one
    ``lln._PAIR_CHUNK`` at a time; the chunk size changes no mean and no
    error."""

    D = MaximalDist(-1.0, 2.0)

    @staticmethod
    def reference(d, policy, eps):
        # the whole-path walk: every noise entry as a Python float, then one array
        mus, total = [], 0.0
        for i, e in enumerate(eps.tolist()):
            mu = float(policy.callback(total / i if i else 0.0))
            if not (d.mu_lo <= mu <= d.mu_hi):
                raise lln._outside(d, policy, mu, i)
            mus.append(mu)
            total += mu + e
        return np.array(mus)

    @pytest.mark.parametrize("noise", [NoiseSpec.none(), NoiseSpec.uniform(0.7), NoiseSpec.two_point(0.3)])
    def test_means_are_the_whole_walks_bit_for_bit(self, monkeypatch, noise):
        eps = noise.sample(np.random.default_rng(5), 50)
        want = self.reference(self.D, CHASE, eps)
        for chunk in (1, 2, 7, 49, 50, lln._PAIR_CHUNK):
            monkeypatch.setattr(lln, "_PAIR_CHUNK", chunk)
            got = lln._adversarial_means(self.D, CHASE, eps)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), chunk

    def test_a_mean_outside_in_a_later_chunk_names_its_step(self, monkeypatch):
        steps = iter(range(100))
        spike = MeanPolicy.adversarial(lambda avg: 5.0 if next(steps) == 9 else 0.0, "spike")
        monkeypatch.setattr(lln, "_PAIR_CHUNK", 4)
        with pytest.raises(SimulationError, match=r"^policy adversarial\(spike\) produced mean 5\.0 at step 9, "):
            lln._adversarial_means(self.D, spike, NoiseSpec.none().sample(None, 20))


class TestPairBufferMemory:
    def test_peak_stays_within_seven_path_arrays_and_one_buffer(self):
        # the four default rate policies; a path-length pair buffer would
        # add 16 bytes per draw and fail this
        import tracemalloc

        n = 1 << 20
        d = MaximalDist(-1.0, 1.0)
        policies = [MeanPolicy.constant(-1.0), MeanPolicy.constant(0.0), MeanPolicy.constant(1.0),
                    MeanPolicy.periodic([-1.0, 1.0])]
        rate_check(d, policies, NoiseSpec.uniform(0.5), SimConfig(n=10, reps=1, seed=0), [10])  # warm up
        tracemalloc.start()
        try:
            rate_check(d, policies, NoiseSpec.uniform(0.5), SimConfig(n=n, reps=1, seed=0), log_schedule(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 56 * n + (2 << 20)

    @staticmethod
    def _traced_peak(policies, n, noise=NoiseSpec.uniform(0.5)):
        """Traced peak of a reps=1 rate_check of length n, as the test above measures it."""
        import tracemalloc

        d = MaximalDist(-1.0, 1.0)
        rate_check(d, policies, noise, SimConfig(n=10, reps=1, seed=0), [10])  # warm up
        tracemalloc.start()
        try:
            rate_check(d, policies, noise, SimConfig(n=n, reps=1, seed=0), log_schedule(n))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_paths_are_added_where_they_are_summed(self):
        # the noise vector (8 bytes a draw), the periodic means (8) and the
        # 1 MiB pair buffer (1 at n = 2^20); a path array per policy, or a
        # mean vector per constant, would add 8 bytes a draw each
        n = 1 << 20
        policies = [MeanPolicy.constant(-1.0), MeanPolicy.constant(0.0), MeanPolicy.constant(1.0),
                    MeanPolicy.periodic([-1.0, 1.0])]
        assert self._traced_peak(policies, n) <= 18 * n + (2 << 20)

    def test_constant_policies_hold_no_mean_vector(self):
        n = 1 << 20
        policies = [MeanPolicy.constant(-1.0), MeanPolicy.constant(0.0), MeanPolicy.constant(1.0)]
        assert self._traced_peak(policies, n) <= 10 * n + (2 << 20)

    def test_no_noise_holds_no_vector(self):
        # the periodic means (8 bytes a draw) and the 1 MiB pair buffer; a
        # vector of zeros for the noise would add 8 bytes a draw
        eps = NoiseSpec.none().sample(None, 5)
        assert eps.strides == (0,) and not eps.flags.writeable and eps.tolist() == [0.0] * 5
        n = 1 << 20
        policies = [MeanPolicy.constant(-1.0), MeanPolicy.constant(0.0), MeanPolicy.constant(1.0),
                    MeanPolicy.periodic([-1.0, 1.0])]
        assert self._traced_peak(policies, n, NoiseSpec.none()) <= 12 * n + (2 << 20)

    def test_a_constant_is_checked_at_its_one_mean(self):
        import tracemalloc

        pol = MeanPolicy.constant(2.0)
        mus = pol.mean_vector(1 << 22, None)
        tracemalloc.start()
        try:
            with pytest.raises(SimulationError, match="mean 2.0 at step 0, outside"):
                lln._check_means(mus, MaximalDist(-1.0, 1.0), pol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # no bool temporary of n entries


class TestFixedPolicies:
    """Constant and periodic policies share one path through ``_walk``: their
    means are made and checked at first use and serve every replication."""

    D = MaximalDist(-1.0, 2.0)

    @pytest.mark.parametrize("noise", [NoiseSpec.none(), NoiseSpec.uniform(0.5), NoiseSpec.two_point(0.3)])
    def test_a_one_mean_period_walks_as_its_constant(self, noise):
        cfg = SimConfig(n=300, reps=3, seed=5)
        for mu in (-1.0, 0.5, 2.0):
            policies = (MeanPolicy.constant(mu), MeanPolicy.periodic([mu]))
            paths = [simulate_path(self.D, pol, noise, cfg).tobytes() for pol in policies]
            assert paths[0] == paths[1]
            rows = [
                [(r.n, r.estimate, r.target_or_bound, r.gap, r.stderr) for r in rate_check(self.D, [pol], noise, cfg, [1, 7, 300]).rows]
                for pol in policies
            ]
            assert rows[0] == rows[1]

    @pytest.mark.parametrize("pol", [MeanPolicy.constant(3.0), MeanPolicy.periodic([0.0, 3.0]), MeanPolicy.periodic([3.0])])
    def test_a_fixed_policy_outside_the_interval_fails_at_replication_zero(self, pol):
        step = 1 if pol.values == (0.0, 3.0) else 0
        failed = {}
        walked = list(lln._walk(self.D, [MeanPolicy.constant(0.0), pol], NoiseSpec.uniform(0.5),
                                SimConfig(n=4, reps=3, seed=0), 4, failed))
        assert [(p, r) for p, r, _, _ in walked] == [(0, 0), (0, 1), (0, 2)]
        (r, exc), = failed.values()
        assert list(failed) == [1] and r == 0
        assert str(exc) == f"policy {pol.label} produced mean 3.0 at step {step}, outside [-1.0, 2.0]"


class TestDrawBudget:
    def test_limit_is_checked_in_the_config(self, monkeypatch):
        monkeypatch.setattr(lln, "_MAX_DRAWS", 100)
        assert SimConfig(n=10, reps=10, seed=0).n == 10
        with pytest.raises(ValueError, match=r"reps \* n = 10 \* 11 = 110 draws, over the limit of 100"):
            SimConfig(n=11, reps=10, seed=0)
        with pytest.raises(ValueError, match="--reps/--n-max"):
            SimConfig(n=1, reps=101, seed=0)

    def test_oversized_run_is_rejected_before_allocating(self):
        with pytest.raises(ValueError, match="4000000000 draws"):
            SimConfig(n=2_000_000_000, reps=2, seed=0)


class TestSecondMomentOverflow:
    # a Python float ** 2 raises OverflowError above ~1.34e154; each
    # overflow is a ValueError naming the second moment instead
    def test_interval_endpoint(self):
        with pytest.raises(ValueError, match=r"worst-case second moment over \[-1.0, 1e\+200\].*overflows"):
            second_moment_upper(MaximalDist(-1.0, 1e200), NoiseSpec.none())

    @pytest.mark.parametrize("kind", ["uniform", "two_point"])
    def test_noise(self, kind):
        with pytest.raises(ValueError, match=f"second moment of noise {kind}:1e\\+200 overflows"):
            NoiseSpec(kind, 1e200).second_moment

    def test_sum_overflowing_to_inf(self):
        with pytest.raises(ValueError, match="overflows to inf"):
            second_moment_upper(MaximalDist(0.0, 1e154), NoiseSpec.two_point(1.3e154))

    def test_rate_check_before_simulating(self):
        with pytest.raises(ValueError, match="worst-case second moment"):
            rate_check(MaximalDist(-1.0, 1e200), [MeanPolicy.constant(0.0)], NoiseSpec.none(),
                       SimConfig(n=10, reps=2, seed=0), [1, 10])

    def test_largest_squarable_values_are_unchanged(self):
        a = 1.3407807929942596e154  # the largest float whose square is finite
        assert NoiseSpec.two_point(a).second_moment == a**2
        assert second_moment_upper(MaximalDist(-a, 0.0), NoiseSpec.none()) == a**2


class TestNonFiniteMonteCarloStatistics:
    # each path's squared distance, about 1.8e308, is finite; their sum is not
    NOISE = NoiseSpec.two_point(1.3407807929942596e154)
    CFG = SimConfig(n=10, reps=5, seed=0)

    def test_rate_check_names_the_policy_and_n(self, recwarn):
        with pytest.raises(SimulationError, match=r"^policy constant\(0\) at n=1: the Monte-Carlo mean inf"):
            rate_check(MaximalDist(0.0, 0.0), [MeanPolicy.constant(0.0)], self.NOISE, self.CFG, [1, 10])
        assert [str(w.message) for w in recwarn] == []

    def test_empirical_lln_names_the_policy_and_n(self, recwarn):
        f = BoundedLipschitzFn(lambda x: 1e308 * x, 1e308)
        with pytest.raises(SimulationError, match=r"^policy constant\(-1\) at n=2: the Monte-Carlo mean -inf"):
            empirical_lln(MaximalDist(-1.0, 1.0), f, [MeanPolicy.constant(-1.0)], NoiseSpec.none(),
                          self.CFG, GridSpec(num=3), [2, 10])
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("reps", [1, 2, 7, 9, 129, 9000])
    def test_statistics_equal_the_column_by_column_loop(self, reps):
        rng = np.random.default_rng(reps)
        acc = rng.standard_normal((2, reps, 3)) * 1e150 + 1e149
        want = [
            [(float(np.mean(a[:, k])), float(np.std(a[:, k], ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0)
             for k in range(3)]
            for a in acc
        ]
        policies = [MeanPolicy.constant(0.0), MeanPolicy.constant(1.0)]
        assert lln._mean_and_stderr(acc, policies, [1, 5, 10]) == want



class TestNanMeans:
    D = MaximalDist(0.0, 1.0)
    POLICIES = {
        "constant": MeanPolicy.constant(math.nan),
        "periodic": MeanPolicy.periodic([0.0, math.nan]),
        "random": MeanPolicy.random_choice([0.0, math.nan]),
    }

    @pytest.mark.parametrize("kind", list(POLICIES))
    def test_a_nan_mean_is_outside_the_interval(self, kind):
        pol = self.POLICIES[kind]
        pattern = rf"^policy {re.escape(pol.label)} produced mean nan at step \d+, outside \[0\.0, 1\.0\]$"
        with pytest.raises(SimulationError, match=pattern):
            simulate_path(self.D, pol, NoiseSpec.none(), SimConfig(n=20, reps=2, seed=0))
        with pytest.raises(SimulationError, match=pattern):
            rate_check(self.D, [pol], NoiseSpec.uniform(0.1), SimConfig(n=20, reps=2, seed=0), [20])

    def test_the_first_nan_step_is_named(self):
        with pytest.raises(SimulationError, match=r"produced mean nan at step 1,"):
            simulate_path(self.D, self.POLICIES["periodic"], NoiseSpec.none(), SimConfig(n=3, reps=1, seed=0))


class TestDistinctLabels:
    def test_means_that_g_formatting_would_merge_get_distinct_labels(self):
        labels = [MeanPolicy.constant(m).label for m in (1.0, 1.0000005, 1.000001)]
        labels.append(MeanPolicy.periodic([1.0, 1.000001]).label)
        assert labels == ["constant(1)", "constant(1.0000005)", "constant(1.000001)", "periodic(1,1.000001)"]

    def test_short_form_is_kept_where_it_reads_back_exactly(self):
        assert MeanPolicy.constant(0.0).label == "constant(0)"
        assert MeanPolicy.constant(-0.0).label == "constant(-0)"
        assert MeanPolicy.constant(2.5e-300).label == "constant(2.5e-300)"
        assert MeanPolicy.random_choice([0.1, 1 / 3]).label == "random(0.1,0.3333333333333333)"
        assert MeanPolicy.constant(math.inf).label == "constant(inf)"
        assert MeanPolicy.constant(math.nan).label == "constant(nan)"


class TestScheduleEntries:
    CFG = SimConfig(n=50, reps=5, seed=0)

    @pytest.mark.parametrize("schedule, bad", [([-5, 10], "-5"), ([0], "0"), ([10, 2.5], "2.5"), ([np.int64(-1)], "np.int64(-1)"),
                                               ([True], "True"), ([5, True], "True")])
    def test_rate_check_rejects_entries_below_one_or_not_integers(self, schedule, bad):
        with pytest.raises(ValueError, match=rf"n_schedule entries must be integers >= 1, got {re.escape(bad)}$"):
            rate_check(MaximalDist(-1.0, 1.0), [MeanPolicy.constant(0.5)], NoiseSpec.uniform(0.3), self.CFG, schedule)

    def test_empirical_lln_rejects_them_too(self):
        with pytest.raises(ValueError, match=r"got -5$"):
            empirical_lln(MaximalDist(-1.0, 1.0), IDENT, [MeanPolicy.constant(0.5)], NoiseSpec.none(), self.CFG,
                          GridSpec(num=3), [-5, 2.5])

    def test_numpy_integers_are_accepted(self):
        report = rate_check(MaximalDist(-1.0, 1.0), [MeanPolicy.constant(0.5)], NoiseSpec.none(), self.CFG,
                            list(np.array([1, 50])))
        assert [row.n for row in report.rows] == [1, 50]

