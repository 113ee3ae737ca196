"""The float filter in front of the exact kernel changes no result.

Max queries (``sublinear_expect``, ``capacity`` and the first family axis of
``compose_independent``) run the exact kernel only on the members and rows
whose float bounds reach the best lower bound.  Forcing the gate
``scenarios._PRUNE_MIN_CELLS`` to 0 (always filter) and to infinity (never)
must give the same floats, and both must equal an exact ``Fraction``
reference rounded once per member.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from subexp import axioms, scenarios
from subexp.axioms import random_family, random_fn, run_axiom_suite
from subexp.joint import BoundedLipschitzFnN, JointSpec, compose_independent
from subexp.maximal import GridSpec, MaximalDist
from subexp.scenarios import (
    DiscreteMeasure,
    ScenarioFamily,
    _atom_values,
    _candidates,
    capacity,
    sublinear_expect,
)

GATES = (0, math.inf)

# TestExactKernel's value draws, over the distinct atom points
DRAWS = {
    "wide": lambda rng, n: rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n),
    "subnormal": lambda rng, n: rng.choice([5e-324, -5e-324, 1e-310, 2.2e-308, 0.0, -0.0, 1.0], n),
    "constant": lambda rng, n: np.full(n, rng.uniform(-1e6, 1e6)),
    "huge": lambda rng, n: rng.choice([1.7e308, -1.7e308, 1e300, 3.0], n),
}


def big_family(rng, measures=8, atoms=250):
    return ScenarioFamily(
        tuple(
            DiscreteMeasure(tuple(zip(rng.uniform(-4.0, 4.0, atoms).tolist(), rng.dirichlet(np.ones(atoms)).tolist())))
            for _ in range(measures)
        )
    )


def exact_mean(measure, value) -> Fraction:
    num = sum((Fraction(w) * Fraction(value(p)) for p, w in measure.atoms), Fraction(0))
    return num / sum((Fraction(w) for _, w in measure.atoms), Fraction(0))


def reference_sup(fam, value) -> tuple[float, int]:
    """Each member's exact mean rounded once; the largest, lowest index first."""
    means = [float(exact_mean(m, value)) for m in fam.measures]
    best = max(means)
    return best, means.index(best)


def reference_compose(marginals, f, grid, prefix=()):
    """Backward recursion: grid maxima over maximal axes, each family
    member's exact mean of the inner values rounded once, then their max."""
    if not marginals:
        return float(f(*prefix))
    m, rest = marginals[0], marginals[1:]
    if isinstance(m, MaximalDist):
        return max(reference_compose(rest, f, grid, prefix + (x,)) for x in grid.points(m).tolist())
    inner = {p: reference_compose(rest, f, grid, prefix + (p,)) for p in m._points.tolist()}
    return reference_sup(m, inner.__getitem__)[0]


def table_fn(fam, rng, draw):
    """A scalar-only function taking the drawn values at the family's points."""
    pts = fam._points.tolist()
    return dict(zip(pts, DRAWS[draw](rng, len(pts)).tolist())).__getitem__


def with_gate(monkeypatch, gate, call):
    monkeypatch.setattr(scenarios, "_PRUNE_MIN_CELLS", gate)
    return call()


def families(seed, cases):
    """One 8 x 250 family, then axioms.random_family draws."""
    rng = np.random.default_rng(seed)
    yield rng, big_family(rng)
    for _ in range(cases):
        yield rng, random_family(rng)


@pytest.mark.parametrize("draw", sorted(DRAWS))
class TestBothPathsBitForBit:
    def test_sublinear_expect_and_capacity(self, monkeypatch, draw):
        for rng, fam in families(31, 300):
            value = table_fn(fam, rng, draw)
            want = reference_sup(fam, value)
            event = lambda x: value(x) > 0.0  # noqa: E731
            want_cap = reference_sup(fam, lambda x: 1.0 if event(x) else 0.0)[0]
            for gate in GATES:
                assert tuple(with_gate(monkeypatch, gate, lambda: sublinear_expect(fam, value))) == want
                assert with_gate(monkeypatch, gate, lambda: capacity(fam, event)) == want_cap

    @pytest.mark.parametrize("shape", ["f", "df", "fd", "ddf", "ff"])
    def test_compose_independent(self, monkeypatch, draw, shape):
        d = MaximalDist(-1.0, 0.75)
        grid = GridSpec(num=3)
        for i, (rng, fam) in enumerate(families(37, 300)):
            value = table_fn(fam, rng, draw)
            second = random_family(rng)
            other = table_fn(second, rng, draw)
            spec, fn = {
                "f": ((fam,), value),
                "df": ((d, fam), lambda x, a: x * value(a)),
                "fd": ((fam, d), lambda a, y: value(a) * y),
                "ddf": ((d, d, fam), lambda x, y, a: (x * y) * value(a)),
                "ff": ((fam, second), lambda a, b: 0.5 * value(a) + 0.5 * other(b)),
            }[shape]
            f = BoundedLipschitzFnN(fn, len(spec), 1.0)
            want = reference_compose(spec, fn, grid)
            for gate in GATES:
                got = with_gate(monkeypatch, gate, lambda: compose_independent(JointSpec(spec), f, grid))
                assert got.value == want, (i, gate)


class TestFilterDecisions:
    def test_a_tie_after_rounding_goes_to_the_lowest_index(self, monkeypatch):
        # exact means 1, 1 + 2**-58 and 1/2: the first two round to 1.0
        low = DiscreteMeasure.uniform([1.0] * 64)
        high = DiscreteMeasure.uniform([1.0] * 63 + [1.0 + 2.0**-52])
        half = DiscreteMeasure.uniform([0.5] * 64)
        assert exact_mean(high, float) > exact_mean(low, float)
        for order, want in (((low, high, half), 0), ((half, high, low), 1)):
            fam = ScenarioFamily(order)
            keep = _candidates(fam, _atom_values(fam, float))
            assert keep.tolist() == [m is not half for m in order]  # the filter runs and prunes
            for gate in GATES:
                assert tuple(with_gate(monkeypatch, gate, lambda: sublinear_expect(fam, float))) == (1.0, want)

    def test_a_cancelling_estimate_keeps_its_member(self, monkeypatch):
        # member 0 has exact mean 2**52 + 1/4 - 2**52 = 1/4, but its float
        # estimate cancels to 0.0, below member 1's exact 1/8
        fam = ScenarioFamily(
            (DiscreteMeasure(((2.0**53, 0.5), (1.0, 0.25), (-(2.0**54), 0.25))), DiscreteMeasure.uniform([0.125] * 128))
        )
        values = _atom_values(fam, float)
        assert np.add.reduceat(values * fam._float_weights, fam._starts).tolist() == [0.0, 0.125]
        assert _candidates(fam, values).tolist() == [True, True]  # member 1 holds the best lower bound
        d = MaximalDist(0.5, 1.0)
        f = BoundedLipschitzFnN(lambda x, a: x * a, 2, 1.0)
        for gate in GATES:
            assert tuple(with_gate(monkeypatch, gate, lambda: sublinear_expect(fam, float))) == (0.25, 0)
            got = with_gate(monkeypatch, gate, lambda: compose_independent(JointSpec((d, fam)), f, GridSpec(num=65)))
            assert got.value == 0.25

    def test_overflowing_bounds_take_the_full_kernel(self, monkeypatch):
        top = 1.7976931348623157e308
        rng = np.random.default_rng(5)
        measures = [(-1.0, 1.0)] * 3 + [(0.125, 1.0)]  # the last member's mean is about top
        fam = ScenarioFamily(
            tuple(
                DiscreteMeasure(tuple(zip(rng.uniform(lo, hi, 40).tolist(), rng.dirichlet(np.ones(40)).tolist())))
                for lo, hi in measures
            )
        )
        table = {p: top if p > 0.0 else -top for p in fam._points.tolist()}
        keep = _candidates(fam, _atom_values(fam, table.__getitem__))
        assert keep.dtype == bool and keep.shape == (4,) and keep.all()
        calls = []
        kernel = scenarios._expectations

        def spy(family, values, members=None):
            calls.append(members)
            return kernel(family, values, members)

        monkeypatch.setattr(scenarios, "_expectations", spy)
        want = reference_sup(fam, table.__getitem__)
        for gate in GATES:
            assert tuple(with_gate(monkeypatch, gate, lambda: sublinear_expect(fam, table.__getitem__))) == want
        assert calls == [None, None]

    def test_a_constant_f_skips_the_member_gather(self, monkeypatch):
        # every member ties, so every member is a candidate, and the kernel
        # runs on the whole family without gathering its atoms (four grid rows
        # of 2000 atoms are one block of the composition)
        fam = big_family(np.random.default_rng(9))
        const = lambda x: np.full(np.shape(x), 0.375)  # noqa: E731
        assert _candidates(fam, _atom_values(fam, const)).all()
        d = MaximalDist(-1.0, 0.75)
        f = BoundedLipschitzFnN(lambda x, a: x + const(a), 2, 1.0)
        calls = []
        kernel = scenarios._expectations

        def spy(family, values, members=None):
            calls.append(members)
            return kernel(family, values, members)

        monkeypatch.setattr(scenarios, "_expectations", spy)
        got = [
            with_gate(
                monkeypatch,
                gate,
                lambda: (sublinear_expect(fam, const), compose_independent(JointSpec((d, fam)), f, GridSpec(num=4))),
            )
            for gate in GATES
        ]
        assert calls == [None] * 4
        assert got[0] == got[1]
        assert (got[0][0], got[0][1].value) == ((0.375, 0), 1.125)

    def test_large_families_send_few_members_to_the_kernel(self):
        fam = big_family(np.random.default_rng(8))
        keep = _candidates(fam, _atom_values(fam, lambda x: abs(x - 0.25)))
        assert 1 <= keep.sum() < len(fam)


def six_call_suite(cases, seed):
    """run_axiom_suite as six sublinear_expect calls per case."""
    rng = np.random.default_rng(seed)
    v_mono = v_const = v_sub = v_hom = 0.0
    for _ in range(cases):
        fam = random_family(rng)
        f = random_fn(rng)
        g = random_fn(rng)
        h = random_fn(rng)
        ef = sublinear_expect(fam, f).value
        eg = sublinear_expect(fam, g).value
        upper = sublinear_expect(fam, lambda x: f(x) + abs(h(x))).value
        v_mono = max(v_mono, ef - upper)
        c = float(rng.uniform(-5, 5))
        ec = sublinear_expect(fam, lambda x: c).value
        v_const = max(v_const, abs(ec - c))
        e_sum = sublinear_expect(fam, lambda x: f(x) + g(x)).value
        scale = max(1.0, abs(ef) + abs(eg))
        v_sub = max(v_sub, (e_sum - (ef + eg)) / scale)
        lam = 0.0 if rng.random() < 0.1 else float(rng.uniform(0, 4))
        e_lam = sublinear_expect(fam, lambda x: lam * f(x)).value
        scale = max(1.0, abs(lam * ef))
        v_hom = max(v_hom, abs(e_lam - lam * ef) / scale)
    checks = (
        axioms.AxiomCheck("monotonicity", v_mono, 0.0),
        axioms.AxiomCheck("constant_preserving", v_const, 0.0),
        axioms.AxiomCheck("sub_additivity", v_sub, axioms.ALGEBRA_TOL),
        axioms.AxiomCheck("positive_homogeneity", v_hom, axioms.ALGEBRA_TOL),
    )
    return axioms.AxiomSuiteReport(cases=cases, seed=seed, checks=checks)


class TestBatchedAxiomSuite:
    @pytest.mark.parametrize("cases", [1, 3, 25])
    def test_equals_the_six_call_loop(self, cases):
        for seed in range(50):
            assert run_axiom_suite(cases, seed) == six_call_suite(cases, seed)

    def test_default_run_equals_the_six_call_loop(self):
        assert run_axiom_suite() == six_call_suite(1000, 20240801)

    def test_every_random_fn_kind_takes_an_array(self):
        # one vectorised call gives the point-by-point values, so the suite
        # never falls back to a scalar loop
        rng = np.random.default_rng(7)
        x = np.linspace(-6.0, 6.0, 101)
        kinds = set()
        while len(kinds) < 3:
            f = random_fn(rng)
            kinds.add(f.name.partition("(")[0])
            assert f(x).tolist() == [float(f(v)) for v in x.tolist()]
        assert kinds == {"affine", "absdev", "sine"}
