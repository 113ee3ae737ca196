"""Randomized verification of the sublinear-expectation axioms.

Each case draws a scenario family and test functions, then checks on the
computed floats that the upper expectation is

  * monotone            (f <= g pointwise implies E[f] <= E[g], exactly),
  * constant preserving (E[c] == c, exactly),
  * sub-additive        (E[f+g] <= E[f] + E[g], up to 1e-12 abs/rel),
  * positively homogeneous (E[lam*f] == lam*E[f] for lam >= 0, same tol).

The first two are exact because expectations are accumulated in exact
rational arithmetic and rounding is monotone; the last two pick up float
noise from evaluating f+g and lam*f pointwise, hence the tolerance.

Each case evaluates f, g and h once at the family's atoms, through the
evaluator :func:`~subexp.scenarios.sublinear_expect` uses, builds the six
test functions' values from them with the same float operations a
pointwise composite would apply, and takes all six upper expectations from
one call of the exact kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _integer
from .scenarios import BoundedLipschitzFn, DiscreteMeasure, ScenarioFamily, _atom_values, _expectations

__all__ = [
    "ALGEBRA_TOL",
    "AxiomCheck",
    "AxiomSuiteReport",
    "random_measure",
    "random_family",
    "random_fn",
    "run_axiom_suite",
]

ALGEBRA_TOL = 1e-12


def random_measure(rng: np.random.Generator, max_atoms: int = 6) -> DiscreteMeasure:
    k = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(-10.0, 10.0, k)
    if k > 1 and rng.random() < 0.25:
        pts[0] = pts[-1]  # exercise duplicate points
    w = rng.dirichlet(np.ones(k))
    return DiscreteMeasure(tuple((float(p), float(wi)) for p, wi in zip(pts, w)))


def random_family(rng: np.random.Generator, max_measures: int = 4) -> ScenarioFamily:
    m = int(rng.integers(1, max_measures + 1))
    return ScenarioFamily(tuple(random_measure(rng) for _ in range(m)))


def random_fn(rng: np.random.Generator) -> BoundedLipschitzFn:
    kind = rng.integers(0, 3)
    if kind == 0:
        a = float(rng.uniform(-3, 3))
        b = float(rng.uniform(-2, 2))
        return BoundedLipschitzFn(lambda x, a=a, b=b: a + b * x, abs(b), name=f"affine({a:.3g},{b:.3g})")
    if kind == 1:
        c = float(rng.uniform(-5, 5))
        s = float(rng.uniform(0, 2))
        return BoundedLipschitzFn(lambda x, c=c, s=s: s * abs(x - c), s, name=f"absdev({c:.3g},{s:.3g})")
    s = float(rng.uniform(-2, 2))
    w = float(rng.uniform(0.1, 3))
    phi = float(rng.uniform(0, 2 * math.pi))
    return BoundedLipschitzFn(
        lambda x, s=s, w=w, phi=phi: s * np.sin(w * x + phi),
        abs(s * w),
        bound=abs(s),
        name=f"sine({s:.3g},{w:.3g})",
    )


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


@dataclass(frozen=True)
class AxiomSuiteReport:
    cases: int
    seed: int
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "cases": self.cases,
            "seed": self.seed,
            "pass": self.passed,
            "checks": {
                c.name: {"max_violation": c.max_violation, "tolerance": c.tolerance, "pass": c.passed}
                for c in self.checks
            },
        }


def run_axiom_suite(cases: int = 1000, seed: int = 20240801) -> AxiomSuiteReport:
    """Run ``cases`` randomized axiom checks; see the module docstring."""
    cases = _integer(cases, "cases", 1)
    seed = _integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    v_mono = 0.0
    v_const = 0.0
    v_sub = 0.0
    v_hom = 0.0
    for _ in range(cases):
        fam = random_family(rng)
        f = random_fn(rng)
        g = random_fn(rng)
        h = random_fn(rng)
        c = float(rng.uniform(-5, 5))
        lam = 0.0 if rng.random() < 0.1 else float(rng.uniform(0, 4))  # lam == 0 now and then

        fv, gv, hv = (_atom_values(fam, fn) for fn in (f, g, h))
        rows = np.array([fv, gv, fv + np.abs(hv), np.full_like(fv, c), fv + gv, lam * fv])
        ef, eg, upper, ec, e_sum, e_lam = _expectations(fam, rows).max(axis=-1).tolist()

        # monotonicity against f + |h| >= f
        v_mono = max(v_mono, ef - upper)

        # constants pass through untouched
        v_const = max(v_const, abs(ec - c))

        # sub-additivity, scaled tolerance
        scale = max(1.0, abs(ef) + abs(eg))
        v_sub = max(v_sub, (e_sum - (ef + eg)) / scale)

        # positive homogeneity
        scale = max(1.0, abs(lam * ef))
        v_hom = max(v_hom, abs(e_lam - lam * ef) / scale)

    checks = (
        AxiomCheck("monotonicity", v_mono, 0.0),
        AxiomCheck("constant_preserving", v_const, 0.0),
        AxiomCheck("sub_additivity", v_sub, ALGEBRA_TOL),
        AxiomCheck("positive_homogeneity", v_hom, ALGEBRA_TOL),
    )
    return AxiomSuiteReport(cases=cases, seed=seed, checks=checks)
