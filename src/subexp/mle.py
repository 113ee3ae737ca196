"""Minimax likelihood estimation of the mean interval.

The likelihood of a sample under a candidate interval is 1 when every
observation lies inside it and 0 otherwise, so maximising likelihood and
then minimising interval width lands exactly on [min(sample),
max(sample)].  That closed form is what :func:`mle_estimate` returns;
:func:`solve_minimax_oracle` reproduces it by brute-force enumeration
over a candidate grid and exists to cross-check the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import _finite_floats, _integer

if TYPE_CHECKING:
    from .maximal import MaximalDist

__all__ = [
    "SampleSet",
    "MleResult",
    "UnbiasednessResult",
    "likelihood",
    "mle_estimate",
    "solve_minimax_oracle",
    "unbiasedness_check",
]


def _bad_observation(i: int, shown, number: bool) -> ValueError:
    return ValueError(f"observation {i} is not {'finite' if number else 'a number'}: {shown!r}")


@dataclass(frozen=True)
class SampleSet:
    """A nonempty batch of finite real observations (order is irrelevant)."""

    values: tuple[float, ...]
    # the extremes, computed once: the oracle reads them for every candidate pair
    min: float = field(init=False, repr=False, compare=False)
    max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("sample set must be nonempty")
        vals = _finite_floats(self.values, _bad_observation)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "min", min(vals))
        object.__setattr__(self, "max", max(vals))

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class MleResult:
    mu_lo_hat: float
    mu_hi_hat: float

    def __post_init__(self) -> None:
        if self.mu_lo_hat > self.mu_hi_hat:
            raise ValueError(f"estimate has mu_lo_hat > mu_hi_hat: {self!r}")

    @property
    def delta(self) -> float:
        """Estimated ambiguity width, mu_hi_hat - mu_lo_hat."""
        return self.mu_hi_hat - self.mu_lo_hat

    def to_dict(self, n: int | None = None) -> dict:
        out = {"mu_lo_hat": self.mu_lo_hat, "mu_hi_hat": self.mu_hi_hat, "delta": self.delta}
        if n is not None:
            out["n"] = n
        return out


def likelihood(s: SampleSet, mu_lo: float, mu_hi: float) -> int:
    """Indicator likelihood: 1 iff the whole sample fits in [mu_lo, mu_hi]."""
    mu_lo = float(mu_lo)
    mu_hi = float(mu_hi)
    if mu_lo > mu_hi:
        raise ValueError(f"mu_lo must not exceed mu_hi, got [{mu_lo!r}, {mu_hi!r}]")
    return 1 if (mu_lo <= s.min and s.max <= mu_hi) else 0


def mle_estimate(s: SampleSet) -> MleResult:
    """Maximum-likelihood interval of minimal width: [min(sample), max(sample)].

    This does not rely on any independence assumption about how the
    sample was produced; only the membership constraint matters.
    """
    return MleResult(s.min, s.max)


def solve_minimax_oracle(s: SampleSet, candidate_grid: Sequence[float]) -> MleResult:
    """Brute-force minimax search over all interval pairs from a finite grid.

    The grid must contain min(s) and max(s), otherwise no candidate
    attains likelihood 1 and the problem as posed has no solution worth
    reporting.  Among likelihood maximisers the narrowest interval wins;
    remaining ties resolve to the smallest mu_lo, then the smallest
    mu_hi.
    """
    grid = sorted({float(g) for g in candidate_grid})
    if not grid:
        raise ValueError("candidate grid must be nonempty")
    if s.min not in grid or s.max not in grid:
        raise ValueError(
            f"candidate grid must contain the sample extremes {s.min!r} and {s.max!r}"
        )
    best: tuple[int, float, float, float] | None = None
    for i, lo in enumerate(grid):
        for hi in grid[i:]:
            v = likelihood(s, lo, hi)
            key = (-v, hi - lo, lo, hi)
            if best is None or key < best:
                best = key
    assert best is not None
    return MleResult(best[2], best[3])


class UnbiasednessResult(NamedTuple):
    upper_ok: bool
    lower_ok: bool
    upper_value: float
    lower_value: float


def unbiasedness_check(d: MaximalDist, n: int, atoms_per_axis: int) -> UnbiasednessResult:
    """Exact worst-case unbiasedness of the sample extremes.

    Under n sequentially independent copies of the maximal distribution,
    the worst-case expectation of max(X_1..X_n) is mu_hi and the
    lower expectation of min(X_1..X_n) (via -E[-min]) is mu_lo.  Both
    are evaluated by grid composition; the box grid contains the interval
    endpoints, so the equalities hold exactly in floats.
    """
    # imported here so that the closed-form estimator runs without numpy
    import numpy as np

    from .joint import BoundedLipschitzFnN, JointSpec, compose_independent
    from .maximal import GridSpec

    n = _integer(n, "n", 1)
    grid = GridSpec(num=atoms_per_axis)
    f_max = BoundedLipschitzFnN(
        fn=lambda *xs: np.maximum.reduce(list(xs)),
        arity=n,
        lipschitz=1.0,
        name="max",
    )
    f_neg_min = BoundedLipschitzFnN(
        fn=lambda *xs: -np.minimum.reduce(list(xs)),
        arity=n,
        lipschitz=1.0,
        name="-min",
    )
    spec = JointSpec((d,) * n)
    upper = compose_independent(spec, f_max, grid).value
    lower = -compose_independent(spec, f_neg_min, grid).value
    return UnbiasednessResult(upper == d.mu_hi, lower == d.mu_lo, upper, lower)
