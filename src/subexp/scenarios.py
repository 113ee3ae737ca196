"""Finite scenario families and worst-case (sublinear) expectations.

A scenario family is a finite, nonempty set of finitely supported
probability measures on the real line.  The upper expectation of a test
function is the largest classical expectation across the family, and the
upper capacity of an event is the largest probability any member assigns
to it.

One exact integer kernel computes every expectation: weights and function
values are dyadic rationals, so they are summed exactly as integers over a
common power of two and each mean is rounded to float once.  Rounding is
monotone, so monotonicity and constant preservation hold exactly, not merely
up to tolerance, in :func:`expect_linear`, :func:`sublinear_expect`,
:func:`capacity` and the family marginals of ``joint.compose_independent``.

Where only the largest expectation is used (:func:`sublinear_expect`,
:func:`capacity`, and the first family axis of a composition), inputs of at
least ``_PRUNE_MIN_CELLS`` cells are first filtered in floats:
:func:`_candidates` bounds every member's mean with a certified radius and
the exact kernel runs only on the members (and rows) whose bound reaches
the best lower bound.  Every excluded mean rounds strictly below the
maximum, so the results are the full kernel's bit for bit.

Every layer applies test functions, events and user functions to points
through one evaluator, :func:`_evaluate`; family paths call it once per
distinct atom point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import _finite_floats

__all__ = [
    "WEIGHT_TOL",
    "EvaluationError",
    "BoundedLipschitzFn",
    "DiscreteMeasure",
    "ScenarioFamily",
    "SublinearResult",
    "expect_linear",
    "sublinear_expect",
    "capacity",
]

# Absolute tolerance on the total mass of a measure.  Constructors reject
# out-of-tolerance weights instead of renormalising them.
WEIGHT_TOL = 1e-12

# Max queries over at least this many cells (rows x atoms) filter the members
# in floats before the exact kernel.  The filter's numpy calls cost about
# 12 us; a one-row query breaks even at about 200 cells (2 vCPUs).
_PRUNE_MIN_CELLS = 256
_U = 2.0**-53  # unit roundoff of round-to-nearest doubles
_ETA = 2.0**-1074  # the smallest subnormal double


class EvaluationError(ValueError):
    """A test function returned a non-finite value at a point."""


@dataclass(frozen=True)
class BoundedLipschitzFn:
    """A scalar test function with declared Lipschitz constant and bound.

    Parameters
    ----------
    fn : callable
        Pure function of one real argument.
    lipschitz : float
        A (not necessarily tight) Lipschitz constant, ``>= 0``.
    bound : float, optional
        Sup-norm bound; ``math.inf`` declares the function unbounded.
    name : str, optional
        A label for the caller; nothing in the library reads it.

    The declared constants are trusted by grid-based evaluators when they
    compute error certificates; tests spot-check them by randomized finite
    differences.
    """

    fn: Callable[[float], float]
    lipschitz: float
    bound: float = math.inf
    name: str = ""

    def __post_init__(self) -> None:
        _check_constants(self.lipschitz, self.bound)

    def __call__(self, x: float) -> float:
        return self.fn(x)


def _check_constants(lipschitz: float, bound: float) -> None:
    """The declared constants of a test function: a finite Lipschitz
    constant >= 0 and a bound >= 0 (inf for none)."""
    if not (lipschitz >= 0.0) or math.isinf(lipschitz):
        raise ValueError(f"lipschitz constant must be finite and >= 0, got {lipschitz!r}")
    if not (bound >= 0.0):
        raise ValueError(f"bound must be >= 0 (or inf), got {bound!r}")


def _bad_atom_entry(k: int, shown, number: bool) -> ValueError:
    """The error for entry k of the interleaved points and weights."""
    what = f"atom {k // 2} {'weight' if k % 2 else 'point'}"
    if number:
        return ValueError(f"{what} must be finite, got {shown!r}")
    return ValueError(f"{what} is not a real number: {shown!r}")


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported probability measure, stored as (point, weight) atoms.

    Points and weights must be finite reals, and weights nonnegative and
    summing to 1 within ``WEIGHT_TOL`` in absolute value; anything else is
    rejected (never silently renormalised).  The error names a malformed
    atom first, then the first bad point or weight, then the first negative
    weight, then the sum.  Duplicate points are allowed and their weights
    add on query.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a measure needs at least one atom")
        flat = []  # points and weights interleaved
        for i, pair in enumerate(self.atoms):
            try:
                if isinstance(pair, (str, bytes)) or len(pair) != 2:
                    raise TypeError
                flat += pair[0], pair[1]  # indexed: a mapping iterates its keys
            except (TypeError, LookupError):
                raise ValueError(f"atom {i} must be a (point, weight) pair, got {pair!r}") from None
        flat = _finite_floats(flat, _bad_atom_entry)
        weights = flat[1::2]
        if min(weights, default=0.0) < 0.0:
            i = next(i for i, w in enumerate(weights) if w < 0.0)
            raise ValueError(f"atom {i} has negative weight {weights[i]!r}")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(
                f"weights must sum to 1 within {WEIGHT_TOL} (got {total!r}); "
                "renormalise before constructing the measure"
            )
        object.__setattr__(self, "atoms", tuple(zip(flat[0::2], weights)))

    @classmethod
    def dirac(cls, point: float) -> "DiscreteMeasure":
        """Unit mass at a single point."""
        return cls(((point, 1.0),))

    @classmethod
    def uniform(cls, points: Iterable[float]) -> "DiscreteMeasure":
        pts = list(points)
        if not pts:
            raise ValueError("uniform measure needs at least one point")
        w = 1.0 / len(pts)
        return cls(tuple((p, w) for p in pts))

    def merged_atoms(self) -> tuple[tuple[float, float], ...]:
        """Atoms with duplicate points merged (weights added), sorted by point."""
        acc: dict[float, list[float]] = {}
        for p, w in self.atoms:
            acc.setdefault(p, []).append(w)
        return tuple((p, math.fsum(acc[p])) for p in sorted(acc))

    def support(self) -> tuple[float, ...]:
        return tuple(sorted({p for p, _ in self.atoms}))

    def to_dict(self) -> dict:
        return {"atoms": [[p, w] for p, w in self.atoms]}

    @classmethod
    def from_dict(cls, obj: dict) -> "DiscreteMeasure":
        if not isinstance(obj, dict) or "atoms" not in obj:
            raise ValueError(f"measure object must look like {{'atoms': [[point, weight], ...]}}, got {obj!r}")
        atoms = obj["atoms"]
        if not isinstance(atoms, (list, tuple)):
            raise ValueError(f"'atoms' must be an array, got {atoms!r}")
        return cls(tuple(atoms))


@dataclass(frozen=True)
class ScenarioFamily:
    """A nonempty, finite set of scenario measures."""

    measures: tuple[DiscreteMeasure, ...]
    # Derived for the exact kernel: member starts in the flat atom order, the
    # weights as integers over one shared power of two, and their member sums;
    # for the float filter, the weights as given.
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _masses: np.ndarray = field(init=False, repr=False, compare=False)
    _float_weights: np.ndarray = field(init=False, repr=False, compare=False)
    # Derived for evaluation: the distinct atom points, sorted and read-only
    # (of 0.0 and -0.0 the first atom's), and each atom's position in them.
    _points: np.ndarray = field(init=False, repr=False, compare=False)
    _positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.measures:
            raise ValueError("a scenario family must contain at least one measure")
        for i, m in enumerate(self.measures):
            if not isinstance(m, DiscreteMeasure):
                raise TypeError(f"family entry {i} must be a DiscreteMeasure, got {type(m).__name__}")
        object.__setattr__(self, "measures", tuple(self.measures))
        starts = np.cumsum([0] + [len(m.atoms) for m in self.measures[:-1]])
        floats = np.array([w for m in self.measures for _, w in m.atoms])
        weights, _ = _dyadic(floats)
        flat = [p for m in self.measures for p, _ in m.atoms]
        points = np.sort(list(set(flat)))  # a set keeps the first of equal points
        points.flags.writeable = False
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_masses", np.add.reduceat(weights, starts))
        object.__setattr__(self, "_float_weights", floats)
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_positions", np.searchsorted(points, flat))

    def __len__(self) -> int:
        return len(self.measures)

    @cached_property
    def _bound_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per member for :func:`_candidates`: the atom count k, the float
        mass m, and the radius terms 4ku/m and 4(k+1)eta/m.  Derived on first
        use, so building a family costs no more than it did."""
        counts = np.diff(self._starts, append=len(self._float_weights))
        mass = np.add.reduceat(self._float_weights, self._starts)
        return counts, mass, 4.0 * _U * counts / mass, 4.0 * _ETA * (counts + 1) / mass

    def support(self) -> tuple[float, ...]:
        """Sorted union of the atom points of all members."""
        return tuple(self._points.tolist())

    def to_list(self) -> list:
        return [m.to_dict() for m in self.measures]

    @classmethod
    def from_list(cls, obj: Sequence) -> "ScenarioFamily":
        if not isinstance(obj, (list, tuple)):
            raise ValueError(f"a family must be a JSON array of measures, got {obj!r}")
        return cls(tuple(DiscreteMeasure.from_dict(m) for m in obj))


def _dyadic(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Python integers n and exponents e with x == n * 2**e exactly, one e
    shared along the last axis.  x must be finite."""
    frac, exp = np.frexp(x)
    low = exp.min(axis=-1, keepdims=True)
    n = np.left_shift((frac * 2.0**53).astype(np.int64).astype(object), exp - low)
    return n, low - 53


def _evaluate(fn: Callable, arrays: Sequence[np.ndarray], describe: Callable[[int, float], str]) -> np.ndarray:
    """fn applied elementwise to same-shaped arrays, checked finite.

    One vectorised call comes first; if it raises TypeError or ValueError or
    returns the wrong shape (math.* or a plain scalar), fn is called point
    by point on Python floats.  numpy's floating-point warnings are
    silenced.  The first non-finite value, v at flat index k, raises
    ``EvaluationError(describe(k, v))``; exceptions raised by fn propagate.
    """
    shape = arrays[0].shape
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(fn(*arrays), dtype=float)
        except (TypeError, ValueError):
            out = None
        if out is None or out.shape != shape:
            columns = [a.ravel().tolist() for a in arrays]
            out = np.array([float(fn(*xs)) for xs in zip(*columns)]).reshape(shape)
    finite = np.isfinite(out)
    if not finite.all():
        k = int(np.argmin(finite))
        raise EvaluationError(describe(k, float(out.flat[k])))
    return out


def _expectations(family: ScenarioFamily, values: np.ndarray, members: np.ndarray | None = None) -> np.ndarray:
    """Every member's expectation of finite ``values``, exact and rounded once.

    The last axis of ``values`` runs over the family's atoms, member after
    member; in the result it runs over the members, or over ``members``
    (ascending member indices) when given, whose atoms alone are summed.
    An expectation is sum(W V) * 2**e / sum(W) with integer weights W and
    values V; dividing by the exact mass keeps E[c] == c, and one correctly
    rounded integer true division gives the float.
    """
    weights, starts, masses = family._weights, family._starts, family._masses
    if members is not None:
        counts = family._bound_terms[0][members]
        starts = np.cumsum(counts) - counts
        atoms = np.repeat(family._starts[members] - starts, counts) + np.arange(counts.sum())
        values, weights, masses = values[..., atoms], weights[atoms], masses[members]
    ints, e = _dyadic(values)
    num = np.add.reduceat(ints * weights, starts, axis=-1)
    num = np.left_shift(num, np.maximum(e, 0))
    den = np.left_shift(masses, np.maximum(-e, 0))
    return (num / den).astype(float)


def _candidates(family: ScenarioFamily, values: np.ndarray) -> np.ndarray:
    """Which (row, member) pairs may hold the largest expectation of all.

    A boolean array shaped like ``_expectations(family, values)``; every
    pair is kept when a float bound is not finite (sums near the float
    limit), so the caller runs the full kernel.  Each member's mean is
    estimated as fl(sum p) / m, with p = values * weights and m the float mass.  For k
    atoms the estimate is within 2ku sum|p|/m + (k+1)eta/m of the exact
    mean, to first order in ku: product rounding and underflow, summation
    in any order, the rounded mass and the quotient (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, sections 2.2 and 4.2).  The
    radius takes twice the first term and four times the second, which also
    covers the rounding of the radius itself.  A pair is excluded when its
    upper bound falls below the best lower bound by more than two ulps of
    that bound, which covers the rounding of estimate +- radius; its exact
    mean then rounds strictly below the maximum, so neither the maximum nor
    the lowest index attaining it can change.
    """
    _, mass, scale, tiny = family._bound_terms
    with np.errstate(all="ignore"):
        p = values * family._float_weights
        est = np.add.reduceat(p, family._starts, axis=-1) / mass
        rad = scale * np.add.reduceat(np.abs(p), family._starts, axis=-1) + tiny
        lo, hi = est - rad, est + rad
        if not np.isfinite(hi - lo).all():
            return np.ones(est.shape, dtype=bool)
        best = lo.max()
        return hi >= best - 2.0 * np.spacing(abs(best))


def _sup(family: ScenarioFamily, values: np.ndarray) -> tuple[float, int]:
    """The largest expectation of the atom ``values`` and the lowest member
    index attaining it; large inputs run the kernel on the candidates only
    (on every member, without a gather, when all of them are candidates)."""
    members = None
    if values.size >= _PRUNE_MIN_CELLS:
        keep = _candidates(family, values)
        if not keep.all():
            members = np.flatnonzero(keep)
    means = _expectations(family, values, members)
    i = int(np.argmax(means))
    return float(means[i]), i if members is None else int(members[i])


def _row_sups(family: ScenarioFamily, values: np.ndarray) -> np.ndarray:
    """Each row's largest expectation, for callers that use only the largest
    over all rows (rows run along the leading axes of ``values``).

    On large inputs the kernel runs on the candidate rows and members only
    (on every member, without a gather, when all of them are candidates);
    the other rows get -inf, which a following maximum ignores.
    """
    if values.size < _PRUNE_MIN_CELLS:
        return _expectations(family, values).max(axis=-1)
    keep = _candidates(family, values)
    rows = keep.any(axis=-1)
    cols = keep[rows].any(axis=0)
    members = None if cols.all() else np.flatnonzero(cols)
    out = np.full(rows.shape, -np.inf)
    out[rows] = _expectations(family, values[rows], members).max(axis=-1)
    return out


def _atom_values(family: ScenarioFamily, f: Callable[[float], float]) -> np.ndarray:
    """f at every atom, member after member, evaluated once per distinct point."""

    def describe(k: int, v: float) -> str:
        atom = int(np.argmax(family._positions == k))  # the first atom at that point
        i = atom - int(family._starts[np.searchsorted(family._starts, atom, side="right") - 1])
        return f"test function returned non-finite value {v!r} at atom {i} (point {float(family._points[k])!r})"

    return _evaluate(f, (family._points,), describe)[family._positions]


def expect_linear(measure: DiscreteMeasure, f: Callable[[float], float] | BoundedLipschitzFn) -> float:
    """Classical expectation of ``f`` under a single measure.

    Raises
    ------
    EvaluationError
        If ``f`` evaluates to a non-finite value at some atom; the message
        identifies the offending atom.  Exceptions raised by ``f`` itself
        propagate.
    """
    family = ScenarioFamily((measure,))
    return float(_expectations(family, _atom_values(family, f))[0])


class SublinearResult(NamedTuple):
    value: float
    argmax_index: int


def sublinear_expect(family: ScenarioFamily, f: Callable[[float], float] | BoundedLipschitzFn) -> SublinearResult:
    """Upper expectation: the largest expectation of ``f`` across the family.

    Returns the value together with the index of the attaining measure.
    Ties go to the lowest index.
    """
    return SublinearResult(*_sup(family, _atom_values(family, f)))


def capacity(family: ScenarioFamily, event: Callable[[float], bool]) -> float:
    """Upper capacity of an event: the largest probability across the family.

    ``event`` must be decidable (return a truth value) on every atom point
    of every member; predicate failures propagate.
    """
    hits = _atom_values(family, lambda x: np.asarray(event(x), dtype=bool))
    return _sup(family, hits)[0]
