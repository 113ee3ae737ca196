"""Joint laws under sequential independence.

Independence here is ordered: marginal i+1 is independent of marginals
1..i, and the joint worst-case expectation is evaluated by backward
recursion (innermost expectation over the last marginal first).  The two
nesting orders need not agree, which :func:`asymmetry_probe` makes
observable.

Grid error accumulates additively: the partial maximum over one variable
of a Lipschitz function is Lipschitz in the remaining variables with the
same constant, so each maximal marginal contributes lipschitz * h_i / 2.
Family marginals add nothing: the exact kernel of ``scenarios`` averages
them, so a family-only composition equals ``sublinear_expect`` bit for bit.
Only maxima follow the first family axis in marginal order, so that axis
runs the exact kernel only on the rows and members whose float bounds
(``scenarios._candidates``) reach the block's best lower bound.

``compose_independent`` reduces each block of ``maximal._grid_blocks``
before the next is built, so a max-of-5 composition on 15 nodes per axis
peaks at about 0.6 MB instead of about 64 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from . import _finite_floats
from .maximal import _BLOCK_CELLS, GridSpec, MaximalDist, _certificate, _grid_blocks, interval_distance
from .scenarios import BoundedLipschitzFn, ScenarioFamily, _check_constants, _evaluate, _expectations, _row_sups

__all__ = [
    "Marginal",
    "BoundedLipschitzFnN",
    "JointSpec",
    "ComposeResult",
    "ProbeResult",
    "PointCapacity",
    "compose_independent",
    "asymmetry_probe",
    "indicator_approx",
    "point_capacity",
]

Marginal = Union[MaximalDist, ScenarioFamily]

@dataclass(frozen=True)
class BoundedLipschitzFnN:
    """An n-ary test function, Lipschitz with respect to the sum of
    coordinatewise distances: |f(x) - f(y)| <= lipschitz * sum_i |x_i - y_i|."""

    fn: Callable[..., float]
    arity: int
    lipschitz: float
    bound: float = math.inf
    name: str = ""

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity!r}")
        _check_constants(self.lipschitz, self.bound)

    def __call__(self, *xs: float) -> float:
        return self.fn(*xs)


@dataclass(frozen=True)
class JointSpec:
    """Ordered marginals; entry i+1 is independent of entries 1..i."""

    marginals: tuple[Marginal, ...]

    def __post_init__(self) -> None:
        if not self.marginals:
            raise ValueError("a joint spec needs at least one marginal")
        for i, m in enumerate(self.marginals):
            if not isinstance(m, (MaximalDist, ScenarioFamily)):
                raise TypeError(
                    f"marginal {i} must be a MaximalDist or ScenarioFamily, got {type(m).__name__}"
                )
        object.__setattr__(self, "marginals", tuple(self.marginals))

    def __len__(self) -> int:
        return len(self.marginals)


class ComposeResult(NamedTuple):
    value: float
    error_bound: float


def compose_independent(j: JointSpec, f: BoundedLipschitzFnN, grid: GridSpec) -> ComposeResult:
    """Worst-case expectation of f under the sequentially independent joint law.

    Maximal marginals are scanned on ``grid``; family marginals are exact
    finite suprema, with f evaluated once per distinct atom point.  The
    reported bound is the sum of the per-marginal grid certificates;
    ``grid.refine`` is ignored, as only ``maximal.eval_maximal`` reads it.

    Each block of ``maximal._grid_blocks`` (at most ``_BLOCK_CELLS``
    cells) is reduced over its suffix axes to one float per leading row;
    the leading axes are reduced after the last block.  A run of
    consecutive maximal axes is reduced by one max, a family axis by the
    exact kernel; both round each entry once, so the block size never
    changes a result.  On the first family axis the kernel skips the rows
    and members its float bounds exclude, and an excluded row gets -inf,
    which the maxima that follow ignore.  A grid of more than ``maximal._MAX_CELLS`` cells
    raises ValueError before f is called, and a non-finite value of f
    raises EvaluationError naming the point.
    """
    if f.arity != len(j.marginals):
        raise ValueError(f"function arity {f.arity} does not match {len(j.marginals)} marginals")

    axes: list[np.ndarray] = []
    atom_cols: list[np.ndarray | None] = []  # per family: each atom's position on its axis
    err = 0.0
    for m in j.marginals:
        if isinstance(m, MaximalDist):
            axes.append(grid.points(m))
            atom_cols.append(None)
            err += _certificate(f.lipschitz, grid, m)
        else:
            axes.append(m._points)
            atom_cols.append(m._positions)

    families = [i for i, cols in enumerate(atom_cols) if cols is not None]

    def reduce(vals: np.ndarray, lo: int, hi: int) -> np.ndarray:
        # axes lo..hi-1 are the trailing axes of vals; the innermost
        # expectation is over the last marginal, so they go last to first
        while hi > lo:
            cols = atom_cols[hi - 1]
            if cols is not None:
                hi -= 1
                if hi == families[0]:  # only maxima follow: the filtered kernel
                    vals = _row_sups(j.marginals[hi], vals[..., cols])
                else:  # the values feed another family's expectation
                    vals = _expectations(j.marginals[hi], vals[..., cols]).max(axis=-1)
                continue
            run = hi - 1
            while run > lo and atom_cols[run - 1] is None:
                run -= 1
            vals = vals.reshape(vals.shape[: vals.ndim - (hi - run)] + (-1,)).max(axis=-1)
            hi = run
        return vals

    def describe(k: int, v: float) -> str:
        # point k of the current block, by its innermost family coordinate if any
        point = tuple(float(c.flat[k]) for c in coords)
        if families:
            return f"non-finite value on family marginal {families[-1]} at point {point[families[-1]]!r}"
        return f"non-finite value {v!r} at point {point!r}"

    n, rows = len(axes), []
    for coords in _grid_blocks(axes, _BLOCK_CELLS, grid, f"a composition of {n} marginals"):
        split = n + 1 - coords[0].ndim  # a block is (rows,) + the shape of axes[split:]
        rows.append(reduce(_evaluate(f.fn, coords, describe), split, n))
    lead = np.concatenate(rows).reshape([len(a) for a in axes[:split]])
    return ComposeResult(float(reduce(lead, 0, split)), err)


class ProbeResult(NamedTuple):
    ab: float
    ba: float


def asymmetry_probe(dA: Marginal, dB: Marginal, f: BoundedLipschitzFnN, grid: GridSpec) -> ProbeResult:
    """Evaluate both nesting orders of a binary function.

    ``ab`` treats the second argument as independent of the first (inner
    expectation over ``dB``); ``ba`` swaps the roles.  The two numbers
    differ for suitably chosen inputs, which is the point.
    """
    if f.arity != 2:
        raise ValueError(f"asymmetry probe needs a binary function, got arity {f.arity}")
    ab = compose_independent(JointSpec((dA, dB)), f, grid).value
    swapped = replace(f, fn=lambda y, x: f.fn(x, y), name=f.name + "~swapped" if f.name else "")
    ba = compose_independent(JointSpec((dB, dA)), swapped, grid).value
    return ProbeResult(ab, ba)


def indicator_approx(x_star: float, k: int) -> BoundedLipschitzFn:
    """Lipschitz approximation of the indicator of {x_star}.

    phi_k(x) = 1 / (1 + k * |x - x_star|): equals 1 at x_star, has
    Lipschitz constant k and bound 1, and decreases pointwise to the
    indicator as k grows.
    """
    try:
        whole = int(k)
    except (OverflowError, ValueError):  # inf or nan
        whole = 0
    if whole != k or whole < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    k = whole
    xs = float(x_star)
    return BoundedLipschitzFn(
        fn=lambda x: 1.0 / (1.0 + k * abs(x - xs)),
        lipschitz=float(k),
        bound=1.0,
        name=f"indicator_approx(x*={xs}, k={k})",
    )


class PointCapacity(NamedTuple):
    value: float
    trace: tuple[float, ...]


def point_capacity(j: JointSpec, points: Sequence[float], k_max: int) -> PointCapacity:
    """Joint upper capacity of a point under maximal marginals.

    The capacity of {(x_1, ..., x_n)} is 1 exactly when every coordinate
    lies in its marginal interval, else 0; that indicator product is
    returned as ``value``.  The ``trace`` holds the worst-case
    expectations of the product of indicator approximations for
    k = 1..k_max, computed in closed form as
    prod_i 1 / (1 + k * dist(x_i, [lo_i, hi_i])).  The trace decreases in
    k toward ``value`` and serves as a diagnostic; ``value`` is the limit.
    A coordinate that is not a finite number raises ValueError naming it.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max!r}")
    if len(points) != len(j.marginals):
        raise ValueError(f"{len(points)} coordinates for {len(j.marginals)} marginals")
    xs = _finite_floats(points, lambda i, x, _number: ValueError(f"coordinate {i} of the point is not finite: {x!r}"))
    dists = []
    for i, (m, x) in enumerate(zip(j.marginals, xs)):
        if not isinstance(m, MaximalDist):
            raise TypeError(f"point_capacity needs maximal marginals; marginal {i} is {type(m).__name__}")
        dists.append(interval_distance(m, x))
    value = 1.0 if all(dd == 0.0 for dd in dists) else 0.0
    trace = []
    for k in range(1, k_max + 1):
        prod = 1.0
        for dd in dists:
            prod *= 1.0 / (1.0 + k * dd)
        trace.append(prod)
    return PointCapacity(value, tuple(trace))
