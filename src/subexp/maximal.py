"""The one-dimensional maximal distribution and its grid evaluators.

A maximal distribution is the law under which the expectation of any test
function f over the mean interval [mu_lo, mu_hi] equals the maximum of f
on that interval.  Evaluation scans a uniform grid (endpoints always
included) and reports the error bound lipschitz * h / 2 of
``_certificate``, where h = width / (n - 1) is the nominal spacing of the
n nodes: any point of the interval is within h/2 of a node of the exact
grid, so the true maximum exceeds the grid maximum by at most that
amount.  Node i is fl(fl(i * h) + mu_lo), and the last node is mu_hi
exactly (``_node_block``, bit for bit ``np.linspace``).  These float
nodes are not evenly spaced: their largest gap can exceed h by about
7e-11 relative, and the bound can then understate the error by that
relative amount.  With ``GridSpec(refine=True)`` a Lipschitz
branch-and-bound (Piyavskii 1972; Shubert 1972) subdivides the grid cells
that could still hold a larger value and reports the largest remaining
cell bound instead.
``eval_maximal`` scans the nodes in blocks of ``_BLOCK_CELLS`` nodes, and
product grids (``convolve_scaled`` and ``joint.compose_independent``) are
walked block by block by ``_grid_blocks``, the one place that builds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _BLOCK_CELLS, _finite_floats, _integer, _shown
from .scenarios import BoundedLipschitzFn, DiscreteMeasure, ScenarioFamily, _evaluate

__all__ = [
    "MaximalDist",
    "GridSpec",
    "GridMax",
    "GridMax2",
    "eval_maximal",
    "dirac_family",
    "convolve_scaled",
    "interval_distance",
]

# Refinement (GridSpec.refine) stops once every cell bound is within
# lipschitz * _REFINE_XTOL of the incumbent, or before it would spend more
# than _REFINE_MAX_EVALS function evaluations beyond the grid scan.
_REFINE_XTOL = 1e-11
_REFINE_MAX_EVALS = 1 << 21
# Each round splits the live cells into k equal parts, k a power of two up to
# _REFINE_MAX_SPLIT, as long as the round adds at most _REFINE_BATCH points:
# a handful of live cells then converge in a few vectorised rounds.
_REFINE_MAX_SPLIT = 16
_REFINE_BATCH = 256
# GridSpec rejects a grid with more nodes than this before allocating it.
_MAX_GRID_NODES = 1 << 24
# A product grid (convolve_scaled, joint.compose_independent) of more cells
# than this is rejected before f is called: at tens of millions of cells per
# second, 2**30 cells already take about half a minute.
_MAX_CELLS = 1 << 30


@dataclass(frozen=True)
class MaximalDist:
    """Mean-interval [mu_lo, mu_hi]; the degenerate case mu_lo == mu_hi is allowed."""

    mu_lo: float
    mu_hi: float

    def __post_init__(self) -> None:
        def bad(i, shown, _number):
            ends = [_shown(self.mu_lo), _shown(self.mu_hi)]
            ends[i] = shown  # the bad endpoint as _finite_floats shows it, the other as given
            return ValueError(f"interval endpoints must be finite, got [{ends[0]!r}, {ends[1]!r}]")

        lo, hi = _finite_floats((self.mu_lo, self.mu_hi), bad)
        if lo > hi:
            raise ValueError(f"mu_lo must not exceed mu_hi, got [{lo!r}, {hi!r}]")
        object.__setattr__(self, "mu_lo", lo)
        object.__setattr__(self, "mu_hi", hi)

    @property
    def width(self) -> float:
        return self.mu_hi - self.mu_lo

    @property
    def degenerate(self) -> bool:
        return self.mu_lo == self.mu_hi

    def contains(self, x: float) -> bool:
        return self.mu_lo <= x <= self.mu_hi

    def to_dict(self) -> dict:
        return {"mu_lo": self.mu_lo, "mu_hi": self.mu_hi}

    @classmethod
    def from_dict(cls, obj: dict) -> "MaximalDist":
        try:
            return cls(obj["mu_lo"], obj["mu_hi"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f'expected {{"mu_lo": ..., "mu_hi": ...}}, got {obj!r}') from exc


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid over a mean interval.

    Exactly one of ``step`` (target spacing: the nominal spacing
    width / (n - 1) never exceeds it, though float nodes can lie up to
    about 7e-11 relative farther apart) or ``num`` (explicit node count,
    useful when two computations must share bit-identical grids) must be
    given.  With ``refine=True`` the grid scan is followed by a Lipschitz
    branch-and-bound over the grid cells: the certificate becomes the
    largest cell upper bound minus the value found, which never exceeds
    the plain ``lipschitz * h / 2`` and is at most ``lipschitz * 1e-11``
    unless the evaluation cap or float resolution stops the search first.
    Only ``eval_maximal`` reads ``refine`` (and so ``lln.empirical_lln``'s
    target); the product-grid scans of ``convolve_scaled`` and
    ``joint.compose_independent`` ignore it.  A grid of more than
    ``_MAX_GRID_NODES`` (2**24) nodes, or over an interval whose width
    overflows to inf, raises ValueError in ``nodes``, ``points`` and
    ``spacing`` before anything is allocated.
    """

    step: float | None = None
    num: int | None = None
    refine: bool = False

    def __post_init__(self) -> None:
        if (self.step is None) == (self.num is None):
            raise ValueError("specify exactly one of step or num")
        if self.step is not None and not (self.step > 0):
            raise ValueError(f"step must be positive, got {self.step!r}")
        if self.num is not None:
            object.__setattr__(self, "num", _integer(self.num, "num", 1))

    def nodes(self, d: MaximalDist) -> int:
        """Node count of the grid over d's interval, checked against
        ``_MAX_GRID_NODES`` before anything is allocated."""
        if d.degenerate:
            return 1
        if not math.isfinite(d.width):  # no step or node count helps; linspace would return nan nodes
            raise ValueError(f"interval [{d.mu_lo!r}, {d.mu_hi!r}] is too wide: its width overflows to inf")
        if self.num is not None:
            if self.num == 1:
                raise ValueError("num must be >= 2 on a nondegenerate interval")
            n = self.num
        else:
            n = d.width / self.step  # may be huge or inf; counted exactly below 2**53
            if n < 2**53:  # 0 when the quotient underflows; one cell is then wide enough
                n = max(math.ceil(n), 1) + 1
        if n > _MAX_GRID_NODES:
            count = n if isinstance(n, int) else f"{n:.3g}"
            raise ValueError(
                f"grid over [{d.mu_lo!r}, {d.mu_hi!r}] needs {count} nodes, over the limit of "
                f"{_MAX_GRID_NODES}; use a larger step or fewer nodes (--step/--points)"
            )
        return n

    def points(self, d: MaximalDist) -> np.ndarray:
        """Grid nodes over d's interval, endpoints included: the one
        ``_node_block`` that covers every node."""
        n = self.nodes(d)
        return _node_block(d, n, 0, n)

    def spacing(self, d: MaximalDist) -> float:
        """Nominal node spacing width / (n - 1), 0 for a degenerate interval;
        the float nodes can lie up to about 7e-11 relative farther apart."""
        if d.degenerate:  # one node: width / (n - 1) would be 0/0
            return 0.0
        return d.width / (self.nodes(d) - 1)


def _node_block(d: MaximalDist, n: int, start: int, stop: int) -> np.ndarray:
    """Nodes start, ..., stop - 1 of the n-node grid over d's interval, bit
    for bit those of ``np.linspace(d.mu_lo, d.mu_hi, n)``.

    Node i is fl(fl(i * h) + mu_lo), h = width / (n - 1) being the nominal
    spacing; where h underflows to 0, numpy's own branch
    fl(fl(i / (n - 1)) * width) + mu_lo is used instead.  The last node is
    mu_hi exactly.  A degenerate interval has the one node mu_lo, its sign
    kept (``np.linspace(-0.0, -0.0, 1)`` is [0.0]).
    """
    if d.degenerate:
        return np.array([d.mu_lo])
    x = np.arange(start, stop, dtype=float)
    h = d.width / (n - 1)
    if h == 0.0:
        x /= n - 1
        x *= d.width
    else:
        x *= h
    x += d.mu_lo
    if stop == n:
        x[-1] = d.mu_hi
    return x


class GridMax(NamedTuple):
    value: float
    argmax: float
    error_bound: float


class GridMax2(NamedTuple):
    value: float
    argmax: tuple[float, float]
    error_bound: float


def _certificate(lipschitz: float, grid: GridSpec, d: MaximalDist) -> float:
    """The grid certificate lipschitz * h / 2 of an f with that Lipschitz
    constant scanned on ``grid`` over d's interval, h being
    ``grid.spacing(d)`` (0 on a degenerate interval).

    The one place that turns a spacing into a certificate: ``eval_maximal``,
    ``convolve_scaled`` and each maximal axis of
    ``joint.compose_independent`` take their bound from it.
    """
    return lipschitz * grid.spacing(d) / 2.0


def _grid_blocks(axes: Sequence[np.ndarray], block: int, grid: GridSpec, what: str) -> Iterator[list[np.ndarray]]:
    """The product grid of ``axes``, one read-only coordinate array per axis
    for each row-major block of at most ``block`` cells.

    The only code that walks a product grid.  A grid of more than
    ``_MAX_CELLS`` cells raises ValueError naming ``what`` before the first
    block.  The longest suffix of axes that fits in one block is whole in
    every block, and is filled once; a block adds a run of row-major rows
    of the leading axes (one row when every axis is in the suffix), so its
    arrays have shape (rows,) + the suffix's shape.  One list is refilled
    for every block, so a block's arrays are freed before the next block's
    are allocated: peak memory is a few arrays of one block, not arity + 1
    arrays of the whole grid.  All coordinates are read-only: an f that
    writes into its arguments fails before it changes one, and is
    evaluated point by point.
    """
    shape = tuple(len(a) for a in axes)
    cells = math.prod(shape)
    if cells > _MAX_CELLS:
        spec = f"num={grid.num}" if grid.num is not None else f"step={grid.step!r}"
        raise ValueError(
            f"{what} needs {cells} grid cells with {spec}, over the limit of {_MAX_CELLS}; "
            "use a larger step or fewer nodes"
        )
    split, tail = len(shape), 1  # axes[split:] are the suffix
    while split and tail * shape[split - 1] <= block:
        split -= 1
        tail *= shape[split]
    lead_shape = shape[:split]
    rows = math.prod(lead_shape)
    step = min(block // tail, rows)
    ones = (1,) * (len(shape) - split)
    suffix, coords = [], []
    for p, a in enumerate(axes[split:]):
        c = np.empty((step,) + shape[split:])
        c[...] = a.reshape((1,) + ones[:p] + (-1,) + ones[p + 1 :])
        c.flags.writeable = False
        suffix.append(c)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        coords.clear()
        lead = np.unravel_index(np.arange(start, stop), lead_shape) if split else ()
        for a, idx in zip(axes, lead):
            c = np.empty((stop - start,) + shape[split:])
            c[...] = a[idx].reshape((-1,) + ones)
            c.flags.writeable = False  # a write must fail before f changes any argument
            coords.append(c)
        coords += [c[: stop - start] for c in suffix]
        yield coords


def _finite_values(f: Callable, pts: np.ndarray) -> np.ndarray:
    """f at the grid points pts, checked finite."""
    return _evaluate(f, (pts,), lambda k, v: f"test function returned non-finite value at point {float(pts.flat[k])!r}")


def _cell_bounds(f: BoundedLipschitzFn, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray):
    """Upper bounds of f on the cells [a, b] whose end values are fa, fb, and
    which of the cells can be split.

    On a cell [a, b] an L-Lipschitz f is at most (f(a) + f(b))/2 + L(b - a)/2,
    and at most its declared bound.
    """
    lip = f.lipschitz
    with np.errstate(over="ignore"):  # a bound may overflow to inf
        w = b - a
        ub = 0.5 * (fa + fb) + 0.5 * lip * w
        mid = a + 0.5 * w
        # f >= g - lip * w on a cell whose larger end value is g, so when
        # 2g - lip * w > 2**1024 (here with a margin for rounding) every
        # part of the cell that keeps that end bounds at inf at any depth
        stuck = (ub == math.inf) & (np.maximum(fa, fb) - 2.0**1023 > 0.5 * lip * w * (1 + 2.0**-40))
    # |f| <= f.bound caps every other cell's bound (inf declares no cap)
    ub = np.where(stuck, ub, np.minimum(ub, f.bound))
    # a cell whose midpoint is not representable cannot be split further;
    # a stuck one is not split either, since the bound returned would be
    # inf whatever the search found in it
    return ub, ~stuck & (a < mid) & (mid < b)


def _refine(f: BoundedLipschitzFn, blocks: list, pruned_ub: float, value: float, argmax: float):
    """Lipschitz branch-and-bound over grid cells.

    Each entry of ``blocks`` holds the arrays (a, b, f(a), f(b)) of some
    cells that may still be live, followed by their bounds and split flags
    from ``_cell_bounds``; the entries are joined, and ``blocks`` is
    emptied so that each round frees the cells of the one before.
    ``pruned_ub`` is the largest bound of the grid's other cells.  Cells whose bound exceeds the incumbent by more than the
    tolerance are split into equal parts, all new points are evaluated in
    one call, and the incumbent is updated (ties keep the smallest x).  Returns the incumbent and the largest bound over all
    cells, pruned or still live, so the shortfall certificate holds even
    when the evaluation cap stops the search early.
    """
    tol = f.lipschitz * _REFINE_XTOL
    a, b, fa, fb, ub, split = (np.concatenate(c) for c in zip(*blocks))
    blocks.clear()
    evals = 0
    while True:
        live = (ub > value + tol) & split
        pruned_ub = max(pruned_ub, float(ub[~live].max(initial=-math.inf)))
        n = int(np.count_nonzero(live))
        if n == 0 or evals + n > _REFINE_MAX_EVALS:
            return value, argmax, max(pruned_ub, float(ub[live].max(initial=-math.inf)))
        a, b, fa, fb = a[live], b[live], fa[live], fb[live]
        w = b - a
        k = 2
        while k < _REFINE_MAX_SPLIT and 2 * k * n <= _REFINE_BATCH:
            if evals + (2 * k - 1) * n > _REFINE_MAX_EVALS:
                break
            k *= 2
        # j / k is exact for a power of two k, so the middle point is mid itself
        frac = np.arange(1, k) / k
        x = np.minimum(a[:, None] + w[:, None] * frac, b[:, None])
        fx = _finite_values(f, x)
        evals += x.size
        j = int(np.argmax(fx))  # cells stay sorted by x, so the first maximum has the smallest x
        v, xj = float(fx.flat[j]), float(x.flat[j])
        if v > value or (v == value and xj < argmax):
            value, argmax = v, xj
        xs = np.concatenate((a[:, None], x, b[:, None]), axis=1)
        fs = np.concatenate((fa[:, None], fx, fb[:, None]), axis=1)
        a, b = xs[:, :-1].ravel(), xs[:, 1:].ravel()
        fa, fb = fs[:, :-1].ravel(), fs[:, 1:].ravel()
        ub, split = _cell_bounds(f, a, b, fa, fb)


def eval_maximal(d: MaximalDist, f: BoundedLipschitzFn, grid: GridSpec) -> GridMax:
    """Maximum of f over the mean interval, with argmax and error certificate.

    The reported value is f at an actual point of the interval, so it
    never exceeds the true maximum; the certificate bounds the shortfall.
    Ties resolve to the smallest x.  A non-finite value of f, on the grid
    or at a refinement point, raises EvaluationError naming the point.

    The nodes are scanned in blocks of at most ``_BLOCK_CELLS``, so the
    plain scan holds a few arrays of one block whatever the node count.
    Under ``grid.refine`` each block also bounds its own cells, the first
    of them reaching back to the previous block's last node, and keeps
    only those above the incumbent so far; ``_refine`` prunes them again
    with the final one.  A cell pruned against a smaller incumbent is
    pruned against the final one too, so the search starts from the cells
    and the pruned bound that one whole-grid pass gives.
    """
    n = grid.nodes(d)
    tol = f.lipschitz * _REFINE_XTOL
    value, argmax = -math.inf, None
    edge_x, edge_f = np.empty(0), np.empty(0)  # the previous block's last node and value
    kept, pruned_ub = [], -math.inf
    for start in range(0, n, _BLOCK_CELLS):
        pts = _node_block(d, n, start, min(start + _BLOCK_CELLS, n))
        vals = _finite_values(f, pts)
        i = int(np.argmax(vals))
        if vals[i] > value:  # strict: a tie keeps the earlier node
            value, argmax = float(vals[i]), float(pts[i])
        if grid.refine:
            xs, fs = np.concatenate((edge_x, pts)), np.concatenate((edge_f, vals))
            edge_x, edge_f = xs[-1:], fs[-1:]
            cells = xs[:-1], xs[1:], fs[:-1], fs[1:]
            ub, split = _cell_bounds(f, *cells)
            keep = (ub > value + tol) & split
            pruned_ub = max(pruned_ub, float(ub[~keep].max(initial=-math.inf)))
            kept.append([c[keep] for c in (*cells, ub, split)])
    err = _certificate(f.lipschitz, grid, d)
    if grid.refine:
        value, argmax, ub = _refine(f, kept, pruned_ub, value, argmax)
        err = max(0.0, min(err, ub - value))
    return GridMax(value, argmax, err)


def dirac_family(d: MaximalDist, n_atoms: int) -> ScenarioFamily:
    """Scenario-family representation: point masses on a uniform grid.

    On a degenerate interval the family is the single Dirac at the common
    endpoint.  Otherwise ``n_atoms >= 2`` nodes (endpoints included) give
    one Dirac measure each, so worst-case expectations over the family
    coincide bit-for-bit with the grid scan of :func:`eval_maximal` on a
    grid with the same node count.
    """
    n_atoms = _integer(n_atoms, "n_atoms", 1)
    if n_atoms == 1 and not d.degenerate:
        raise ValueError("n_atoms must be >= 2 on a nondegenerate interval")
    pts = GridSpec(num=n_atoms).points(d)
    return ScenarioFamily(tuple(DiscreteMeasure.dirac(float(p)) for p in pts))


def convolve_scaled(d: MaximalDist, a: float, b: float, f: BoundedLipschitzFn, grid: GridSpec) -> GridMax2:
    """Worst-case expectation of f(a*X + b*Xbar) for independent copies X, Xbar.

    Scans the two-dimensional grid box; for nonnegative a, b this equals
    the maximum of f over [ (a+b)*mu_lo, (a+b)*mu_hi ] up to the reported
    certificate lipschitz * (a+b) * h / 2.  The argmax pair resolves ties
    lexicographically (smallest x, then smallest xbar).  A non-finite value
    of f raises EvaluationError naming the first such point (x, xbar).
    The box is walked by ``_grid_blocks`` in blocks of at most
    ``_BLOCK_CELLS`` cells, after its ``_MAX_CELLS`` budget is checked.
    ``grid.refine`` is ignored: only ``eval_maximal`` reads it.
    """
    a = float(a)
    b = float(b)
    if a < 0 or b < 0:
        raise ValueError(f"scale factors must be nonnegative, got a={a!r}, b={b!r}")
    pts = grid.points(d)

    def g(x, y):
        return f.fn(a * x + b * y)

    best, at = -math.inf, None
    for x, y in _grid_blocks((pts, pts), _BLOCK_CELLS, grid, "convolve_scaled"):
        vals = _evaluate(
            g, (x, y), lambda k, v: f"non-finite value {v!r} at point {(float(x.flat[k]), float(y.flat[k]))!r}"
        )
        k = int(np.argmax(vals))
        if vals.flat[k] > best:  # strict: a tie keeps the earlier cell in row-major order
            best, at = float(vals.flat[k]), (float(x.flat[k]), float(y.flat[k]))
    return GridMax2(best, at, _certificate(f.lipschitz * (a + b), grid, d))


def interval_distance(d: MaximalDist, x: float) -> float:
    """Distance from x to the interval [mu_lo, mu_hi] (0 inside)."""
    x = float(x)
    return max(d.mu_lo - x, x - d.mu_hi, 0.0)
