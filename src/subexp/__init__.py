"""Worst-case expectations over scenario families.

Core objects: finite families of discrete measures with exact sublinear
expectations (:mod:`subexp.scenarios`), the one-dimensional maximal
distribution with certified grid evaluation (:mod:`subexp.maximal`),
sequentially independent joints (:mod:`subexp.joint`), simulation and
rate checks for averages under mean ambiguity (:mod:`subexp.lln`),
minimax interval estimation (:mod:`subexp.mle`), and rolling variance
envelopes (:mod:`subexp.envelope`).

``import subexp`` loads none of these modules: each public name is
imported from its defining module on first access (PEP 562), so a caller
pays only for the layers it uses.  This module itself loads no layer and
no numpy, and holds what several layers share: the error types
:class:`DataError` and :class:`SimulationError` (so the CLI catches them
without loading a layer), the grid block size ``_BLOCK_CELLS``, the
integer rule ``_integer`` and the finite-entry rule ``_finite_floats``.
"""

import importlib
import math
import operator

__version__ = "0.1.0"

# defining module -> public names re-exported here
_EXPORTS = {
    "scenarios": (
        "BoundedLipschitzFn", "DiscreteMeasure", "EvaluationError", "ScenarioFamily", "SublinearResult",
        "capacity", "expect_linear", "sublinear_expect",
    ),
    "maximal": (
        "GridMax", "GridMax2", "GridSpec", "MaximalDist", "convolve_scaled", "dirac_family", "eval_maximal",
        "interval_distance",
    ),
    "joint": (
        "BoundedLipschitzFnN", "ComposeResult", "JointSpec", "PointCapacity", "ProbeResult", "asymmetry_probe",
        "compose_independent", "indicator_approx", "point_capacity",
    ),
    "lln": (
        "MeanPolicy", "NoiseSpec", "SimConfig", "SimReport", "SimRow", "empirical_lln", "log_schedule",
        "rate_check", "second_moment_upper", "simulate_path",
    ),
    "mle": (
        "MleResult", "SampleSet", "UnbiasednessResult", "likelihood", "mle_estimate", "solve_minimax_oracle",
        "unbiasedness_check",
    ),
    "envelope": (
        "ColumnSpec", "EnvelopeConfig", "TimeSeries", "VarianceEnvelope", "ingest_csv", "rolling_local_variance",
        "variance_envelope",
    ),
    "axioms": ("AxiomSuiteReport", "run_axiom_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "DataError", "SimulationError", *_HOME]

# Grids and windows are reduced over at most this many cells at once: the
# nodes of a one-dimensional scan and the cells of a product grid
# (maximal), and the window cells of rolling_local_variance (envelope).  One
# float64 array of a block is then at most 64 KiB, half of glibc's default
# mmap threshold, so every block reuses heap memory malloc keeps.  With 2**16
# cells (512 KiB arrays) whether a block's arrays were mmapped and
# page-faulted afresh depended on the allocator's history, and the max-of-5
# composition on 15 nodes took anywhere from 17 to 60 ms.
_BLOCK_CELLS = 1 << 13


class DataError(ValueError):
    """Malformed or insufficient input data (files, rows, series)."""


class SimulationError(RuntimeError):
    """A policy produced a mean outside the ambiguity interval."""


def __getattr__(name: str):
    # Not cached: every access reads the defining module's current binding,
    # so a name patched there (e.g. by a tracer) is seen here too.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


class _Unprintable:
    """Stands in, in an error message, for an entry whose ``repr`` raises,
    such as an int of more digits than ``sys.get_int_max_str_digits()``."""

    def __init__(self, value) -> None:
        if isinstance(value, int):
            self.text = f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
        else:
            self.text = f"<unprintable {type(value).__name__}>"

    def __repr__(self) -> str:
        return self.text


def _shown(value):
    """``value``, or an ``_Unprintable`` for it where its ``repr`` raises."""
    try:
        repr(value)
    except ValueError:
        return _Unprintable(value)
    return value


def _finite_floats(values, bad) -> tuple[float, ...]:
    """The entries of ``values`` (any iterable) as floats, each one finite.

    The layers' containers share this rule, so it lives in the one module
    every command loads; it loads no layer and no numpy.  One bulk pass
    converts, and the sum of the floats checks them: a sum with a
    non-finite term is not finite, so only a sum that overflows on finite
    terms needs an entry-by-entry test.  If either check fails the entries
    are walked again, and the first bad entry i raises
    ``bad(i, shown, number)``: ``number`` is False when ``float()`` refuses
    the entry (``shown`` is the entry) and True when it is not finite
    (``shown`` is its float, or the entry itself for an int too large for a
    float).  An entry whose ``repr`` would raise is shown through
    ``_shown``, so ``bad`` may format it with ``!r``.
    """
    values = tuple(values)  # the walk reads an iterator's entries again; a tuple is not copied
    try:
        floats = tuple(map(float, values))
        if math.isfinite(sum(floats)) or all(map(math.isfinite, floats)):
            return floats
    except (TypeError, ValueError, OverflowError):
        pass
    for i, v in enumerate(values):
        try:
            f = float(v)
        except (TypeError, ValueError):
            raise bad(i, _shown(v), False) from None
        except OverflowError:  # an int too large for a float
            raise bad(i, _shown(v), True) from None
        if not math.isfinite(f):
            raise bad(i, f, True)


def _integer(value, what: str, least: int) -> int:
    """``value`` as a Python int of at least ``least``: the one rule for the
    counts, seeds and column indices of every layer.

    What ``operator.index`` takes (an int or a numpy integer) is accepted,
    and so is a float with no fractional part; a bool is not.  Anything
    else raises ``ValueError("{what} must be an integer, got ...")``, and a
    smaller value ``ValueError("{what} must be >= {least}, got ...")``,
    each showing ``value`` as given, through ``_shown``.
    """
    n = None
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            if isinstance(value, float) and value.is_integer():
                n = int(value)
    if n is None:
        raise ValueError(f"{what} must be an integer, got {_shown(value)!r}")
    if n < least:
        raise ValueError(f"{what} must be >= {least}, got {_shown(value)!r}")
    return n


def _unreadable(what: str, path: str, exc: Exception) -> str:
    """The message for an input file that ``exc`` (an OSError, or a
    UnicodeDecodeError or csv.Error raised while reading) made unreadable.

    ``envelope.ingest_csv`` and the CLI's config and family files share
    this wording; it lives here because the CLI reads those files without
    loading numpy."""
    if isinstance(exc, (FileNotFoundError, NotADirectoryError)):
        return f"{what} does not exist: {path}"
    return f"cannot read {what} {path}: {exc.strerror if isinstance(exc, OSError) else exc}"
