"""Law-of-large-numbers experiments under mean ambiguity.

Observations are X_i = mu_i + eps_i where each mu_i is chosen by a policy
inside the mean interval and eps_i is mean-zero noise.  Empirical
averages of f(S_n/n) taken over any finite policy class only explore part
of the ambiguity, so the estimates reported here are lower bounds on the
worst case; the limit target itself comes from the maximal distribution.

Determinism: replication r draws from numpy's PCG64 generator seeded with
``SeedSequence(seed, spawn_key=(r,))``, the r-th child of
``SeedSequence(seed).spawn(reps)``: replications of one seed and of
different seeds use independent streams, each reproducible alone, and
``_walk`` fixes the order of draws within one replication.

A run may draw at most ``_MAX_DRAWS`` (2**28) observations per policy,
reps * n; ``SimConfig`` rejects more before anything is allocated.

A path is handed over as its means and its noise, X_i = mu_i + eps_i, and
the two are added only where the path is stored: ``simulate_path`` adds
them into its output row, the experiments into a lane of their pair
buffer, a chunk at a time.  A constant policy holds no mean vector, and
"none" noise no noise vector.

Running sums S_n are exact sequential sums, bit for bit those of
``np.cumsum`` over the path, taken two paths per pass: one complex
``np.cumsum`` runs the two IEEE addition chains in its real and imaginary
lanes at the cost of one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import SimulationError, _integer
from .maximal import GridSpec, MaximalDist, eval_maximal, interval_distance
from .scenarios import BoundedLipschitzFn, _evaluate

__all__ = [
    "SimulationError",
    "NoiseSpec",
    "MeanPolicy",
    "SimConfig",
    "SimRow",
    "SimReport",
    "simulate_path",
    "empirical_lln",
    "rate_check",
    "second_moment_upper",
    "log_schedule",
]

# written into every report, so output of an earlier stream rule can be told apart
GENERATOR_NAME = "numpy-pcg64:SeedSequence(seed,spawn_key=(r,))"
# family-wise level of SimReport.violations: a rate report of a bound that
# holds flags some row with probability at most this
VIOLATION_LEVEL = 0.05
# SimConfig rejects more draws per policy (reps * n) than this, before any
# simulation allocates or runs.
_MAX_DRAWS = 1 << 28
# draws per chunk of the running-sum pass; with its carry slot the pair
# buffer holds at most 2**16 complex entries (1 MiB), whatever n is
_PAIR_CHUNK = (1 << 16) - 1


def _square(x: float, what: str) -> float:
    """``x ** 2`` on a Python float, or ValueError naming ``what`` where the
    float ``**`` raises OverflowError instead of returning inf."""
    try:
        return x**2
    except OverflowError:
        raise ValueError(f"{what} overflows: {x!r} ** 2 is beyond the float range") from None


@dataclass(frozen=True)
class NoiseSpec:
    """Mean-zero observation noise.

    kinds: "none" (half-width 0), "uniform" (uniform on [-a, a]),
    "two_point" (+-a with equal probability).  ``second_moment`` is exact:
    0, a^2/3, a^2.
    """

    kind: str
    half_width: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "uniform", "two_point"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "none":
            if self.half_width != 0:  # rate_check reads the half-width into its row range
                raise ValueError(f"none noise takes no half-width, got {self.half_width!r}")
        elif not (self.half_width > 0):
            raise ValueError(f"noise half-width must be positive, got {self.half_width!r}")
        # numpy draws uniform(-a, a) through high - low = 2a, which must be finite
        limit = sys.float_info.max / 2 if self.kind == "uniform" else sys.float_info.max
        if self.half_width > limit:
            raise ValueError(f"{self.kind} noise half-width must be at most {limit!r}, got {self.half_width!r}")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls("none")

    @classmethod
    def uniform(cls, half_width: float) -> "NoiseSpec":
        return cls("uniform", float(half_width))

    @classmethod
    def two_point(cls, half_width: float) -> "NoiseSpec":
        return cls("two_point", float(half_width))

    @property
    def second_moment(self) -> float:
        if self.kind == "none":
            return 0.0
        a2 = _square(self.half_width, f"second moment of noise {self.label}")
        return a2 / 3.0 if self.kind == "uniform" else a2

    @property
    def label(self) -> str:
        return "none" if self.kind == "none" else f"{self.kind}:{self.half_width}"

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws of the noise; for "none", a read-only stride-0 view of 0.0."""
        if self.kind == "none":
            return np.broadcast_to(0.0, (n,))
        if self.kind == "uniform":
            return rng.uniform(-self.half_width, self.half_width, n)
        return (2.0 * rng.integers(0, 2, n) - 1.0) * self.half_width


def _label(kind: str, values: Sequence[float]) -> str:
    """``kind(v,...)`` with each mean as ``:g`` where that text reads back as
    the same float, else as its repr, so distinct policies get distinct labels."""
    return kind + "(" + ",".join(f"{v:g}" if float(f"{v:g}") == v else repr(v) for v in values) + ")"


@dataclass(frozen=True)
class MeanPolicy:
    """Per-step mean selection inside the ambiguity interval.

    Use the factory classmethods.  ``adversarial`` takes a callback that
    receives the running average of the observations so far (0.0 before
    the first step) and returns the next mean; it is a library-only
    policy, the CLI grammar covers the other three kinds.
    """

    kind: str
    values: tuple[float, ...] = ()
    callback: Callable[[float], float] | None = None
    label: str = ""

    @classmethod
    def constant(cls, mu: float) -> "MeanPolicy":
        mu = float(mu)
        return cls("constant", (mu,), None, _label("constant", (mu,)))

    @classmethod
    def periodic(cls, mus: Sequence[float]) -> "MeanPolicy":
        vals = tuple(float(m) for m in mus)
        if not vals:
            raise ValueError("periodic policy needs at least one mean")
        return cls("periodic", vals, None, _label("periodic", vals))

    @classmethod
    def random_choice(cls, mus: Sequence[float]) -> "MeanPolicy":
        vals = tuple(float(m) for m in mus)
        if not vals:
            raise ValueError("random policy needs at least one mean")
        return cls("random", vals, None, _label("random", vals))

    @classmethod
    def adversarial(cls, fn: Callable[[float], float], name: str = "callback") -> "MeanPolicy":
        return cls("adversarial", (), fn, f"adversarial({name})")

    def mean_vector(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The full mean sequence for non-adversarial kinds.

        A constant's, or a period of one mean, is a read-only broadcast
        view of that mean (stride 0): n entries held in no memory of their own.
        """
        if self.kind == "adversarial":
            raise ValueError("adversarial policies generate means stepwise, not as a vector")
        vals = np.asarray(self.values)
        if self.kind == "random":
            return rng.choice(vals, size=n)
        # constant or periodic
        return np.broadcast_to(vals, (n,)) if len(vals) == 1 else np.tile(vals, -(-n // len(vals)))[:n]


@dataclass(frozen=True)
class SimConfig:
    n: int
    reps: int
    seed: int

    def __post_init__(self) -> None:
        for name, least in (("n", 1), ("reps", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        if self.reps * self.n > _MAX_DRAWS:
            raise ValueError(
                f"reps * n = {self.reps} * {self.n} = {self.reps * self.n} draws, over the limit of "
                f"{_MAX_DRAWS}; use fewer replications or a smaller n (--reps/--n-max)"
            )


def _outside(d: MaximalDist, policy: MeanPolicy, mu: float, i: int) -> SimulationError:
    return SimulationError(f"policy {policy.label} produced mean {mu!r} at step {i}, outside [{d.mu_lo}, {d.mu_hi}]")


def _check_means(mus: np.ndarray, d: MaximalDist, policy: MeanPolicy) -> None:
    mus = mus[:1] if mus.strides == (0,) else mus  # a constant's view: one entry stands for all
    bad = np.flatnonzero(~((mus >= d.mu_lo) & (mus <= d.mu_hi)))  # nan is outside too
    if bad.size:
        i = int(bad[0])
        raise _outside(d, policy, float(mus[i]), i)


def _adversarial_means(d: MaximalDist, policy: MeanPolicy, eps: np.ndarray) -> np.ndarray:
    """The callback's means, step by step; ``eps`` is the noise vector, drawn
    first.  Both are taken one ``_PAIR_CHUNK`` at a time, so besides the
    returned array the walk holds one chunk as Python floats."""
    mu_lo, mu_hi, callback = d.mu_lo, d.mu_hi, policy.callback
    mus = np.empty(len(eps))
    total = 0.0
    for lo in range(0, len(eps), _PAIR_CHUNK):
        chunk = []
        for i, e in enumerate(eps[lo : lo + _PAIR_CHUNK].tolist(), start=lo):
            running = total / i if i else 0.0
            mu = float(callback(running))
            if not (mu_lo <= mu <= mu_hi):
                raise _outside(d, policy, mu, i)
            chunk.append(mu)
            total += mu + e
        mus[lo : lo + len(chunk)] = chunk
    return mus


def _rep_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))


def _walk(
    d: MaximalDist,
    policies: Sequence[MeanPolicy],
    noise: NoiseSpec,
    cfg: SimConfig,
    n: int,
    failed: dict[int, tuple[int, SimulationError]],
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield each policy's cfg.reps paths of length n as (p, r, means, noise).

    The path is means + noise; the caller adds the two where it stores the
    path.  The only code that draws paths.  Replications run outside,
    policies inside: a random policy draws its means, then its noise, from
    replication r's generator; every other policy takes replication r's
    noise vector, drawn once.  A constant or periodic policy's mean vector
    is built and checked at its first use and kept, a single mean's as a
    view holding no memory.  A policy whose mean leaves the interval gets
    no further paths; its (replication, error) goes into ``failed`` under
    its index.
    """
    shared = any(pol.kind != "random" for pol in policies)
    fixed: dict[int, np.ndarray] = {}
    for r in range(cfg.reps):
        if len(failed) == len(policies):
            break
        eps = noise.sample(_rep_rng(cfg.seed, r), n) if shared else None
        for p, pol in enumerate(policies):
            if p in failed:
                continue
            try:
                if pol.kind == "adversarial":
                    mus, e = _adversarial_means(d, pol, eps), eps
                elif pol.kind == "random":
                    rng = _rep_rng(cfg.seed, r)
                    mus = pol.mean_vector(n, rng)
                    _check_means(mus, d, pol)
                    e = noise.sample(rng, n)
                else:
                    mus, e = fixed.get(p), eps
                    if mus is None:
                        mus = fixed[p] = pol.mean_vector(n, None)
                        _check_means(mus, d, pol)
            except SimulationError as exc:
                failed[p] = (r, exc)
                continue
            yield p, r, mus, e


def simulate_path(d: MaximalDist, policy: MeanPolicy, noise: NoiseSpec, cfg: SimConfig) -> np.ndarray:
    """Simulate cfg.reps paths of length cfg.n; returns a (reps, n) array.

    Each path's means and noise are added straight into its row.  The
    array holds all reps * n floats at once: up to 2 GiB under the
    ``_MAX_DRAWS`` budget.  The experiments stream their paths instead.
    """
    out = np.empty((cfg.reps, cfg.n))
    failed = {}
    with np.errstate(over="ignore"):  # a draw that overflows is inf, without numpy's warning
        for _p, r, mus, eps in _walk(d, [policy], noise, cfg, cfg.n, failed):
            np.add(mus, eps, out=out[r])
    if failed:
        raise failed[0][1]
    return out


def log_schedule(n_max: int, num: int = 10) -> list[int]:
    """Distinct integer sample sizes, roughly log-spaced, ending at n_max."""
    n_max = _integer(n_max, "n_max", 1)
    raw = np.geomspace(1, n_max, num=num)
    return sorted({int(round(v)) for v in raw} | {n_max})


@dataclass(frozen=True)
class SimRow:
    n: int
    policy_id: str
    estimate: float
    target_or_bound: float
    gap: float
    stderr: float


@dataclass(frozen=True)
class SimReport:
    """Tabular result of an LLN or rate experiment.

    ``gap`` is estimate - target_or_bound in both kinds.  A row is a
    violation when its gap exceeds a confidence radius (see
    :meth:`violations`); ``row_range`` bounds the values a rate row
    averages, ``reps`` of them.  Its default, inf, flags no row, and an
    "lln" report keeps it.  For kind "lln" the target is a grid value, and
    the worst case lies in [target_or_bound, target_or_bound +
    target_error_bound]; ``target_error_bound`` is 0.0 for kind "rate",
    whose bound is exact, and only an "lln" report's JSON carries it.
    """

    kind: str
    rows: tuple[SimRow, ...]
    seed: int
    noise: str
    policies: tuple[str, ...]
    target_error_bound: float = 0.0
    reps: int = 1
    row_range: float = math.inf

    CSV_COLUMNS = ("n", "policy_id", "estimate", "target_or_bound", "gap", "stderr")

    def max_rows(self) -> list[SimRow]:
        """Per n, the row with the largest estimate (first policy on ties)."""
        out: dict[int, SimRow] = {}
        for row in self.rows:
            cur = out.get(row.n)
            if cur is None or row.estimate > cur.estimate:
                out[row.n] = row
        return [out[n] for n in sorted(out)]

    def violations(self) -> list[SimRow]:
        """The rows whose estimate exceeds the bound by more than a
        one-sided confidence radius at level delta = VIOLATION_LEVEL / rows,
        so that, by a union bound, a report of a bound that holds flags any
        row with probability at most VIOLATION_LEVEL.

        For values in [0, B], B = ``row_range``, the radius is the
        empirical-Bernstein one, sqrt(2 V ln(2/delta) / reps) + 7 B ln(2/delta)
        / (3 (reps - 1)) with V the sample variance (Maurer and Pontil, COLT
        2009, Thm 4), and Hoeffding's, B sqrt(ln(1/delta) / 2), at one
        replication.  A row whose replications agree is flagged only when
        its gap exceeds the range term; with B = inf no row is flagged.
        """
        delta, b = VIOLATION_LEVEL / max(len(self.rows), 1), self.row_range  # a report without rows flags none
        if self.reps == 1:
            return [r for r in self.rows if r.gap > b * math.sqrt(math.log(1 / delta) / 2)]
        log = math.log(2 / delta)
        # stderr = sqrt(V / reps), so sqrt(2 V log / reps) = stderr * sqrt(2 log)
        return [r for r in self.rows if r.gap > r.stderr * math.sqrt(2 * log) + 7 * b * log / (3 * (self.reps - 1))]

    def csv_rows(self) -> list[list]:
        return [
            [r.n, r.policy_id, repr(r.estimate), repr(r.target_or_bound), repr(r.gap), repr(r.stderr)]
            for r in self.rows
        ]

    def to_json_obj(self) -> dict:
        semantics = (
            "policy-class maximum: a lower bound on the worst case"
            if self.kind == "lln"
            else "Monte-Carlo mean vs theoretical upper bound"
        )
        # a row's fields copied with vars(): dataclasses.asdict deep-copies each one, about 15x dearer
        return {
            "kind": self.kind,
            "estimate_semantics": semantics,
            "seed": self.seed,
            "generator": GENERATOR_NAME,
            "noise": self.noise,
            "policies": list(self.policies),
            **({"target_error_bound": self.target_error_bound} if self.kind == "lln" else {}),
            **({"violation_level": VIOLATION_LEVEL} if self.kind == "rate" else {}),
            "rows": [dict(vars(r)) for r in self.rows],
            "summary": [dict(vars(r)) for r in self.max_rows()],
            "violations": len(self.violations()),
        }


def _mean_and_stderr(
    acc: np.ndarray, policies: Sequence[MeanPolicy], schedule: Sequence[int]
) -> list[list[tuple[float, float]]]:
    """Per policy and scheduled n, the Monte-Carlo mean and standard error of
    ``acc`` (policy, replication, n), checked finite.

    Each (policy, n) column is copied into a contiguous row, which numpy
    sums pairwise exactly as it would the column alone.
    """
    rows = acc.transpose(0, 2, 1).copy()
    reps = rows.shape[-1]
    with np.errstate(all="ignore"):
        means = rows.mean(axis=-1)
        se = rows.std(axis=-1, ddof=1) / math.sqrt(reps) if reps > 1 else np.zeros_like(means)
    bad = np.argwhere(~(np.isfinite(means) & np.isfinite(se)))
    if bad.size:
        p, k = bad[0]
        raise SimulationError(
            f"policy {policies[p].label} at n={schedule[k]}: the Monte-Carlo mean {float(means[p, k])!r} "
            f"or its standard error {float(se[p, k])!r} is not finite"
        )
    return [list(zip(m.tolist(), e.tolist())) for m, e in zip(means, se)]


def _checked_schedule(policies: Sequence[MeanPolicy], cfg: SimConfig, n_schedule: Sequence[int]) -> list[int]:
    if not policies:
        raise ValueError("need at least one policy")
    schedule = [_integer(n, "n_schedule entry", 1) for n in n_schedule]
    if not schedule:
        raise ValueError("n_schedule must be nonempty")
    if max(schedule) > cfg.n:
        raise ValueError(f"schedule reaches n={max(schedule)} beyond cfg.n={cfg.n}")
    return schedule


def _experiment(
    kind: str,
    d: MaximalDist,
    policies: Sequence[MeanPolicy],
    noise: NoiseSpec,
    cfg: SimConfig,
    schedule: list[int],
    targets: Sequence[float],
    transform: Callable[[np.ndarray], np.ndarray],
    **field: float,
) -> SimReport:
    """The report of transform(S_n / n)'s Monte-Carlo mean and stderr per
    (policy, scheduled n), against that n's target or bound; ``field`` is
    the one report field its kind sets (``target_error_bound`` or
    ``row_range``).

    Paths stream one replication at a time, so reps * n_max floats never
    exist at once; ``transform`` maps all running means in one call.  Of
    several failures, the one raised is the one a policy-by-policy walk
    would meet first.

    Running sums are summed two paths per pass, in the order ``_walk``
    yields them: the earlier path in the real lane of one complex buffer,
    the later in the imaginary lane, and an odd path out with itself.  The
    buffer takes a path in chunks of ``_PAIR_CHUNK`` draws, each the sum of
    that chunk's means and noise, added into the lane; from the second
    chunk on, the previous chunk's last running sum sits in front of it, so
    ``np.cumsum`` makes the same chain of additions as over the whole path.
    Only the scheduled running sums are read out.
    """
    sched = np.asarray(schedule, dtype=int)
    n = int(sched.max())
    means = np.empty((len(policies), cfg.reps, len(sched)))
    # chunks of the path: (start, stop, schedule entries inside, their buffer slots)
    chunks = []
    for lo in range(0, n, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, n)
        ks = np.flatnonzero((sched > lo) & (sched <= hi))
        chunks.append((lo, hi, ks, sched[ks] - lo))
    # slots 1.. hold a chunk; slot 0 carries the previous chunk's last running
    # sum, so the carry is added inside np.cumsum; the first chunk leaves
    # slot 0 out, since 0.0 + -0.0 would lose a leading -0.0's sign
    buf = np.empty(min(n, _PAIR_CHUNK) + 1, dtype=complex)
    sums = np.empty(len(sched), dtype=complex)
    failed = {}
    # a draw or running sum that overflows is inf (inf + -inf is nan), and a
    # finite check after the walk names it, so numpy's warning is not
    # printed; one context for the whole walk, as entering one costs 0.6 us
    with np.errstate(over="ignore", invalid="ignore"):
        paths = _walk(d, policies, noise, cfg, n, failed)
        for a in paths:
            # the earlier path in the real lane, the later one (an odd path
            # out: itself again) in the imaginary lane
            (pa, ra, ma, ea), (pb, rb, mb, eb) = a, next(paths, a)
            for lo, hi, ks, slots in chunks:
                m = hi - lo
                np.add(ma[lo:hi], ea[lo:hi], out=buf.real[1 : m + 1])
                np.add(mb[lo:hi], eb[lo:hi], out=buf.imag[1 : m + 1])
                run = buf[1 if lo == 0 else 0 : m + 1]
                np.cumsum(run, out=run)
                sums[ks] = buf[slots]
                buf[0] = buf[m]
            means[pa, ra] = sums.real / sched
            means[pb, rb] = sums.imag / sched
    if failed:
        # policy by policy, the transform of every earlier path came first
        p, (r, exc) = min(failed.items())
        transform(means.ravel()[: (p * cfg.reps + r) * len(sched)])
        raise exc
    acc = transform(means.ravel()).reshape(means.shape)
    rows = [
        SimRow(n, pol.label, est, target, est - target, se)
        for pol, stats in zip(policies, _mean_and_stderr(acc, policies, schedule))
        for n, target, (est, se) in zip(schedule, targets, stats)
    ]
    labels = tuple(p.label for p in policies)
    return SimReport(kind, tuple(rows), cfg.seed, noise.label, labels, reps=cfg.reps, **field)


def empirical_lln(
    d: MaximalDist,
    f: BoundedLipschitzFn,
    policies: Sequence[MeanPolicy],
    noise: NoiseSpec,
    cfg: SimConfig,
    grid: GridSpec,
    n_schedule: Sequence[int] | None = None,
) -> SimReport:
    """Empirical averages of f(S_n/n) against the maximal-distribution target.

    One row per (n, policy).  The per-n maximum over the policy class (see
    :meth:`SimReport.max_rows`) is a lower-bound estimate of the worst
    case; finitely many policies cannot exhaust the ambiguity.  The
    target is ``eval_maximal``'s grid value, and the report carries its
    error bound as ``target_error_bound``.  A non-finite value of f at a
    running mean S_n/n raises EvaluationError naming that mean.
    """
    schedule = _checked_schedule(policies, cfg, log_schedule(cfg.n) if n_schedule is None else n_schedule)
    target = eval_maximal(d, f, grid)

    def transform(means: np.ndarray) -> np.ndarray:
        at = "test function returned non-finite value {!r} at running mean {!r}"
        return _evaluate(f, (means,), lambda k, v: at.format(v, float(means[k])))

    targets = [target.value] * len(schedule)
    err = target.error_bound
    return _experiment("lln", d, policies, noise, cfg, schedule, targets, transform, target_error_bound=err)


def second_moment_upper(d: MaximalDist, noise: NoiseSpec) -> float:
    """Worst-case second moment of a single observation X = mu + eps."""
    what = f"worst-case second moment over [{d.mu_lo!r}, {d.mu_hi!r}] with noise {noise.label}"
    m2 = max(_square(d.mu_lo, what), _square(d.mu_hi, what)) + noise.second_moment
    if math.isinf(m2):
        raise ValueError(f"{what} overflows to inf")
    return m2


def rate_check(
    d: MaximalDist,
    policies: Sequence[MeanPolicy],
    noise: NoiseSpec,
    cfg: SimConfig,
    n_schedule: Sequence[int],
) -> SimReport:
    """Convergence-rate check for the squared interval distance of S_n/n.

    For every scheduled n the Monte-Carlo mean of dist(S_n/n, [lo, hi])^2
    is compared against second_moment_upper / n.  Rows whose estimate
    exceeds the bound by more than a confidence radius are flagged as
    violations (:meth:`SimReport.violations`).
    """
    schedule = _checked_schedule(policies, cfg, n_schedule)
    m2 = second_moment_upper(d, noise)
    # Every mean lies in [lo, hi], so dist(S_n/n, [lo, hi]) <= |mean noise|
    # <= a, the noise half-width.  The float running sum of n terms of size
    # at most M + a (M = max(|lo|, |hi|)) moves S_n/n by about n u (M + a)
    # (u = 2**-53); the allowance doubles that, and the last factor covers
    # the rounding of the distance, its square and of this bound.
    a = noise.half_width
    slack = 2.0 * (max(schedule) + 2) * 2.0**-53 * (max(abs(d.mu_lo), abs(d.mu_hi)) + a)
    row_range = (a + slack) * (a + slack) * (1 + 2.0**-48)

    def transform(means: np.ndarray) -> np.ndarray:
        # a scalar ** 2 (libm pow) rounds a few inputs differently from numpy's x * x;
        # it cannot overflow here, because a distance is at most about the noise
        # half-width, whose square second_moment_upper above has checked
        return np.asarray([interval_distance(d, m) ** 2 for m in means.tolist()])

    bounds = [m2 / n for n in schedule]
    return _experiment("rate", d, policies, noise, cfg, schedule, bounds, transform, row_range=row_range)
