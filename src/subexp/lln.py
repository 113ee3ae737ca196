"""Law-of-large-numbers experiments under mean ambiguity.

Observations are X_i = mu_i + eps_i where each mu_i is chosen by a policy
inside the mean interval and eps_i is mean-zero noise.  Empirical
averages of f(S_n/n) taken over any finite policy class only explore part
of the ambiguity, so the estimates reported here are lower bounds on the
worst case; the limit target itself comes from the maximal distribution.

Determinism: replication r draws from numpy's PCG64 generator seeded with
seed + r.  Within one replication, policies that randomise draw their
whole mean sequence first and the noise vector second; the adversarial
policy (which must see the running average) draws the noise vector first
and then walks the path.  Identical configs and seeds therefore
reproduce paths bit for bit.  Constant, periodic and adversarial policies
draw nothing before the noise, so in one call they all see replication
r's same noise vector, which is drawn once and shared.

A run may draw at most ``_MAX_DRAWS`` (2**28) observations per policy,
reps * n; ``SimConfig`` rejects more before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

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

GENERATOR_NAME = "numpy-pcg64"
# SimConfig rejects more draws per policy (reps * n) than this, before any
# simulation allocates or runs.
_MAX_DRAWS = 1 << 28


class SimulationError(RuntimeError):
    """A policy produced a mean outside the ambiguity interval."""


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

    kinds: "none", "uniform" (uniform on [-a, a]), "two_point" (+-a with
    equal probability).  ``second_moment`` is exact: 0, a^2/3, a^2.
    """

    kind: str
    half_width: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "uniform", "two_point"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind != "none" and not (self.half_width > 0):
            raise ValueError(f"noise half-width must be positive, got {self.half_width!r}")

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
        if self.kind == "none":
            return np.zeros(n)
        if self.kind == "uniform":
            return rng.uniform(-self.half_width, self.half_width, n)
        return (2.0 * rng.integers(0, 2, n) - 1.0) * self.half_width


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
        return cls("constant", (mu,), None, f"constant({mu:g})")

    @classmethod
    def periodic(cls, mus: Sequence[float]) -> "MeanPolicy":
        vals = tuple(float(m) for m in mus)
        if not vals:
            raise ValueError("periodic policy needs at least one mean")
        return cls("periodic", vals, None, "periodic(" + ",".join(f"{v:g}" for v in vals) + ")")

    @classmethod
    def random_choice(cls, mus: Sequence[float]) -> "MeanPolicy":
        vals = tuple(float(m) for m in mus)
        if not vals:
            raise ValueError("random policy needs at least one mean")
        return cls("random", vals, None, "random(" + ",".join(f"{v:g}" for v in vals) + ")")

    @classmethod
    def adversarial(cls, fn: Callable[[float], float], name: str = "callback") -> "MeanPolicy":
        return cls("adversarial", (), fn, f"adversarial({name})")

    def mean_vector(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The full mean sequence for non-adversarial kinds."""
        if self.kind == "constant":
            return np.full(n, self.values[0])
        if self.kind == "periodic":
            reps = -(-n // len(self.values))
            return np.tile(np.asarray(self.values), reps)[:n]
        if self.kind == "random":
            return rng.choice(np.asarray(self.values), size=n)
        raise ValueError("adversarial policies generate means stepwise, not as a vector")


@dataclass(frozen=True)
class SimConfig:
    n: int
    reps: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n!r}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps!r}")
        if self.reps * self.n > _MAX_DRAWS:
            raise ValueError(
                f"reps * n = {self.reps} * {self.n} = {self.reps * self.n} draws, over the limit of "
                f"{_MAX_DRAWS}; use fewer replications or a smaller n (--reps/--n-max)"
            )


def _check_means(mus: np.ndarray, d: MaximalDist, policy: MeanPolicy) -> None:
    bad = np.flatnonzero((mus < d.mu_lo) | (mus > d.mu_hi))
    if bad.size:
        i = int(bad[0])
        raise SimulationError(
            f"policy {policy.label} produced mean {float(mus[i])!r} at step {i}, "
            f"outside [{d.mu_lo}, {d.mu_hi}]"
        )


def _adversarial_path(d: MaximalDist, policy: MeanPolicy, eps: np.ndarray) -> np.ndarray:
    """Walk the path step by step; ``eps`` is the noise vector, drawn first."""
    mu_lo, mu_hi, callback = d.mu_lo, d.mu_hi, policy.callback
    x = []
    total = 0.0
    for i, e in enumerate(eps.tolist()):
        running = total / i if i else 0.0
        mu = float(callback(running))
        if not (mu_lo <= mu <= mu_hi):
            raise SimulationError(
                f"policy {policy.label} produced mean {mu!r} at step {i}, outside [{mu_lo}, {mu_hi}]"
            )
        xi = mu + e
        x.append(xi)
        total += xi
    return np.array(x)


def _simulate_one(
    d: MaximalDist, policy: MeanPolicy, noise: NoiseSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    if policy.kind == "adversarial":
        return _adversarial_path(d, policy, noise.sample(rng, n))
    mus = policy.mean_vector(n, rng)
    _check_means(mus, d, policy)
    return mus + noise.sample(rng, n)


def _rep_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(seed + r)


def simulate_path(d: MaximalDist, policy: MeanPolicy, noise: NoiseSpec, cfg: SimConfig) -> np.ndarray:
    """Simulate cfg.reps paths of length cfg.n; returns a (reps, n) array."""
    rows = [_simulate_one(d, policy, noise, cfg.n, _rep_rng(cfg.seed, r)) for r in range(cfg.reps)]
    return np.vstack(rows)


def log_schedule(n_max: int, num: int = 10) -> list[int]:
    """Distinct integer sample sizes, roughly log-spaced, ending at n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
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

    ``gap`` is estimate - target_or_bound in both kinds.  For kind
    "rate" a row is a violation when its gap exceeds three standard
    errors of the Monte-Carlo mean.
    """

    kind: str
    rows: tuple[SimRow, ...]
    seed: int
    noise: str
    policies: tuple[str, ...]
    generator: str = GENERATOR_NAME

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
        if self.kind != "rate":
            return []
        return [r for r in self.rows if r.gap > 3.0 * r.stderr]

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
        return {
            "kind": self.kind,
            "estimate_semantics": semantics,
            "seed": self.seed,
            "generator": self.generator,
            "noise": self.noise,
            "policies": list(self.policies),
            "rows": [_row_dict(r) for r in self.rows],
            "summary": [_row_dict(r) for r in self.max_rows()],
            "violations": len(self.violations()),
        }


def _row_dict(r: SimRow) -> dict:
    return {
        "n": r.n,
        "policy_id": r.policy_id,
        "estimate": r.estimate,
        "target_or_bound": r.target_or_bound,
        "gap": r.gap,
        "stderr": r.stderr,
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


def _prefix_stats(
    d: MaximalDist,
    policies: Sequence[MeanPolicy],
    noise: NoiseSpec,
    cfg: SimConfig,
    schedule: Sequence[int],
    transform: Callable[[np.ndarray], np.ndarray],
) -> list[list[tuple[float, float]]]:
    """Per policy, Monte-Carlo mean and stderr of transform(S_n / n) at each scheduled n.

    Paths are streamed one replication at a time so that reps * n_max
    never has to be materialised.  Replications run outside, policies
    inside: only random policies draw before the noise, so every other
    policy uses replication r's noise vector, drawn once, and the mean
    vectors of constant and periodic policies are built and checked once.
    ``transform`` maps the flat array of all running means in one call.
    When policies fail, the error raised is the one a policy-by-policy
    walk would meet first.
    """
    sched = np.asarray(schedule, dtype=int)
    n_max = int(sched.max())
    means = np.empty((len(policies), cfg.reps, len(sched)))
    path = np.empty(n_max)
    shared = any(pol.kind != "random" for pol in policies)
    fixed = {}
    failed = {}  # policy index -> (replication, error) of its first failure
    for p, pol in enumerate(policies):
        if pol.kind in ("constant", "periodic"):
            fixed[p] = pol.mean_vector(n_max, None)
            try:
                _check_means(fixed[p], d, pol)
            except SimulationError as exc:
                failed[p] = (0, exc)
    for r in range(cfg.reps):
        eps = noise.sample(_rep_rng(cfg.seed, r), n_max) if shared else None
        for p, pol in enumerate(policies):
            if p in failed:
                continue
            try:
                if p in fixed:
                    x = np.add(fixed[p], eps, out=path)
                elif pol.kind == "adversarial":
                    x = _adversarial_path(d, pol, eps)
                else:
                    x = _simulate_one(d, pol, noise, n_max, _rep_rng(cfg.seed, r))
            except SimulationError as exc:
                failed[p] = (r, exc)
                continue
            np.cumsum(x, out=x)
            means[p, r] = x[sched - 1] / sched
    if failed:
        # policy by policy, the transform of every earlier path came first
        p, (r, exc) = min(failed.items())
        transform(means.ravel()[: (p * cfg.reps + r) * len(sched)])
        raise exc
    acc = transform(means.ravel()).reshape(means.shape)
    return _mean_and_stderr(acc, policies, schedule)


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
    case; finitely many policies cannot exhaust the ambiguity.  A
    non-finite value of f at a running mean S_n/n raises EvaluationError
    naming that mean.
    """
    if not policies:
        raise ValueError("need at least one policy")
    schedule = list(n_schedule) if n_schedule is not None else log_schedule(cfg.n)
    if max(schedule) > cfg.n:
        raise ValueError(f"schedule reaches n={max(schedule)} beyond cfg.n={cfg.n}")
    target = eval_maximal(d, f, grid).value

    def transform(means: np.ndarray) -> np.ndarray:
        at = "test function returned non-finite value {!r} at running mean {!r}"
        return _evaluate(f, (means,), lambda k, v: at.format(v, float(means[k])))

    rows = []
    for pol, stats in zip(policies, _prefix_stats(d, policies, noise, cfg, schedule, transform)):
        for n, (est, se) in zip(schedule, stats):
            rows.append(SimRow(n, pol.label, est, target, est - target, se))
    return SimReport(
        kind="lln",
        rows=tuple(rows),
        seed=cfg.seed,
        noise=noise.label,
        policies=tuple(p.label for p in policies),
    )


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
    exceeds the bound by more than three standard errors are flagged as
    violations (:meth:`SimReport.violations`).
    """
    if not policies:
        raise ValueError("need at least one policy")
    schedule = list(n_schedule)
    if not schedule:
        raise ValueError("n_schedule must be nonempty")
    if max(schedule) > cfg.n:
        raise ValueError(f"schedule reaches n={max(schedule)} beyond cfg.n={cfg.n}")
    m2 = second_moment_upper(d, noise)

    def transform(means: np.ndarray) -> np.ndarray:
        # a scalar ** 2 (libm pow) rounds a few inputs differently from numpy's x * x;
        # it cannot overflow here, because a distance is at most about the noise
        # half-width, whose square second_moment_upper above has checked
        return np.asarray([interval_distance(d, m) ** 2 for m in means.tolist()])

    rows = []
    for pol, stats in zip(policies, _prefix_stats(d, policies, noise, cfg, schedule, transform)):
        for n, (est, se) in zip(schedule, stats):
            bound = m2 / n
            rows.append(SimRow(n, pol.label, est, bound, est - bound, se))
    return SimReport(
        kind="rate",
        rows=tuple(rows),
        seed=cfg.seed,
        noise=noise.label,
        policies=tuple(p.label for p in policies),
    )
