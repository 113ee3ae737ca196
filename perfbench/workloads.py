"""The three workloads: inputs made from the seed, the timed op, and the
checks on every op's outputs.

Every op of a workload runs the same bundle of public-API calls on the same
inputs, so percentiles are taken over like work.  Input sizes are fixed
class constants; the seed only picks the values.  Checks hold for any seed
and do not freeze random-stream values: what must repeat exactly is the
digest of an op's outputs across the ops of one run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np

from subexp import axioms, cli, envelope, joint, lln, maximal, mle, scenarios

# Relative tolerance of the checks that compare against an independently
# summed reference.  Exact rational sums rounded once and math.fsum agree
# to about 1e-16; the float tensordot in compose_independent differs from
# sublinear_expect by up to about 3e-14.
REL_TOL = 1e-12

# A CLI call that has not ended after this many seconds is killed and
# counted as failed.
CALL_TIMEOUT_S = 60


class Mismatch(Exception):
    """An output of the program disagrees with its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def expect_close(got: float, want: float, scale: float, what: str) -> None:
    expect(
        math.isfinite(got) and abs(got - want) <= REL_TOL * max(scale, abs(want)),
        f"{what}: got {got!r}, want {want!r}",
    )


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class _NoTrace:
    """Stands in for a Tracer in untraced ops."""

    @staticmethod
    def fn(f):
        return f


NO_TRACE = _NoTrace()


# ---------------------------------------------------------------------------
# shared input builders and references


def family_raw(rng: np.random.Generator, measures: int, atoms: int, spread: float) -> list:
    """(points, weights) per member: uniform points, Dirichlet weights."""
    return [
        (tuple(rng.uniform(-spread, spread, atoms).tolist()), tuple(rng.dirichlet(np.ones(atoms)).tolist()))
        for _ in range(measures)
    ]


def build_family(raw) -> scenarios.ScenarioFamily:
    return scenarios.ScenarioFamily(tuple(scenarios.DiscreteMeasure(tuple(zip(p, w))) for p, w in raw))


def fsum_sup(raw, f) -> tuple[float, float]:
    """Independent upper expectation: max over members of fsum(w f(p)) / fsum(w).

    Also returns the largest fsum(|w f(p)|) / fsum(w), the scale for the
    relative tolerance.
    """
    best = -math.inf
    scale = 0.0
    for points, weights in raw:
        mass = math.fsum(weights)
        terms = [w * f(p) for p, w in zip(points, weights)]
        best = max(best, math.fsum(terms) / mass)
        scale = max(scale, math.fsum(abs(t) for t in terms) / mass)
    return best, scale


def fsum_capacity(raw, event) -> float:
    return max(math.fsum(w for p, w in zip(points, weights) if event(p)) / math.fsum(weights) for points, weights in raw)


def default_policies(lo: float, hi: float) -> list:
    """The rate policies the CLI uses by default on a nondegenerate interval."""
    return [
        lln.MeanPolicy.constant(lo),
        lln.MeanPolicy.constant((lo + hi) / 2.0),
        lln.MeanPolicy.constant(hi),
        lln.MeanPolicy.periodic((lo, hi)),
    ]


def window_variances(z: np.ndarray, window: int, num_windows: int) -> list[float]:
    t = len(z)
    return [float(np.var(z[t - window - j + 1 : t - j + 1], ddof=1)) for j in range(1, num_windows + 1)]


def check_grid_max(res, lo: float, hi: float, lipschitz: float, nodes: int, refined: bool, what: str) -> None:
    """square on a grid through both endpoints: the maximum is exact."""
    expect(res.value == max(lo * lo, hi * hi), f"{what}: value {res.value!r} is not max(lo^2, hi^2)")
    certificate = lipschitz * ((hi - lo) / (nodes - 1)) / 2.0
    if refined:
        expect(0.0 <= res.error_bound <= certificate, f"{what}: error bound {res.error_bound!r} exceeds L*h/2")
    else:
        expect(res.error_bound == certificate, f"{what}: error bound {res.error_bound!r} != L*h/2 {certificate!r}")


def check_rate(report, policies: int, schedule: list[int], m2: float, what: str) -> None:
    expect(len(report.rows) == policies * len(schedule), f"{what}: {len(report.rows)} rows")
    for row in report.rows:
        expect(row.n in schedule, f"{what}: unscheduled n={row.n}")
        expect_close(row.target_or_bound, m2 / row.n, 0.0, f"{what}: bound at n={row.n}")
        expect(math.isfinite(row.estimate) and row.estimate >= 0.0, f"{what}: estimate {row.estimate!r}")
        expect(math.isfinite(row.stderr) and row.stderr >= 0.0, f"{what}: stderr {row.stderr!r}")
        expect(row.gap == row.estimate - row.target_or_bound, f"{what}: gap is not estimate - bound")


def _square(x):
    return x * x


def _max_of(*xs):
    return np.maximum.reduce(xs)


def _sum2(x, y):
    return x + y


def _product2(x, y):
    return x * y


# ---------------------------------------------------------------------------
# library workloads


class BulkJobs:
    """Large inputs: throughput of each compute layer, no import cost."""

    name = "bulk_jobs"
    setup_module = "subexp"
    in_process = True
    period = 1
    warmup = 1
    MEASURES, ATOMS = 8, 250
    GRID_NODES = 60_001
    ARITY, JOINT_NODES = 5, 15
    RATE_N, RATE_REPS = 10_000, 40
    CSV_ROWS, WINDOW, WINDOWS = 10_000, 40, 500

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.fam = family_raw(rng, self.MEASURES, self.ATOMS, 4.0)
        self.centre = float(rng.uniform(-1.0, 1.0))
        self.const = float(rng.uniform(-3.0, 3.0))
        self.threshold = float(rng.uniform(-1.0, 1.0))
        self.lo = float(rng.uniform(-2.0, -0.5))
        self.hi = float(rng.uniform(0.5, 2.0))
        self.j_lo = float(rng.uniform(-1.0, 0.0))
        self.j_hi = float(rng.uniform(0.0, 1.0))
        self.noise = float(rng.uniform(0.25, 1.0))
        z = rng.standard_normal(self.CSV_ROWS) * np.linspace(0.5, 2.0, self.CSV_ROWS)
        self.z = tuple(z.tolist())
        self.csv = os.path.join(workdir, "bulk_series.csv")
        with open(self.csv, "w") as fh:
            fh.write("t,z\n")
            fh.writelines(f"{i},{v!r}\n" for i, v in enumerate(self.z))

        centre, hi, threshold = self.centre, self.hi, self.threshold
        self.ref_abs = fsum_sup(self.fam, lambda x: abs(x - centre))
        self.ref_shift = fsum_sup(self.fam, lambda x: x + hi)
        self.ref_capacity = fsum_capacity(self.fam, lambda x: x > threshold)
        self.ref_var = window_variances(z, self.WINDOW, self.WINDOWS)
        self.schedule = lln.log_schedule(self.RATE_N)
        self.m2 = max(self.lo * self.lo, self.hi * self.hi) + self.noise * self.noise / 3.0

    def _abs(self, x):
        return abs(x - self.centre)

    def op(self, i: int, tr=NO_TRACE) -> dict:
        fam = build_family(self.fam)
        f_abs = scenarios.BoundedLipschitzFn(tr.fn(self._abs), 1.0)
        const = self.const
        out = {
            "abs": scenarios.sublinear_expect(fam, f_abs),
            "const": scenarios.sublinear_expect(fam, scenarios.BoundedLipschitzFn(lambda x: const, 0.0)),
            "capacity": scenarios.capacity(fam, lambda x: x > self.threshold),
        }

        d = maximal.MaximalDist(self.lo, self.hi)
        radius = max(-self.lo, self.hi)
        grid = maximal.GridSpec(num=self.GRID_NODES)
        out["grid_scalar"] = maximal.eval_maximal(d, cli.build_fn("square", radius), grid)
        f_square = scenarios.BoundedLipschitzFn(tr.fn(_square), 2.0 * radius)
        out["grid_vector"] = maximal.eval_maximal(d, f_square, grid)

        coarse = maximal.GridSpec(num=self.JOINT_NODES)
        dj = maximal.MaximalDist(self.j_lo, self.j_hi)
        f_max = joint.BoundedLipschitzFnN(tr.fn(_max_of), self.ARITY, 1.0)
        out["joint_max"] = joint.compose_independent(joint.JointSpec((dj,) * self.ARITY), f_max, coarse)
        f_sum = joint.BoundedLipschitzFnN(tr.fn(_sum2), 2, 1.0)
        out["joint_mixed"] = joint.compose_independent(joint.JointSpec((fam, d)), f_sum, coarse)
        f_abs1 = joint.BoundedLipschitzFnN(tr.fn(self._abs), 1, 1.0)
        out["joint_family"] = joint.compose_independent(joint.JointSpec((fam,)), f_abs1, coarse)

        noise = lln.NoiseSpec.uniform(self.noise)
        schedule = lln.log_schedule(self.RATE_N)
        cfg = lln.SimConfig(n=self.RATE_N, reps=self.RATE_REPS, seed=self.seed)
        out["rate"] = lln.rate_check(d, default_policies(self.lo, self.hi), noise, cfg, schedule)
        lo, hi, mid = self.lo, self.hi, (self.lo + self.hi) / 2.0
        chase = lln.MeanPolicy.adversarial(lambda running: hi if running < mid else lo, "chase")
        cfg1 = lln.SimConfig(n=self.RATE_N, reps=1, seed=self.seed)
        out["rate_adversarial"] = lln.rate_check(d, [chase], noise, cfg1, schedule)

        series = envelope.ingest_csv(self.csv, envelope.ColumnSpec(value="z", timestamp="t"))
        sigmas = envelope.rolling_local_variance(series, envelope.EnvelopeConfig(self.WINDOW, self.WINDOWS))
        out["series"] = series
        out["sigmas"] = sigmas
        out["envelope"] = envelope.variance_envelope(sigmas)
        return out

    def check(self, i: int, out: dict) -> str:
        ref, scale = self.ref_abs
        expect_close(out["abs"].value, ref, scale, "sublinear_expect vs fsum")
        expect(out["const"].value == self.const, f"E[c] = {out['const'].value!r} != c = {self.const!r}")
        expect_close(out["capacity"], self.ref_capacity, 1.0, "capacity vs fsum")

        radius = max(-self.lo, self.hi)
        for key in ("grid_scalar", "grid_vector"):
            check_grid_max(out[key], self.lo, self.hi, 2.0 * radius, self.GRID_NODES, False, key)

        expect(out["joint_max"].value == self.j_hi, f"max-of-{self.ARITY} compose {out['joint_max'].value!r} != mu_hi")
        ref, scale = self.ref_shift
        expect_close(out["joint_mixed"].value, ref, scale, "family x maximal compose vs fsum")
        expect_close(out["joint_family"].value, out["abs"].value, self.ref_abs[1], "family compose vs sublinear_expect")

        check_rate(out["rate"], 4, self.schedule, self.m2, "rate_check")
        check_rate(out["rate_adversarial"], 1, self.schedule, self.m2, "adversarial rate_check")

        series = out["series"]
        expect(series.values == self.z, "CSV values did not round-trip exactly")
        expect(series.timestamps == tuple(float(i) for i in range(self.CSV_ROWS)), "CSV timestamps changed")
        expect(len(out["sigmas"]) == self.WINDOWS, "wrong number of windows")
        for j, (got, want) in enumerate(zip(out["sigmas"], self.ref_var), start=1):
            expect_close(got, want, 0.0, f"window {j} variance vs np.var")
        env = out["envelope"]
        expect(env.sigma_lo_sq == min(out["sigmas"]) and env.sigma_hi_sq == max(out["sigmas"]), "envelope bounds")

        return digest(
            (
                [out[k] for k in ("abs", "const", "capacity", "grid_scalar", "grid_vector")],
                [out[k] for k in ("joint_max", "joint_mixed", "joint_family")],
                out["rate"].to_json_obj(),
                out["rate_adversarial"].to_json_obj(),
                out["envelope"].to_dict(),
            )
        )

    library_op = op


class SmallJobs:
    """Tiny inputs on the same layers: per-call overhead dominates."""

    name = "small_jobs"
    setup_module = "subexp"
    in_process = True
    period = 1
    warmup = 20
    # (measures, atoms) of the families: the whole 1-4 x 1-6 range, the
    # same sizes for every seed.
    FAMILY_SIZES = ((1, 1), (2, 6), (3, 3), (4, 5))
    AXIOM_CASES = 2
    GRID_NODES = 101
    SAMPLE = 20
    RATE_N, RATE_REPS = 200, 10
    SERIES, WINDOW, WINDOWS = 200, 20, 20
    K_MAX = 8
    SPREAD = 5.0  # family atoms lie in [-SPREAD, SPREAD]

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.families = [family_raw(rng, m, a, self.SPREAD) for m, a in self.FAMILY_SIZES]
        self.centre = float(rng.uniform(-1.0, 1.0))
        self.const = float(rng.uniform(-3.0, 3.0))
        self.lo = float(rng.uniform(-2.0, -0.5))
        self.hi = float(rng.uniform(0.5, 2.0))
        self.lo2 = float(rng.uniform(0.25, 0.75))
        self.hi2 = float(rng.uniform(1.0, 1.5))
        self.sample = tuple(rng.uniform(self.lo, self.hi, self.SAMPLE).tolist())
        self.noise = float(rng.uniform(0.25, 1.0))
        z = rng.standard_normal(self.SERIES)
        self.z = tuple(z.tolist())

        centre, lo2, hi2 = self.centre, self.lo2, self.hi2
        self.ref_abs = [fsum_sup(raw, lambda x: abs(x - centre)) for raw in self.families]
        self.ref_capacity = [fsum_capacity(raw, lambda x: x > centre) for raw in self.families]
        probe = self.families[-1]
        # asymmetry probe of x * y with y in [lo2, hi2], lo2 > 0: nesting
        # (family, maximal) takes the better endpoint per atom, nesting
        # (maximal, family) per member mean.
        self.ref_ab = fsum_sup(probe, lambda x: max(x * lo2, x * hi2))
        mean, mean_scale = fsum_sup(probe, lambda x: x)
        self.ref_ba = (max(mean * lo2, mean * hi2), mean_scale * hi2)
        self.ref_var = window_variances(z, self.WINDOW, self.WINDOWS)
        self.schedule = lln.log_schedule(self.RATE_N)
        self.m2 = max(self.lo * self.lo, self.hi * self.hi) + self.noise * self.noise / 3.0

    def _abs(self, x):
        return abs(x - self.centre)

    def op(self, i: int, tr=NO_TRACE) -> dict:
        const = self.const
        f_abs = scenarios.BoundedLipschitzFn(tr.fn(self._abs), 1.0)
        f_const = scenarios.BoundedLipschitzFn(lambda x: const, 0.0)
        families = [build_family(raw) for raw in self.families]
        out = {
            "abs": [scenarios.sublinear_expect(fam, f_abs) for fam in families],
            "const": [scenarios.sublinear_expect(fam, f_const) for fam in families],
            "capacity": [scenarios.capacity(fam, lambda x: x > self.centre) for fam in families],
            "axioms": axioms.run_axiom_suite(self.AXIOM_CASES),
        }

        d = maximal.MaximalDist(self.lo, self.hi)
        radius = max(-self.lo, self.hi)
        f_square = scenarios.BoundedLipschitzFn(tr.fn(_square), 2.0 * radius)
        out["grid"] = [
            maximal.eval_maximal(d, f_square, maximal.GridSpec(num=self.GRID_NODES)),
            maximal.eval_maximal(d, cli.build_fn("square", radius), maximal.GridSpec(num=self.GRID_NODES)),
            maximal.eval_maximal(d, f_square, maximal.GridSpec(num=self.GRID_NODES, refine=True)),
        ]

        d2 = maximal.MaximalDist(self.lo2, self.hi2)
        grid = maximal.GridSpec(num=self.GRID_NODES)
        f_sum = joint.BoundedLipschitzFnN(tr.fn(_sum2), 2, 1.0)
        out["joint"] = joint.compose_independent(joint.JointSpec((d, d2)), f_sum, grid)
        f_product = joint.BoundedLipschitzFnN(tr.fn(_product2), 2, max(self.SPREAD, self.hi2))
        out["probe"] = joint.asymmetry_probe(families[-1], d2, f_product, grid)
        out["point"] = joint.point_capacity(joint.JointSpec((d, d2)), (self.lo, self.hi2 + 1.0), self.K_MAX)

        sample = mle.SampleSet(self.sample)
        out["mle"] = mle.mle_estimate(sample)
        out["oracle"] = mle.solve_minimax_oracle(sample, self.sample)

        noise = lln.NoiseSpec.uniform(self.noise)
        policies = [lln.MeanPolicy.constant((self.lo + self.hi) / 2.0), lln.MeanPolicy.periodic((self.lo, self.hi))]
        cfg = lln.SimConfig(n=self.RATE_N, reps=self.RATE_REPS, seed=self.seed)
        out["rate"] = lln.rate_check(d, policies, noise, cfg, lln.log_schedule(self.RATE_N))

        series = envelope.TimeSeries(self.z)
        out["sigmas"] = envelope.rolling_local_variance(series, envelope.EnvelopeConfig(self.WINDOW, self.WINDOWS))
        out["envelope"] = envelope.variance_envelope(out["sigmas"])
        return out

    def check(self, i: int, out: dict) -> str:
        for k, (got, (ref, scale)) in enumerate(zip(out["abs"], self.ref_abs)):
            expect_close(got.value, ref, scale, f"family {k}: sublinear_expect vs fsum")
        for k, got in enumerate(out["const"]):
            expect(got.value == self.const, f"family {k}: E[c] = {got.value!r} != c = {self.const!r}")
        for k, (got, ref) in enumerate(zip(out["capacity"], self.ref_capacity)):
            expect_close(got, ref, 1.0, f"family {k}: capacity vs fsum")
        expect(out["axioms"].passed, f"axiom suite failed: {out['axioms'].to_json_obj()}")

        radius = max(-self.lo, self.hi)
        for k, res in enumerate(out["grid"]):
            check_grid_max(res, self.lo, self.hi, 2.0 * radius, self.GRID_NODES, k == 2, f"eval_maximal {k}")

        expect(out["joint"].value == self.hi + self.hi2, f"x + y compose {out['joint'].value!r} != hi + hi2")
        ab, ba = out["probe"]
        expect_close(ab, *self.ref_ab, "asymmetry probe (family, maximal)")
        expect_close(ba, *self.ref_ba, "asymmetry probe (maximal, family)")
        value, trace = out["point"]
        expect(value == 0.0, f"point outside the box has capacity {value!r}")
        expect(all(a > b for a, b in zip(trace, trace[1:])), "indicator trace is not decreasing")

        want = (min(self.sample), max(self.sample))
        expect((out["mle"].mu_lo_hat, out["mle"].mu_hi_hat) == want, f"mle {out['mle']} != [min, max]")
        expect((out["oracle"].mu_lo_hat, out["oracle"].mu_hi_hat) == want, f"oracle {out['oracle']} != [min, max]")

        check_rate(out["rate"], 2, self.schedule, self.m2, "rate_check")
        for j, (got, want) in enumerate(zip(out["sigmas"], self.ref_var), start=1):
            expect_close(got, want, 0.0, f"window {j} variance vs np.var")
        env = out["envelope"]
        expect(env.sigma_lo_sq == min(out["sigmas"]) and env.sigma_hi_sq == max(out["sigmas"]), "envelope bounds")

        return digest(
            (
                out["abs"],
                out["const"],
                out["capacity"],
                out["axioms"].to_json_obj(),
                out["grid"],
                out["joint"],
                out["probe"],
                out["point"],
                out["mle"].to_dict(),
                out["rate"].to_json_obj(),
                out["envelope"].to_dict(),
            )
        )

    library_op = op


# ---------------------------------------------------------------------------
# CLI workload


class _CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _CallTimeout()


def run_child(argv: list[str], env: dict, cwd: str, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child process to completion: (wall seconds, exit code, peak RSS in MB).

    The child is reaped with wait4, which also gives its own peak RSS.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout, stderr=stderr)
        signal.alarm(CALL_TIMEOUT_S)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except _CallTimeout:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise Mismatch(f"{argv[1:]} did not end within {CALL_TIMEOUT_S} s") from None
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class CliCalls:
    """One fresh ``python -m subexp.cli`` process per op, five commands in rotation."""

    name = "cli_calls"
    setup_module = "subexp.cli"
    in_process = False
    period = 5
    warmup = 0
    SAMPLE = 20
    FAMILY = (3, 5)
    CSV_ROWS, WINDOW, WINDOWS = 500, 20, 50
    RATE_N, RATE_REPS = 1000, 20
    NOISE = 0.5

    def __init__(self, seed: int, workdir: str, env: dict, cwd: str):
        rng = np.random.default_rng(seed)
        self.env = env
        self.cwd = cwd
        self.sample = tuple(rng.uniform(-3.0, 3.0, self.SAMPLE).tolist())
        fam = family_raw(rng, *self.FAMILY, 2.0)
        family_path = os.path.join(workdir, "family.json")
        with open(family_path, "w") as fh:
            json.dump([{"atoms": [list(a) for a in zip(p, w)]} for p, w in fam], fh)
        z = rng.standard_normal(self.CSV_ROWS)
        csv_path = os.path.join(workdir, "series.csv")
        with open(csv_path, "w") as fh:
            fh.writelines(f"{v!r}\n" for v in z.tolist())
        self.stdout_path = os.path.join(workdir, "call.out")
        self.stderr_path = os.path.join(workdir, "call.err")

        rate_policies = ["constant:-1", "constant:0.5", "constant:2", "periodic:-1,2"]
        self.commands = [
            ["estimate", "--values=" + ",".join(map(repr, self.sample))],
            ["eval", "--family", family_path, "--fn", "abs:0.25"],
            ["eval", "--mu-lo=-1", "--mu-hi=2", "--fn", "square"],
            ["envelope", "--input", csv_path, "--window", str(self.WINDOW), "--num-windows", str(self.WINDOWS)],
            ["rate", "--mu-lo=-1", "--mu-hi=2", "--noise", f"uniform:{self.NOISE}", "--n-max", str(self.RATE_N),
             "--reps", str(self.RATE_REPS), "--seed", str(seed)]
            + [f"--policy={p}" for p in rate_policies],
        ]
        self.expected = [json.loads(json.dumps(r)) for r in self._library_results(family_path, csv_path, seed)]
        self.peak_rss_mb = 0.0

    def _library_results(self, family_path: str, csv_path: str, seed: int) -> list[dict]:
        """What each command must print as its ``result``, from direct library calls."""
        sample = mle.SampleSet(self.sample)
        estimate = mle.mle_estimate(sample).to_dict(n=sample.n)

        with open(family_path) as fh:
            fam = scenarios.ScenarioFamily.from_list(json.load(fh))
        radius = max(abs(p) for p in fam.support())
        res = scenarios.sublinear_expect(fam, cli.build_fn("abs:0.25", radius))
        family_eval = {"value": res.value, "argmax_index": res.argmax_index, "error_bound": 0.0}

        res = maximal.eval_maximal(maximal.MaximalDist(-1.0, 2.0), cli.build_fn("square", 2.0), maximal.GridSpec(step=1e-4))
        grid_eval = {"value": res.value, "argmax": res.argmax, "error_bound": res.error_bound}

        series = envelope.ingest_csv(csv_path, envelope.ColumnSpec())
        sigmas = envelope.rolling_local_variance(series, envelope.EnvelopeConfig(self.WINDOW, self.WINDOWS))
        env = envelope.variance_envelope(sigmas).to_dict()
        env.update({"L": self.WINDOW, "K": self.WINDOWS, "demean": True})

        cfg = lln.SimConfig(n=self.RATE_N, reps=self.RATE_REPS, seed=seed)
        noise = lln.NoiseSpec.uniform(self.NOISE)
        rate = lln.rate_check(maximal.MaximalDist(-1.0, 2.0), default_policies(-1.0, 2.0), noise, cfg,
                              lln.log_schedule(self.RATE_N)).to_json_obj()
        return [estimate, family_eval, grid_eval, env, rate]

    def op(self, i: int):
        argv = [sys.executable, "-m", "subexp.cli", *self.commands[i % self.period]]
        with open(self.stdout_path, "w+b") as out, open(self.stderr_path, "w+b") as err:
            _wall, code, rss = run_child(argv, self.env, self.cwd, out, err)
            out.seek(0)
            err.seek(0)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            return code, out.read().decode(), err.read().decode()

    def library_op(self, i: int, tr=NO_TRACE):
        """The same command through ``subexp.cli.main`` in this process."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(self.commands[i % self.period]))
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, i: int, out) -> str:
        code, stdout, stderr = out
        k = i % self.period
        expect(code == 0, f"{self.commands[k][0]} exited {code}: {stderr.strip()}")
        result = json.loads(stdout)["result"]
        expect(result == self.expected[k], f"{self.commands[k][0]} result differs from the library call")
        if k == 0:
            expect([result["mu_lo_hat"], result["mu_hi_hat"]] == [min(self.sample), max(self.sample)], "estimate")
        if k == 2:
            expect(result["value"] == 4.0, "max of square on [-1, 2] is not 4")
        return digest(json.dumps(result, sort_keys=True))


WORKLOADS = {w.name: w for w in (CliCalls, BulkJobs, SmallJobs)}
