"""Command-line front end.

Thin adapter only: every command parses flags, calls the corresponding
library function, and serialises the result.  No numerical logic lives
here, which the test suite enforces by diffing CLI outputs against
direct module calls.

Conventions
-----------
exit codes   0 success, 2 validation error, 3 data error, 4 internal error
errors       one machine-parsable line on stderr:
             {"error": {"code": <int>, "message": "..."}}
outputs      JSON or CSV, always carrying a reproducibility header
             (version, command, seed, config digest); files are written
             atomically (temp file + rename), so failed runs leave no
             partial output
config       --config FILE reads flat key=value lines; explicit flags
             win over file values, environment variables are ignored
imports      commands reach the library only through the package's public
             names (``subexp.rate_check``); the first use of a name
             imports its layer, so a command loads only the layers it
             runs and `estimate --values` starts without numpy
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import stat
import sys
import tempfile

import subexp
from subexp import _unreadable

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems through CliError instead of exiting,
    takes no abbreviated flag (``--conf`` would slip past the scan for
    ``--config``, and ``--pol`` past the config file's ``policy`` key), and
    reads any token that starts like a negative number as a value, so
    ``--mu-lo -1e308`` means ``--mu-lo=-1e308``, ``--mu-lo -inf`` means
    ``--mu-lo=-inf`` and ``--values -1,2,3`` means ``--values=-1,2,3``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # A private argparse attribute, there being no public hook: its own
        # pattern takes only whole -123 and -1.5 tokens for numbers, and
        # -1e308, -inf or -1,2,3 for an option.  This one takes a - followed
        # by a digit, by . and a digit, or by inf or nan in any case; no flag
        # of this CLI starts that way.
        self._negative_number_matcher = re.compile(r"^-(?:\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # noqa: A003 - argparse API
        raise CliError(EXIT_VALIDATION, message)


# ---------------------------------------------------------------------------
# test-function registry


def _float_above(exact) -> float:
    """The smallest float >= an exact rational, inf beyond the float range.

    A float (the sum of a non-finite term) is returned as it is."""
    try:
        x = float(exact)
    except OverflowError:
        return math.inf
    return math.nextafter(x, math.inf) if x < exact else x


def _exact(v: float):
    """v as an exact rational; a non-finite v stays a float, and so does
    every sum or product it enters."""
    from fractions import Fraction

    return Fraction(v) if math.isfinite(v) else v


def build_fn(spec: str, radius: float) -> subexp.BoundedLipschitzFn:
    """Construct a named test function with a Lipschitz constant valid on
    [-radius, radius].

    Grammar: name[:arg1,arg2,...] with names identity, square, abs[:c],
    sin[:w], cos[:w], poly:c0,c1,..., indicator:x_star,k.
    """
    name, _, argstr = spec.partition(":")
    try:
        args = [float(a) for a in argstr.split(",")] if argstr else []
    except ValueError:
        raise CliError(EXIT_VALIDATION, f"bad numeric arguments in function spec {spec!r}")
    most = {"identity": 0, "square": 0, "abs": 1, "sin": 1, "cos": 1}.get(name)
    if most is not None and len(args) > most:
        raise CliError(EXIT_VALIDATION, f"too many arguments in function spec {spec!r}")
    R = float(radius)
    import numpy as np

    if name == "identity":
        return subexp.BoundedLipschitzFn(lambda x: x, 1.0, bound=R, name=spec)
    if name == "square":
        return subexp.BoundedLipschitzFn(lambda x: x * x, 2.0 * R, bound=_float_above(_exact(R) ** 2), name=spec)
    if name == "abs":
        c = args[0] if args else 0.0
        bnd = _float_above(_exact(R) + _exact(abs(c)))
        return subexp.BoundedLipschitzFn(lambda x: abs(x - c), 1.0, bound=bnd, name=spec)
    if name in ("sin", "cos"):
        w = args[0] if args else 1.0
        wave = getattr(np, name)
        return subexp.BoundedLipschitzFn(lambda x: wave(w * x), abs(w), bound=1.0, name=spec)
    if name == "poly":
        if not args:
            raise CliError(EXIT_VALIDATION, "poly needs coefficients, e.g. poly:0,0,-1")
        powers = [1]  # R**k, exactly
        for _ in args[1:]:
            powers.append(powers[-1] * _exact(R))
        lip = _float_above(sum(k * _exact(abs(c)) * powers[k - 1] for k, c in enumerate(args) if k >= 1))
        bnd = _float_above(sum(_exact(abs(c)) * powers[k] for k, c in enumerate(args)))

        def p(x, coeffs=tuple(args)):
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc

        return subexp.BoundedLipschitzFn(p, lip, bound=bnd, name=spec)
    if name == "indicator":
        if len(args) != 2:
            raise CliError(EXIT_VALIDATION, "indicator needs x_star and k, e.g. indicator:2,5")
        if not args[1].is_integer():
            raise CliError(EXIT_VALIDATION, f"indicator k must be a whole number, got {spec!r}")
        return subexp.indicator_approx(args[0], int(args[1]))
    raise CliError(EXIT_VALIDATION, f"unknown function {name!r} (try identity, square, abs, sin, cos, poly, indicator)")


# ---------------------------------------------------------------------------
# small spec parsers


def _parse_noise(text: str) -> subexp.NoiseSpec:
    name, colon, argstr = text.partition(":")
    try:
        if name == "none":
            if colon:
                raise ValueError("none takes no argument")
            return subexp.NoiseSpec.none()
        if name == "uniform":
            return subexp.NoiseSpec.uniform(float(argstr))
        if name == "two_point":
            return subexp.NoiseSpec.two_point(float(argstr))
    except ValueError as exc:
        raise CliError(EXIT_VALIDATION, f"bad noise spec {text!r}: {exc}")
    raise CliError(EXIT_VALIDATION, f"unknown noise kind {name!r} (none, uniform:a, two_point:a)")


def _parse_policy(text: str) -> subexp.MeanPolicy:
    name, _, argstr = text.partition(":")
    if name == "adversarial":
        raise CliError(EXIT_VALIDATION, "adversarial policies take a callback and are library-only")
    try:
        vals = [float(a) for a in argstr.split(",")] if argstr else []
    except ValueError:
        raise CliError(EXIT_VALIDATION, f"bad policy spec {text!r}")
    if name == "constant":
        if len(vals) != 1:
            raise CliError(EXIT_VALIDATION, f"constant policy needs exactly one mean, got {text!r}")
        return subexp.MeanPolicy.constant(vals[0])
    if name == "periodic":
        if not vals:
            raise CliError(EXIT_VALIDATION, f"periodic policy needs means, got {text!r}")
        return subexp.MeanPolicy.periodic(vals)
    if name == "random":
        if not vals:
            raise CliError(EXIT_VALIDATION, f"random policy needs means, got {text!r}")
        return subexp.MeanPolicy.random_choice(vals)
    raise CliError(EXIT_VALIDATION, f"unknown policy kind {name!r} (constant:mu, periodic:a,b, random:a,b)")


def _parse_schedule(text: str) -> list[int]:
    try:
        vals = sorted({int(v) for v in text.split(",")})
    except ValueError:
        raise CliError(EXIT_VALIDATION, f"bad schedule {text!r}, expected comma-separated integers")
    if not vals or vals[0] < 1:
        raise CliError(EXIT_VALIDATION, f"schedule entries must be >= 1, got {text!r}")
    return vals


def _parse_column(text: str | None) -> int | str | None:
    if text is None:
        return None
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return text


def _column_spec(args) -> subexp.ColumnSpec:
    header = {"auto": None, "yes": True, "no": False}[args.header]
    value = _parse_column(args.column)
    return subexp.ColumnSpec(
        value=0 if value is None else value,
        timestamp=_parse_column(args.timestamp_column),
        header=header,
    )


# ---------------------------------------------------------------------------
# parser construction


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="flat key=value file; explicit flags override it")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed (lln and rate: replication r uses SeedSequence(seed, spawn_key=(r,)))")
    p.add_argument("-o", "--output", help="write here instead of stdout (atomic)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_grid(p: _Parser) -> None:
    p.add_argument("--step", type=float, help="grid spacing (default 1e-4)")
    p.add_argument("--points", type=int, help="explicit grid node count (instead of --step)")
    p.add_argument("--refine", action=argparse.BooleanOptionalAction, default=False)


def _add_columns(p: _Parser) -> None:
    p.add_argument("--column", help="value column, 0-based index or header name (default 0)")
    p.add_argument("--timestamp-column")
    p.add_argument("--header", choices=("auto", "yes", "no"), default="auto")


def _add_simulation(p: _Parser, n_max: int) -> None:
    p.add_argument("--mu-lo", type=float, required=True)
    p.add_argument("--mu-hi", type=float, required=True)
    p.add_argument("--policy", action="append", default=None, metavar="SPEC",
                   help="repeatable: constant:mu | periodic:a,b | random:a,b")
    p.add_argument("--noise", default="none")
    p.add_argument("--n-max", type=int, default=n_max)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--n-schedule", help="comma-separated n values (default log-spaced)")


def build_parser() -> _Parser:
    parser = _Parser(prog="subexp", description="worst-case expectation toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("verify-axioms", help="randomized check of the sublinear-expectation axioms")
    p.add_argument("--cases", type=int, default=1000)
    _add_common(p)

    p = sub.add_parser("eval", help="worst-case expectation of a named test function")
    p.add_argument("--mu-lo", type=float)
    p.add_argument("--mu-hi", type=float)
    p.add_argument("--family", help="JSON file: array of {'atoms': [[point, weight], ...]}")
    p.add_argument("--fn", required=True, help="test function, e.g. square or poly:0,0,-1")
    _add_grid(p)
    _add_common(p)

    p = sub.add_parser("lln", help="empirical averages against the worst-case target")
    _add_simulation(p, 1000)
    p.add_argument("--fn", required=True)
    _add_grid(p)
    _add_common(p)

    p = sub.add_parser("rate", help="convergence-rate check for the squared interval distance")
    _add_simulation(p, 10000)
    _add_common(p)

    p = sub.add_parser("estimate", help="minimax interval estimate from a sample")
    p.add_argument("--input", help="CSV file of observations")
    p.add_argument("--values", help="inline comma-separated observations")
    _add_columns(p)
    _add_common(p)

    p = sub.add_parser("envelope", help="rolling-window variance envelope")
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int, required=True, help="window length L (>= 2)")
    p.add_argument("--num-windows", type=int, required=True, help="number of windows K (>= 1)")
    p.add_argument("--demean", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--t-index", type=int, help="reference position (default: end of series)")
    _add_columns(p)
    _add_common(p)

    return parser


# ---------------------------------------------------------------------------
# config file merging


def _read_text(path: str, what: str) -> str:
    """The text of an input file; a missing or unreadable one is a data
    error naming it, worded by ``subexp._unreadable`` as
    ``envelope.ingest_csv`` words its own.  Config and family files are
    not read through envelope because importing it loads numpy:
    ``--config`` goes with any command, ``estimate --values`` included,
    which loads no numpy, and ``eval --family`` loads no layer but
    scenarios."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_DATA, _unreadable(what, path, exc))


def _scan_config_path(rest: list[str]) -> str | None:
    for i, tok in enumerate(rest):
        if tok == "--config":
            if i + 1 >= len(rest):
                raise CliError(EXIT_VALIDATION, "--config needs a file path")
            return rest[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def _subparser_actions(parser: _Parser, command: str) -> dict[str, argparse.Action]:
    sub = parser._subparsers._group_actions[0].choices[command]  # noqa: SLF001 - argparse offers no public walk
    return {opt[2:]: act for opt, act in sub._option_string_actions.items() if opt.startswith("--")}


def _config_tokens(path: str, table: dict[str, argparse.Action], user_rest: list[str]) -> list[str]:
    """Turn key=value lines into argv tokens placed before the user's flags.

    argparse keeps the last occurrence for ordinary options, which gives
    explicit flags precedence.  For repeatable options (append), file
    values are dropped entirely whenever the user passed the flag.
    """
    user_flags = set()
    for tok in user_rest:
        if tok.startswith("--"):
            user_flags.add(tok[2:].split("=", 1)[0])
    tokens: list[str] = []
    for ln, line in enumerate(_read_text(path, "config file").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(EXIT_VALIDATION, f"{path}:{ln}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in ("config",):
            raise CliError(EXIT_VALIDATION, f"{path}:{ln}: config files cannot nest")
        act = table.get(key)
        if act is None:
            raise CliError(EXIT_VALIDATION, f"{path}:{ln}: unknown config key {key!r}")
        if isinstance(act, argparse.BooleanOptionalAction):
            low = value.lower()
            if low not in ("true", "1", "yes", "false", "0", "no"):
                raise CliError(EXIT_VALIDATION, f"{path}:{ln}: {key} must be true or false, got {value!r}")
            # the key is either spelling (demean, no-demean); false sets the other one
            flag, no_flag = act.option_strings
            tokens.append(flag if (low in ("true", "1", "yes")) == (f"--{key}" == flag) else no_flag)
        elif key in user_flags:
            continue  # explicit flag wins outright, including repeatables
        else:
            tokens.extend([f"--{key}", value])
    return tokens


# ---------------------------------------------------------------------------
# output plumbing


def _config_digest(args: argparse.Namespace) -> str:
    cfg = {k: v for k, v in vars(args).items() if k not in ("output", "config")}
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _atomic_write(path: str, text: str) -> None:
    """Replace the file ``path`` names, through any symlinks, in one rename.

    A new file gets mode 0666 minus the umask and a replaced one keeps its
    mode; a target that is not a regular file (a directory, a FIFO, a
    device) is refused before anything is written."""
    target = os.path.realpath(path)
    try:
        st = os.stat(target)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(st.st_mode):
            raise CliError(EXIT_VALIDATION, f"cannot write output file {path}: not a regular file")
        mode = stat.S_IMODE(st.st_mode)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".subexp-")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, meta: dict, payload: dict, csv_table: tuple | None) -> None:
    try:  # also the check for CSV output: neither format prints inf or nan
        text = json.dumps({"meta": meta, "result": payload}, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # a number overflowed
        raise CliError(EXIT_VALIDATION, f"{meta['command']} result holds a non-finite number")
    if args.format == "csv":
        header, rows, *notes = csv_table or (payload, [payload.values()])
        buf = io.StringIO()
        for key in ("version", "command", "seed", "config_digest"):
            buf.write(f"# {key}={meta[key]}\n")
        for note in notes:
            buf.write(f"# {note}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.output:
        try:
            _atomic_write(args.output, text)
        except OSError as exc:
            raise CliError(EXIT_VALIDATION, f"cannot write output file {args.output}: {exc.strerror}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# command handlers: return (payload, csv_table, exit_code); a csv_table is
# (header, rows) or (header, rows, note), a note being one more comment line
# after the meta lines, and None writes the payload's keys and values as the
# header and the one row


def _load_family(path: str) -> subexp.ScenarioFamily:
    text = _read_text(path, "family file")
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise CliError(EXIT_DATA, f"{path} is not valid JSON: {exc}")
    try:
        return subexp.ScenarioFamily.from_list(obj)
    except (ValueError, TypeError) as exc:
        raise CliError(EXIT_DATA, f"{path}: {exc}")


def _cmd_verify_axioms(args):
    report = subexp.run_axiom_suite(cases=args.cases, seed=args.seed)
    payload = report.to_json_obj()
    rows = [[c.name, c.max_violation, c.tolerance, c.passed] for c in report.checks]
    code = EXIT_OK if report.passed else EXIT_INTERNAL
    return payload, (["check", "max_violation", "tolerance", "pass"], rows), code


def _grid_from_args(args) -> subexp.GridSpec:
    if args.step is not None and args.points is not None:
        raise CliError(EXIT_VALIDATION, "give either --step or --points, not both")
    if args.points is not None:
        return subexp.GridSpec(num=args.points, refine=args.refine)
    return subexp.GridSpec(step=1e-4 if args.step is None else args.step, refine=args.refine)


def _cmd_eval(args):
    if (args.family is None) == (args.mu_lo is None and args.mu_hi is None):
        raise CliError(EXIT_VALIDATION, "give either --family or both --mu-lo and --mu-hi")
    if args.family is not None:
        fam = _load_family(args.family)
        radius = max((abs(p) for p in fam.support()), default=1.0)
        fn = build_fn(args.fn, radius)
        res = subexp.sublinear_expect(fam, fn)
        return {"value": res.value, "argmax_index": res.argmax_index, "error_bound": 0.0}, None, EXIT_OK
    if args.mu_lo is None or args.mu_hi is None:
        raise CliError(EXIT_VALIDATION, "need both --mu-lo and --mu-hi")
    d = subexp.MaximalDist(args.mu_lo, args.mu_hi)
    fn = build_fn(args.fn, max(abs(d.mu_lo), abs(d.mu_hi)))
    res = subexp.eval_maximal(d, fn, _grid_from_args(args))
    return {"value": res.value, "argmax": res.argmax, "error_bound": res.error_bound}, None, EXIT_OK


def _simulation(args, default_policies):
    """The interval, policies, noise, ``SimConfig`` and schedule of lln and
    rate, built in this order, so the first bad input names the error."""
    d = subexp.MaximalDist(args.mu_lo, args.mu_hi)
    policies = [_parse_policy(s) for s in args.policy] if args.policy else default_policies(d)
    noise = _parse_noise(args.noise)
    cfg = subexp.SimConfig(n=args.n_max, reps=args.reps, seed=args.seed)
    schedule = _parse_schedule(args.n_schedule) if args.n_schedule else subexp.log_schedule(args.n_max)
    return d, policies, noise, cfg, schedule


def _need_a_policy(d: subexp.MaximalDist) -> list[subexp.MeanPolicy]:
    raise CliError(EXIT_VALIDATION, "need at least one --policy")


def _cmd_lln(args):
    d, policies, noise, cfg, schedule = _simulation(args, _need_a_policy)
    fn = build_fn(args.fn, max(abs(d.mu_lo), abs(d.mu_hi)) + noise.half_width)
    report = subexp.empirical_lln(d, fn, policies, noise, cfg, _grid_from_args(args), schedule)
    note = f"target_error_bound={report.target_error_bound!r}"  # the table has no column for it
    return report.to_json_obj(), (report.CSV_COLUMNS, report.csv_rows(), note), EXIT_OK


def _default_rate_policies(d: subexp.MaximalDist) -> list[subexp.MeanPolicy]:
    mid = (d.mu_lo + d.mu_hi) / 2.0
    policies = [subexp.MeanPolicy.constant(d.mu_lo), subexp.MeanPolicy.constant(mid), subexp.MeanPolicy.constant(d.mu_hi)]
    if not d.degenerate:
        policies.append(subexp.MeanPolicy.periodic((d.mu_lo, d.mu_hi)))
    return list(dict.fromkeys(policies))


def _cmd_rate(args):
    report = subexp.rate_check(*_simulation(args, _default_rate_policies))
    return report.to_json_obj(), (report.CSV_COLUMNS, report.csv_rows()), EXIT_OK


def _cmd_estimate(args):
    if (args.input is None) == (args.values is None):
        raise CliError(EXIT_VALIDATION, "give exactly one of --input or --values")
    if args.input is not None:
        series = subexp.ingest_csv(args.input, _column_spec(args))
        values = series.values
    else:
        values = args.values.split(",")  # SampleSet names a bad entry
    sample = subexp.SampleSet(values)
    return subexp.mle_estimate(sample).to_dict(n=sample.n), None, EXIT_OK


def _cmd_envelope(args):
    series = subexp.ingest_csv(args.input, _column_spec(args))
    cfg = subexp.EnvelopeConfig(window=args.window, num_windows=args.num_windows, demean=args.demean)
    sigmas = subexp.rolling_local_variance(series, cfg, args.t_index)
    env = subexp.variance_envelope(sigmas)
    payload = env.to_dict()
    payload.update({"L": args.window, "K": args.num_windows, "demean": args.demean})
    return payload, (["j", "sigma_sq"], payload["per_window"]), EXIT_OK


_HANDLERS = {
    "verify-axioms": _cmd_verify_axioms,
    "eval": _cmd_eval,
    "lln": _cmd_lln,
    "rate": _cmd_rate,
    "estimate": _cmd_estimate,
    "envelope": _cmd_envelope,
}


# ---------------------------------------------------------------------------


def _run(argv: list[str]) -> int:
    parser = build_parser()
    if not argv or argv[0] not in _HANDLERS:
        parser.parse_args(argv)  # raises CliError with a helpful message
        raise CliError(EXIT_VALIDATION, "missing command")
    command, rest = argv[0], list(argv[1:])
    cfg_path = _scan_config_path(rest)
    if cfg_path is not None:
        table = _subparser_actions(parser, command)
        rest = _config_tokens(cfg_path, table, rest) + rest
    args = parser.parse_args([command] + rest)
    meta = {
        "version": subexp.__version__,
        "command": command,
        "seed": args.seed,
        "config_digest": _config_digest(args),
    }
    payload, csv_table, code = _HANDLERS[command](args)
    _emit(args, meta, payload, csv_table)
    return code


def _fail(code: int, message: str) -> int:
    line = json.dumps({"error": {"code": code, "message": " ".join(str(message).split())}})
    print(line, file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return _run(argv)
    except CliError as exc:
        return _fail(exc.code, exc.message)
    except subexp.DataError as exc:
        return _fail(EXIT_DATA, str(exc))
    except (ValueError, TypeError, subexp.SimulationError) as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    except Exception as exc:  # pragma: no cover - safety net
        return _fail(EXIT_INTERNAL, f"{type(exc).__name__}: {exc}")


def _entry() -> int:
    """Process entry point (the ``subexp`` script and ``python -m subexp.cli``).

    A one-shot process builds no reference cycles worth collecting, so the
    cyclic collector stays off while ``main`` runs, numpy's import included,
    and everything alive afterwards is frozen, which the collection at
    interpreter shutdown then skips.  ``main`` itself leaves ``gc`` alone,
    since tests and benchmarks call it in process.
    """
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(_entry())
