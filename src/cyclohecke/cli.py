"""Command-line front end: parameter parsing, suite dispatch and reports.

Scalar literals are exact: rationals as "3/2" or "-1", roots of unity as
"zeta_6^2", and "generic" for sampled rational specializations. Reports go
to stdout as JSON lines (one object per check) unless --format table is
given; the table command exports JSON unless --format csv is given, and a
format the command does not write is a usage error. Exit status is 0 when
everything passed, 1 on any failure, 2 on a usage error. An engine error (a
failed context self-test) is reported as a failed ``engine_error`` check.
Each subcommand is one entry of COMMANDS: the top-level parser, built once
per process, lists them, and a subcommand's own parser is built on demand.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from .combinatorics import enumerate_multipartitions
from .hecke import EngineError
from .ktheory import restriction_table, verify_blocks, verify_main_theorem
from .reports import VerificationReport, summarize
from .rings import CyclotomicDomain, RationalDomain
from .suites import (
    pbw_dimension_report,
    suite_center,
    suite_hilb_fg06,
    suite_main_theorem,
    suite_pairing,
    suite_q1_gap,
)

_ZETA_RE = re.compile(r"^zeta_(\d+)(?:\^(-?\d+))?$")


class UsageError(Exception):
    pass


def parse_scalar(text):
    """("rational", Fraction) | ("zeta", order, power) | ("generic",)."""
    text = text.strip()
    if text == "generic":
        return ("generic",)
    match = _ZETA_RE.match(text)
    if match:
        order = int(match.group(1))
        power = int(match.group(2)) if match.group(2) else 1
        if order < 1:
            raise UsageError(f"bad root-of-unity order in {text!r}")
        return ("zeta", order, power)
    try:
        return ("rational", Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed scalar literal {text!r}: {exc}") from exc


def build_domain_and_values(q_spec, Q_specs):
    """Assemble a common domain and the parameter images from literals; all
    root-of-unity literals must share one order."""
    orders = {s[1] for s in [q_spec] + Q_specs if s[0] == "zeta"}
    if len(orders) > 1:
        raise UsageError(
            "all roots of unity in one specialization must share an order")
    if orders:
        domain = CyclotomicDomain(orders.pop())

        def convert(spec):
            if spec[0] == "zeta":
                return domain.zeta(spec[2])
            return domain.from_fraction(spec[1])
    else:
        domain = RationalDomain()

        def convert(spec):
            return Fraction(spec[1])
    return domain, convert(q_spec), [convert(s) for s in Q_specs]


def _emit(reports, args):
    out = sys.stdout
    for report in reports:
        if args.format == "json":
            out.write(report.to_json() + "\n")
        else:
            head = f"[{report.status.upper():4s}] {report.check}"
            details = " ".join(
                f"{k}={v}" for k, v in sorted(report.params.items())
                if not isinstance(v, (list, dict)))
            out.write(f"{head} {details}\n")
            for w in report.witnesses:
                out.write(f"    witness: {w}\n")
        if args.timings:
            sys.stderr.write(
                f"# {report.check}: {report.duration:.3f}s\n")
    passed, failed, skipped = summarize(reports)
    if args.format == "table":
        out.write(f"{passed} passed, {failed} failed, {skipped} skipped\n")
    return 0 if failed == 0 else 1


def _parse_charge(text, r):
    try:
        charge = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad multicharge {text!r}") from exc
    if len(charge) != r:
        raise UsageError("multicharge length must equal r")
    return charge


def _parse_Q_list(text, r):
    specs = [parse_scalar(x) for x in text.split(",")]
    if len(specs) != r:
        raise UsageError("need one Q literal per level")
    return specs


def _check_sizes(args, min_n=1):
    """Reject sizes the library cannot take: n below min_n, or r below 1."""
    if args.n < min_n:
        raise UsageError(f"--n must be at least {min_n}")
    r = getattr(args, "r", None)
    if r is not None and r < 1:
        raise UsageError("--r must be at least 1")


def _check_counts(args):
    """Reject sample and budget counts below 1: with none of them a suite
    checks nothing and still reports a pass."""
    for name in ("samples", "budget"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise UsageError(f"--{name} must be at least 1")


def _check_format(args):
    """Reports are written as json or table, restriction tables as json or
    csv; reject the format the command would silently ignore."""
    ignored = "table" if args.command == "table" else "csv"
    if args.format == ignored:
        raise UsageError(
            f"--format {ignored} does not apply to {args.command}")


def _check_nonzero(specs, name):
    """The parameters q and Q_i must be invertible."""
    if any(s[0] == "rational" and s[1] == 0 for s in specs):
        raise UsageError(f"{name} must be nonzero")


def cmd_verify_main(args):
    if args.n is None:
        if args.r is not None:
            raise UsageError("--r needs --n")
        reports = (suite_main_theorem() if args.budget is None
                   else suite_main_theorem(budget=args.budget))
    elif args.budget is not None:
        raise UsageError("--budget does not apply with --n")
    else:
        _check_sizes(args, min_n=0)
        reports = [verify_main_theorem(args.n, args.r or 1)]
    return _emit(reports, args)


def cmd_hilb(args):
    _check_sizes(args)
    specs = [parse_scalar(x) for x in args.q_values.split(",")]
    if any(spec[0] == "generic" for spec in specs):
        raise UsageError("hilb takes explicit q literals")
    _check_nonzero(specs, "q")
    points = [(*build_domain_and_values(spec, [])[:2],
               f"zeta_{spec[1]}^{spec[2]}" if spec[0] == "zeta"
               else str(spec[1])) for spec in specs]
    if any(q == domain.one for domain, q, _ in points):
        raise UsageError("hilb requires q != 1")
    reports = [suite_hilb_fg06(args.n, points, seed=args.seed)]
    return _emit(reports, args)


def cmd_blocks(args):
    _check_sizes(args)
    if args.ell is None or args.ell < 2:
        raise UsageError("blocks requires --ell >= 2")
    charge = _parse_charge(args.charge, args.r)
    reports = [verify_blocks(args.n, args.r, args.ell, charge, seed=args.seed)]
    return _emit(reports, args)


def cmd_q1_gap(args):
    _check_sizes(args)
    Q_vals = None
    if args.Q:
        specs = _parse_Q_list(args.Q, args.r)
        if any(s[0] != "rational" for s in specs):
            raise UsageError("q1-gap takes rational Q literals")
        _check_nonzero(specs, "Q")
        Q_vals = [s[1] for s in specs]
        if len(set(Q_vals)) != len(Q_vals):
            raise UsageError("q1-gap needs distinct Q literals")
    reports = [suite_q1_gap(args.n, args.r, Q_vals, seed=args.seed)]
    return _emit(reports, args)


def cmd_pairing(args):
    _check_sizes(args)
    reports = [suite_pairing(args.n, args.r, seed=args.seed,
                             samples=args.samples)]
    return _emit(reports, args)


def cmd_center(args):
    _check_sizes(args)
    q_spec = parse_scalar(args.q)
    Q_specs = _parse_Q_list(args.Q, args.r)
    explicit = None
    if q_spec[0] == "generic" or any(s[0] == "generic" for s in Q_specs):
        if not (q_spec[0] == "generic"
                and all(s[0] == "generic" for s in Q_specs)):
            raise UsageError("mix of generic and explicit literals")
    else:
        _check_nonzero([q_spec], "q")
        _check_nonzero(Q_specs, "Q")
        explicit = build_domain_and_values(q_spec, Q_specs)
    reports = [suite_center(args.n, args.r, explicit, seed=args.seed,
                            samples=args.samples)]
    return _emit(reports, args)


def cmd_table(args):
    _check_sizes(args, min_n=0)
    table = restriction_table(args.n, args.r)
    text = table.to_csv() if args.format == "csv" else table.to_json() + "\n"
    if args.out:
        try:
            handle = open(args.out, "w")
        except OSError as exc:
            raise UsageError(
                f"cannot write --out {args.out}: {exc.strerror}") from exc
        with handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_dims(args):
    _check_sizes(args, min_n=0)
    inner = pbw_dimension_report(args.n, args.r)
    inner.params["multipartitions"] = len(
        enumerate_multipartitions(args.n, args.r))
    return _emit([inner], args)


_INT = {"type": int, "required": True}
_N_R = [("--n", _INT), ("--r", _INT)]

# subcommand -> (help, handler, [(flag, add_argument kwargs), ...])
COMMANDS = {
    "verify-main": ("main theorem identity", cmd_verify_main,
                    [(f, {"type": int}) for f in ("--n", "--r", "--budget")]),
    "hilb": ("Hilbert scheme corollary (r = 1)", cmd_hilb,
             [("--n", _INT), ("--q-values", {"default": "2,-1,zeta_3"})]),
    "blocks": ("block decomposition at a root of unity", cmd_blocks,
               _N_R + [("--ell", _INT), ("--charge", {
                   "required": True, "help": "comma-separated multicharge, "
                                             "one entry per level"})]),
    "q1-gap": ("q = 1 invariant-dimension gap", cmd_q1_gap,
               _N_R + [("--Q", {"help": "comma-separated distinct rational "
                                        "parameters"})]),
    "pairing": ("trace pairing and cocenter checks", cmd_pairing, _N_R),
    "center": ("center and JM-center dimensions", cmd_center,
               _N_R + [(f, {"required": True}) for f in ("--q", "--Q")]),
    "table": ("export a restriction table", cmd_table, _N_R + [("--out", {})]),
    "dims": ("dimension bookkeeping", cmd_dims, _N_R),
}


class _CommandParser:
    """One subcommand's parser, built from COMMANDS on its first dispatch."""

    def __init__(self, prog, command):
        self.prog, self.command, self.parser = prog, command, None

    def parse_known_args(self, args, namespace=None):
        if self.parser is None:
            _, func, arguments = COMMANDS[self.command]
            self.parser = argparse.ArgumentParser(prog=self.prog)
            # read "-1/2" and "-3/2,5" as values, not options; like the
            # lazy dispatch, this relies on argparse internals (CPython 3.11)
            self.parser._negative_number_matcher = re.compile(r"^-\d")
            for flag, kwargs in arguments:
                self.parser.add_argument(flag, **kwargs)
            self.parser.set_defaults(func=func)
        return self.parser.parse_known_args(args, namespace)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cyclohecke",
        description="exact verification suites for cyclotomic Hecke algebras "
                    "and Gieseker fixed-point K-theory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=3,
                        help="random specializations per generic claim")
    parser.add_argument("--format", choices=["json", "table", "csv"],
                        default="json")
    parser.add_argument("--timings", action="store_true",
                        help="print wall-clock durations to stderr")
    sub = parser.add_subparsers(dest="command", parser_class=_CommandParser)
    for name, (text, _, _) in COMMANDS.items():
        sub.add_parser(name, help=text, command=name)
    return parser


def parse_args(argv):
    return build_parser().parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not getattr(args, "command", None):
        build_parser().print_usage(sys.stderr)
        return 2
    try:
        _check_counts(args)
        _check_format(args)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except EngineError as exc:
        # an engine self-test failed: nothing was verified
        return _emit([VerificationReport(
            check="engine_error",
            params={"command": args.command},
            witnesses=[{"error": type(exc).__name__, "message": str(exc)}],
            seed=args.seed,
        )], args)


if __name__ == "__main__":
    sys.exit(main())
