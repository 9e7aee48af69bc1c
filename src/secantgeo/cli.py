"""Command-line front door.

Exit codes: 0 all requested verdicts computed (even when some fail),
1 input error (bad flags and `--trials` below 1 included),
2 certification failure, 3 internal error: any other exception, such as
a ValueError raised after the input has loaded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .defects import defect_report
from .genericity import CertificationError, derive_stream
from .oracles import join_dimension, tangent_join_dimension
from .polymaps import polymap_from_json, polymap_to_json
from .quadrics import rank_profile
from .report import AnalyzeOptions, InputError, analyze, dumps, load_input, render


class _Parser(argparse.ArgumentParser):
    """A malformed command line is an input error, not argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def _read_json(path: str | None):
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
            where = "<stdin>"
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            where = path
    except OSError as e:
        raise InputError("cannot read input: %s" % e) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError("%s: invalid JSON at line %d column %d: %s"
                         % (where, e.lineno, e.colno, e.msg)) from None


def _common_flags(p: argparse.ArgumentParser, order=True):
    p.add_argument("--input", default="-", help="input JSON file (default: stdin)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    if order:
        p.add_argument("--order", type=int, default=3, choices=(3, 4))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later `main` call:
    parse_args keeps no state between calls."""
    ap = _Parser(prog="secantgeo",
                 description="dimension and defect analysis of secant and tangential "
                             "varieties from exact chart data")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a poly_map or quadric_system")
    _common_flags(p)
    p.add_argument("--k", type=int, default=4, dest="k_max",
                   help="largest secant order in the sigma_k table (default 4)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("zoo", help="emit the chart of a named example as poly_map JSON")
    p.add_argument("family", choices=("segre", "veronese", "veronese_of", "severi",
                                      "grassmannian", "cone", "rank_variety"))
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--algebra", choices=("R", "C", "H", "O"))
    p.add_argument("--of", help="inner entry for veronese_of, e.g. veronese:2,1")

    p = sub.add_parser("oracle", help="independent dimension oracles on a poly_map")
    p.add_argument("which", choices=("join", "tangent"))
    _common_flags(p, order=False)
    p.add_argument("--k", type=int, default=2, help="secant order for the join oracle")

    p = sub.add_parser("clifford", help="Clifford relation verdict for an input")
    _common_flags(p)
    return ap


def _cmd_analyze(args) -> int:
    obj = _read_json(args.input)
    options = AnalyzeOptions(seed=args.seed, trials=args.trials, order=args.order,
                             k_max=args.k_max)
    sys.stdout.write(render(analyze(obj, options), args.format))
    return 0


def _cmd_zoo(args) -> int:
    from .zoo import build

    params = {k: getattr(args, k) for k in ("k", "r", "d", "m", "l", "algebra", "of")
              if getattr(args, k, None) is not None}
    try:
        entry = build(args.family, params)
    except ValueError as e:
        raise InputError(str(e)) from None
    out = polymap_to_json(entry.map, base_point=entry.base_point)
    sys.stdout.write(dumps(out) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    obj = _read_json(args.input)
    try:
        f = polymap_from_json(obj)
    except ValueError as e:
        raise InputError(str(e)) from None
    stream = derive_stream(args.seed, "cli", "oracle", args.which)
    if args.which == "join":
        if args.k < 1:
            raise InputError("--k must be >= 1")
        dim = join_dimension(f, args.k, stream, args.trials)[-1]
        result = {"kind": "oracle_result", "quantity": "join", "k": args.k,
                  "dimension": dim}
    else:
        dim = tangent_join_dimension(f, stream, args.trials)
        result = {"kind": "oracle_result", "quantity": "tangent", "dimension": dim}
    sys.stdout.write(dumps(result) + "\n")
    return 0


def _cmd_clifford(args) -> int:
    s = load_input(_read_json(args.input), args.order)[3]
    profile, points = rank_profile(s, derive_stream(args.seed, "profile"), args.trials)
    # the verdict of the analysis, at its batch, stream and draws
    cv = defect_report(s, profile, points, s.n + profile.a0,
                       derive_stream(args.seed, "defects")).clifford_verdict
    result = {"kind": "clifford_verdict", **cv._asdict()}
    sys.stdout.write(dumps(result) + "\n")
    return 0


def main(argv=None) -> int:
    handlers = {"analyze": _cmd_analyze, "zoo": _cmd_zoo, "oracle": _cmd_oracle,
                "clifford": _cmd_clifford}
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "trials", 1) < 1:
            raise InputError("trials must be >= 1")
        return handlers[args.command](args)
    except InputError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    except CertificationError as e:
        sys.stderr.write("certification failure: %s\n" % e)
        return 2
    except Exception as e:
        sys.stderr.write("internal error: %s: %s\n" % (type(e).__name__, e))
        return 3


if __name__ == "__main__":
    sys.exit(main())
