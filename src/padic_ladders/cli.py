"""Command-line front end: tables, ladder/half-log export, decomposition,
point counting, and the verification suite.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 failed verification.
Output is machine-first JSON (or CSV where stated) on stdout or --out;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .checks import CheckConfig, default_configs, run_suite
from .coleman import KERNEL_COSET_NOTE, LambdaPair, decompose
from .curves import CurveData, ap
from .errors import PadicLaddersError, SerializationError, UsageError
from .ladders import half_logs, ladder, ladder_infinity
from .trace import delta_table, period_constants

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, without the stdlib's pure-Python
    encoder (which it falls back to whenever indent is set): strings through the
    C quoting, ints through int.__repr__, one separator triple per depth.  The
    CLI writes only str, int, bool, None, lists, tuples and str-keyed dicts; a
    float, a set, any other type or a non-str key raises TypeError."""
    chunks, seps = [], []

    def put(o, depth):
        if isinstance(o, str):
            chunks.append(_quote(o))
        elif o is None or o is True or o is False:
            chunks.append("null" if o is None else "true" if o else "false")
        elif isinstance(o, int):
            chunks.append(int.__repr__(o))
        elif not isinstance(o, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        elif not o:
            chunks.append("{}" if isinstance(o, dict) else "[]")
        else:
            if len(seps) == depth:  # the separators before, between and after the items
                pad = "\n" + "  " * depth
                seps.append((pad + "  ", "," + pad + "  ", pad))
            lead, between, close = seps[depth]
            is_dict = isinstance(o, dict)
            chunks.append("{" if is_dict else "[")
            for k in o:
                if is_dict and not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                chunks.append(lead + _quote(k) + ": " if is_dict else lead)
                put(o[k] if is_dict else k, depth + 1)
                lead = between
            chunks.append(close + ("}" if is_dict else "]"))

    put(obj, 0)
    return "".join(chunks)


def _write(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_table(args) -> int:
    rows = delta_table(args.p, args.ap, args.imin, args.imax)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["i", "y", "y_prime", "rendered"])
        for r in rows:
            writer.writerow([r.i, r.y, r.y_prime, r.rendered])
        _write(buf.getvalue(), args.out)
    else:
        payload = {
            "p": args.p,
            "ap": args.ap,
            "rows": [
                {"i": r.i, "y": r.y, "yp": r.y_prime, "rendered": r.rendered}
                for r in rows
            ],
        }
        _write(_dumps(payload), args.out)
    return EXIT_OK


def _cmd_ladder(args) -> int:
    if args.level == "infinity":
        if args.cap is None or args.prec is None:
            raise UsageError("--cap and --prec are required at level infinity")
        m = ladder_infinity(args.p, args.ap, args.index, args.cap, args.prec)
    else:
        m = ladder(args.p, args.ap, int(args.level), args.index, args.cap)
    _write(_dumps(m.to_json()), args.out)
    return EXIT_OK


def _cmd_halflog(args) -> int:
    pair = half_logs(args.p, args.ap, args.cap, args.prec)
    _write(_dumps(pair.to_json()), args.out)
    return EXIT_OK


def _read_pair(path: str, p: int, level: int) -> LambdaPair:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also an int literal past 4,300 digits
            raise SerializationError(f"{path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SerializationError(f"{path} must hold a JSON object")
    first = data.get("first", data.get("theta"))
    second = data.get("second", data.get("upsilon"))
    if first is None or second is None:
        raise SerializationError("input JSON needs first/second (or theta/upsilon) series")
    return LambdaPair.from_json({"p": p, "level": level, "first": first, "second": second})


def _cmd_decompose(args) -> int:
    pair = _read_pair(args.infile, args.p, args.level)
    result = decompose(args.p, args.ap, args.level, pair.first, pair.second)
    payload = {
        "p": args.p,
        "ap": args.ap,
        "level": args.level,
        "theta": result.first.to_json(),
        "upsilon": result.second.to_json(),
        "kernel_coset_note": KERNEL_COSET_NOTE,
    }
    _write(_dumps(payload), args.out)
    return EXIT_OK


def _cmd_ap(args) -> int:
    a = ap(CurveData(args.a1, args.a2, args.a3, args.a4, args.a6), args.p)  # one point count
    payload = {"p": args.p, "count": args.p + 1 - a, "ap": a, "supersingular": a % args.p == 0}
    _write(_dumps(payload), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if (args.p is None) != (args.ap is None):
        raise UsageError("--p and --ap must be given together")
    pairs = [(c.p, c.ap) for c in default_configs()] if args.p is None else [(args.p, args.ap)]
    for p, ap in pairs:  # an inadmissible pair is a domain error, not a failed check
        period_constants(p, ap)
    reports = run_suite([
        CheckConfig(p, ap, n_max=args.nmax, cap=args.cap, prec=args.prec, trials=args.trials)
        for p, ap in pairs
    ])
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} (p={r.config.get('p')}, ap={r.config.get('ap')})")
    if args.out:
        _write(_dumps([r.to_json() for r in reports]), args.out)
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _level_arg(value: str):
    return value if value == "infinity" else _positive_int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-ladders",
        description="Supersingular trace ladders, half-logarithms, and decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--p", type=int, required=True)
    pair.add_argument("--ap", type=int, required=True)

    t = sub.add_parser("table", parents=[pair], help="delta-coefficient table rows")
    t.add_argument("--imin", type=int, required=True)
    t.add_argument("--imax", type=int, required=True)
    t.add_argument("--format", choices=["json", "csv"], default="json")
    t.add_argument("--out")
    t.set_defaults(fn=_cmd_table)

    l = sub.add_parser("ladder", parents=[pair], help="finite or infinity-level ladder matrix")
    l.add_argument("--level", type=_level_arg, required=True,
                   help="integer level or 'infinity'")
    l.add_argument("--index", type=int, required=True)
    l.add_argument("--cap", type=_positive_int)
    l.add_argument("--prec", type=_positive_int)
    l.add_argument("--out")
    l.set_defaults(fn=_cmd_ladder)

    h = sub.add_parser("halflog", parents=[pair], help="half-logarithm pair")
    h.add_argument("--cap", type=_positive_int, required=True)
    h.add_argument("--prec", type=_positive_int, required=True)
    h.add_argument("--out")
    h.set_defaults(fn=_cmd_halflog)

    d = sub.add_parser("decompose", parents=[pair], help="invert the ladder map on a pair")
    d.add_argument("--level", type=_positive_int, required=True)
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out")
    d.set_defaults(fn=_cmd_decompose)

    a = sub.add_parser("ap", help="trace of Frobenius by point counting")
    for name in ("a1", "a2", "a3", "a4", "a6"):
        a.add_argument(f"--{name}", type=int, default=0)
    a.add_argument("--p", type=int, required=True)
    a.add_argument("--out")
    a.set_defaults(fn=_cmd_ap)

    v = sub.add_parser("verify", help="run the identity-check suite")
    v.add_argument("--all", action="store_true",
                   help="run every check (the default; kept for scripts)")
    v.add_argument("--p", type=int)
    v.add_argument("--ap", type=int)
    v.add_argument("--nmax", type=_positive_int, default=CheckConfig.n_max)
    v.add_argument("--cap", type=_positive_int, default=CheckConfig.cap)
    v.add_argument("--prec", type=_positive_int, default=CheckConfig.prec)
    v.add_argument("--trials", type=_positive_int, default=CheckConfig.trials)
    v.add_argument("--out")
    v.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PadicLaddersError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
