"""Command-line front end.

Subcommands: expand (series coefficients), count (enumerative counts),
verify (identity catalog), parity (mod-2 routes), asym (growth ratios),
scan-nonneg (signed-count scan).  Exit status is 0 when every requested
check passes, 1 when a verification fails or the reader closes stdout
early (no traceback), 2 on usage errors.  Data goes to stdout and is
byte-stable for fixed flags; JSON tables are streamed in blocks of rows;
timing lines go to stderr.
"""

import argparse
import csv
import json
import os
import sys
import time
from itertools import islice

from . import families as fam
from . import gflib as gf
from . import growth as gw
from . import identities as idn
from . import parity as par
from .series import UnirankError

__all__ = ["main"]

_FAMILY_ALIASES = {"ubar": "left-heavy-overlined"}
# parity's count route is quadratic: --max-n 8 * 10^5 runs in 13.7-14.4 s
# on a 2-vCPU VM, 10^6 in 33 s in process, of which the sieve of the norm
# and criterion rows takes 0.9 s
_PARITY_MAX_N = 8 * 10 ** 5
_BLOCK = 4096   # JSON table rows per write


class _UsageError(Exception):
    pass


def _family(name: str) -> str:
    key = _FAMILY_ALIASES.get(name, name)
    if key not in fam.FAMILIES:
        choices = ", ".join(fam.FAMILIES + tuple(_FAMILY_ALIASES))
        raise _UsageError(f"unknown family {name!r}; choices: {choices}")
    return key


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_rows(fmt, head, field, name, rows, refined) -> None:
    """Write an iterable of (m, n, c) rows as JSON, ``head`` then the list
    ``field``, or as CSV with ``name`` in the key column.  An unrefined row
    has m = "" and lists in JSON as its bare coefficient.  JSON is written
    _BLOCK rows at a time, in ``json.dumps(..., indent=2)``'s exact layout."""
    if fmt != "json":
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(["key", "m", "n", "coefficient"])
        out.writerows([name, m, n, c] for m, n, c in rows)
        return
    # the head less its closing "[]\n}", then rows in the same layout; an
    # unrefined row formats r[2:], its coefficient alone
    sys.stdout.write(json.dumps({**head, field: []}, indent=2)[:-4])
    row, k = ('    {\n      "m": %d,\n      "n": %d,\n'
              '      "c": "%s"\n    }', 0) if refined else ('    "%s"', 2)
    rows, sep = iter(rows), "[\n"
    while block := list(islice(rows, _BLOCK)):
        sys.stdout.write(sep + ",\n".join([row % r[k:] for r in block]))
        sep = ",\n"
    sys.stdout.write("[]\n}\n" if sep == "[\n" else "\n  ]\n}\n")


def _cmd_expand(args) -> int:
    key = args.series
    if key not in gf.SERIES_KEYS:
        raise _UsageError(
            f"unknown series key {key!r}; choices: {', '.join(gf.SERIES_KEYS)}")
    order = args.order if args.order is not None else gf.default_order()
    if args.zeta:
        rows = gf.build(key, order, zeta=True).iter_zeta_entries()
    else:
        series = gf.build(key, order)
        if series.ring.name == "ZETA":
            series = series.marginal()
        rows = (("", n, c) for n, c in enumerate(series.coeffs))
    _emit_rows(args.format, {"series": key, "order": order}, "coefficients",
               key, rows, args.zeta)
    return 0


def _cmd_count(args) -> int:
    family = _family(args.family)
    if args.max_n < 0:
        raise _UsageError("--max-n must be >= 0")
    tables = fam.counts_by_rank_through(family, args.max_n)
    if args.by_rank:
        rows = ((m, n, c) for n, table in enumerate(tables)
                for m, c in sorted(table.items()))
    else:
        rows = (("", n, sum(table.values())) for n, table in enumerate(tables))
    _emit_rows(args.format, {"family": family, "max_n": args.max_n},
               "counts", family, rows, args.by_rank)
    return 0


def _cmd_verify(args) -> int:
    order = args.order if args.order is not None else gf.default_order()
    keys = idn.IDENTITY_KEYS if args.key is None else (args.key,)
    for key in keys:
        if key not in idn.IDENTITY_KEYS:
            raise _UsageError(f"unknown identity key {key!r}; "
                              f"choices: {', '.join(idn.IDENTITY_KEYS)}")
    started = time.perf_counter()
    reports = [idn.verify(key, order) for key in keys]
    elapsed = time.perf_counter() - started
    ok = all(r.passed for r in reports)
    if args.format == "json":
        _emit_json({
            "order": order,
            "all_passed": ok,
            "reports": [{
                "key": r.key,
                "passed": r.passed,
                "depth": r.depth,
                "first_mismatch": list(r.first_mismatch)
                if r.first_mismatch is not None else None,
                "detail": r.detail,
            } for r in reports],
        })
    else:
        for r in reports:
            if r.passed:
                print(f"{r.key}: ok through q^{order}")
            else:
                print(f"{r.key}: FAIL {r.detail}")
    print(f"verified {len(reports)} identities in {elapsed:.2f}s",
          file=sys.stderr)
    return 0 if ok else 1


def _cmd_parity(args) -> int:
    if not 1 <= args.max_n <= _PARITY_MAX_N:
        raise _UsageError(f"--max-n must be between 1 and {_PARITY_MAX_N}")
    result = par.parity_agreement(args.max_n)
    bad = result["disagreements"]
    odd_count = (result["count"] >> 1).bit_count()
    if args.format == "json":
        _emit_json({
            "max_n": args.max_n,
            "disagreements": bad,
            "odd_count": odd_count,
            "passed": not bad,
        })
    else:
        print(f"routes agree through n = {args.max_n}: "
              f"{'yes' if not bad else 'NO'}")
        print(f"disagreements: {len(bad)}")
        print(f"odd positions: {odd_count}")
    return 0 if not bad else 1


def _cmd_asym(args) -> int:
    if args.target not in gw.COUNT_KEYS:
        raise _UsageError(f"unknown target {args.target!r}; "
                          f"choices: {', '.join(gw.COUNT_KEYS)}")
    try:
        checkpoints = tuple(int(x) for x in args.checkpoints.split(","))
    except ValueError:
        raise _UsageError("--checkpoints wants comma-separated integers")
    if len(checkpoints) < 2:
        raise _UsageError("--checkpoints needs at least two values")
    if list(checkpoints) != sorted(set(checkpoints)) or checkpoints[0] < 1:
        raise _UsageError("--checkpoints must be distinct, ascending, >= 1")
    if checkpoints[-1] > gw.MAX_LIMIT:
        raise _UsageError(f"--checkpoints must be at most {gw.MAX_LIMIT}")
    started = time.perf_counter()
    counts = gw.exact_counts(args.target, max(checkpoints))
    rows = []
    gaps = []
    for n in checkpoints:
        main = gw.asymptotic_main(args.target, n)
        ratio = counts[n] / main
        gaps.append(abs(ratio - 1.0))
        rows.append({"n": n, "count": str(counts[n]),
                     "main_term": main, "ratio": ratio})
    improving = all(a > b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.perf_counter() - started
    if args.emit == "json":
        _emit_json({"target": args.target,
                    "rows": rows, "trend_improving": improving})
    else:
        for row in rows:
            print(f"n={row['n']} count={row['count']} "
                  f"ratio={row['ratio']:.6f}")
        print(f"|ratio - 1| strictly decreasing: "
              f"{'yes' if improving else 'NO'}")
    print(f"asym report in {elapsed:.2f}s", file=sys.stderr)
    return 0 if improving else 1


def _cmd_scan_nonneg(args) -> int:
    family = _family(args.family)
    if args.max_n < 0:
        raise _UsageError("--max-n must be >= 0")
    tables = fam.counts_by_rank_through(family, args.max_n)
    negatives = [(m, n, c) for n, table in enumerate(tables)
                 for m, c in sorted(table.items()) if c < 0]
    if args.format == "json":
        _emit_rows("json", {"family": family, "max_n": args.max_n},
                   "negatives", family, negatives, True)
    else:
        print(f"{family}: scanned n <= {args.max_n}, "
              f"{len(negatives)} negative entries")
        for m, n, c in negatives:
            print(f"  m={m} n={n} count={c}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unirank",
        description="Exact q-series expansions, identity checks, "
                    "parity routes, and growth reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="series coefficients")
    p.add_argument("--series", required=True, metavar="KEY")
    p.add_argument("--order", type=int, default=None,
                   help="truncation order (default UNIRANK_ORDER or 100)")
    p.add_argument("--zeta", action="store_true",
                   help="emit zeta-refined entries (m, n, c)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("count", help="enumerative counts by size")
    p.add_argument("--family", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--by-rank", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="identity catalog checks")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--key", default=None, metavar="KEY")
    which.add_argument("--all", action="store_true",
                       help="verify the whole catalog (default)")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("parity", help="mod-2 route agreement")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_parity)

    p = sub.add_parser("asym", help="exact counts against growth rates")
    p.add_argument("--target", default="u2bar")
    p.add_argument("--checkpoints", default="500,1000,2000")
    p.add_argument("--emit", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("scan-nonneg",
                       help="report negative rank-refined counts")
    p.add_argument("--family", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_scan_nonneg)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (_UsageError, UnirankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, so the
        # flush at exit cannot raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
