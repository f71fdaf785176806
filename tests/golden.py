"""The golden digest table: sha256 of decoded output that a refactor must
leave unchanged.

Run from the repository root to rewrite ``tests/golden.json``:

    PYTHONPATH=src python tests/golden.py

Each catalog key's comparison pairs at orders 1..12 and 40 are hashed as
one digest per (key, order): every label and both sides, a prefixed side
with its scalar, phase, zeta half-power and q/24 power, a body by its
ring, order and decoded coefficients (never the packed ``_b``, ``_o`` or
``_maj``).  The analytic ``build`` keys are hashed at orders 10, 40 and
100.  The command line's stdout is hashed whole: ``expand`` of every
series key, plain and (for a key with a refined form) with ``--zeta``, at
orders 1, 5 and 37, and ``count`` and ``count --by-rank`` of every family
and alias at ``--max-n`` 0, 1 and 24, each in json and csv.
``tests/test_golden.py`` recomputes the table; a change that alters a
digest names it and says why.  pytest does not collect this file: its
name does not match ``test_*.py``.
"""
import contextlib
import hashlib
import io
import json
import os

from unirank import cli, families, gflib, identities
from unirank.series import ZETA, PrefixedSeries

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "golden.json")
PAIR_ORDERS = tuple(range(1, 13)) + (40,)
BUILD_ORDERS = (10, 40, 100)
EXPAND_ORDERS = (1, 5, 37)
COUNT_SIZES = (0, 1, 24)
PLAIN_KEYS = ("P", "U")   # series keys with no zeta-refined form


def _side(s) -> str:
    """A canonical text for one decoded side."""
    if isinstance(s, PrefixedSeries):
        return (f"prefixed {s.scalar} {s.phase} {s.zeta_half} {s.q24} "
                + _side(s.body))
    coeffs = [z.items() if s.ring is ZETA else z for z in s.coeffs]
    return f"{s.ring.name} {s.order} {coeffs}"


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests() -> dict:
    """{"<key>@<order>": sha256} for every pair and analytic build."""
    table = {}
    for key, record in identities.REGISTRY.items():
        for order in PAIR_ORDERS:
            table[f"{key}@{order}"] = _digest(
                f"{label}\n{_side(lhs)}\n{_side(rhs)}"
                for label, lhs, rhs in record.builder(order))
    for key in gflib.ANALYTIC_KEYS:
        for order in BUILD_ORDERS:
            table[f"build {key}@{order}"] = _digest(
                [_side(gflib.build(key, order))])
    for argv in _cli_runs():
        table[" ".join(argv)] = _stdout_digest(argv)
    return table


def _cli_runs():
    """The argument lists whose stdout the table pins."""
    for key in gflib.SERIES_KEYS:
        for order in EXPAND_ORDERS:
            for fmt in ("json", "csv"):
                argv = ["expand", "--series", key, "--order", str(order),
                        "--format", fmt]
                yield argv
                if key not in PLAIN_KEYS:
                    yield argv + ["--zeta"]
    for family in families.FAMILIES + ("ubar",):
        for n in COUNT_SIZES:
            for fmt in ("json", "csv"):
                argv = ["count", "--family", family, "--max-n", str(n),
                        "--format", fmt]
                yield argv
                yield argv + ["--by-rank"]


def _stdout_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    with open(PATH, "w") as f:
        json.dump(digests(), f, indent=1, sort_keys=True)
        f.write("\n")
