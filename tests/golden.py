"""The golden digest table: sha256 of decoded output that a refactor must
leave unchanged.

Run from the repository root to rewrite ``tests/golden.json``:

    PYTHONPATH=src python tests/golden.py

Each catalog key's comparison pairs at orders 1..12 and 40 are hashed as
one digest per (key, order): every label and both sides, a prefixed side
with its scalar, phase, zeta half-power and q/24 power, a body by its
ring, order and decoded coefficients (never the packed ``_b``, ``_o`` or
``_maj``).  The analytic ``build`` keys are hashed at orders 10, 40 and
100.  ``tests/test_golden.py`` recomputes the table; a change that alters
a digest names it and says why.  pytest does not collect this file: its
name does not match ``test_*.py``.
"""
import hashlib
import json
import os

from unirank import gflib, identities
from unirank.series import ZETA, PrefixedSeries

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "golden.json")
PAIR_ORDERS = tuple(range(1, 13)) + (40,)
BUILD_ORDERS = (10, 40, 100)


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
    return table


if __name__ == "__main__":
    with open(PATH, "w") as f:
        json.dump(digests(), f, indent=1, sort_keys=True)
        f.write("\n")
