"""Combinatorial families: explicit objects, validators, and rank counting.

Seven families are supported.  Objects are plain tuples:

* ``partition`` / ``partition-with-rank``: descending tuples of ints.
* ``overpartition``: descending tuples of ``(value, overlined)`` pairs where
  each value carries at most one overline (overlined copy first among equals).
* ``strongly-unimodal``: tuples of ints, strictly rising to a unique peak and
  strictly falling after it.
* ``left-heavy-overlined``: ``(value, overlined)`` sequences; the segment up
  to and including the peak is an overpartition whose largest part is
  overlined, the segment after the peak has every part overlined, and the
  rank statistic counts overlined parts right of the peak minus overlined
  parts left of it.  Objects are signed by parity of the non-overlined
  multiset.
* ``m2-left-heavy-overlined``: even peak 2N appears overlined exactly once;
  overlined even parts below the peak sit on either side, overlined odd
  parts only on the left, and every non-overlined part has value in
  [N+1, 2N] and appears once on each side.  Rank counts overlined even
  parts right minus left.
* ``m2-left-heavy``: all parts plain ints, largest part even, odd parts all
  left of the peak, and the subsequence of even parts strongly unimodal.
  Rank counts even parts right of the peak minus even parts left of it.

``enumerate_objects`` generates every object of a given size explicitly (the
slow oracle, guarded at size 60).  Every family counts from a table, its
generating function by rank through the size: one row of ``rows.ROWS``
summed over ZETA.  The four peaked families' rows are the sums over the
peak behind gflib's keys (Uzeta, Ubar and the two ``_negq`` builders), so
comparing them with the keys Uzeta and Ubar checks only the dispatch; the
keys Ubar2 and U2 at q -> -q are other rows, and the enumeration and
growth's Lambert form of u(n) other formulas.  The three partition
families' rows sum over the largest part, compared with gflib's Durfee
sums.  Sizes are guarded up front, at one limit for every family.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, Optional

from .rows import ROWS
from .series import ZETA, TruncatedSeries, UnirankError, row_sum

FAMILIES = (
    "partition",
    "partition-with-rank",
    "overpartition",
    "strongly-unimodal",
    "left-heavy-overlined",
    "m2-left-heavy-overlined",
    "m2-left-heavy",
)

# families whose objects are plain ints; the others are (value, overlined)
_PLAIN = ("partition", "partition-with-rank", "strongly-unimodal",
          "m2-left-heavy")

ENUMERATION_LIMIT = 60
DP_LIMIT = 300     # every family counts from its generating-function table


class SizeLimitError(UnirankError):
    """Requested size beyond the documented guard."""


class InvalidObjectError(UnirankError):
    """Sequence does not belong to the family."""


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise UnirankError(f"unknown family {family!r}; choices: {FAMILIES}")


def _check_size(n: int, limit: int) -> None:
    if n < 0:
        raise ValueError("size must be >= 0")
    if n > limit:
        raise SizeLimitError(f"size {n} exceeds guard {limit}")


# -- generic generators -------------------------------------------------------

def _partitions(n: int, max_part: Optional[int] = None) -> Iterator[tuple]:
    """Descending partitions of n with parts <= max_part."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _subsets_upto(values: list, budget: int) -> Iterator[tuple]:
    """(ascending subset tuple, sum) over subsets with sum <= budget."""

    def rec(i: int, left: int):
        if i == len(values):
            yield ((), 0)
            return
        v = values[i]
        for sub, s in rec(i + 1, left):
            yield (sub, s)
            if s + v <= left:
                yield ((v,) + sub, s + v)

    for sub, s in rec(0, budget):
        yield tuple(sorted(sub)), s


def _multisets_exact(values: list, total: int) -> Iterator[tuple]:
    """Ascending multiset tuples from values with sum exactly total."""

    def rec(i: int, left: int):
        if left == 0:
            yield ()
            return
        if i == len(values):
            return
        v = values[i]
        k = 0
        while k * v <= left:
            for rest in rec(i + 1, left - k * v):
                yield (v,) * k + rest
            k += 1

    yield from rec(0, total)


def _merge_left(parts: list) -> tuple:
    """Canonical ascending order; non-overlined before overlined at ties."""
    return tuple(sorted(parts, key=lambda p: (p[0], p[1])))


def _merge_right(parts: list) -> tuple:
    """Canonical descending order; overlined before non-overlined at ties."""
    return tuple(sorted(parts, key=lambda p: (-p[0], 0 if p[1] else 1)))


# -- enumeration --------------------------------------------------------------

def _enum_partition(n: int) -> list:
    return list(_partitions(n))


def _enum_overpartition(n: int) -> list:
    out = []
    for lam in _partitions(n):
        distinct = sorted(set(lam))
        for mask in range(1 << len(distinct)):
            marked = {distinct[i] for i in range(len(distinct))
                      if mask >> i & 1}
            obj = []
            seen = set()
            for v in lam:
                if v in marked and v not in seen:
                    obj.append((v, True))
                    seen.add(v)
                else:
                    obj.append((v, False))
            out.append(tuple(obj))
    return out


def _enum_strongly_unimodal(n: int) -> list:
    out = []
    for p in range(1, n + 1):
        rem = n - p
        side = list(range(1, p))
        for left, ls in _subsets_upto(side, rem):
            for right, rs in _subsets_upto(side, rem - ls):
                if ls + rs == rem:
                    out.append(left + (p,) + tuple(reversed(right)))
    return out


def _enum_left_heavy_overlined(n: int) -> list:
    out = []
    for p in range(1, n + 1):
        rem = n - p
        side = list(range(1, p))
        for left, ls in _subsets_upto(side, rem):
            for right, rs in _subsets_upto(side, rem - ls):
                for plain in _multisets_exact(list(range(1, p + 1)),
                                              rem - ls - rs):
                    lseq = _merge_left([(v, True) for v in left]
                                       + [(v, False) for v in plain])
                    rseq = _merge_right([(v, True) for v in right])
                    out.append(lseq + ((p, True),) + rseq)
    return out


def _enum_m2_left_heavy_overlined(n: int) -> list:
    out = []
    for half in range(1, n // 2 + 1):
        peak = 2 * half
        rem = n - peak
        evens = list(range(2, peak - 1, 2))
        odds = list(range(1, peak, 2))
        for od, osum in _subsets_upto(odds, rem):
            for el, els in _subsets_upto(evens, rem - osum):
                for er, ers in _subsets_upto(evens, rem - osum - els):
                    pair_budget = rem - osum - els - ers
                    if pair_budget % 2:
                        continue
                    pair_values = list(range(half + 1, peak + 1))
                    for pairs in _multisets_exact(pair_values,
                                                  pair_budget // 2):
                        lseq = _merge_left(
                            [(v, True) for v in od]
                            + [(v, True) for v in el]
                            + [(v, False) for v in pairs])
                        rseq = _merge_right(
                            [(v, True) for v in er]
                            + [(v, False) for v in pairs])
                        out.append(lseq + ((peak, True),) + rseq)
    return out


def _enum_m2_left_heavy(n: int) -> list:
    out = []
    for half in range(1, n // 2 + 1):
        peak = 2 * half
        rem = n - peak
        evens = list(range(2, peak - 1, 2))
        odds = list(range(1, peak, 2))
        for el, els in _subsets_upto(evens, rem):
            for er, ers in _subsets_upto(evens, rem - els):
                for od in _multisets_exact(odds, rem - els - ers):
                    lseq = tuple(sorted(el + od))
                    rseq = tuple(sorted(er, reverse=True))
                    out.append(lseq + (peak,) + rseq)
    return out


_ENUMERATORS = {
    "partition": _enum_partition,
    "partition-with-rank": _enum_partition,
    "overpartition": _enum_overpartition,
    "strongly-unimodal": _enum_strongly_unimodal,
    "left-heavy-overlined": _enum_left_heavy_overlined,
    "m2-left-heavy-overlined": _enum_m2_left_heavy_overlined,
    "m2-left-heavy": _enum_m2_left_heavy,
}


def enumerate_objects(family: str, n: int) -> list:
    """All objects of the family with size n, in canonical form."""
    _check_family(family)
    _check_size(n, ENUMERATION_LIMIT)
    return _ENUMERATORS[family](n)


# -- decomposition and validation ---------------------------------------------

def _decompose_strongly_unimodal(seq) -> dict:
    if not seq or any(v < 1 for v in seq):
        raise InvalidObjectError("parts must be positive")
    p = max(seq)
    if seq.count(p) != 1:
        raise InvalidObjectError("peak must be unique")
    idx = seq.index(p)
    left, right = seq[:idx], seq[idx + 1:]
    if list(left) != sorted(set(left)) or len(set(left)) != len(left):
        raise InvalidObjectError("left side must strictly increase")
    if list(right) != sorted(set(right), reverse=True) or \
            len(set(right)) != len(right):
        raise InvalidObjectError("right side must strictly decrease")
    return {"peak": p, "left": left, "right": right}


def _decompose_left_heavy_overlined(seq) -> dict:
    if not seq or any(v < 1 for v, _ in seq):
        raise InvalidObjectError("parts must be positive")
    p = max(v for v, _ in seq)
    if sum(1 for v, ov in seq if v == p and ov) != 1:
        raise InvalidObjectError("peak must be overlined exactly once")
    idx = seq.index((p, True))
    left, right = seq[:idx], seq[idx + 1:]
    if any(not ov for _, ov in right):
        raise InvalidObjectError("right side must be fully overlined")
    rvals = [v for v, _ in right]
    if rvals != sorted(set(rvals), reverse=True) or any(v >= p for v in rvals):
        raise InvalidObjectError("right side must strictly decrease below peak")
    overl = [v for v, ov in left if ov]
    plain = [v for v, ov in left if not ov]
    if len(set(overl)) != len(overl) or any(v >= p for v in overl):
        raise InvalidObjectError("left overlines must be distinct, below peak")
    rebuilt = _merge_left(list(left)) + ((p, True),) + _merge_right(list(right))
    if rebuilt != tuple(seq):
        raise InvalidObjectError("sequence is not in canonical order")
    return {"peak": p, "left_overlined": sorted(overl), "plain": sorted(plain),
            "right_overlined": sorted(rvals)}


def _decompose_m2_left_heavy_overlined(seq) -> dict:
    if not seq or any(v < 1 for v, _ in seq):
        raise InvalidObjectError("parts must be positive")
    p = max(v for v, _ in seq)
    if p % 2:
        raise InvalidObjectError("peak must be even")
    half = p // 2
    if sum(1 for v, ov in seq if v == p and ov) != 1:
        raise InvalidObjectError("peak must be overlined exactly once")
    idx = seq.index((p, True))
    left, right = seq[:idx], seq[idx + 1:]
    el = [v for v, ov in left if ov and v % 2 == 0]
    od = [v for v, ov in left if ov and v % 2 == 1]
    dl = [v for v, ov in left if not ov]
    er = [v for v, ov in right if ov]
    dr = [v for v, ov in right if not ov]
    if any(v % 2 for v in er):
        raise InvalidObjectError("overlined odd parts belong on the left")
    if sorted(dl) != sorted(dr):
        raise InvalidObjectError("non-overlined parts must pair up")
    if any(not (half + 1 <= v <= p) for v in dl):
        raise InvalidObjectError("paired parts must lie in [N+1, 2N]")
    for group in (el, er, od):
        if len(set(group)) != len(group) or any(v >= p for v in group):
            raise InvalidObjectError("overlined parts must be distinct, below peak")
    rebuilt = _merge_left(list(left)) + ((p, True),) + _merge_right(list(right))
    if rebuilt != tuple(seq):
        raise InvalidObjectError("sequence is not in canonical order")
    return {"peak": p, "evens_left": sorted(el), "evens_right": sorted(er),
            "odds": sorted(od), "pairs": sorted(dl)}


def _decompose_m2_left_heavy(seq) -> dict:
    if not seq or any(v < 1 for v in seq):
        raise InvalidObjectError("parts must be positive")
    p = max(seq)
    if p % 2:
        raise InvalidObjectError("largest part must be even")
    evens = [v for v in seq if v % 2 == 0]
    _decompose_strongly_unimodal(tuple(evens))
    if max(evens) != p:
        raise InvalidObjectError("even peak must be the maximum")
    idx = seq.index(p)
    if seq.count(p) != 1:
        raise InvalidObjectError("peak must be unique")
    left, right = seq[:idx], seq[idx + 1:]
    if any(v % 2 for v in right):
        raise InvalidObjectError("odd parts belong on the left")
    if list(left) != sorted(left) or list(right) != sorted(right, reverse=True):
        raise InvalidObjectError("sequence is not in canonical order")
    return {"peak": p,
            "evens_left": [v for v in left if v % 2 == 0],
            "evens_right": list(right),
            "odds": [v for v in left if v % 2 == 1]}


def _decompose_partition(seq) -> dict:
    if any(v < 1 for v in seq):
        raise InvalidObjectError("parts must be positive")
    if list(seq) != sorted(seq, reverse=True):
        raise InvalidObjectError("parts must descend")
    return {"parts": list(seq)}


def _decompose_overpartition(seq) -> dict:
    if any(v < 1 for v, _ in seq):
        raise InvalidObjectError("parts must be positive")
    vals = [v for v, _ in seq]
    if vals != sorted(vals, reverse=True):
        raise InvalidObjectError("parts must descend")
    overl = [v for v, ov in seq if ov]
    if len(set(overl)) != len(overl):
        raise InvalidObjectError("at most one overline per value")
    if tuple(_merge_right(list(seq))) != tuple(seq):
        raise InvalidObjectError("overlined copy must come first among equals")
    return {"parts": vals, "overlined": sorted(overl)}


_DECOMPOSERS = {
    "partition": _decompose_partition,
    "partition-with-rank": _decompose_partition,
    "overpartition": _decompose_overpartition,
    "strongly-unimodal": _decompose_strongly_unimodal,
    "left-heavy-overlined": _decompose_left_heavy_overlined,
    "m2-left-heavy-overlined": _decompose_m2_left_heavy_overlined,
    "m2-left-heavy": _decompose_m2_left_heavy,
}


def _part(v) -> int:
    """A part as an int; InvalidObjectError unless its value is integral."""
    try:
        n = int(v)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != v:
        raise InvalidObjectError(f"part {v!r} is not an integer")
    return n


def _canon_input(family: str, obj) -> tuple:
    try:
        if family in _PLAIN:
            return tuple(map(_part, obj))
        return tuple((_part(v), bool(ov)) for v, ov in obj)
    except (TypeError, ValueError):
        raise InvalidObjectError("an object is a sequence of parts, or of "
                                 "(value, overlined) pairs") from None


def _decompose(family: str, obj) -> tuple:
    """(canonical object, its decomposition); InvalidObjectError unless
    the object belongs to the family."""
    _check_family(family)
    seq = _canon_input(family, obj)
    return seq, _DECOMPOSERS[family](seq)


def validate(family: str, obj) -> bool:
    try:
        _decompose(family, obj)
    except InvalidObjectError:
        return False
    return True


def obj_size(family: str, obj) -> int:
    seq, _ = _decompose(family, obj)
    return sum(seq) if family in _PLAIN else sum(v for v, _ in seq)


def obj_rank(family: str, obj) -> int:
    """The rank statistic paired with the family's generating function."""
    _, d = _decompose(family, obj)
    if family == "partition":
        return 0
    if family in ("partition-with-rank", "overpartition"):
        return max(d["parts"]) - len(d["parts"]) if d["parts"] else 0
    if family == "strongly-unimodal":
        return len(d["right"]) - len(d["left"])
    if family == "left-heavy-overlined":
        return len(d["right_overlined"]) - len(d["left_overlined"])
    return len(d["evens_right"]) - len(d["evens_left"])


def obj_sign(family: str, obj) -> int:
    """+1, except the signed family weighs by parity of non-overlined parts."""
    _, d = _decompose(family, obj)
    if family != "left-heavy-overlined":
        return 1
    return -1 if len(d["plain"]) % 2 else 1


# -- exact counting -----------------------------------------------------------

def _with_empty_partition(row):
    """The table of a partition family: 1, the empty partition, plus the
    row's sum over the largest part."""
    return lambda n: TruncatedSeries.one(ZETA, n) + row_sum(row, ZETA, n)


_DP_TABLES = {
    "partition": _with_empty_partition(ROWS["partition"]),
    "partition-with-rank": _with_empty_partition(ROWS["partition-with-rank"]),
    "overpartition": _with_empty_partition(ROWS["overpartition"]),
    # the peaked families' generating functions are the sums over the peak
    # behind gflib's keys, the m2 ones in their nonnegative q -> -q form
    "strongly-unimodal": partial(row_sum, ROWS["Uzeta"], ZETA),
    "left-heavy-overlined": partial(row_sum, ROWS["Ubar"], ZETA),
    "m2-left-heavy-overlined": partial(row_sum, ROWS["Ubar2_negq"], ZETA),
    "m2-left-heavy": partial(row_sum, ROWS["U2_negq"], ZETA),
}

_dp_cache: dict = {}


def _dp_table(family: str, n: int) -> TruncatedSeries:
    cached = _dp_cache.get(family)
    if cached is None or cached[0] < n:
        _dp_cache[family] = (n, _DP_TABLES[family](n))
    return _dp_cache[family][1]


def count_by_rank(family: str, n: int) -> dict:
    """Exact counts keyed by rank; signed for the signed family."""
    _check_family(family)
    _check_size(n, DP_LIMIT)
    return dict(_dp_table(family, n).coeff(n).items())


def count(family: str, n: int) -> int:
    """Total count at size n (signed total for the signed family)."""
    return sum(count_by_rank(family, n).values())


def counts_by_rank_through(family: str, max_n: int) -> list:
    """``count_by_rank(family, n)`` for n = 0..max_n; the size guard is
    checked before any counting, and the DP table is built once, at size
    max_n, instead of once per n."""
    _check_family(family)
    _check_size(max_n, DP_LIMIT)
    _dp_table(family, max_n)
    return [count_by_rank(family, n) for n in range(max_n + 1)]


__all__ = [
    "FAMILIES", "ENUMERATION_LIMIT", "DP_LIMIT",
    "SizeLimitError", "InvalidObjectError",
    "enumerate_objects", "validate", "obj_size", "obj_rank", "obj_sign",
    "count", "count_by_rank", "counts_by_rank_through",
]
