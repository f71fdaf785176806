"""Tests for the combinatorial families: enumeration, validation, counting."""

import inspect
import re

import pytest

from unirank import families as fam
from unirank import gflib as gf
from unirank.families import (
    FAMILIES,
    ENUMERATION_LIMIT,
    SizeLimitError,
    enumerate_objects,
    validate,
    obj_size,
    obj_rank,
    obj_sign,
    count,
    count_by_rank,
    counts_by_rank_through,
)
from unirank.series import TruncatedSeries

# Frozen counts at small sizes, from each family's table: the largest-part
# sums for the partition families and gflib's sums over the peak for the
# four peaked ones.  The enumeration test below checks both formulas against
# explicit objects.
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]
OVERPARTITION_COUNTS = [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232]
U_COUNTS = [0, 1, 1, 3, 4, 6, 10, 15, 21, 30, 43, 59, 82, 111, 148]
UBAR_COUNTS = [0, 1, 0, 3, 0, 3, 3, 6, 2, 7, 9, 12, 11, 14, 17]
UBAR2_COUNTS = [0, 0, 1, 1, 1, 1, 4, 5, 5, 7, 11, 13, 18, 23, 31]
U2_COUNTS = [0, 0, 1, 1, 2, 2, 5, 6, 10, 13, 20, 25, 38, 48, 68]
FROZEN_COUNTS = {
    "partition": PARTITION_COUNTS,
    "partition-with-rank": PARTITION_COUNTS,
    "overpartition": OVERPARTITION_COUNTS,
    "strongly-unimodal": U_COUNTS,
    "left-heavy-overlined": UBAR_COUNTS,
    "m2-left-heavy-overlined": UBAR2_COUNTS,
    "m2-left-heavy": U2_COUNTS,
}

# the series constructors, arithmetic and passes
SERIES_OPS = ("zero", "one", "monomial", "__add__", "__sub__", "__neg__",
              "__mul__", "scalar_mul", "shift_q", "mul_binomial",
              "div_binomial", "mul_pochhammer", "div_pochhammer", "invert")


def _refuse(monkeypatch, owner, names):
    """Replace each named attribute of ``owner`` by a stub that raises."""
    for name in names:
        def stub(*args, _name=name, **kwargs):
            raise AssertionError(f"{owner.__name__}.{_name} called")
        monkeypatch.setattr(owner, name, stub)


def _functions(module) -> list:
    return [name for name, v in vars(module).items()
            if inspect.isfunction(v) and v.__module__ == module.__name__]


def test_signed_family_size_three():
    """Five objects of size 3, one negative, signed total 3."""
    objs = enumerate_objects("left-heavy-overlined", 3)
    assert sorted(objs) == [
        ((1, False), (1, False), (1, True)),
        ((1, False), (2, True)),
        ((1, True), (2, True)),
        ((2, True), (1, True)),
        ((3, True),),
    ]
    signs = {o: obj_sign("left-heavy-overlined", o) for o in objs}
    assert signs[((1, False), (2, True))] == -1
    assert sum(signs.values()) == 3
    ranks = sorted(obj_rank("left-heavy-overlined", o) for o in objs)
    assert ranks == [-1, 0, 0, 0, 1]
    assert count("left-heavy-overlined", 3) == 3
    assert count_by_rank("left-heavy-overlined", 3) == {-1: 1, 0: 1, 1: 1}


def test_m2_overlined_family_size_seven():
    objs = enumerate_objects("m2-left-heavy-overlined", 7)
    assert sorted(objs) == [
        ((1, True), (2, False), (2, True), (2, False)),
        ((1, True), (2, True), (4, True)),
        ((1, True), (4, True), (2, True)),
        ((1, True), (6, True)),
        ((3, True), (4, True)),
    ]
    ranks = sorted(obj_rank("m2-left-heavy-overlined", o) for o in objs)
    assert ranks == [-1, 0, 0, 0, 1]
    assert count("m2-left-heavy-overlined", 7) == 5
    assert count_by_rank("m2-left-heavy-overlined", 7) == {-1: 1, 0: 3, 1: 1}


def test_m2_plain_family_size_six():
    objs = enumerate_objects("m2-left-heavy", 6)
    assert sorted(objs) == [
        (1, 1, 1, 1, 2),
        (1, 1, 4),
        (2, 4),
        (4, 2),
        (6,),
    ]
    ranks = sorted(obj_rank("m2-left-heavy", o) for o in objs)
    assert ranks == [-1, 0, 0, 0, 1]
    assert count("m2-left-heavy", 6) == 5
    assert count_by_rank("m2-left-heavy", 6) == {-1: 1, 0: 3, 1: 1}


def test_counts_match_frozen_tables():
    for family, counts in FROZEN_COUNTS.items():
        for n, expected in enumerate(counts):
            assert count(family, n) == expected, (family, n)


# how deep the enumeration oracle reaches, per family: the two whose object
# counts grow fastest stop at 20, the rest at 28 (about 2.5 s in all)
ENUMERATION_DEPTH = {family: 28 for family in FAMILIES}
ENUMERATION_DEPTH.update({"left-heavy-overlined": 20, "overpartition": 20})


def test_dp_agrees_with_explicit_enumeration(monkeypatch):
    """count_by_rank must reproduce the signed tally over explicit objects,
    at every size up to the family's ENUMERATION_DEPTH.  The tally is an
    independent oracle: enumerate_objects, obj_rank and obj_sign run with
    every gflib function and the series constructors, arithmetic and passes
    refused."""
    _refuse(monkeypatch, gf, _functions(gf))
    _refuse(monkeypatch, TruncatedSeries, SERIES_OPS)
    tallies = {}
    for family in FAMILIES:
        for n in range(ENUMERATION_DEPTH[family] + 1):
            tally = {}
            for o in enumerate_objects(family, n):
                m = obj_rank(family, o)
                tally[m] = tally.get(m, 0) + obj_sign(family, o)
            tallies[family, n] = {m: v for m, v in tally.items() if v}
    monkeypatch.undo()
    for (family, n), tally in tallies.items():
        assert count_by_rank(family, n) == tally, (family, n)


def test_partition_family_tables_use_no_gflib(monkeypatch):
    """The partition families' tables are largest-part sums, rows of their
    own that gflib's Durfee sums are compared with.  ``families`` holds
    nothing of gflib: every table is a row of ``rows.ROWS``, the peaked
    families' the sums over the peak behind gflib's keys."""
    assert not re.search(r"^\s*(from|import)\s.*\bgflib\b",
                         inspect.getsource(fam), re.M)
    assert not any(v is gf or getattr(v, "__module__", None) == gf.__name__
                   for v in vars(fam).values())
    _refuse(monkeypatch, gf, _functions(gf))
    monkeypatch.setattr(fam, "_dp_cache", {})
    for family in FAMILIES:
        tables = counts_by_rank_through(family, 40)
        counts = FROZEN_COUNTS[family]
        assert [sum(t.values()) for t in tables[:len(counts)]] == counts, \
            family


def test_every_family_counts_past_the_enumeration_guard(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("partitions enumerated while counting")

    monkeypatch.setattr(fam, "_partitions", no_enumeration)
    for family in FAMILIES:
        tables = counts_by_rank_through(family, ENUMERATION_LIMIT + 1)
        assert len(tables) == ENUMERATION_LIMIT + 2, family
    assert count("partition", 61) == count("partition-with-rank", 61) \
        == 1121505


def test_enumerated_objects_validate_and_have_right_size():
    for family in FAMILIES:
        for n in range(0, 11):
            objs = enumerate_objects(family, n)
            assert len(objs) == len(set(objs))
            for o in objs:
                assert validate(family, o), (family, o)
                assert obj_size(family, o) == n


def test_rank_counts_are_symmetric():
    """Swapping sides of the peak (or conjugating) negates the rank."""
    for family in ("partition-with-rank", "overpartition", "strongly-unimodal",
                   "left-heavy-overlined", "m2-left-heavy-overlined",
                   "m2-left-heavy"):
        for n in range(0, 15):
            table = count_by_rank(family, n)
            assert table == {-m: c for m, c in table.items()}, (family, n)


def test_malformed_objects_are_rejected():
    bad = [
        ("partition", (1, 3)),                       # ascending
        ("partition", (3, 0)),                       # nonpositive part
        ("overpartition", ((3, True), (3, True))),   # double overline
        ("overpartition", ((3, False), (3, True))),  # overline not first
        ("strongly-unimodal", (1, 2, 2)),            # flat top
        ("strongly-unimodal", (2, 1, 2)),            # two peaks
        ("left-heavy-overlined", ((2, False),)),     # peak not overlined
        ("left-heavy-overlined", ((2, True), (1, False))),  # plain right part
        ("left-heavy-overlined",
         ((1, True), (1, False), (2, True))),        # tie order wrong
        ("m2-left-heavy-overlined", ((3, True),)),   # odd peak
        ("m2-left-heavy-overlined",
         ((2, True), (1, True))),                    # overlined odd on right
        ("m2-left-heavy-overlined",
         ((2, False), (2, True))),                   # pair missing on right
        ("m2-left-heavy-overlined",
         ((1, False), (2, True), (1, False))),       # pair value below N+1
        ("m2-left-heavy", (2, 1)),                   # odd right of peak
        ("m2-left-heavy", (3,)),                     # no even peak
        ("m2-left-heavy", (2, 2, 4)),                # even repeated on one side
        ("partition", (2.7, 1)),                     # non-integral part
        ("strongly-unimodal", (1, 3.2, 2)),
        ("partition-with-rank", ("3", 1)),           # not a number
        ("overpartition", ((1,),)),                  # entry not a pair
        ("overpartition", ((2.5, True),)),
        ("left-heavy-overlined", (2,)),
        ("strongly-unimodal", 3.0),                  # not a sequence
    ]
    bad += [(family, obj) for family in FAMILIES for obj in (5, None)]
    for family, obj in bad:
        assert not validate(family, obj), (family, obj)
        for stat in (obj_size, obj_rank, obj_sign):
            with pytest.raises(fam.InvalidObjectError):
                stat(family, obj)
    # a size or sign is read only from an object of the family
    for stat, family, obj in ((obj_size, "partition", [2.7, 1]),
                              (obj_size, "partition", [-3]),
                              (obj_sign, "strongly-unimodal", "abc"),
                              (obj_size, "strongly-unimodal", "abc")):
        with pytest.raises(fam.InvalidObjectError):
            stat(family, obj)


def test_partition_rank_table_small():
    assert count_by_rank("partition-with-rank", 4) == {
        -3: 1, -1: 1, 0: 1, 1: 1, 3: 1}
    assert count_by_rank("partition", 6) == {0: 11}
    assert count_by_rank("partition-with-rank", 0) == {0: 1}


def test_overpartition_rank_weights():
    # size 2: (2), (2bar), (1,1), (1bar,1) with ranks 1, 1, -1, -1
    assert count_by_rank("overpartition", 2) == {-1: 2, 1: 2}
    objs = enumerate_objects("overpartition", 2)
    assert sorted(objs) == [
        ((1, False), (1, False)),
        ((1, True), (1, False)),
        ((2, False),),
        ((2, True),),
    ]


def test_enumeration_guard():
    with pytest.raises(SizeLimitError):
        enumerate_objects("partition", ENUMERATION_LIMIT + 1)
    with pytest.raises(ValueError):
        enumerate_objects("partition", -1)


def test_unknown_family_rejected():
    from unirank.series import UnirankError
    with pytest.raises(UnirankError):
        count("no-such-family", 3)


def test_empty_size_edge_cases():
    assert enumerate_objects("partition", 0) == [()]
    assert enumerate_objects("overpartition", 0) == [()]
    assert enumerate_objects("strongly-unimodal", 0) == []
    assert enumerate_objects("left-heavy-overlined", 0) == []
    assert count("strongly-unimodal", 0) == 0
    assert count("partition", 0) == 1
