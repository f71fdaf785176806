"""Packed ZETA series against the dict kernel they replaced.

Over ZETA a ``TruncatedSeries`` keeps each q-coefficient as one int, its
Laurent polynomial in zeta evaluated at zeta = 2^b.  The reference here is
the dict-of-int ``ZetaLaurent`` kernel that the series used before, applied
one coefficient at a time with plain index loops.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from unirank.series import (
    GF2, QQ, ZETA, ZZ, TruncatedSeries, ZetaLaurent, _encode)


# -- the dict kernel: exponent -> nonzero int --------------------------------

def d_add(a: dict, b: dict) -> dict:
    cc = a.copy()
    for m, v in b.items():
        w = cc.get(m, 0) + v
        if w:
            cc[m] = w
        else:
            del cc[m]
    return cc


def d_neg(a: dict) -> dict:
    return {m: -v for m, v in a.items()}


def d_mul(a: dict, b: dict) -> dict:
    cc: dict = {}
    for m2, v2 in b.items():
        for m1, v1 in a.items():
            cc[m1 + m2] = cc.get(m1 + m2, 0) + v1 * v2
    return {m: v for m, v in cc.items() if v}


# -- reference series: lists of dicts ---------------------------------------

def r_mul(a: list, b: list) -> list:
    out = [{} for _ in a]
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] = d_add(out[i + j], d_mul(ai, b[j]))
    return out


def r_mul_binomial(a: list, k: int, c: dict) -> list:
    return [d_add(a[i], d_mul(c, a[i - k])) if i >= k else a[i]
            for i in range(len(a))]


def r_div_binomial(a: list, k: int, c: dict) -> list:
    out = list(a)
    for i in range(k, len(a)):
        out[i] = d_add(out[i], d_neg(d_mul(c, out[i - k])))
    return out


def packed(dicts: list) -> TruncatedSeries:
    return TruncatedSeries(ZETA, [ZetaLaurent(d) for d in dicts],
                           len(dicts) - 1)


def check(s: TruncatedSeries, ref: list) -> None:
    """``s`` decodes to ``ref``, and its packing invariants hold: each
    coefficient is its polynomial at zeta = 2^b times 2^(b*o), no power
    lies below -o, and the majorant bounds the digits below 2^(b-1)."""
    decoded = s.coeffs
    assert [z.c for z in decoded] == ref
    assert all(v.__class__ is int for z in decoded for v in z.c.values())
    half = 1 << (s._b - 1)
    for v, m, z in zip(s._c, s._maj, decoded):
        assert sum(map(abs, z.c.values())) <= m < half
        assert min(z.c, default=0) >= -s._o
        assert _encode(z, s._b, s._o) == v


_poly = st.dictionaries(st.integers(-4, 4), st.integers(-6, 6).filter(bool),
                        max_size=3)
_mono = st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(-3, 3))


@st.composite
def series_pair(draw):
    n = draw(st.integers(1, 10))
    return (draw(st.lists(_poly, min_size=n, max_size=n)),
            draw(st.lists(_poly, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(series_pair(), _mono, st.integers(0, 11), st.integers(-7, 7),
       st.booleans())
def test_packed_matches_dict_kernel(pair, mono, k, scale, int_c):
    da, db = pair
    a, b = packed(da), packed(db)
    coef, e = mono
    c = {0: coef} if int_c else {e: coef}
    elem = coef if int_c else ZetaLaurent(c)
    check(a, da)
    check(a + b, [d_add(x, y) for x, y in zip(da, db)])
    check(a - b, [d_add(x, d_neg(y)) for x, y in zip(da, db)])
    check(-a, [d_neg(x) for x in da])
    check(a * b, r_mul(da, db))
    check(a.scalar_mul(scale), [d_mul(x, {0: scale} if scale else {})
                                for x in da])
    check(a.scalar_mul(ZetaLaurent.monomial(1, e)),
          [{m + e: v for m, v in x.items()} for x in da])
    check(a.bar(), [{-m: v for m, v in x.items()} for x in da])
    check(a.negate_zeta(), [{m: -v if m % 2 else v for m, v in x.items()}
                            for x in da])
    check(a.mul_binomial(k, elem), r_mul_binomial(da, k, c))
    check(a.div_binomial(max(k, 1), elem), r_div_binomial(da, max(k, 1), c))
    # the same passes on operands that are already shifted and rescaled
    t = (a * b).div_binomial(1, ZetaLaurent.monomial(-1, -2))
    rt = r_div_binomial(r_mul(da, db), 1, {-2: -1})
    check(t.mul_binomial(k, elem) + a, [
        d_add(x, y) for x, y in zip(r_mul_binomial(rt, k, c), da)])
    assert (a + b == b + a) and (t == a) is (rt == da)
    assert a.first_mismatch(b) == next(
        (n for n, (x, y) in enumerate(zip(da, db)) if x != y), None)


def test_repack_past_starting_width():
    """Coefficients outgrow the starting slot width: the operands are
    repacked into wider slots before the pass that needs it."""
    order = 40
    s, r = packed([{0: 1}] + [{}] * order), [{0: 1}] + [{}] * order
    zz = TruncatedSeries.one(ZZ, order)
    start, repacked_spans = s._b, []
    for _ in range(8):
        for c in ({1: -2}, {0: -3}):
            b, span = s._b, max(m for x in r for m in x)
            s = s.div_binomial(1, ZetaLaurent(c))
            r = r_div_binomial(r, 1, c)
            zz = zz.div_binomial(1, sum(c.values()))
            if s._b > b:
                repacked_spans.append(span)
    assert max(abs(v) for x in r for v in x.values()).bit_length() > start
    # the width grew, and it grew under operands with many zeta slots
    assert s._b > start and min(repacked_spans) > 1
    check(s, r)
    # at zeta = 1 the quotient is 1 / ((1 - 3q)(1 - 2q))^8 over ZZ
    assert s.marginal() == zz
    assert zz.coeffs[order].bit_length() > start


def test_zeta_powers_below_starting_offset():
    """Negative zeta powers past the starting offset lift the packing."""
    order = 20
    s = TruncatedSeries.one(ZETA, order)
    assert s._o == 0
    s = s.scalar_mul(ZetaLaurent.monomial(-1, -5))
    s = s.div_binomial(1, ZetaLaurent.monomial(-1, -1))
    s = s.mul_binomial(3, ZetaLaurent({-2: 1, 1: -1}))
    ref = r_div_binomial([{-5: -1}] + [{}] * order, 1, {-1: -1})
    ref = r_mul_binomial(ref, 3, {-2: 1, 1: -1})
    # the quotient lifts the offset by order // k slots, a bound; the
    # lowest digit present brings it back to the exact lowest power
    assert min(m for x in ref for m in x) == -5 - order
    assert s._o == 5 + order
    check(s, ref)
    check(s.invert() * s, [{0: 1}] + [{}] * order)


def test_zeta_coeffs_view_is_read_only():
    """Over ZETA ``coeffs`` is decoded from the packed ints: a write into it
    raises instead of being silently lost."""
    s = packed([{0: 1}, {-1: 2}])
    assert s.coeffs == (ZetaLaurent({0: 1}), ZetaLaurent({-1: 2}))
    with pytest.raises(TypeError):
        s.coeffs[1] += ZetaLaurent({0: 1})
    assert s.coeff(1) == ZetaLaurent({-1: 2})


_wide_poly = st.dictionaries(st.integers(-6, 4),
                             st.integers(-2 ** 90, 2 ** 90).filter(bool),
                             max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_poly, _wide_poly), min_size=1, max_size=8),
       st.integers(-3, 3), st.booleans())
def test_streamed_decode_matches_coeffs(dicts, shift, widen):
    """``iter_zeta_entries`` and ``marginal`` decode one packed coefficient
    at a time; each equals its definition over the decoded ``coeffs``, at
    negative zeta offsets, in slots wider than 64 bits and with zero
    coefficients."""
    s = packed(dicts).scalar_mul(ZetaLaurent.monomial(1, shift))
    if widen:
        s._at(s._b + 64)
    decoded = s.coeffs
    assert list(s.iter_zeta_entries()) == [
        (m, n, v) for n, z in enumerate(decoded) for m, v in sorted(z.c.items())]
    assert s.marginal().coeffs == [sum(z.c.values()) for z in decoded]
    check(s, [{m + shift: v for m, v in x.items()} for x in dicts])


def _unit_lead_series(rng, ring, order, dense):
    """A random series over ``ring`` through q^order whose lead is a unit:
    +-1 (1 over GF2), a nonzero rational over QQ, +-zeta^e over ZETA.  A
    sparse one has about one nonzero coefficient in five above the lead;
    zeta powers reach below zero, so the packing lifts its offset."""
    def entry():
        if ring is ZETA:
            return {rng.randint(-3, 2): rng.choice([-2, -1, 1, 1, 3])
                    for _ in range(rng.randint(1, 2))}
        if ring is QQ:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return rng.choice([-2, -1, 1, 1, 3])
    zero = {} if ring is ZETA else 0
    cs = [entry() if dense or rng.random() < 0.2 else zero
          for _ in range(order + 1)]
    if ring is ZETA:
        cs[0] = {rng.randint(-3, 3): rng.choice([1, -1])}
        return packed(cs), cs
    cs[0] = {ZZ: rng.choice([1, -1]), GF2: 1,
             QQ: Fraction(rng.choice([1, -3, 5]), rng.choice([1, 2, 7]))}[ring]
    return TruncatedSeries(ring, cs, order), cs


@pytest.mark.parametrize("ring", [ZZ, GF2, QQ, ZETA], ids=lambda r: r.name)
def test_inverse_multiplies_back_on_every_ring(ring):
    """``invert`` against a schoolbook multiply-back on every ring, for
    random sparse and dense series with unit leads at orders 0..30 and
    200.  Over ZETA the decoded inverse is multiplied back with the dict
    kernel, and ``check`` holds the majorant to the digits it must keep
    decodable; the negative zeta powers run the kernel with a shift."""
    rng = random.Random(22)
    cases = [(n, dense) for n in range(31) for dense in (False, True)]
    cases += [(200, False), (200, ring is not ZETA)]
    for order, dense in cases:
        f, cs = _unit_lead_series(rng, ring, order, dense)
        inv = f.invert()
        assert f * inv == TruncatedSeries.one(ring, order), (order, dense)
        if ring is ZETA:
            inv_ref = [z.c for z in inv.coeffs]
            check(inv, inv_ref)
            assert r_mul(cs, inv_ref) == [{0: 1}] + [{}] * order
            continue
        got = inv.coeffs
        back = [sum(cs[j] * got[n - j] for j in range(n + 1))
                for n in range(order + 1)]
        if ring is GF2:
            back = [v & 1 for v in back]
        assert back == [1] + [0] * order, (order, dense)

