"""Core series arithmetic: rings, truncation, Pochhammers, prefixed series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from unirank.series import (
    GF2, QQ, ZETA, ZZ,
    CoefficientRangeError, LatticeMismatchError, Monomial, NotInvertibleError,
    OrderMismatchError, PrefixedSeries, SingularPochhammerError,
    TruncatedSeries, UnirankError, ZetaLaurent, pochhammer,
    pochhammer_prefixed, ratio_step, term_sum, Row, row_ints,
)
from unirank.gflib import theta_sum

N = 30

# classical C(n) values frozen from the standard recurrences, used as an
# independent oracle for the product machinery
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
              231, 297, 385, 490, 627, 792, 1002, 1255, 1575, 1958, 2436,
              3010, 3718, 4565, 5604]
DISTINCT_PARTS = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22, 27, 32,
                  38, 46, 54, 64, 76, 89, 104, 122, 142, 165, 192, 222, 256,
                  296]


def test_partition_numbers_from_infinite_product():
    P = pochhammer((1, 0, 1), None, N, ring=ZZ).invert()
    assert P.coeffs == PARTITIONS
    # dividing by the factors, with no product or inverse built
    P = TruncatedSeries.one(ZZ, N).div_pochhammer((1, 0, 1))
    assert P.coeffs == PARTITIONS


def test_distinct_part_counts_from_product():
    D = pochhammer((-1, 0, 1), None, N, ring=ZZ)
    assert D.coeffs == DISTINCT_PARTS


def test_pochhammer_finite_matches_manual():
    # (q; q)_3 = (1-q)(1-q^2)(1-q^3)
    f = pochhammer((1, 0, 1), 3, 8, ring=ZZ)
    assert f.coeffs == [1, -1, -1, 0, 1, 1, -1, 0, 0]


def test_pochhammer_step():
    # (q; q^2)_2 = (1-q)(1-q^3)
    f = pochhammer((1, 0, 1), 2, 6, ring=ZZ, step=2)
    assert f.coeffs == [1, -1, 0, -1, 1, 0, 0]


def test_pochhammer_negative_index_defining_property():
    # (a;q)_{-n} * (a q^{-n}; q)_n = 1 with everything invertible
    for a, n in [((1, 1, 3), 2), ((2, 0, 5), 3), ((1, -1, 4), 1)]:
        c, e, t = a
        left = pochhammer(a, -n, 20)
        right = pochhammer((c, e, t - n), n, 20)
        prod = left * right
        assert prod.coeffs[0] == ZetaLaurent.from_int(1)
        assert all(not v for v in prod.coeffs[1:])


def test_pochhammer_negative_index_singular():
    # (zeta q; q)_{-1} needs 1/(1 - zeta), which is not a unit
    with pytest.raises(SingularPochhammerError):
        pochhammer((1, 1, 1), -1, 10)
    with pytest.raises(SingularPochhammerError):
        pochhammer_prefixed((1, 1, 1), -1, 10)
    # a q^0 factor is never divided by, on either series type
    with pytest.raises(SingularPochhammerError):
        TruncatedSeries.one(ZZ, 10).div_pochhammer((2, 0, 0), 1)
    with pytest.raises(SingularPochhammerError):
        PrefixedSeries.one(10).div_pochhammer((1, 1, 0), 1)
    # a plain series has no prefix to take a negative q power
    with pytest.raises(SingularPochhammerError):
        TruncatedSeries.one(ZETA, 10).mul_pochhammer([(1, 0, 1), (1, 0, -1)],
                                                     1)
    with pytest.raises(UnirankError):
        pochhammer((1, 1, 1), 2, 10, ring=ZZ)
    # a ZETA body holds integers only, for a zeta-free factor as for any
    for f in ((Fraction(1, 2), 0, 1), (Fraction(-3, 2), 1, 1)):
        with pytest.raises(UnirankError):
            TruncatedSeries.one(ZETA, 10).mul_pochhammer(f)
    # a q^0 factor multiplies in as a constant:
    # (zeta; q)_2 = (1 - zeta)(1 - zeta q)
    z = ZetaLaurent.monomial
    assert pochhammer((1, 1, 0), 2, 4) == TruncatedSeries(
        ZETA, [z(1, 0) - z(1, 1), z(-1, 1) + z(1, 2)], 4)



def test_ratio_step_sums_classical_series():
    one = TruncatedSeries.one(ZZ, N)
    # Rogers-Ramanujan: sum q^(n^2) / (q;q)_n = 1 / (q, q^4; q^5)_inf
    rr = term_sum(one, ratio_step([], [(1, 0, 1)], quad=2))
    assert rr == one.div_pochhammer([(1, 0, 1), (1, 0, 4)], None, 5)
    # q-binomial theorem in base q^2 at a = z = q: sum (q;q^2)_n q^n
    # / (q^2;q^2)_n = (q^2;q^2)_inf / (q;q^2)_inf, once with the factors
    # carrying their own step and once through the base
    want = pochhammer((1, 0, 2), None, N, ZZ, 2).div_pochhammer((1, 0, 1),
                                                                 None, 2)
    assert term_sum(one, ratio_step([(1, 0, 1, 2)], [(1, 0, 2, 2)])) == want
    assert term_sum(one, ratio_step([(1, 0, 1)], [(1, 0, 2)], step=2)) == want


def test_ratio_step_guard():
    # a step that need not raise the valuation would never reach term_sum's
    # stop: mult needs a q power >= 1 and quad >= 0
    for mult, quad in (((1, 0, 0), 0), ((-1, 1, -2), 4), ((1, 0, 1), -1)):
        with pytest.raises(UnirankError):
            ratio_step([], [(1, 0, 1)], mult, quad)
        with pytest.raises(UnirankError):
            row_ints(Row(0, [], [], [], [(1, 0, 1)], mult, quad), 4)
    # the windowed ZZ loop carries each term's sign, not a multiplier
    with pytest.raises(UnirankError):
        row_ints(Row(0, [], [], [], [], (2, 0, 1)), 4)

@pytest.mark.parametrize("ring, factors", [
    (ZZ, [(1, 0, 7), (-1, 0, 8)]),
    (GF2, [(1, 0, 7), (1, 0, 9)]),
    (QQ, [(Fraction(1, 2), 0, 7), (-3, 0, 8)]),
    (ZETA, [(1, 1, 7), (-2, -1, 8), (1, 0, 9)]),
])
def test_pochhammer_pass_matches_product_and_inverse(ring, factors):
    # the pass against building the product and, for division, inverting it
    base = TruncatedSeries(ring, [ring.from_int(k) for k in
                                  (1, -2, 3, 0, 5, -1, 4)], 24)
    for step in (1, 2, 3):
        for n in (0, 1, 3, None, -2):
            prod = pochhammer(factors, n, 24, ring=ring, step=step)
            assert base.mul_pochhammer(factors, n, step) == base * prod
            assert base.div_pochhammer(factors, n, step) == \
                base * prod.invert()


def test_prefixed_pochhammer_pass_matches_inverse():
    # negative-q factors move their monomials out of the prefix on division
    base = PrefixedSeries(Fraction(3, 2), 1, 1, 5,
                          pochhammer([(1, 1, 1), (2, -1, 2)], 3, 20))
    # each split coefficient is integral: -1/c for r < 0, -c otherwise
    factors = [(1, 1, -7), (-1, 0, -5), (3, -1, 1)]
    for step in (1, 2, 3):
        for n in (1, 3):
            prod = pochhammer_prefixed(factors, n, 20, step)
            for lhs, rhs in ((base.div_pochhammer(factors, n, step),
                              base * prod.invert()),
                             (base.mul_pochhammer(factors, n, step),
                              base * prod)):
                # depth in absolute powers of q: 20 terms past the lower
                # of the two prefixes
                res = lhs.compare(rhs)
                assert res.equal
                assert res.through == (min(lhs.q24, rhs.q24) + 24 * 20) // 24
    # (1 + 2 q^-5) splits as 2 q^-5 (1 + q^5 / 2): no integral pass
    for apply in (base.mul_pochhammer, base.div_pochhammer):
        with pytest.raises(UnirankError):
            apply([(-2, 0, -5)], 1)


def test_pochhammer_pass_edge_cases():
    with pytest.raises(ValueError):
        TruncatedSeries.one(ZZ, 10).mul_pochhammer((1, 0, 1), 2, step=0)
    # an infinite product needs every factor's q power >= 1
    for t in (0, -1):
        for s in (TruncatedSeries.one(ZETA, 10), PrefixedSeries.one(10)):
            with pytest.raises(SingularPochhammerError):
                s.mul_pochhammer((1, 0, t))
    # (1 - q^-3 / 2) splits as -q^-3 / 2 (1 - 2 q^3): the rational factor
    # goes to the prefix, the pass coefficient -2 is integral
    half = (Fraction(1, 2), 0, -3)
    s = PrefixedSeries.one(10).mul_pochhammer(half, 1)
    assert (s.scalar, s.phase, s.zeta_half, s.q24) == (Fraction(-1, 2), 0, 0,
                                                       -72)
    assert s.body.coeff(3) == ZetaLaurent.from_int(-2)
    back = s.div_pochhammer(half, 1)
    assert (back.scalar, back.phase, back.zeta_half, back.q24) == (1, 0, 0, 0)
    assert back.body == TruncatedSeries.one(ZETA, 10)


def test_monomial_arithmetic_is_exact():
    a, b = Monomial(Fraction(2, 3), 1, -2), Monomial(-3, -1, 5)
    assert a * b == (-2, 0, 3) and type((a * b).coef) is int
    assert a / b == (Fraction(-2, 9), 2, -7)
    assert b / b == (1, 0, 0) and type((b / b).coef) is int
    assert 1 / a == (Fraction(3, 2), -1, 2)
    assert -a == (Fraction(-2, 3), 1, -2)
    assert -Monomial(Fraction(4, 2), 0, 1) == (-2, 0, 1)
    assert type((-Monomial(Fraction(4, 2), 0, 1)).coef) is int
    assert a * (1, 0, 2) == (Fraction(2, 3), 1, 0)
    # a plain tuple and the value type are interchangeable
    assert repr(a) == repr((Fraction(2, 3), 1, -2))
    assert f"{b}" == "(-3, -1, 5)"
    assert Monomial(1, 0, 2) == (1, 0, 2)
    assert hash(Monomial(1, 0, 2)) == hash((1, 0, 2))


def test_pochhammer_prefixed_negative_exponents():
    # (q^{-1}; q^2)_2 = (1 - q^{-1})(1 - q) = -q^{-1} (1-q)^2
    f = pochhammer_prefixed((1, 0, -1), 2, 10, step=2)
    assert f.scalar == -1 and f.q24 == -24 and f.zeta_half == 0
    assert [c.coeff(0) for c in f.body.coeffs[:4]] == [1, -2, 1, 0]


def test_pochhammer_prefixed_matches_plain_when_regular():
    plain = pochhammer([(1, 1, 1), (1, -1, 1)], 4, 15)
    pre = pochhammer_prefixed([(1, 1, 1), (1, -1, 1)], 4, 15)
    assert pre.scalar == 1 and pre.q24 == 0 and pre.zeta_half == 0
    assert pre.body.coeffs == plain.coeffs


def test_mul_div_binomial_roundtrip():
    f = TruncatedSeries.from_int_coeffs(ZZ, PARTITIONS, N)
    g = f.mul_binomial(3, 7).div_binomial(3, 7)
    assert g == f
    # k = 0 multiplies by the constant (1 + c)
    assert f.mul_binomial(0, 2) == f.scalar_mul(3)


def test_invert_roundtrip():
    f = TruncatedSeries.from_int_coeffs(ZZ, [1, 4, -2, 5] + [3] * (N - 3), N)
    assert (f * f.invert()) == TruncatedSeries.one(ZZ, N)


@pytest.mark.parametrize("ring", [ZZ, GF2, QQ, ZETA], ids=lambda r: r.name)
def test_coeffs_write_leaves_series_unchanged(ring):
    """``coeffs`` is the caller's copy on every ring: a list over ZZ, GF2
    and QQ, which a write changes without reaching the series, and over
    ZETA a decoded tuple, which refuses the write."""
    s = TruncatedSeries.from_int_coeffs(ring, [1, 2, 3], 2)
    view = s.coeffs
    if ring is ZETA:
        with pytest.raises(TypeError):
            view[1] += ZetaLaurent.from_int(5)
    else:
        view[1] += 5
        view.append(7)
    assert list(s.coeffs) == [ring.from_int(k) for k in (1, 2, 3)]
    assert s == TruncatedSeries.from_int_coeffs(ring, [1, 2, 3], 2)


def test_invert_requires_unit():
    f = TruncatedSeries.from_int_coeffs(ZZ, [2, 1, 1], 2)
    with pytest.raises(NotInvertibleError):
        f.invert()


def test_coefficient_range_guard():
    f = TruncatedSeries.one(ZZ, 5)
    with pytest.raises(CoefficientRangeError):
        f.coeff(6)


def test_order_mismatch_guard():
    f = TruncatedSeries.one(ZZ, 5)
    g = TruncatedSeries.one(ZZ, 6)
    with pytest.raises(OrderMismatchError):
        _ = f + g
    assert (f + g.truncate(5)).coeffs[0] == 2


def test_substitute_q_power():
    f = TruncatedSeries.from_int_coeffs(ZZ, [1, 2, 3, 4], 3)
    g = f.substitute_q_power(2, order=7)
    assert g.coeffs == [1, 0, 2, 0, 3, 0, 4, 0]
    with pytest.raises(OrderMismatchError):
        f.substitute_q_power(1, order=10)


def test_shift_q():
    f = TruncatedSeries.from_int_coeffs(ZZ, [0, 0, 1, 5], 3)
    up = f.shift_q(1)
    assert up.coeffs == [0, 0, 0, 1]
    down = f.shift_q(-2)
    assert down.coeffs == [1, 5] and down.order == 1
    with pytest.raises(CoefficientRangeError):
        f.shift_q(-3)


def test_negate_q_and_zeta_ops():
    f = pochhammer((1, 1, 1), 2, 6)
    assert f.negate_q().negate_q() == f
    assert f.bar().bar() == f
    assert f.negate_zeta().negate_zeta() == f
    # (zeta q; q)_2 marginal at zeta=1 equals (q; q)_2
    assert f.marginal().coeffs == pochhammer((1, 0, 1), 2, 6, ring=ZZ).coeffs


def test_gf2_arithmetic():
    one_plus_q = TruncatedSeries.from_int_coeffs(GF2, [1, 1], 4)
    sq = one_plus_q * one_plus_q
    assert sq.coeffs == [1, 0, 1, 0, 0]
    assert TruncatedSeries(GF2, [2, 3]).coeffs == [0, 1]

    # every operation over GF2 is the ZZ operation reduced mod 2
    def mod2(s):
        return TruncatedSeries(GF2, [c % 2 for c in s.coeffs], s.order)

    zz = [TruncatedSeries(ZZ, cs, 8) for cs in (
        [1, -3, 2, 5, 0, -1], [-1, 4, -7, 0, 1, 2, 6],
        [1, 1, 1, 0, 0, 0, 0, 0, 3])]
    for f in zz:
        for h in zz:
            assert mod2(f + h) == mod2(f) + mod2(h)
            assert mod2(f * h) == mod2(f) * mod2(h)
        assert mod2(-f) == -mod2(f)
        assert mod2(f.invert()) == mod2(f).invert()
        assert mod2(f.negate_q()) == mod2(f).negate_q()
        for k, c in ((0, 2), (1, 3), (2, -1), (3, 5)):
            assert mod2(f.mul_binomial(k, c)) == mod2(f).mul_binomial(k, c)
            if k:
                assert mod2(f.div_binomial(k, c)) == \
                    mod2(f).div_binomial(k, c)


def test_prefixed_lattice_mismatch_is_reported_not_raised():
    f = PrefixedSeries(1, 0, 1, 0, TruncatedSeries.one(ZETA, 5))
    g = PrefixedSeries(1, 0, 0, 0, TruncatedSeries.one(ZETA, 5))
    res = f.compare(g)
    assert not res.equal and "lattice" in res.reason


def test_prefixed_offset_normalization():
    body = pochhammer([(1, 1, 1)], 3, 10)
    # q^(48/24) * body == q^0 * (q^2 * body)
    f = PrefixedSeries(1, 0, 0, 48, body)
    g = PrefixedSeries(1, 0, 0, 0, body.shift_q(2))
    assert f.compare(g).equal
    # zeta^(2/2) * body == body * zeta
    f2 = PrefixedSeries(1, 0, 2, 0, body)
    g2 = PrefixedSeries(1, 0, 0, 0,
                        body.scalar_mul(ZetaLaurent.monomial(1, 1)))
    assert f2.compare(g2).equal
    # i^2 * body == -body
    f3 = PrefixedSeries(1, 2, 0, 0, body)
    g3 = PrefixedSeries(-1, 0, 0, 0, body)
    assert f3.compare(g3).equal


def test_prefixed_invert_roundtrip():
    body = pochhammer([(1, 1, 2), (1, -1, 1)], 3, 12).shift_q(2)
    f = PrefixedSeries(Fraction(3, 2), 1, 3, 7, body)
    prod = f * f.invert()
    one = PrefixedSeries.one(10)
    assert prod.compare(one).equal


def test_prefixed_invert_keeps_body_integral():
    # cor4.2's theta divisor has lead 2 and every coefficient even, so the
    # 2 moves into the scalar by exact division
    theta = theta_sum(0, 0, 1, 2, 20)
    assert theta.body.coeffs[theta.body.valuation()] == ZetaLaurent.from_int(2)
    lead_2z = pochhammer([(1, 1, 2), (1, -1, 1)], 3, 12).scalar_mul(
        ZetaLaurent.monomial(2, 3))
    # a lead 2 with odd coefficients above it is not +- the content 1
    odd = TruncatedSeries.from_int_coeffs(ZETA, [0, 2, 1, -3, 5], 12)
    with pytest.raises(NotInvertibleError):
        PrefixedSeries(Fraction(5, 6), 0, 1, 2, odd).invert()
    for f in (theta, PrefixedSeries(Fraction(3, 2), 1, 3, 7, lead_2z)):
        inv = f.invert()
        assert all(w.__class__ is int
                   for z in inv.body.coeffs for w in z.c.values())
        prod = f * inv
        res = prod.compare(PrefixedSeries.one(prod.body.order))
        assert res.equal and prod.body.order >= 11
        assert res.through == (prod.q24 + 24 * prod.body.order) // 24


def test_prefixed_rational_scalars_match_evaluate():
    body = pochhammer([(1, 1, 1), (2, -1, 2)], 2, 12)   # degree 8
    f = PrefixedSeries(Fraction(3, 2), 1, 1, 5, body.scalar_mul(5))
    g = PrefixedSeries(Fraction(5, 6), 1, 3, 29, body)
    z0, q0 = 0.4 + 0.3j, 0.17
    h = f + g
    assert h.scalar == Fraction(1, 6)
    assert abs(h.evaluate(q0, z0)
               - f.evaluate(q0, z0) - g.evaluate(q0, z0)) < 1e-12
    # 3/2 * (5 body) and 5/6 * (9 body) are one value; 5/6 * (8 body) is not
    for k, equal in ((9, True), (8, False)):
        other = PrefixedSeries(Fraction(5, 6), 1, 1, 5, body.scalar_mul(k))
        assert f.compare(other).equal is equal
        close = abs(f.evaluate(q0, z0) - other.evaluate(q0, z0)) < 1e-12
        assert close is equal


def test_prefixed_add_collects_terms():
    b = TruncatedSeries.one(ZETA, 6)
    f = PrefixedSeries(1, 1, 1, 1, b)
    g = PrefixedSeries(2, 1, 3, 25, b)
    h = f + g
    # i zeta^(1/2) q^(1/24) (1 + 2 zeta q)
    assert h.compare(PrefixedSeries(
        1, 1, 1, 1,
        TruncatedSeries.one(ZETA, 6).mul_binomial(
            1, ZetaLaurent.monomial(2, 1)))).equal


def test_prefixed_evaluate_consistency():
    f = pochhammer_prefixed((1, 1, -2), 3, 12)
    z0, q0 = 0.4 + 0.3j, 0.17
    direct = 1.0
    for i in range(3):
        direct *= 1 - z0 * q0 ** (-2 + i)
    assert abs(f.evaluate(q0, z0) - direct) < 1e-12


# -- ring axioms (hypothesis) -------------------------------------------------

AXIOM_ORDER = 30


def _zeta_values():
    coeff = st.integers(min_value=-5, max_value=5)
    return st.dictionaries(st.integers(min_value=-3, max_value=3), coeff,
                           max_size=3).map(ZetaLaurent)


def _ring_and_series():
    def build(ring, vals):
        return TruncatedSeries(ring, vals, AXIOM_ORDER)

    small_int = st.integers(min_value=-9, max_value=9)
    frac = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    per_ring = {
        "ZZ": (ZZ, small_int),
        "GF2": (GF2, st.integers(min_value=0, max_value=1)),
        "QQ": (QQ, frac),
        "ZETA": (ZETA, _zeta_values()),
    }
    return st.sampled_from(sorted(per_ring)).flatmap(
        lambda name: st.tuples(
            st.just(per_ring[name][0]),
            st.lists(per_ring[name][1], min_size=AXIOM_ORDER + 1,
                     max_size=AXIOM_ORDER + 1).map(
                lambda vs, r=per_ring[name][0]: build(r, vs)),
            st.lists(per_ring[name][1], min_size=AXIOM_ORDER + 1,
                     max_size=AXIOM_ORDER + 1).map(
                lambda vs, r=per_ring[name][0]: build(r, vs)),
            st.lists(per_ring[name][1], min_size=AXIOM_ORDER + 1,
                     max_size=AXIOM_ORDER + 1).map(
                lambda vs, r=per_ring[name][0]: build(r, vs)),
        ))


@settings(max_examples=100, deadline=None)
@given(_ring_and_series())
def test_ring_axioms_add_commutes_and_associates(data):
    _, f, g, h = data
    assert (f + g) == (g + f)
    assert ((f + g) + h) == (f + (g + h))


@settings(max_examples=100, deadline=None)
@given(_ring_and_series())
def test_ring_axioms_mul_associates_and_distributes(data):
    _, f, g, h = data
    assert ((f * g) * h) == (f * (g * h))
    assert (f * (g + h)) == (f * g + f * h)
    assert (f * g) == (g * f)


@settings(max_examples=100, deadline=None)
@given(_ring_and_series())
def test_ring_axioms_identities(data):
    ring, f, _, _ = data
    one = TruncatedSeries.one(ring, AXIOM_ORDER)
    zero = TruncatedSeries.zero(ring, AXIOM_ORDER)
    assert (f * one) == f
    assert (f + zero) == f
    assert (f + (-f)) == zero


@settings(max_examples=60, deadline=None)
@given(_ring_and_series())
def test_invert_when_unit(data):
    ring, f, _, _ = data
    try:
        inv = f.invert()
    except NotInvertibleError:
        return
    assert (f * inv) == TruncatedSeries.one(ring, AXIOM_ORDER)
