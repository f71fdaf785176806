"""Tests for the identity catalog and its verification machinery."""

from itertools import islice

import pytest

from unirank import identities as idn
from unirank import parity as par
from unirank.gflib import appell_sum, eta_power, mu_sum, theta_sum
from unirank.series import (ZETA, ZZ, Monomial, PrefixedSeries,
                            TruncatedSeries, UnirankError, ZetaLaurent,
                            pochhammer, ratio_step, term_sum)

ORDER = 36

# (key, planted zeta^m q^n, expected first mismatch) where the perturbed
# right-hand side is compared without a prefix shift
PLANTED = [
    ("eq1.1", (0, 11), (0, 11)),
    ("eq1.2", (2, 17), (2, 17)),
    ("lemma3.1", (1, 13), (1, 13)),
    ("prop4.1", (1, 13), (1, 13)),
    ("prop5.1", (-1, 15), (-1, 15)),
    ("prop5.3-mod2", (0, 17), (0, 17)),
    ("thetid", (0, 17), (0, 17)),
    ("prop5.4", (0, 19), (0, 19)),
    ("omega", (0, 9), (0, 9)),
    ("heine", (2, 12), (2, 12)),
    ("watson", (0, 14), (0, 14)),
    ("bailey-lemma", (0, 10), (0, 10)),
    ("lovejoy-bp", (0, 16), (0, 16)),
]
# right-hand sides that carry prefactors: the planted bump lands on a
# shifted lattice point, so only the failure itself is pinned down
PLANTED_PREFIXED = [
    ("cor3.2", (0, 17)),
    ("cor4.2", (1, 13)),
    ("false-dual", (1, 11)),
    ("cor5.2", (1, 13)),
    ("ab621", (0, 15)),
    ("ab6312", (-1, 12)),
    ("jtp", (1, 9)),
]


def test_catalog_lists_twenty_keys():
    assert len(idn.IDENTITY_KEYS) == 20
    assert len(set(idn.IDENTITY_KEYS)) == 20
    for key in idn.IDENTITY_KEYS:
        record = idn.REGISTRY[key]
        assert record.key == key
        assert record.description
    # every key has a negative control
    controlled = [c[0] for c in PLANTED] + [c[0] for c in PLANTED_PREFIXED]
    assert sorted(controlled) == sorted(idn.IDENTITY_KEYS)


def test_every_identity_verifies():
    for key in idn.IDENTITY_KEYS:
        report = idn.verify(key, order=ORDER)
        assert report.passed, (key, report.detail)
        assert report.first_mismatch is None, key
        assert report.order == ORDER


def test_report_fields():
    report = idn.verify("jtp", order=20)
    assert report.key == "jtp"
    assert report.passed is True
    assert report.order == 20
    assert report.elapsed >= 0.0
    assert "agree through q^20" in report.detail


def test_order_from_environment(monkeypatch):
    monkeypatch.setenv("UNIRANK_ORDER", "18")
    report = idn.verify("omega")
    assert report.order == 18
    assert report.passed


def test_negative_controls_fail_where_planted():
    for key, perturb, expected in PLANTED:
        report = idn.verify(key, order=24, _perturb=perturb)
        assert not report.passed, key
        assert report.first_mismatch == expected, key


def test_negative_controls_on_prefixed_sides():
    for key, perturb in PLANTED_PREFIXED:
        report = idn.verify(key, order=24, _perturb=perturb)
        assert not report.passed, key
        assert report.first_mismatch is not None, key


def test_comparison_short_of_order_fails(monkeypatch):
    def short(side, order):
        if isinstance(side, PrefixedSeries):
            return PrefixedSeries(side.scalar, side.phase, side.zeta_half,
                                  side.q24, side.body.truncate(order - 1))
        return side.truncate(order - 1)

    for key in ("omega", "jtp"):
        record = idn.REGISTRY[key]

        def builder(order, record=record):
            return [(label, lhs, short(rhs, order))
                    for label, lhs, rhs in record.builder(order)]

        monkeypatch.setitem(idn.REGISTRY, key, idn.IdentityRecord(
            key, record.description, builder))
        report = idn.verify(key, order=20)
        assert not report.passed, key
        assert report.first_mismatch is None, key
        assert "compared only through q^19" in report.detail, key


def test_lattice_mismatch_is_named_in_the_detail(monkeypatch):
    record = idn.REGISTRY["jtp"]

    def builder(order):
        return [(label, lhs, rhs.times_q24(1))
                for label, lhs, rhs in record.builder(order)]

    monkeypatch.setitem(idn.REGISTRY, "jtp", idn.IdentityRecord(
        "jtp", record.description, builder))
    report = idn.verify("jtp", order=16)
    assert not report.passed and report.first_mismatch is None
    assert report.detail == ("triple-product: prefix lattices differ: "
                             "d_phase=0, d_zeta_half=-2, d_q24=1")


def test_every_pair_has_a_negative_control(monkeypatch):
    # q^5 planted on one pair's right-hand side at a time, every pair of
    # every key: the report fails and names that pair
    checked = 0
    for key, record in list(idn.REGISTRY.items()):
        labels = [label for label, _, _ in record.builder(16)]
        assert len(set(labels)) == len(labels), key
        for i, label in enumerate(labels):
            def builder(order, record=record, i=i):
                pairs = record.builder(order)
                lab, lhs, rhs = pairs[i]
                pairs[i] = (lab, lhs, idn._perturbed(rhs, 0, 5))
                return pairs

            monkeypatch.setitem(idn.REGISTRY, key, idn.IdentityRecord(
                key, record.description, builder))
            report = idn.verify(key, order=16)
            assert not report.passed, (key, label)
            assert report.detail.startswith(f"{label}: first mismatch"), \
                (key, label, report.detail)
            checked += 1
    assert checked == 72


def test_perturbation_beyond_order_rejected():
    with pytest.raises(UnirankError):
        idn.verify("jtp", order=16, _perturb=(0, 40))


def test_unknown_key_rejected():
    with pytest.raises(UnirankError):
        idn.verify("no-such-identity", order=12)
    with pytest.raises(UnirankError):
        idn.verify("jtp", order=0)


def test_verify_all_covers_catalog():
    reports = idn.verify_all(order=20)
    assert list(reports) == list(idn.IDENTITY_KEYS)
    assert all(r.passed for r in reports.values())


def test_small_orders_pass_at_absolute_depth():
    # a side that vanishes through a small order is compared like any
    # other: its prefix decides which absolute powers of q it covers
    for order in range(1, 13):
        for key, report in idn.verify_all(order).items():
            assert report.passed, (order, key, report.detail)
            assert report.depth >= order, (order, key, report.depth)


def test_report_depth_counts_absolute_powers():
    report = idn.verify("ab621", order=40)
    assert report.passed and report.depth == 40
    # built only to q^40 in their own frames, the sides with prefixes down
    # to q^-1 and q^-2 are known through q^39 and q^38
    pairs = idn._ab621_pairs_one(*idn.AB621_SPECS[0], 40, tie=True)
    assert [idn._compare(lhs, rhs)[2] for _, lhs, rhs in pairs] == [39, 38]



@pytest.mark.parametrize("key", ["ab621", "ab6312"])
def test_partial_theta_sides_exact_through_their_range(key):
    # every side, for each spec, equals the same side built 12 terms deeper
    # through every absolute power of q it claims: a sum stopped short of
    # its own range fails here even where the other side stops lower
    build = idn.REGISTRY[key].builder
    for order in range(1, 25):
        for (label, *sides), (_, *deeper) in zip(build(order),
                                                 build(order + 12)):
            for side, deep in zip(sides, deeper):
                res = side.compare(deep)
                claim = (side.q24 + 24 * side.body.order) // 24
                assert res.equal and res.through == claim, (order, label)

def test_specialization_tables_have_enough_entries():
    assert len(idn.HEINE_SPECS) >= 5
    assert len(idn.WATSON_SPECS) >= 5
    assert len(idn.LOVEJOY_SPECS) == 3


def nth(seq, n):
    """Term n of a pair sequence."""
    return next(islice(seq, n, None))


def test_lovejoy_pair_values():
    alpha, beta = idn.lovejoy_pair(3, 1, 1, 1)
    assert nth(alpha(20), 2).coeffs == [
        0, 0, 0, 3, -4, 6, -3, 2, -2, 9, -17, 20, -15, 7, -6, 17, -33, 40,
        -31, 15, -10]
    assert nth(beta(20), 2).coeffs == [
        1, -1, 2, 1, 0, 3, 4, -1, 8, 5, 2, 11, 11, 2, 20, 14, 8, 26, 24, 10,
        40]
    assert idn.check_bailey_pair(alpha, beta, 3, 1, 20)


def test_bailey_pair_subscript_convention():
    # beta_n = sum_j alpha_j / ((q;q)_{n-j} (aq;q)_{n+j}); transposing the
    # two subscripts breaks the relation already at n = 1
    order = 20
    alpha, beta = idn.lovejoy_pair(3, 1, 1, 1)

    def p1(exp, n):
        return pochhammer([(1, 0, exp)], n, order, ring=ZZ)

    lhs = nth(beta(order), 1)
    standard = (nth(alpha(order), 0) * (p1(1, 1) * p1(4, 1)).invert()
                + nth(alpha(order), 1) * (p1(1, 0) * p1(4, 2)).invert())
    transposed = (nth(alpha(order), 0) * (p1(1, 2) * p1(4, 0)).invert()
                  + nth(alpha(order), 1) * (p1(1, 1) * p1(4, 1)).invert())
    assert (lhs - standard).is_zero()
    assert not (lhs - transposed).is_zero()


def test_lovejoy_pair_parameter_guards():
    with pytest.raises(UnirankError):
        idn.lovejoy_pair(3, 0, 1, 1)
    with pytest.raises(UnirankError):
        idn.lovejoy_pair(3, 3, 1, 1)
    with pytest.raises(UnirankError):
        idn.lovejoy_pair(4, 2, 2, 1)
    with pytest.raises(UnirankError):
        idn.lovejoy_pair(5, 1, 1, 1)


def test_bailey_lemma_guard():
    alpha, beta = idn.lovejoy_pair(3, 1, 1, 1)
    with pytest.raises(UnirankError):
        idn.apply_bailey_lemma(alpha, beta, 3, 2, 2, 1, 20)


def test_pair_sides_have_integer_coefficients():
    # rationals live only in a prefix scalar, never in a coefficient
    for key in idn.IDENTITY_KEYS:
        for label, lhs, rhs in idn.REGISTRY[key].builder(12):
            for side in (lhs, rhs):
                if isinstance(side, PrefixedSeries):
                    side = side.body
                vals = side.coeffs
                if side.ring is ZETA:
                    vals = [v for z in side.coeffs for v in z.c.values()]
                assert all(v.__class__ is int for v in vals), (key, label)


# -- the direct pair and chain evaluation that the term sequences replaced ---
#
# Each alpha_n and beta_n is rebuilt from scratch, and the chain sum runs over
# n <= order // g with its Pochhammer weights applied afresh for every n.

def ref_lovejoy_pair(a_exp, b_exp, c_exp, d_exp, step=1):
    uppers = [(1, 0, a_exp - b_exp), (1, 0, a_exp - c_exp),
              (1, 0, a_exp - d_exp)]
    lowers = [(1, 0, b_exp + step), (1, 0, c_exp + step),
              (1, 0, d_exp + step)]

    def alpha(n, order):
        exp = n * (b_exp + c_exp + d_exp + step - a_exp) \
            + step * n * (n - 1) // 2
        inner = TruncatedSeries.one(ZZ, order)
        t = TruncatedSeries.one(ZZ, order)
        for j in range(1, n + 1):
            for xe in (b_exp, c_exp, d_exp):
                t = t.mul_binomial(xe + step * (j - 1), -1)
            if j >= 2:
                t = t.mul_binomial(a_exp + step * (j - 2), -1)
            t = t.mul_binomial(a_exp + step * (2 * j - 1), -1)
            if j >= 2:
                t = t.div_binomial(a_exp + step * (2 * j - 3), -1)
            t = t.div_binomial(step * j, -1)
            for xe in (a_exp - b_exp, a_exp - c_exp, a_exp - d_exp):
                t = t.div_binomial(xe + step * (j - 1), -1)
            t = t.shift_q(a_exp - b_exp - c_exp - d_exp)
            inner = inner + t
        out = inner.mul_pochhammer(uppers, n, step)
        out = out.div_pochhammer(lowers, n, step)
        out = out.mul_binomial(a_exp + 2 * step * n, -1)
        out = out.div_binomial(a_exp, -1).shift_q(exp)
        return -out if n % 2 else out

    def beta(n, order):
        return pochhammer([(1, 0, b_exp + c_exp + d_exp + step - a_exp)],
                          n, order, ring=ZZ, step=step) \
            .div_pochhammer(lowers, n, step)

    return alpha, beta


def ref_alpha_q4q2(n, order):
    row = [0] * (order + 1)
    par.theta_row(row, 3 * n * n + 4 * n, n, -1 if n % 2 else 1)
    s = TruncatedSeries(ZZ, row, order)
    s = s.mul_binomial(4 * n + 4, -1).mul_binomial(1, -1)
    return s.div_binomial(2, -1).div_binomial(4, -1)


def ref_beta_q4q2(n, order):
    return TruncatedSeries.one(ZZ, order).div_pochhammer((1, 0, 3), n, step=2)


def ref_bailey_lemma(alpha, beta, a_exp, rho1_exp, rho2_exp, step, order):
    g = a_exp + step - rho1_exp - rho2_exp
    rhos = [(1, 0, rho1_exp), (1, 0, rho2_exp)]
    gs = [(1, 0, a_exp + step - rho1_exp), (1, 0, a_exp + step - rho2_exp)]

    def chain_sum(term):
        acc = TruncatedSeries.zero(ZZ, order)
        for n in range(order // g + 1):
            acc = acc + term(n).mul_pochhammer(rhos, n, step).shift_q(g * n)
        return acc
    pref = pochhammer(gs, None, order, ring=ZZ, step=step) \
        .div_pochhammer([(1, 0, a_exp + step), (1, 0, g)], step=step)
    tail = chain_sum(lambda n: alpha(n, order).div_pochhammer(gs, n, step))
    return chain_sum(lambda n: beta(n, order)), pref * tail


# (sequence pair, reference pair, a, rho1, rho2, step): the four chains of
# ``bailey-lemma``; the first is also the chain of ``thetid``
CHAINS = [
    ((idn._alpha_q4q2, idn._beta_q4q2), (ref_alpha_q4q2, ref_beta_q4q2),
     4, 2, 2, 2),
    (idn.lovejoy_pair(3, 1, 1, 1, 1), ref_lovejoy_pair(3, 1, 1, 1, 1),
     3, 1, 1, 1),
    (idn.lovejoy_pair(3, 1, 1, 1, 1), ref_lovejoy_pair(3, 1, 1, 1, 1),
     3, 2, 1, 1),
    (idn.lovejoy_pair(4, 1, 1, 2, 1), ref_lovejoy_pair(4, 1, 1, 2, 1),
     4, 2, 1, 1),
]
# 1..24, then the orders exp_n - 1, exp_n, exp_n + 1 around the alpha stops
# past 24 (exp_n = n(n+1)/2 for the two Lovejoy pairs, n^2 + n for q^4, q^2)
CHAIN_ORDERS = list(range(1, 25)) + [27, 28, 29, 30, 31, 35, 36, 37, 40,
                                     41, 42, 43]


@pytest.mark.parametrize("order", CHAIN_ORDERS)
def test_bailey_chains_match_direct_evaluation(order):
    chains = [lhs_rhs[1:] for lhs_rhs in idn._pairs_bailey_lemma(order)]
    chains.append(idn._pairs_thetid(order)[-1][1:])
    expected = [ref_bailey_lemma(*ref, a, r1, r2, s, order)
                for _, ref, a, r1, r2, s in CHAINS]
    expected.append(expected[0])
    for (lhs, rhs), (ref_lhs, ref_rhs) in zip(chains, expected):
        assert lhs.coeffs == ref_lhs.coeffs and lhs.order == order
        assert rhs.coeffs == ref_rhs.coeffs and rhs.order == order
    # every alpha sequence is the direct alpha_n up to its stop, and the
    # first alpha_n it leaves out vanishes through the order
    for (alpha, beta), (ref_alpha, ref_beta), *_ in CHAINS:
        alphas = list(alpha(order))
        assert [a.coeffs for a in alphas] == [
            ref_alpha(n, order).coeffs for n in range(len(alphas))]
        assert ref_alpha(len(alphas), order).is_zero()
        assert [b.coeffs for b in islice(beta(order), 6)] == [
            ref_beta(n, order).coeffs for n in range(6)]


def test_bailey_lemma_cost_is_linear(monkeypatch):
    # one binomial pass per factor and summand: the direct evaluation took
    # 34,314 passes at order 40 and 208,089 at order 100
    calls = [0]
    binomial = TruncatedSeries._binomial

    def counted(self, *args):
        calls[0] += 1
        return binomial(self, *args)

    monkeypatch.setattr(TruncatedSeries, "_binomial", counted)
    passes = {}
    for order in (40, 100):
        calls[0] = 0
        assert idn.verify("bailey-lemma", order).passed
        passes[order] = calls[0]
    assert passes[100] <= 10_000
    assert passes[100] / passes[40] < 4


# -- quotients as passes against the built products they replaced -----------
#
# Each side below is the catalog's, with every Pochhammer and eta quotient
# built as a product, inverted with ``invert`` and multiplied in with ``*``.

def old_cor42_mock(order):
    e1i = eta_power(1, order).invert()
    e2 = eta_power(2, order)
    e4i = eta_power(4, order).invert()
    a2 = appell_sum(2, (1, 1), (1, 1), 2, order).regular
    ta = theta_sum(1, 0, 1, 2, order) * a2 * e2 * e2 * e1i * e1i * e4i * e4i
    ta = ta.times_zeta_half(1).times_scalar(-1)
    inner = mu_sum((1, 1), (0, 1), 2, order).times_scalar(2) \
        + PrefixedSeries(1, 1, 1, 6, TruncatedSeries.one(ZETA, order))
    return ta + inner.times_i_power(1).times_scalar(-1).times_zeta_half(1) \
        .times_q24(-6)


def old_cor52_mock(order):
    w = ZetaLaurent({0: 1, 1: 1})
    e1 = eta_power(1, order)
    e1i, e2i = e1.invert(), eta_power(2, order).invert()
    theta2 = theta_sum(1, 0, 1, 2, order)
    a2 = appell_sum(2, (0, 1), (-1, 0), 2, order).cleared()
    t1 = (a2 * e1 * e2i * e2i).times_q24(3)
    a3 = appell_sum(3, (1, 1), (-2, 0), 2, order).regular
    t2 = (theta2 * a3 * e1i * e2i).times_i_power(1).times_zeta_half(-4) \
        .times_q24(-39).times_body(w)
    half = PrefixedSeries(-1, 0, -1, 3, pochhammer(
        [(-1, 1, 1), (-1, -1, 1), (1, 0, 1)], None, order))
    t3 = (e1 * e1 * e1 * e1 * e2i * e2i * half.invert()) \
        .times_zeta_half(1).times_q24(3).times_scalar(-1)
    t4 = (theta2 * e1i).times_zeta_half(-1).times_q24(-5).times_scalar(-1) \
        .times_body(w)
    return t1 + t2 + t3 + t4


def old_heine_rhs(a, b, c, t, s, order):
    a, b, c, t = map(Monomial._make, (a, b, c, t))
    tail = term_sum(TruncatedSeries.one(ZETA, order), ratio_step(
        [c / b, t], [a * t, (1, 0, s)], b, step=s))
    return pochhammer([b, a * t], None, order, step=s) \
        .div_pochhammer([c, t], step=s) * tail


def _fields(side):
    if isinstance(side, PrefixedSeries):
        return (side.scalar, side.phase, side.zeta_half, side.q24,
                _fields(side.body))
    return side.ring, side.order, side.coeffs


def test_quotient_passes_match_built_products():
    # the chain prefactor over ZZ is checked the same way, against
    # ``ref_bailey_lemma``'s ``pref * tail``, by the chain test above
    for order in range(1, 31):
        # an eta quotient with its q^(m/24) prefixes, and the inverse of a
        # theta-type product, each as passes on the series they multiply
        assert _fields(idn._pairs_cor42(order)[0][2]) == \
            _fields(old_cor42_mock(order)), order
        assert _fields(idn._pairs_cor52(order)[0][2]) == \
            _fields(old_cor52_mock(order)), order
        # a Heine prefactor: passes on the tail over ZETA
        for (_, _, rhs), spec in zip(idn._pairs_heine(order),
                                     idn.HEINE_SPECS):
            assert _fields(rhs) == _fields(old_heine_rhs(*spec, order)), \
                (order, spec)
