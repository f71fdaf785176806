"""Tests for the generating-function library."""

import cmath
import os
from fractions import Fraction

import pytest

from unirank import families as fam
from unirank import gflib as gf
from unirank import growth as gw
from unirank.rows import ROWS
from unirank.series import (ZETA, ZZ, PrefixedSeries, UnirankError,
                            ZetaLaurent, row_ints, row_sum)

ORDER = 24


def _zeta_table(series, n):
    return {m: c for m, k, c in series.iter_zeta_entries() if k == n}


def test_series_marginals_match_family_counts():
    """Uzeta against Garvan's Lambert form of u(n) in ``growth``; Ubar2 and
    U2 against the m2 family tables, which are other rows.  Ubar is the
    left-heavy-overlined table itself, so its second route is the
    enumeration in the rank-table test below."""
    assert gf.build("Uzeta", ORDER).marginal().coeffs == \
        gw.exact_counts("u", ORDER)
    for key, family in (("Ubar2", "m2-left-heavy-overlined"),
                        ("U2", "m2-left-heavy")):
        one_var = gf.build(key, ORDER).marginal().negate_q()
        counts = [fam.count(family, n) for n in range(ORDER + 1)]
        assert one_var.coeffs == counts, key


def test_series_rank_tables_match_families():
    """Uzeta and Ubar are the strongly-unimodal and left-heavy-overlined
    tables themselves, so their rank tables are compared with the signed
    tally over the enumerated objects instead, through n = 16 (about
    0.3 s); Ubar2 and U2 with the m2 family tables."""
    for key, family in (("Uzeta", "strongly-unimodal"),
                        ("Ubar", "left-heavy-overlined")):
        series = gf.build(key, 16)
        for n in range(17):
            tally = {}
            for o in fam.enumerate_objects(family, n):
                m = fam.obj_rank(family, o)
                tally[m] = tally.get(m, 0) + fam.obj_sign(family, o)
            assert _zeta_table(series, n) == \
                {m: v for m, v in tally.items() if v}, (key, n)
    for key, family in (("Ubar2", "m2-left-heavy-overlined"),
                        ("U2", "m2-left-heavy")):
        series = gf.build(key, 20).negate_q()
        for n in range(21):
            assert _zeta_table(series, n) == fam.count_by_rank(family, n), (
                key, n)


def test_partition_style_specializations():
    P = gf.build("P", ORDER)
    assert gf.build("R", ORDER).marginal() == P
    over = [fam.count("overpartition", n) for n in range(ORDER + 1)]
    assert gf.build("Rbar", ORDER).marginal().coeffs == over
    assert gf.build("Rbar2", ORDER).marginal().coeffs == over
    # partitions without repeated odd parts
    assert gf.build("R2", ORDER).marginal().coeffs[:13] == [
        1, 1, 1, 2, 3, 4, 5, 7, 10, 13, 16, 21, 28]


def test_partition_rank_table():
    R = gf.build("R", 12)
    for n in range(13):
        assert _zeta_table(R, n) == fam.count_by_rank("partition-with-rank", n)


def test_partition_family_tables_through_dp_limit():
    """The largest-part sums of ``families`` against gflib's Durfee-square
    sums R and Rbar and the pentagonal recurrence, at every size the guard
    allows."""
    limit = fam.DP_LIMIT
    for family, key in (("partition-with-rank", "R"),
                        ("overpartition", "Rbar")):
        rows = [{} for _ in range(limit + 1)]
        for m, n, c in gf.build(key, limit, zeta=True).iter_zeta_entries():
            rows[n][m] = c
        assert fam.counts_by_rank_through(family, limit) == rows, family
    assert fam.counts_by_rank_through("partition", limit) == \
        [{0: p} for p in gw.exact_counts("p", limit)]


def test_rank_series_are_conjugation_symmetric():
    for key in ("Uzeta", "R", "Rbar", "Rbar2", "R2", "Ubar", "Ubar2", "U2"):
        series = gf.build(key, 20)
        assert series.bar() == series, key


def test_one_variable_keys_are_marginals():
    assert gf.build("U", 20) == gf.build("Uzeta", 20).marginal()
    assert gf.build("Ubar-q", 20) == gf.build("Ubar", 20).marginal()
    assert (gf.build("Ubar2-q", 20)
            == gf.build("Ubar2", 20).marginal().negate_q())
    assert gf.build("U2-q", 20) == gf.build("U2", 20).marginal().negate_q()
    assert all(c >= 0 for c in gf.build("Ubar2-q", 30).coeffs)
    assert all(c >= 0 for c in gf.build("U2-q", 30).coeffs)


def test_row_ints_match_zeta_row_sums():
    """Each row's ZZ image, summed on integer lists by ``row_ints``,
    against the marginal of its ZETA sum by ``row_sum``, or that
    sum over ZZ for a row without zeta: at every order to 40 and at 100,
    and at 400 for the rows behind U, Ubar-q, Ubar2-q and U2-q, whose
    one-variable keys are these images."""
    def has_zeta(row):
        factors = row.ups0 + row.downs0 + row.ups + row.downs + [row.mult]
        return any(f[1] for f in factors)

    deep = {"Uzeta", "Ubar", "Ubar2", "U2"}
    for name, row in ROWS.items():
        for order in list(range(41)) + [100] + ([400] if name in deep else []):
            if has_zeta(row):
                exact = row_sum(row, ZETA, order).marginal()
            else:
                exact = row_sum(row, ZZ, order)
            assert row_ints(row, order) == exact.coeffs, (name, order)


def _zeta_row(name, order):
    return row_sum(ROWS[name], ZETA, order)


def test_negq_product_forms_match_substitution():
    for name in ("Ubar2", "U2"):
        assert _zeta_row(name + "_negq", 30) == \
            _zeta_row(name, 30).negate_q()


def test_substituted_rank_series():
    assert _zeta_row("R_neg_zeta", 20) == _zeta_row("R", 20).negate_zeta()
    assert (_zeta_row("R2_negs", 20)
            == _zeta_row("R2", 20).negate_zeta().negate_q())


def test_sheared_rank_series():
    """R at argument -zeta*q over q^2, checked by shearing the plain table."""
    M = 20
    src = _zeta_row("R", M)
    from unirank.series import TruncatedSeries, ZETA
    want = [ZETA.zero] * (M + 1)
    for m, v, c in src.iter_zeta_entries():
        t = 2 * v + m
        if 0 <= t <= M:
            sign = -c if m % 2 else c
            want[t] = want[t] + ZetaLaurent.monomial(sign, m)
    want = TruncatedSeries(ZETA, want, M)
    assert _zeta_row("R_negzq_q2", M) == want
    assert row_ints(ROWS["R_negzq_q2"], M) == want.marginal().coeffs


def test_theta_sum_equals_product():
    cmp = gf.theta_sum(1, 0, 0, 1, 36).compare(gf.theta_product(36))
    assert cmp.equal, cmp.reason


def test_eta_prefix_and_body():
    eta = gf.eta_power(1, 15)
    assert (eta.scalar, eta.phase, eta.zeta_half, eta.q24) == (1, 0, 0, 1)
    assert [z.coeff(0) for z in eta.body.coeffs] == [
        1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]
    eta2 = gf.eta_power(2, 10)
    assert eta2.q24 == 2
    assert [z.coeff(0) for z in eta2.body.coeffs] == [
        1, 0, -1, 0, -1, 0, 0, 0, 0, 0, 1]


def test_bilateral_lambert_series():
    s1 = gf.bilateral_expand(
        gf.BilateralSpec(flip=1, quad=Fraction(2), lin=Fraction(3),
                         pole_sign=-1, pole_zeta=1, pole_coeff=2,
                         pole_shift=1), 12)
    assert s1.coeffs[0] == ZetaLaurent({0: 1, -1: -1})
    assert s1.coeffs[1] == ZetaLaurent({-2: 1, 1: -1})

    # pole_shift = 0: the n = 0 summand 1 / (1 + zeta^-1), the only one
    # with a q^0 term, is left out
    kernel = gf.bilateral_expand(
        gf.BilateralSpec(flip=0, quad=Fraction(1, 2), lin=Fraction(1, 2),
                         step=1, pole_sign=-1, pole_zeta=-1,
                         pole_coeff=1, pole_shift=0), 12)
    assert not kernel.coeffs[0]


# every BilateralSpec that the catalog and the analytic keys expand
_CATALOG_SPECS = [
    gf.BilateralSpec(flip, Fraction(quad), Fraction(lin), const, step,
                     pole_sign, pole_zeta, pole_coeff, pole_shift)
    for (flip, quad, lin, const, step, pole_sign, pole_zeta, pole_coeff,
         pole_shift) in (
        (0, 1, 1, 0, 0, -1, 1, 2, 1), (0, 1, 3, 1, 0, -1, 1, 2, 1),
        (0, Fraction(1, 2), Fraction(1, 2), 0, 1, -1, -1, 1, 0),
        (0, 2, 1, 0, 0, -1, 1, 2, 0), (1, 1, 1, 0, 0, 1, 1, 1, 0),
        (1, 2, 3, 0, 0, -1, 1, 2, 1), (1, 3, 1, 0, 0, -1, 1, 2, 1),
        (1, Fraction(3, 2), Fraction(1, 2), 0, 0, 1, 1, 1, 0))]


def _bilateral_reference(spec, order, width=40):
    """The bilateral sum by brute force, on plain dicts: for each n in
    -width..width its numerator times the geometric series of its pole,
    1/(1 - x q^r) = sum_{j >= 0} x^j q^(rj) for r > 0 and
    -sum_{j >= 1} x^-j q^(-rj) for r < 0, where x = pole_sign zeta^pole_zeta
    and pole_sign = +-1.  Returns {q power: {zeta power: coefficient}},
    leaving out the pole term, the summand n with r = 0."""
    def exponent(n):
        e = spec.quad * n * n + spec.lin * n + spec.const
        assert e.denominator == 1
        return int(e)

    # the window holds every summand that reaches q^order
    assert min(exponent(-width), exponent(width)) > order
    out = {}
    for n in range(-width, width + 1):
        e, zexp = exponent(n), spec.step * n
        if e > order:   # no term of this summand reaches q^order
            continue
        sign = -1 if (spec.flip * n) % 2 else 1
        r = spec.pole_coeff * n + spec.pole_shift
        if r == 0:
            continue
        first, head, dz = (0, 1, 1) if r > 0 else (1, -1, -1)
        for j in range(first, (order - e) // abs(r) + 1):
            row = out.setdefault(e + abs(r) * j, {})
            m = zexp + dz * spec.pole_zeta * j
            row[m] = row.get(m, 0) + head * sign * spec.pole_sign ** j
    return out


def test_bilateral_expand_matches_brute_force():
    # beyond the catalog: the sign is (-1)^(flip*n), so flip = 2 reads as 0
    flips = [gf.BilateralSpec(flip, Fraction(1), Fraction(1), 0, 1, -1, 1,
                              2, 1) for flip in (2, 3)]
    for spec in _CATALOG_SPECS + flips:
        for order in range(31):
            reg = gf.bilateral_expand(spec, order)
            ref = _bilateral_reference(spec, order)
            assert min(ref, default=0) >= 0
            assert list(reg.coeffs) == [ZetaLaurent(ref.get(k, {}))
                                        for k in range(order + 1)], \
                (spec, order)


def test_bilateral_rejects_bad_spec():
    with pytest.raises(UnirankError):
        gf.bilateral_expand(gf.BilateralSpec(flip=0, quad=Fraction(-1),
                                             lin=Fraction(0)), 10)
    with pytest.raises(UnirankError):
        gf.bilateral_expand(gf.BilateralSpec(flip=0, quad=Fraction(1, 2),
                                             lin=Fraction(0)), 10)
    bad = [
        # every summand singular (pole_coeff = 0)
        ("pole_shift", dict(quad=Fraction(1), lin=Fraction(0), pole_coeff=0)),
        # the pole's q power falls with n (pole_coeff < 0)
        ("pole_shift", dict(quad=Fraction(2), lin=Fraction(2), const=3,
                            step=2, pole_zeta=-1, pole_coeff=-1,
                            pole_shift=4)),
        # pole_shift outside 0..pole_coeff - 1: a singular term at n != 0
        ("pole_shift", dict(quad=Fraction(1), lin=Fraction(1), pole_coeff=2,
                            pole_shift=2)),
        ("pole_shift", dict(quad=Fraction(1), lin=Fraction(1), pole_coeff=2,
                            pole_shift=-1)),
        # negative valuation: n = 0, and n = -1 after its pole is flipped
        ("negative valuation at n=0",
         dict(quad=Fraction(1), lin=Fraction(1), const=-1)),
        ("negative valuation at n=-1",
         dict(quad=Fraction(1), lin=Fraction(3))),
        # the exponent falls from its first term: n = 0 to 1, n = -1 to -2
        ("falls after n=0", dict(quad=Fraction(1), lin=Fraction(-3), const=5)),
        ("falls after n=-1",
         dict(quad=Fraction(1), lin=Fraction(5), const=10)),
        # the n < 0 pole flip divides by pole_sign, exact only for +-1
        ("pole_sign must be 1 or -1, not 2",
         dict(quad=Fraction(1), lin=Fraction(1), pole_sign=2, pole_coeff=2,
              pole_shift=1)),
    ]
    for match, fields in bad:
        with pytest.raises(UnirankError, match=match):
            gf.bilateral_expand(gf.BilateralSpec(flip=1, **fields), 10)
    # s = 0 puts every theta term at q^0, so the sum would never end
    with pytest.raises(UnirankError):
        gf.theta_sum(1, 0, 0, 0, 5)


def test_appell_float_oracle():
    q0 = 0.11
    z0 = cmath.exp(0.31j)

    def pole(parts):
        """The pole term that the spec fixes, q^const / (1 - zeta)."""
        s = parts.spec
        assert (s.pole_shift, s.pole_sign, s.pole_zeta) == (0, 1, 1)
        return q0 ** s.const / (1 - z0)

    parts = gf.appell_sum(2, (0, 0), (0, 1), 1, 30)
    direct = sum((-1) ** n * q0 ** (n * n + n) / (1 - z0 * q0 ** n)
                 for n in range(-60, 61)) * z0
    got = parts.regular.evaluate(q0, z0) + pole(parts) * z0
    assert abs(got - direct) < 1e-12

    parts3 = gf.appell_sum(3, (0, 0), (-1, 0), 1, 30)
    direct3 = sum((-1) ** n * q0 ** ((3 * n * n + n) // 2) / (1 - z0 * q0 ** n)
                  for n in range(-60, 61)) * z0 ** 1.5
    got3 = parts3.regular.evaluate(q0, z0) + pole(parts3) * z0 ** 1.5
    assert abs(got3 - direct3) < 1e-12


def test_mu_float_oracle():
    mu = gf.mu_sum((1, 1), (0, 1), 2, 40)
    t0 = complex(0.05, 0.35)
    q0 = cmath.exp(2j * cmath.pi * t0)
    z0 = cmath.exp(2j * cmath.pi * complex(0.07, 0.11))
    theta = sum(cmath.exp(cmath.pi * 1j * (k + .5) ** 2 * 2 * t0
                          + 2j * cmath.pi * (k + .5))
                for k in range(-40, 40))
    ksum = sum(q0 ** (n * (n + 1)) / (1 + z0 * q0 ** (2 * n + 1))
               for n in range(-50, 51))
    direct = 1j * z0 ** 0.5 * q0 ** 0.5 / theta * ksum
    assert abs(mu.evaluate(q0, z0) - direct) < 1e-10


def test_mu_refuses_the_pole_at_a1_zero():
    # at a1 = 0 the level-1 Appell sum has a pole that mu cannot carry
    with pytest.raises(UnirankError, match="a1 >= 1"):
        gf.mu_sum((0, 0), (0, 1), 2, 12)


def test_appell_refuses_a1_outside_its_base():
    # the message names appell_sum's own arguments, not BilateralSpec's
    for call in (lambda: gf.appell_sum(2, (2, 0), (0, 1), 2, 10),
                 lambda: gf.appell_sum(2, (-1, 0), (0, 1), 2, 10),
                 lambda: gf.mu_sum((2, 1), (0, 1), 2, 10)):
        with pytest.raises(UnirankError,
                           match=r"0 <= a1 < s: a1 = -?\d, s = 2"):
            call()


def test_cleared_float_oracle():
    """cleared() is the sum times its own pole's denominator, for the
    catalog's three pole shapes (pole_sign, pole_zeta)."""
    q0, z0 = 0.11, cmath.exp(0.31j)
    ns = range(-60, 61)
    # eq1.2: sum of zeta^n q^(n(n+1)/2) / (1 + zeta^-1 q^n)
    spec = gf.BilateralSpec(flip=0, quad=Fraction(1, 2), lin=Fraction(1, 2),
                            step=1, pole_sign=-1, pole_zeta=-1)
    eq12 = gf.PrefixedWithPoles(
        PrefixedSeries.from_series(gf.bilateral_expand(spec, 30)), spec)
    lam = sum(z0 ** n * q0 ** (n * (n + 1) // 2) / (1 + q0 ** n / z0)
              for n in ns)
    # appell_sum with b1 = 0 and b1 = 1, written out as plain sums
    a0 = z0 * sum((-1) ** n * q0 ** (n * n + n) / (1 - z0 * q0 ** n)
                  for n in ns)
    a1 = -z0 * sum(q0 ** (2 * n * n + n) / (1 + z0 * q0 ** (2 * n))
                   for n in ns)
    cases = [
        (eq12, (-1, -1), lam),
        (gf.appell_sum(2, (0, 0), (0, 1), 1, 30), (1, 1), a0),
        (gf.appell_sum(2, (0, 1), (-1, 0), 2, 30), (-1, 1), a1),
    ]
    for parts, shape, value in cases:
        s = parts.spec
        assert (s.pole_shift, s.pole_sign, s.pole_zeta) == (0, *shape)
        want = value * (1 - s.pole_sign * z0 ** s.pole_zeta)
        assert abs(parts.cleared().evaluate(q0, z0) - want) < 1e-12, shape
    # with no pole, cleared() is the regular series itself
    parts = gf.appell_sum(2, (1, 1), (1, 1), 2, 12)
    assert parts.spec.pole_shift and parts.cleared() is parts.regular


def test_cleared_pole_assembly():
    parts = gf.appell_sum(2, (0, 0), (0, 1), 1, 12)
    poly = ZetaLaurent({0: 1, 1: -1})   # 1 - zeta, the pole's denominator
    cleared = parts.cleared()
    plain = parts.regular.body.scalar_mul(poly)
    diff = cleared.body - plain
    assert diff.coeffs[0] == ZetaLaurent({0: 1})
    assert all(not c for c in diff.coeffs[1:])
    # the pole term's numerator sits at q^const, and past the order it is
    # still the spec's pole, just not a coefficient of the truncation
    spec = gf.BilateralSpec(flip=0, quad=Fraction(1), lin=Fraction(1),
                            const=3)
    for order, want in ((2, [0, 0, 0]), (5, [0, 0, 0, 1, 0, 0])):
        parts = gf.PrefixedWithPoles(PrefixedSeries.from_series(
            gf.bilateral_expand(spec, order)), spec)
        diff = parts.cleared().body \
            - parts.regular.body.scalar_mul(ZetaLaurent({0: 1, 1: -1}))
        assert list(diff.coeffs) == [ZetaLaurent({0: w}) for w in want]


def test_build_dispatch_and_errors():
    for key in gf.SERIES_KEYS + gf.ANALYTIC_KEYS:
        out = gf.build(key, 10)
        assert out is not None
    with pytest.raises(UnirankError):
        gf.build("nope", 10)
    with pytest.raises(UnirankError):
        gf.build("P", 0)
    # zeta-refined forms: the one-variable -q keys keep the rank variable
    assert gf.build("Ubar-q", 10, zeta=True) == _zeta_row("Ubar", 10)
    assert gf.build("U2-q", 10, zeta=True) == _zeta_row("U2", 10).negate_q()
    assert gf.build("R", 10, zeta=True) == gf.build("R", 10)
    for key in ("P", "U"):
        with pytest.raises(UnirankError):
            gf.build(key, 10, zeta=True)


def test_default_order_env(monkeypatch):
    monkeypatch.delenv("UNIRANK_ORDER", raising=False)
    assert gf.default_order() == gf.DEFAULT_ORDER
    monkeypatch.setenv("UNIRANK_ORDER", "37")
    assert gf.default_order() == 37
    monkeypatch.setenv("UNIRANK_ORDER", "0")
    with pytest.raises(UnirankError):
        gf.default_order()


def test_rank_coefficients_are_nonnegative():
    for key in ("Uzeta", "R", "Rbar", "Rbar2", "R2"):
        series = gf.build(key, 25)
        for _, _, c in series.iter_zeta_entries():
            assert c > 0, key
    for series in (_zeta_row("Ubar2_negq", 25), _zeta_row("U2_negq", 25)):
        for _, _, c in series.iter_zeta_entries():
            assert c > 0

