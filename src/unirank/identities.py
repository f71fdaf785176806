"""Catalog of exact series identities with machine verification.

Each catalog entry expands both sides of one identity through a configurable
truncation order over an exact coefficient ring (integers, integers mod 2,
or Laurent polynomials in the rank variable zeta) and compares every
coefficient.  Sides that live on fractional exponent lattices are compared
as prefixed series; a side with a removable zeta pole is first multiplied
by that pole's own denominator so that both become honest power series.

``verify`` runs one catalog entry and returns a ``VerificationReport``;
``verify_all`` sweeps the whole catalog.  The private ``_perturb`` hook
injects a single monomial into the right-hand side so tests can confirm
that each comparison rejects corrupted input.

The module also exposes the alpha/beta pair machinery: ``check_bailey_pair``
(the defining relation), ``apply_bailey_lemma`` (the limiting chain
transform), and ``lovejoy_pair`` (a three-parameter pair construction).
A pair is two term sequences, each term built from the one before; a chain
sum stops, exactly, where its weight's q-valuation g n passes the order.
Every hypergeometric side is a ``series.Row`` summed by ``row_sum`` from
its first all-power-series summand, earlier factors applied as prefixed
passes; a fixed one is a row of ``rows.ROWS``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count, islice
from math import isqrt
from typing import Callable, Optional

from .series import (
    GF2,
    ZETA,
    ZZ,
    Monomial,
    PrefixedSeries,
    Row,
    TruncatedSeries,
    UnirankError,
    ZetaLaurent,
    pochhammer,
    pochhammer_prefixed,
    row_ints,
    row_sum,
)
from .gflib import (
    BilateralSpec,
    PrefixedWithPoles,
    appell_sum,
    bilateral_expand,
    check_order,
    default_order,
    mu_sum,
    theta_product,
    theta_sum,
)
from .parity import double_theta, theta_row
from .rows import ROWS

_ONE = ZetaLaurent.from_int(1)


def _zm(c, e: int = 0) -> ZetaLaurent:
    return ZetaLaurent.monomial(c, e)


def _row(name: str, order: int, ring=ZETA) -> TruncatedSeries:
    """The row ``name`` of ``rows.ROWS`` through q^order: its sum over
    ZETA, or over ZZ its image from ``row_ints``."""
    if ring is ZZ:
        return TruncatedSeries(ZZ, row_ints(ROWS[name], order), order)
    return row_sum(ROWS[name], ZETA, order)


# -- monomial-parametrized series helpers ---------------------------------------
#
# A parameter monomial is (coef, zeta_exp, q_exp), as in series.pochhammer.

def _shifted(monos, d: int) -> list:
    """Each monomial times q^d, e.g. the n-th factors of (monos; q^s)_n."""
    return [(c, z, e + d) for (c, z, e) in monos]


def _eta_quotient(s: PrefixedSeries, ups, downs) -> PrefixedSeries:
    """``s`` times prod eta(m tau) over ``ups`` / prod over ``downs``, as
    passes on its body: eta(m tau) = q^(m/24) (q^m; q^m)_inf."""
    for m in ups:
        s = s.mul_pochhammer((1, 0, m), step=m)
    for m in downs:
        s = s.div_pochhammer((1, 0, m), step=m)
    return s.times_q24(sum(ups) - sum(downs))


# -- two-variable rank series pairs ---------------------------------------------

def _pairs_eq11(order: int):
    # q^(n^2) / (z q, z^-1 q; q)_{-n}  ==  (z, z^-1; q)_n q^n, using the
    # reciprocal convention (x; q)_{-n} = 1 / (x q^{-n}; q)_n.
    pairs = []
    for n in range(1, 9):
        lhs = pochhammer_prefixed(
            [(1, 1, 1 - n), (1, -1, 1 - n)], n, order).times_q24(24 * n * n)
        rhs = pochhammer_prefixed(
            [(1, 1, 0), (1, -1, 0)], n, order).times_q24(24 * n)
        pairs.append((f"n={n}", lhs, rhs))
    return pairs


def _pairs_eq12(order: int):
    lhs = _row("Uzeta", order).scalar_mul(ZetaLaurent({1: 1, 0: 2, -1: 1}))
    spec = BilateralSpec(flip=0, quad=Fraction(1, 2), lin=Fraction(1, 2),
                         step=1, pole_sign=-1, pole_zeta=-1)
    kernel = PrefixedWithPoles(
        PrefixedSeries.from_series(bilateral_expand(spec, order)), spec)
    rhs = kernel.cleared().body.div_pochhammer((1, 0, 1)) \
        - _row("R_neg_zeta", order)
    return [("lambert", lhs, rhs)]


def _pairs_lemma31(order: int):
    lhs = _row("Ubar", order).scalar_mul(ZetaLaurent({0: 2, 1: -1, -1: -1}))
    rhs = _row("Rbar", order) - _row("R", order) \
        .mul_pochhammer([(-1, 1, 1), (-1, -1, 1)]).div_pochhammer((-1, 0, 1))
    return [("rank-pair", lhs, rhs)]


def _pairs_cor32(order: int):
    # both sides are multiplied by (1 - zeta)(1 - zeta^2); the single power
    # (1 - zeta) clears the n = 0 pole inside each Appell sum and the
    # remaining (1 - zeta^2) absorbs the explicit denominators
    one_minus_z = ZetaLaurent({0: 1, 1: -1})
    clear = one_minus_z * ZetaLaurent({0: 1, 2: -1})
    lhs = PrefixedSeries.from_series(_row("Ubar", order).scalar_mul(clear))
    a2 = appell_sum(2, (0, 0), (0, 1), 1, order).cleared()
    t1 = _eta_quotient(a2, (2,), (1, 1)).times_body(_zm(-2, 1))
    a3 = appell_sum(3, (0, 0), (-1, 0), 1, order).cleared()
    t2 = _eta_quotient(theta_sum(1, 0, 1, 1, order) * a3, (), (1, 2))
    t2 = t2.times_scalar(-1)
    t3 = PrefixedSeries.from_series(TruncatedSeries.monomial(
        ZETA, _zm(-1, 1) * one_minus_z, 0, order))
    return [("mock", lhs, t1 + t2 + t3)]


def _pairs_prop41(order: int):
    lhs = _row("Ubar2_negq", order).scalar_mul(ZetaLaurent({0: 2, 2: -2}))
    lam = []   # pole_shift = 1: no pole term
    for quad, lin, const in ((2, 3, 0), (1, 3, 1), (1, 1, 0)):
        lam.append(bilateral_expand(
            BilateralSpec(flip=1 if quad == 2 else 0, quad=Fraction(quad),
                          lin=Fraction(lin), const=const, pole_sign=-1,
                          pole_zeta=1, pole_coeff=2, pole_shift=1), order))
    t1 = lam[0].mul_pochhammer([(-1, 1, 2), (-1, -1, 2), (-1, 0, 1)],
                               step=2).div_pochhammer((1, 0, 1)) \
        .div_pochhammer((-1, 0, 2), step=2)
    t1 = t1.shift_q(1).scalar_mul(ZetaLaurent({1: -2, 2: -2}))
    t2 = lam[1].scalar_mul(_zm(1, 2)) + lam[2].scalar_mul(_zm(-1, 1))
    rhs = t1 + t2.mul_pochhammer((1, 0, 2), step=4) \
        .div_pochhammer((1, 0, 4), step=4)
    return [("lambert", lhs, rhs)]


def _pairs_cor42(order: int):
    z2 = ZetaLaurent({0: 1, 2: -1})
    lhs = PrefixedSeries.from_series(_row("Ubar2_negq", order).scalar_mul(z2))
    a2 = appell_sum(2, (1, 1), (1, 1), 2, order)
    ta = _eta_quotient(theta_sum(1, 0, 1, 2, order) * a2.regular, (2, 2),
                       (1, 1, 4, 4))
    ta = ta.times_zeta_half(1).times_scalar(-1)
    inner = mu_sum((1, 1), (0, 1), 2, order).times_scalar(2) \
        + PrefixedSeries(1, 1, 1, 6, TruncatedSeries.one(ZETA, order))
    tb = inner.times_i_power(1).times_scalar(-1).times_zeta_half(1)
    tb = tb.times_q24(-6)
    return [("mock", lhs, ta + tb)]


def _pairs_false_dual(order: int):
    pairs = []
    # termwise q -> -1/q flip of the even-peak overlined summands
    for n in range(1, 6):
        nums = []
        for i in range(n - 1):
            nums.append((-1, 1, -2 - 2 * i))
            nums.append((-1, -1, -2 - 2 * i))
        dens = [((-1) ** i, 0, -1 - i) for i in range(2 * n)]
        lhs = pochhammer_prefixed(nums, 1, order).div_pochhammer(dens, 1)
        lhs = lhs.times_q24(-48 * n)
        body = pochhammer([(-1, 1, 2), (-1, -1, 2)], n - 1, order, step=2) \
            .div_pochhammer([(1, 0, 1), (-1, 0, 2)], n, step=2)
        rhs = PrefixedSeries.from_series(
            body.shift_q(n).scalar_mul(_zm((-1) ** n, 0)))
        pairs.append((f"flip n={n}", lhs, rhs))
    # finite reciprocal-base product law (w; 1/q)_n at monomial w; both
    # sides carry prefixes down to q^-3, so they are built 3 terms deeper
    for j, n in ((0, 3), (1, 4), (3, 2)):
        lhs = pochhammer_prefixed([(1, 1, j - i) for i in range(n)], 1,
                                  order + 3)
        rhs = pochhammer_prefixed([(1, -1, -j)], n, order + 3)
        rhs = rhs.times_scalar((-1) ** n).times_zeta_half(2 * n)
        rhs = rhs.times_q24(24 * (n * j - n * (n - 1) // 2))
        pairs.append((f"base-flip w=zeta*q^{j}, n={n}", lhs, rhs))
    # signed theta form of the dual sum
    dual = _row("dual", order)
    theta, counting = [ZETA.zero] * (order + 1), [0] * (order + 1)
    for n in range(1, isqrt(order) + 1):
        sgn = -1 if n % 2 else 1
        theta[n * n] = ZetaLaurent({1 - n: sgn, 1 + n: -sgn})
        counting[n * n] = sgn * n
    pairs.append(("dual-series",
                  dual.scalar_mul(ZetaLaurent({0: 1, 2: -1})),
                  TruncatedSeries(ZETA, theta, order)))
    pairs.append(("marginal", dual.marginal(),
                  TruncatedSeries(ZZ, counting, order)))
    return pairs


def _pairs_prop51(order: int):
    lhs = _row("U2_negq", order).scalar_mul(ZetaLaurent({1: 1, 0: 2, -1: 1}))

    def zz(s):
        """s (-zeta, -1/zeta; q^2)_inf / (q; q^2)_inf, with the two constant
        factors of the numerator pulled out."""
        return s.mul_pochhammer([(-1, 1, 2), (-1, -1, 2)], step=2) \
            .scalar_mul(ZetaLaurent({1: 1, 0: 2, -1: 1})) \
            .div_pochhammer((1, 0, 1), step=2)
    t2 = zz(_row("R_negzq_q2", order)).div_binomial(1, _zm(1, 1))
    t2 = t2.scalar_mul(_zm(-1, -1))
    t3 = pochhammer([(1, 0, 1)], None, order) \
        .mul_pochhammer([(1, 0, 1), (1, 0, 1)], step=2) \
        .div_pochhammer([(-1, 1, 1), (-1, -1, 1)])
    t4 = zz(TruncatedSeries.one(ZETA, order)).scalar_mul(_zm(1, -1))
    rhs = -_row("R2_negs", order) + t2 + t3 + t4
    return [("rank-pair", lhs, rhs)]


def _pairs_cor52(order: int):
    w = ZetaLaurent({0: 1, 1: 1})
    w2 = w * w
    lhs = PrefixedSeries.from_series(_row("U2_negq", order).scalar_mul(w2))
    a2 = appell_sum(2, (0, 1), (-1, 0), 2, order).cleared()
    t1 = _eta_quotient(a2, (1,), (2, 2)).times_q24(3)
    a3 = appell_sum(3, (1, 1), (-2, 0), 2, order)
    t2 = _eta_quotient(theta_sum(1, 0, 1, 2, order) * a3.regular, (), (1, 2))
    t2 = t2.times_i_power(1).times_zeta_half(-4).times_q24(-39).times_body(w)
    # t3 divides by the check pair's -zeta^(-1/2) q^(1/8) (half; q)_inf
    half = [(-1, 1, 1), (-1, -1, 1), (1, 0, 1)]
    t3 = PrefixedSeries(-1, 0, 1, -3, TruncatedSeries.one(ZETA, order)
                        .div_pochhammer(half))
    t3 = _eta_quotient(t3, (1, 1, 1, 1), (2, 2))
    t3 = t3.times_zeta_half(1).times_q24(3).times_scalar(-1)
    t4 = _eta_quotient(theta_sum(1, 0, 1, 2, order), (), (1,))
    t4 = t4.times_zeta_half(-1).times_q24(-5).times_scalar(-1).times_body(w)
    check = PrefixedSeries(-1, 0, -1, 3,
                           pochhammer(half, None, order).scalar_mul(w))
    return [
        ("mock", lhs, t1 + t2 + t3 + t4),
        ("theta-half-product", check, theta_sum(1, 0, 1, 1, order)),
    ]


def _pairs_prop53(order: int):
    # building a GF2 series reduces its integer coefficients mod 2
    lhs = row_ints(ROWS["U2_negq"], order)
    return [("mod2", TruncatedSeries(GF2, lhs, order),
             TruncatedSeries(GF2, double_theta(order), order))]


def _thetid_rhs(order: int) -> TruncatedSeries:
    acc = TruncatedSeries.zero(ZZ, order)
    n = 0
    while n * n + 3 * n <= order:
        row = [0] * (order + 1)
        theta_row(row, 3 * n * n + 6 * n, n, -1 if n % 2 else 1)
        acc = acc + TruncatedSeries(ZZ, row, order) \
            .mul_binomial(2 * n + 2, 1).div_binomial(2 * n + 2, -1)
        n += 1
    return acc.mul_binomial(1, -1)


def _ratio_terms(nums, dens, step: int, order: int):
    """(nums; q^step)_n / (dens; q^step)_n over ZZ for n = 0, 1, ...,
    each from the one before by one pass per factor."""
    term = TruncatedSeries.one(ZZ, order)
    for n in count():
        yield term
        term = term.mul_pochhammer(_shifted(nums, step * n), 1) \
            .div_pochhammer(_shifted(dens, step * n), 1)


def _alpha_q4q2(order: int):
    """alpha_0, alpha_1, ... of the pair at a = q^4 over base q^2.  Row n
    starts at q^(n^2+n) and its factors have constant term 1, so the
    sequence ends, exactly, at the first n with n^2 + n > order."""
    n = 0
    while n * n + n <= order:
        row = [0] * (order + 1)
        theta_row(row, 3 * n * n + 4 * n, n, -1 if n % 2 else 1)
        s = TruncatedSeries(ZZ, row, order).mul_binomial(4 * n + 4, -1) \
            .mul_binomial(1, -1)
        yield s.div_binomial(2, -1).div_binomial(4, -1)
        n += 1


_beta_q4q2 = partial(_ratio_terms, [], [(1, 0, 3)], 2)   # 1 / (q^3; q^2)_n


def bailey_pair_pairs(alpha, beta, a_exp: int, step: int, order: int,
                      n_max: int = 4, tag: str = "") -> list:
    """Comparison pairs for the defining relation
    beta_n = sum_{0<=j<=n} alpha_j / ((q;q)_{n-j} (aq;q)_{n+j})
    with a = q^a_exp over base q^step.  ``alpha(order)`` and
    ``beta(order)`` yield alpha_0, alpha_1, ... and beta_0, beta_1, ...;
    an alpha sequence may end once its terms vanish through the order."""
    alphas = list(islice(alpha(order), n_max + 1))
    pairs = []
    for n, lhs in enumerate(islice(beta(order), n_max + 1)):
        rhs = TruncatedSeries.zero(ZZ, order)
        for j, t in enumerate(alphas[:n + 1]):
            t = t.div_pochhammer((1, 0, step), n - j, step)
            rhs = rhs + t.div_pochhammer((1, 0, a_exp + step), n + j, step)
        pairs.append((f"{tag}n={n}", lhs, rhs))
    return pairs


def check_bailey_pair(alpha, beta, a_exp: int, step: int,
                      order: Optional[int] = None, n_max: int = 4) -> bool:
    """True when (alpha, beta) satisfies the defining pair relation."""
    if order is None:
        order = default_order()
    return all(lhs == rhs for _, lhs, rhs in
               bailey_pair_pairs(alpha, beta, a_exp, step, order, n_max))


def apply_bailey_lemma(alpha, beta, a_exp: int, rho1_exp: int, rho2_exp: int,
                       step: int, order: int):
    """Both sides of the limiting chain transform for a pair relative to
    a = q^a_exp over base q^step, with rho_i = q^rho_i_exp:

    sum (rho1, rho2; q)_n (aq/(rho1 rho2))^n beta_n
      == (aq/rho1, aq/rho2; q)_inf / (aq, aq/(rho1 rho2); q)_inf
         * sum (rho1, rho2; q)_n (aq/(rho1 rho2))^n
               / (aq/rho1, aq/rho2; q)_n * alpha_n.
    """
    g = a_exp + step - rho1_exp - rho2_exp
    g1 = a_exp + step - rho1_exp
    g2 = a_exp + step - rho2_exp
    if g < 1 or g1 < 1 or g2 < 1:
        raise UnirankError("chain transform parameters need positive q powers")
    rhos = [(1, 0, rho1_exp), (1, 0, rho2_exp)]
    gs = [(1, 0, g1), (1, 0, g2)]

    def chain_sum(terms, dens):
        """sum over n of x_n (rho1, rho2; q)_n / (dens; q)_n (aq/(rho1 rho2))^n
        for the terms x_0, x_1, ...  The weight of x_n has valuation g n and
        x_n is a power series, so n <= order // g is exact.  From the top,
        acc = x_n + acc * q^g (1 - rho1 q^(step n)) (1 - rho2 q^(step n))
        / (dens q^(step n)): the same finite sum, re-associated."""
        xs = list(islice(terms, order // g + 1))
        acc = xs.pop()
        while xs:
            sn = step * (len(xs) - 1)
            acc = xs.pop() + acc.mul_pochhammer(_shifted(rhos, sn), 1) \
                .div_pochhammer(_shifted(dens, sn), 1).shift_q(g)
        return acc
    return chain_sum(beta(order), []), chain_sum(alpha(order), gs) \
        .mul_pochhammer(gs, step=step) \
        .div_pochhammer([(1, 0, a_exp + step), (1, 0, g)], step=step)


def _pairs_thetid(order: int):
    pairs = [("display", _row("thetid", order, ZZ), _thetid_rhs(order))]
    pairs += bailey_pair_pairs(_alpha_q4q2, _beta_q4q2, 4, 2, order,
                               n_max=4, tag="pair ")
    pairs.append(("chain", *apply_bailey_lemma(_alpha_q4q2, _beta_q4q2,
                                               4, 2, 2, 2, order)))
    return pairs


def _pairs_prop54(order: int):
    lhs = TruncatedSeries(ZZ, double_theta(order), order).scalar_mul(2)
    rhs = [0] * (order + 1)
    n_top = isqrt(48 * order) + 9
    for big_n in range(6, n_top + 1, 4):
        for big_j in range(-(big_n // 3) - 1, big_n // 3 + 1):
            if big_j % 2 == 0:
                continue
            if not (-big_n < 3 * big_j <= big_n):
                continue
            num = big_n * big_n - 6 * big_j * big_j + 2
            if num % 16:
                raise UnirankError("exponent leaves the integer lattice")
            e = num // 16
            if 0 <= e <= order:
                rhs[e] += 1
    return [("quadratic-form", lhs, TruncatedSeries(ZZ, rhs, order))]


def _pairs_omega(order: int):
    lhs = _row("R_negzq_q2", order, ZZ)   # R(-q; q^2)
    rhs = TruncatedSeries.from_int_coeffs(ZZ, [1, 1], order) \
        - _row("omega_negq", order, ZZ).shift_q(1).mul_binomial(1, 1)
    return [("third-order", lhs, rhs)]


# -- classical transformations at monomial parameters ----------------------------

HEINE_SPECS = (
    ((1, 1, 2), (1, 0, 2), (-1, 1, 3), (-1, -1, 1), 2),
    ((1, 0, 1), (1, 0, 2), (1, 0, 3), (1, 0, 2), 1),
    ((-1, 0, 1), (1, 0, 1), (1, 0, 2), (1, 0, 3), 1),
    ((1, 1, 1), (-1, 0, 1), (1, 0, 2), (1, -1, 2), 1),
    ((2, 0, 1), (1, 0, 1), (3, 0, 2), (1, 0, 2), 1),
    ((1, 0, 2), (-1, 1, 1), (1, 0, 3), (1, 0, 1), 1),
)


def _heine_pair(a, b, c, t, s: int, order: int):
    label = f"a={a} b={b} c={c} t={t} step={s}"
    a, b, c, t = map(Monomial._make, (a, b, c, t))
    lhs = row_sum(Row(0, [], [], [a, b], [c, (1, 0, s)], t, step=s), ZETA,
                  order)
    at = a * t
    tail = row_sum(Row(0, [], [], [c / b, t], [at, (1, 0, s)], b, step=s),
                   ZETA, order)
    return (label, lhs, tail.mul_pochhammer([b, at], step=s)
            .div_pochhammer([c, t], step=s))


def _pairs_heine(order: int):
    return [_heine_pair(a, b, c, t, s, order)
            for (a, b, c, t, s) in HEINE_SPECS]


WATSON_SPECS = (
    ((1, 0, 2), (-1, 1, 1), (-1, -1, 1), (1, 0, 1), (-1, 0, 1), 2),
    ((1, 0, 2), (1, 0, 1), (1, 0, 1), (1, 0, 1), (1, 0, 1), 1),
    ((1, 0, 3), (1, 0, 1), (1, 0, 1), (1, 0, 1), (1, 0, 1), 1),
    ((1, 0, 4), (1, 0, 2), (1, 0, 1), (1, 0, 1), (1, 0, 2), 1),
    ((1, 0, 2), (-1, 0, 1), (1, 0, 1), (1, 1, 1), (1, -1, 1), 1),
    ((1, 0, 6), (1, 0, 1), (1, 0, 2), (1, 0, 1), (1, 0, 3), 2),
)

WATSON_LIMIT_SPECS = (
    ((1, 0, 2), (-1, 0, 1), (-1, 1, 1), (-1, -1, 1), 2),
)


def _watson_tail(lowers, dens, a, mult, lin: int, s: int,
                 order: int) -> TruncatedSeries:
    """Sum over n of the very-well-poised terms
    prod (x;q^s)_n * (1 - a q^{2sn}) * mult^n * q^{s*lin*n(n-1)/2}
    / prod (y;q^s)_n, divided once by (1 - a): step n trades
    (1 - a q^{2s(n-1)}) for (1 - a q^{2sn})."""
    c, z, e = a
    return row_sum(Row(0, [], [], lowers + [(c, z, e + 2 * s, 2 * s)],
                       dens + [(c, z, e, 2 * s)], mult, quad=s * lin,
                       step=s), ZETA, order)


def _watson_pair(a, b, c, d, e, s: int, order: int):
    """Watson's transformation; c = None is its limit c -> inf, where the
    c factors leave both sums and the tail gains (-1)^n q^(s n(n-1)/2)."""
    label = (f"a={a} b={b} {'c->inf' if c is None else f'c={c}'} d={d} "
             f"e={e} step={s}")
    a, b, d, e = map(Monomial._make, (a, b, d, e))
    cs = [] if c is None else [Monomial._make(c)]
    aq = a * (1, 0, s)

    def over(x):
        return aq / x
    over_de = over(d) / e
    lhs = row_sum(Row(0, [], [], [over(b) / x for x in cs] + [d, e],
                      [over(x) for x in [b] + cs] + [(1, 0, s)], over_de,
                      step=s), ZETA, order)
    mult = aq * aq / (b * d * e)
    for x in cs:
        mult = -(mult / x)
    tail = _watson_tail([a, b] + cs + [d, e],
                        [(1, 0, s)] + [over(x) for x in [b] + cs + [d, e]],
                        a, mult, 2 - len(cs), s, order)
    return (label, lhs, tail.mul_pochhammer([over(d), over(e)], step=s)
            .div_pochhammer([aq, over_de], step=s))


def _pairs_watson(order: int):
    pairs = [_watson_pair(a, b, c, d, e, s, order)
             for (a, b, c, d, e, s) in WATSON_SPECS]
    pairs += [_watson_pair(a, b, None, d, e, s, order)
              for (a, b, d, e, s) in WATSON_LIMIT_SPECS]
    return pairs


# -- partial theta transformations -----------------------------------------------

AB621_SPECS = (
    ((-1, 0, 1), (1, 0, 2), (1, -1, -2), (-1, 1, 2), 2),
    ((-1, 0, 1), (1, 0, 4), (1, -1, -2), (-1, 1, 4), 2),
)


def _ab621_pairs_one(a, b, A, B, s: int, order: int, tie: bool):
    label = f"a={a} b={b} A={A} B={B} step={s}"
    a, b, A, B = map(Monomial._make, (a, b, A, B))
    q_s = Monomial(1, 0, s)
    neg_abq, neg_aq, neg_bq = -(A * b * q_s), -(a * q_s), -(b * q_s)
    a_inv, cap_a_inv = 1 / a, 1 / A
    m_abqa = A * b * q_s / a
    m_neg_ba = -(B / a)
    m_neg_abqa = -(A * B * q_s / a)
    m_neg_ainv = -a_inv
    for mono in (B, neg_abq, neg_aq, neg_bq, cap_a_inv, m_abqa, m_neg_ba,
                 m_neg_abqa):
        if mono.q_exp < 1:
            raise UnirankError(f"parameter {mono} needs q power >= 1")
    s1 = row_sum(Row(0, [], [], [B, neg_abq], [neg_aq, neg_bq], q_s,
                     step=s), ZETA, order)
    # second sum, with the (n+1)-indexed denominator product
    acc2 = row_sum(Row(0, [], [m_neg_ba], [cap_a_inv],
                       _shifted([m_neg_ba], s), m_abqa, step=s), ZETA, order)
    acc2 = acc2.mul_pochhammer([B, neg_abq], step=s) \
        .div_pochhammer([neg_aq, neg_bq], step=s)
    term2 = PrefixedSeries.from_series(acc2).times_monomial(m_neg_ainv)
    # third sum: summand n is summand 0, (-1/a)_1 / (-B/a, Abq/a)_1, times
    # steps 1..n, whose factors all have q power >= 1.  The steps sum as a
    # plain series, exact through the order; summand 0's factors and the
    # outer (-b)_1 then apply to it as prefixed passes, each exact there
    rest = row_sum(Row(0, [], [], _shifted([m_neg_ainv], s) + [m_neg_abqa],
                       _shifted([m_neg_ba, m_abqa], s), -b, step=s),
                   ZETA, order)
    term3 = PrefixedSeries.from_series(rest) \
        .mul_pochhammer([m_neg_ainv, -b], 1) \
        .div_pochhammer([m_neg_ba, m_abqa], 1)
    pairs = [(label, PrefixedSeries.from_series(s1), term2 + term3)]
    if tie:
        body = _row("Ubar2_negq", order)
        body = body.mul_binomial(1, _zm(-1, 0)).mul_binomial(2, _zm(1, 0))
        pairs.append(("even-overlined-tie",
                      PrefixedSeries(1, 0, 0, -48, body),
                      PrefixedSeries.from_series(s1)))
    return pairs


def _pairs_ab621(order: int):
    # the sides carry prefixes down to q^-2: build them 2 terms deeper
    pairs = []
    for i, (a, b, A, B, s) in enumerate(AB621_SPECS):
        pairs += _ab621_pairs_one(a, b, A, B, s, order + 2, tie=(i == 0))
    return pairs


AB6312_SPECS = (
    ((1, 1, 0), (1, -1, 0), (1, 0, 1), 1),
    ((1, 1, 0), (1, -1, 0), (-1, 0, 1), 2),
    ((1, 0, 2), (1, 0, 1), (1, 0, 1), 1),
)


def _ab6312_pairs_one(a, b, c, s: int, order: int):
    label = f"a={a} b={b} c={c} step={s}"
    a, b, c = map(Monomial._make, (a, b, c))
    q_s = Monomial(1, 0, s)
    neg_aq, neg_bq, neg_cq = -(a * q_s), -(b * q_s), -(c * q_s)
    for mono in (neg_aq, neg_bq, neg_cq):
        if mono.q_exp < 1:
            raise UnirankError(f"parameter {mono} needs q power >= 1")
    x1, x2 = a * q_s / c, b * q_s / c
    clear = _ONE
    for x in (x1, x2):
        if x.q_exp < 0:
            raise UnirankError(f"parameter {x} has negative q power")
        if x.q_exp == 0:
            # (x; q^s)_n = (1 - x) (x q^s; q^s)_(n-1): the constant factor
            # is cleared on the left, so summand 1 has no factor for x
            clear = clear * (_ONE - _zm(x.coef, x.zeta_exp))
    lhs = row_sum(Row(0, [], [], [neg_aq, neg_bq], [neg_cq], q_s, step=s),
                  ZETA, order)
    lhs = lhs.shift_q(s).scalar_mul(clear)
    neg_c_inv = -(1 / c)
    m1 = a * b / c
    m2 = m1 / c
    # rhs = sum1 - (-aq, -bq)_inf / (-cq)_inf / c * sum2; summand n >= 1 is
    # (-1/c)_n q^(s n(n+1)/2) m1^(n-1) / (x1, x2)_n in sum1 and q^(s n^2)
    # m2^(n-1) / (x1, x2)_n in sum2: summand 1 times steps 2..n, whose
    # factors all have q power >= 1.  The steps sum as plain series, exact
    # through the order; summand 1's factors, (-1/c)_1 and the common q^s
    # over the uncleared x, then apply as prefixed passes, exact there too
    lows = _shifted([x1, x2], s)
    rest1 = row_sum(Row(0, [], [], _shifted([neg_c_inv], s), lows,
                        m1 * (1, 0, 2 * s), quad=s, step=s), ZETA, order)
    rest2 = row_sum(Row(0, [], [], [], lows, m2 * (1, 0, 3 * s),
                        quad=2 * s, step=s), ZETA, order)
    rest2 = rest2.mul_pochhammer([neg_aq, neg_bq], step=s) \
        .div_pochhammer(neg_cq, step=s)
    rhs = PrefixedSeries.from_series(rest1).mul_pochhammer(neg_c_inv, 1) \
        - PrefixedSeries.from_series(rest2).times_monomial(1 / c)
    rhs = rhs.times_monomial(q_s).div_pochhammer(
        [x for x in (x1, x2) if x.q_exp], 1)
    return (label, PrefixedSeries.from_series(lhs), rhs)


def _pairs_ab6312(order: int):
    return [_ab6312_pairs_one(a, b, c, s, order)
            for (a, b, c, s) in AB6312_SPECS]


# -- alpha/beta pair machinery ----------------------------------------------------

def lovejoy_pair(a_exp: int, b_exp: int, c_exp: int, d_exp: int,
                 step: int = 1):
    """Alpha/beta sequences for the three-parameter pair construction at
    a = q^a_exp, b = q^b_exp, c = q^c_exp, d = q^d_exp over base q^step:
    ``alpha(order)`` and ``beta(order)`` yield the terms n = 0, 1, ...

    The exponents must satisfy a > max(b, c, d), a >= b + c + d, and
    min(b, c, d) >= 1 so every intermediate stays a power series; the
    beta numerator parameter bcd q^step / a must also be a positive
    power of q.
    """
    if min(b_exp, c_exp, d_exp) < 1:
        raise UnirankError("lower parameters need q power >= 1")
    if a_exp <= max(b_exp, c_exp, d_exp):
        raise UnirankError("top parameter must dominate the lower ones")
    if a_exp < b_exp + c_exp + d_exp:
        raise UnirankError("top parameter must dominate the lower product")
    lin = b_exp + c_exp + d_exp + step - a_exp
    if lin < 1:
        raise UnirankError("beta numerator parameter needs q power >= 1")
    uppers = [(1, 0, a_exp - b_exp), (1, 0, a_exp - c_exp),
              (1, 0, a_exp - d_exp)]
    lowers = [(1, 0, b_exp + step), (1, 0, c_exp + step),
              (1, 0, d_exp + step)]
    bcd = [(1, 0, b_exp), (1, 0, c_exp), (1, 0, d_exp)]

    def alpha(order: int):
        """alpha_n = (-1)^n q^exp_n (1 - a q^(2 step n)) / (1 - a) p_n with
        p_n = (uppers)_n / (lowers)_n (t_0 + ... + t_n), carried from n - 1
        with t = (uppers)_n / (lowers)_n t_n by one pass per factor (the
        uppers cancel the divisors (a/x q^(step (n-1))) of t_n / t_(n-1)).
        exp_n strictly increases (lin >= 1) and every other factor has
        valuation 0, so the sequence ends, exactly, at exp_n > order."""
        p = t = TruncatedSeries.one(ZZ, order)
        n = 0
        while (exp := n * lin + step * n * (n - 1) // 2) <= order:
            if n:
                d = step * (n - 1)
                lows = _shifted(lowers, d)
                p = p.mul_pochhammer(_shifted(uppers, d), 1)
                t = t.mul_pochhammer(_shifted(bcd, d), 1) \
                    .mul_binomial(a_exp + 2 * d + step, -1) \
                    .div_binomial(d + step, -1).div_pochhammer(lows, 1)
                if n > 1:
                    t = t.mul_binomial(a_exp + step * (n - 2), -1) \
                        .div_binomial(a_exp + step * (2 * n - 3), -1)
                t = t.shift_q(a_exp - b_exp - c_exp - d_exp)
                p = p.div_pochhammer(lows, 1) + t
            out = p.mul_binomial(a_exp + 2 * step * n, -1)
            out = out.div_binomial(a_exp, -1).shift_q(exp)
            yield -out if n % 2 else out
            n += 1

    return alpha, partial(_ratio_terms, [(1, 0, lin)], lowers, step)


LOVEJOY_SPECS = ((3, 1, 1, 1, 1), (4, 1, 1, 2, 1), (6, 2, 2, 2, 2))


def _pairs_lovejoy(order: int):
    pairs = []
    for (ae, be, ce, de, s) in LOVEJOY_SPECS:
        alpha, beta = lovejoy_pair(ae, be, ce, de, s)
        tag = f"a=q^{ae} b=q^{be} c=q^{ce} d=q^{de} step={s}; "
        pairs += bailey_pair_pairs(alpha, beta, ae, s, order, n_max=3,
                                   tag=tag)
    return pairs


def _pairs_bailey_lemma(order: int):
    q3, q4 = lovejoy_pair(3, 1, 1, 1, 1), lovejoy_pair(4, 1, 1, 2, 1)
    return [(f"chain a={label}", *apply_bailey_lemma(*spec, order))
            for label, *spec in (
                ("q^4 rho=q^2,q^2", _alpha_q4q2, _beta_q4q2, 4, 2, 2, 2),
                ("q^3 rho=q,q", *q3, 3, 1, 1, 1),
                ("q^3 rho=q^2,q", *q3, 3, 2, 1, 1),
                ("q^4 rho=q^2,q", *q4, 4, 2, 1, 1))]


def _pairs_jtp(order: int):
    return [("triple-product", theta_sum(1, 0, 0, 1, order),
             theta_product(order))]


# -- catalog and verification ------------------------------------------------------

@dataclass(frozen=True)
class IdentityRecord:
    """One verifiable identity: a stable key, a short description, and a
    builder returning labeled (lhs, rhs) comparison pairs."""

    key: str
    description: str
    builder: Callable[[int], list]


_RECORDS = (
    IdentityRecord(
        "eq1.1",
        "Negative-index Pochhammer flip relating the rank summands",
        _pairs_eq11),
    IdentityRecord(
        "eq1.2",
        "Strongly unimodal rank series via the partition rank and a "
        "bilateral Lambert kernel",
        _pairs_eq12),
    IdentityRecord(
        "lemma3.1",
        "Signed overlined-sequence series via overpartition and partition "
        "ranks",
        _pairs_lemma31),
    IdentityRecord(
        "cor3.2",
        "Signed overlined-sequence series via eta quotients, a theta "
        "factor, and level 2 and 3 Appell sums",
        _pairs_cor32),
    IdentityRecord(
        "prop4.1",
        "Even-peak overlined series as three bilateral Lambert sums with "
        "infinite-product prefactors",
        _pairs_prop41),
    IdentityRecord(
        "cor4.2",
        "Even-peak overlined series via a level-2 Appell sum and a "
        "mu-function correction",
        _pairs_cor42),
    IdentityRecord(
        "false-dual",
        "Reciprocal-base dual of the even-peak overlined series as a "
        "signed theta-type sum",
        _pairs_false_dual),
    IdentityRecord(
        "prop5.1",
        "Even-peak series via two partition-type rank series and infinite "
        "products",
        _pairs_prop51),
    IdentityRecord(
        "cor5.2",
        "Even-peak series via level 2 and 3 Appell sums and theta "
        "quotients",
        _pairs_cor52),
    IdentityRecord(
        "prop5.3-mod2",
        "Mod-2 reduction of the even-peak series as a double theta-type "
        "sum",
        _pairs_prop53),
    IdentityRecord(
        "thetid",
        "Single-sum versus double-sum identity from the alpha/beta chain "
        "at a = q^4 over base q^2",
        _pairs_thetid),
    IdentityRecord(
        "prop5.4",
        "Double theta-type sum as a count of binary quadratic form values",
        _pairs_prop54),
    IdentityRecord(
        "omega",
        "Odd-base rank specialization via a third-order mock theta "
        "function",
        _pairs_omega),
    IdentityRecord(
        "heine",
        "Heine transformation of a 2phi1 series at monomial parameters",
        _pairs_heine),
    IdentityRecord(
        "watson",
        "Watson transformation of a very-well-poised 8phi7 at monomial "
        "parameters",
        _pairs_watson),
    IdentityRecord(
        "ab621",
        "Three-term partial-theta transformation for a balanced series",
        _pairs_ab621),
    IdentityRecord(
        "ab6312",
        "Two-term partial-theta expansion with an infinite-product "
        "prefactor",
        _pairs_ab6312),
    IdentityRecord(
        "bailey-lemma",
        "Limiting chain transform applied to verified alpha/beta pairs",
        _pairs_bailey_lemma),
    IdentityRecord(
        "lovejoy-bp",
        "Three-parameter alpha/beta pair construction at monomial "
        "parameters",
        _pairs_lovejoy),
    IdentityRecord(
        "jtp",
        "Triple-product expansion of the theta sum",
        _pairs_jtp),
)

REGISTRY = {r.key: r for r in _RECORDS}
IDENTITY_KEYS = tuple(REGISTRY)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying one catalog entry through q^order; ``depth`` is
    the smallest absolute depth compared over its pairs."""

    key: str
    passed: bool
    order: int
    first_mismatch: Optional[tuple]
    elapsed: float
    detail: str
    depth: Optional[int] = None


def _compare(lhs, rhs):
    """(equal, first mismatch, depth compared through, reason or None)."""
    if isinstance(lhs, PrefixedSeries) or isinstance(rhs, PrefixedSeries):
        res = lhs.compare(rhs)
        return res.equal, res.first_mismatch, res.through, res.reason
    if lhs.ring is not rhs.ring:
        raise UnirankError(
            f"ring mismatch: {lhs.ring.name} vs {rhs.ring.name}")
    through = min(lhs.order, rhs.order)
    n = lhs.first_mismatch(rhs, through)
    if n is None:
        return True, None, through, None
    if lhs.ring is ZETA:
        return False, (min((lhs.coeff(n) - rhs.coeff(n)).c), n), through, None
    return False, (0, n), through, None


def _perturbed(rhs, m: int, n: int):
    if isinstance(rhs, PrefixedSeries):
        if n > rhs.body.order:
            raise UnirankError(f"perturbation at q^{n} is beyond the order")
        bump = TruncatedSeries.monomial(ZETA, _zm(1, m), n, rhs.body.order)
        return PrefixedSeries(rhs.scalar, rhs.phase, rhs.zeta_half, rhs.q24,
                              rhs.body + bump)
    if n > rhs.order:
        raise UnirankError(f"perturbation at q^{n} is beyond the order")
    elem = _zm(1, m) if rhs.ring is ZETA else rhs.ring.one
    return rhs + TruncatedSeries.monomial(rhs.ring, elem, n, rhs.order)


def verify(key: str, order: Optional[int] = None,
           _perturb: Optional[tuple] = None) -> VerificationReport:
    """Expand both sides of the keyed identity and compare all coefficients.

    ``_perturb=(m, n)`` adds zeta^m q^n to the first right-hand side, which
    must make verification fail; it exists for negative-control tests.
    """
    if key not in REGISTRY:
        raise UnirankError(
            f"unknown identity key {key!r}; choices: {IDENTITY_KEYS}")
    if order is None:
        order = default_order()
    check_order(order)
    start = time.perf_counter()
    pairs = REGISTRY[key].builder(order)
    if _perturb is not None:
        m, n = _perturb
        label0, lhs0, rhs0 = pairs[0]
        pairs[0] = (label0, lhs0, _perturbed(rhs0, m, n))
    first = detail = least = None
    for label, lhs, rhs in pairs:
        ok, first, depth, reason = _compare(lhs, rhs)
        if depth is not None:
            least = depth if least is None else min(least, depth)
        if not ok:
            detail = f"{label}: first mismatch at {first}" if first \
                else f"{label}: {reason}"
            break
        if depth < order:
            detail = (f"{label}: compared only through q^{depth}, "
                      f"below q^{order}")
            break
    elapsed = time.perf_counter() - start
    passed = detail is None
    if passed:
        detail = f"{len(pairs)} comparison(s) agree through q^{order}"
    return VerificationReport(key, passed, order, first, elapsed, detail,
                              least)


def verify_all(order: Optional[int] = None) -> dict:
    """Verification reports for every catalog key, in catalog order."""
    return {key: verify(key, order) for key in IDENTITY_KEYS}


__all__ = [
    "IDENTITY_KEYS", "REGISTRY", "IdentityRecord", "VerificationReport",
    "verify", "verify_all",
    "bailey_pair_pairs", "check_bailey_pair", "apply_bailey_lemma",
    "lovejoy_pair",
    "HEINE_SPECS", "WATSON_SPECS", "WATSON_LIMIT_SPECS",
    "AB621_SPECS", "AB6312_SPECS", "LOVEJOY_SPECS",
]
