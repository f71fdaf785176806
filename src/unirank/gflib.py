"""Generating-function library.

Exact truncated expansions of the series behind each combinatorial family,
with a two-variable ring tracking the rank variable zeta alongside q, plus
the analytic building blocks (eta products, theta functions, Appell sums,
and bilateral Lambert-type series) used to state the identities.

``build(key, order)`` dispatches on the public series keys.  Every key but
P reads one row of ``rows.ROWS``, summed over ZETA by ``series.row_sum``.
A ``-q`` key, like U, is its two-variable row evaluated over ZZ
(``series.row_ints``), never a second formula, with q -> -q for the
families attached to even peaks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .rows import ROWS
from .series import (
    ZZ,
    ZETA,
    PrefixedSeries,
    TruncatedSeries,
    UnirankError,
    ZetaLaurent,
    pochhammer,
    row_ints,
    row_sum,
)

ANALYTIC_KEYS = ("eta", "theta", "mu", "appell")

DEFAULT_ORDER = 100
MAX_ORDER = 1000   # largest truncation order taken from outside


def check_order(order: int) -> None:
    """Reject a truncation order outside 1..MAX_ORDER."""
    if not 1 <= order <= MAX_ORDER:
        raise UnirankError(f"order must be between 1 and {MAX_ORDER}")


def default_order() -> int:
    """Truncation order, overridable through UNIRANK_ORDER."""
    raw = os.environ.get("UNIRANK_ORDER")
    if raw is None:
        return DEFAULT_ORDER
    try:
        value = int(raw)
    except ValueError:
        value = 0   # not an integer: rejected with the message below
    if not 1 <= value <= MAX_ORDER:
        raise UnirankError(
            f"UNIRANK_ORDER must be an integer between 1 and {MAX_ORDER}")
    return value


# -- P, the one series key that is not a row ---------------------------------

def series_P(order: int) -> TruncatedSeries:
    """1 / (q;q)_inf, one division pass per factor on the series 1."""
    return TruncatedSeries.one(ZZ, order).div_pochhammer((1, 0, 1))


# -- bilateral Lambert-type series ---------------------------------------------

@dataclass(frozen=True)
class BilateralSpec:
    """Sum over integer n of
    (-1)^(flip*n) * zeta^(step*n) * q^(quad*n^2 + lin*n + const)
        / (1 - pole_sign * zeta^pole_zeta * q^(pole_coeff*n + pole_shift)),
    with pole_sign = +-1 and 0 <= pole_shift < pole_coeff, so that only
    n = 0 can be singular.  A spec with pole_shift = 0 has that pole, the
    summand q^const / (1 - pole_sign * zeta^pole_zeta); no other spec has
    one.
    """

    flip: int
    quad: Fraction
    lin: Fraction
    const: int = 0
    step: int = 0
    pole_sign: int = 1
    pole_zeta: int = 1
    pole_coeff: int = 1
    pole_shift: int = 0


def bilateral_expand(spec: BilateralSpec, order: int) -> TruncatedSeries:
    """The bilateral sum through q^order, less its pole term if it has one.

    Two one-sided sums, over n >= 0 and n = -m < 0, each term a monomial
    divided by its pole in one binomial pass; for n < 0 the pole is first
    flipped, 1/(1 - x q^-r) = -x^-1 q^r / (1 - x^-1 q^r).  A term's
    valuation, its monomial's q power, is convex in n, so each half stops
    at its first term beyond the order: exact once that power does not
    fall from the half's first term to its second, and raising where it
    does.
    """
    if spec.quad <= 0:
        raise UnirankError("quadratic coefficient must be positive")
    if not 0 <= spec.pole_shift < spec.pole_coeff:
        raise UnirankError("bilateral pole needs 0 <= pole_shift < pole_coeff")
    if spec.pole_sign not in (1, -1):
        raise UnirankError(
            f"bilateral pole_sign must be 1 or -1, not {spec.pole_sign}")
    ps, pz = spec.pole_sign, spec.pole_zeta

    def term(n):
        """(coef, zeta power, q power, pole q power, pole zeta power) of
        summand n, its pole flipped to a positive q power for n < 0."""
        e = spec.quad * n * n + spec.lin * n + spec.const
        if e.denominator != 1:
            raise UnirankError(f"non-integral exponent at n={n}: {e}")
        sign = -1 if (spec.flip * n) % 2 else 1
        r = spec.pole_coeff * n + spec.pole_shift
        if n >= 0:
            return sign, spec.step * n, int(e), r, pz
        return -sign * ps, spec.step * n - pz, int(e) - r, -r, -pz

    acc = TruncatedSeries.zero(ZETA, order)
    for n, d in ((0, 1), (-1, -1)):
        if term(n + d)[2] < term(n)[2]:
            raise UnirankError(f"bilateral exponent falls after n={n}")
        while True:
            coef, ze, e, r, rz = term(n)
            if e > order:
                break
            if e < 0:
                raise UnirankError(f"negative valuation at n={n}")
            if r:
                acc = acc + TruncatedSeries.monomial(
                    ZETA, ZetaLaurent.monomial(coef, ze), e, order
                ).div_binomial(r, ZetaLaurent.monomial(-ps, rz))
            n += d
    return acc


# -- analytic building blocks ---------------------------------------------------

def eta_power(mult: int, order: int) -> PrefixedSeries:
    """Dedekind eta at mult*tau: q^(mult/24) * (q^mult; q^mult)_inf."""
    body = pochhammer([(1, 0, mult)], None, order, ring=ZETA, step=mult)
    return PrefixedSeries(1, 0, 0, mult, body)


def theta_sum(eps: int, a: int, b: int, s: int, order: int) -> PrefixedSeries:
    """Jacobi theta at (eps*z + a*tau + b/2; s*tau), as its defining sum."""
    if s < 1:
        raise UnirankError(f"theta base multiple s = {s} must be >= 1")
    body = [{} for _ in range(order + 1)]
    for direction in (1, -1):
        k = 0 if direction == 1 else -1
        while True:
            exp = s * k * (k + 1) // 2 + a * k
            if exp > order:
                break
            if exp < 0:
                raise UnirankError("theta parameters leave the lattice")
            c = -1 if (b + 1) % 2 and k % 2 else 1
            body[exp][eps * k] = body[exp].get(eps * k, 0) + c
            k += direction
    body = TruncatedSeries(ZETA, [ZetaLaurent(z) for z in body], order)
    return PrefixedSeries(1, b + 1, eps, 3 * s + 12 * a, body)


def theta_product(order: int) -> PrefixedSeries:
    """theta(z; tau) as the triple product
    -i q^(1/8) zeta^(-1/2) (q;q)_inf (zeta;q)_inf (zeta^-1 q;q)_inf."""
    body = pochhammer([(1, 0, 1), (1, 1, 1), (1, -1, 1)], None, order,
                      ring=ZETA)
    body = body.scalar_mul(ZetaLaurent({0: 1, 1: -1}))
    return PrefixedSeries(-1, 1, -1, 3, body)


@dataclass(frozen=True)
class PrefixedWithPoles:
    """A prefixed bilateral sum less its pole term, and the spec that
    fixes that term."""

    regular: PrefixedSeries
    spec: BilateralSpec

    def cleared(self) -> PrefixedSeries:
        """Times its pole's own denominator, 1 - pole_sign zeta^pole_zeta,
        which leaves the pole term's numerator q^const; a spec with no
        pole (pole_shift != 0) gives the regular series."""
        s = self.spec
        if s.pole_shift:
            return self.regular
        den = ZetaLaurent({0: 1, s.pole_zeta: -s.pole_sign})
        body = self.regular.body.scalar_mul(den)
        return self.regular._times(body=body + TruncatedSeries.monomial(
            ZETA, ZETA.one, s.const, body.order))


def appell_sum(ell: int, z1: tuple, z2: tuple, s: int,
               order: int) -> PrefixedWithPoles:
    """Level-ell Appell sum at z1 = (a1, b1), z2 = (a2, b2), base s*tau.

    z1 encodes z + a1*tau + b1/2 and z2 encodes a2*tau + b2/2 (the
    second argument is zeta-free).  It needs 0 <= a1 < s and has a
    pole, the term n = 0, only when a1 = 0.
    """
    (a1, b1), (a2, b2) = z1, z2
    if not 0 <= a1 < s:
        raise UnirankError(f"Appell sum needs 0 <= a1 < s: a1 = {a1}, s = {s}")
    half = Fraction(s * ell, 2)
    spec = BilateralSpec(flip=(ell + b2) % 2, quad=half, lin=half + a2,
                         pole_sign=-1 if b1 % 2 else 1, pole_coeff=s,
                         pole_shift=a1)
    prefix = PrefixedSeries(1, ell * b1, ell, 12 * ell * a1,
                            bilateral_expand(spec, order))
    return PrefixedWithPoles(prefix, spec)


def mu_sum(z1: tuple, z2: tuple, s: int, order: int) -> PrefixedSeries:
    """Two-variable mu at z1 = (a1, b1), z2 = (a2, b2), base s*tau, the
    first argument z + a1*tau + b1/2: the level-1 Appell sum, which needs
    a1 >= 1 to have no pole, divided by the theta function at z2."""
    if z1[0] == 0:
        raise UnirankError("mu needs a1 >= 1: at a1 = 0 it has a zeta pole")
    level1 = appell_sum(1, z1, z2, s, order).regular
    return level1 * theta_sum(0, z2[0], z2[1], s, order).invert()


# -- dispatch -------------------------------------------------------------------

SERIES_KEYS = ("P", "U", "Uzeta", "R", "Rbar", "Rbar2", "R2", "Ubar",
               "Ubar2", "U2", "Ubar-q", "Ubar2-q", "U2-q")
# the one-variable keys' rows, each key its row's ZZ image (at q -> -q for
# _NEGATE_Q) with the row's ZETA sum as its zeta refinement, but U, whose
# refinement is the key Uzeta; every other key but P is the row of its name
_ONE_VARIABLE = {"U": "Uzeta", "Ubar-q": "Ubar", "Ubar2-q": "Ubar2",
                 "U2-q": "U2"}
_NEGATE_Q = ("Ubar2-q", "U2-q")


def build(key: str, order: Optional[int] = None, zeta: bool = False):
    """Series for a public key; analytic keys give a prefixed series.

    With ``zeta`` a series key gives its zeta-refined form, which for the
    one-variable ``-q`` keys still carries the rank variable; keys without
    one raise UnirankError.
    """
    if order is None:
        order = default_order()
    check_order(order)
    if key in SERIES_KEYS:
        if zeta and key in ("P", "U"):
            raise UnirankError(f"series {key!r} has no zeta refinement; "
                               "try Uzeta or a rank series")
        if key == "P":
            return series_P(order)
        name = _ONE_VARIABLE.get(key, key)
        if zeta or key not in _ONE_VARIABLE:
            series = row_sum(ROWS[name], ZETA, order)
        else:
            series = TruncatedSeries(ZZ, row_ints(ROWS[name], order), order)
        return series.negate_q() if key in _NEGATE_Q else series
    if key == "eta":
        return eta_power(1, order)
    if key == "theta":
        return theta_sum(1, 0, 0, 1, order)
    if key == "mu":
        return mu_sum((1, 1), (0, 1), 2, order)
    if key == "appell":
        return appell_sum(2, (1, 1), (1, 1), 2, order).regular
    raise UnirankError(
        f"unknown key {key!r}; choices: {SERIES_KEYS + ANALYTIC_KEYS}")


__all__ = [
    "SERIES_KEYS", "ANALYTIC_KEYS", "DEFAULT_ORDER", "MAX_ORDER",
    "check_order", "default_order",
    "build",
    "series_P",
    "BilateralSpec", "bilateral_expand",
    "eta_power", "theta_sum", "theta_product",
    "PrefixedWithPoles", "appell_sum", "mu_sum",
]
