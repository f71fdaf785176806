"""Exact truncated power series over several coefficient rings.

Core objects:

* ``ZetaLaurent``: finite Laurent polynomial in an auxiliary unit ``zeta``.
  ZETA coefficients are integers; rationals only in the prefix scalar.
* ``TruncatedSeries``: dense truncated power series in ``q`` over one of the
  rings ``ZZ``, ``GF2``, ``QQ``, ``ZETA``.  Coefficients are ``int``,
  ``Fraction`` or ``ZetaLaurent`` values combined with Python's own
  ``+ - *``; GF2 coefficients are ints reduced mod 2 when a series is built.
* ``PrefixedSeries``: a series together with an exact monomial prefix
  ``scalar * i^phase * zeta^(zeta_half/2) * q^(q24/24)``, for objects that
  live on fractional exponent lattices; only the scalar is rational.
* ``pochhammer`` / ``pochhammer_prefixed``: finite, infinite, and
  negative-index q-Pochhammer products with monomial arguments.  Both are
  ``one(...).mul_pochhammer(...)``: ``mul_pochhammer`` and
  ``div_pochhammer`` on either series type apply one binomial pass per
  factor.  Divide by factors rather than invert a product; build an
  infinite quotient once and multiply it in once.

All arithmetic is exact; nothing here uses floating point except the explicit
``evaluate`` helpers used by numerical cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add, neg, sub
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union


class UnirankError(Exception):
    """Base class for all package errors."""


class OrderMismatchError(UnirankError):
    """Binary operation on series with different truncation orders."""


class NotInvertibleError(UnirankError):
    """Inversion of a non-unit (constant term not invertible)."""


class CoefficientRangeError(UnirankError):
    """Coefficient index outside the tracked truncation range."""


class SingularPochhammerError(UnirankError):
    """Negative-index Pochhammer whose factors are not invertible."""


class LatticeMismatchError(UnirankError):
    """Prefixed series on incompatible fractional exponent lattices."""


Scalar = Union[int, Fraction]


def _norm_scalar(c: Fraction) -> Scalar:
    """Collapse an integral Fraction to int."""
    return int(c) if c.denominator == 1 else c


def _zl(cc: dict) -> "ZetaLaurent":
    """Wrap a dict of nonzero ints, unchecked."""
    out = object.__new__(ZetaLaurent)
    out.c = cc
    return out


class ZetaLaurent:
    """Finite Laurent polynomial in ``zeta`` with integer coefficients.

    ``c`` maps each exponent to its nonzero int coefficient.  The
    constructor checks integrality once, so the operations use plain int
    arithmetic.  Immutable by convention: no method mutates ``self``.
    """

    __slots__ = ("c",)

    def __init__(self, data: Optional[dict] = None):
        cc = {}
        if data:
            for m, v in data.items():
                if int(v) != v:
                    raise UnirankError(f"non-integral zeta coefficient {v!r}")
                if v:
                    cc[int(m)] = int(v)
        self.c = cc

    @classmethod
    def from_int(cls, k: int) -> "ZetaLaurent":
        return cls({0: k})

    @classmethod
    def monomial(cls, coef: int, exp: int) -> "ZetaLaurent":
        return cls({exp: coef})

    def coeff(self, m: int) -> int:
        return self.c.get(m, 0)

    def items(self):
        return sorted(self.c.items())

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ZetaLaurent:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for m, v in self.items():
            if m == 0:
                parts.append(str(v))
            elif m == 1:
                parts.append(f"{v}*z")
            else:
                parts.append(f"{v}*z^{m}")
        return " + ".join(parts)

    def __add__(self, other) -> "ZetaLaurent":
        if other.__class__ is not ZetaLaurent:
            return NotImplemented
        cc = self.c.copy()
        for m, v in other.c.items():
            w = cc.get(m, 0) + v
            if w:
                cc[m] = w
            else:
                del cc[m]
        return _zl(cc)

    def __neg__(self) -> "ZetaLaurent":
        return _zl({m: -v for m, v in self.c.items()})

    def __sub__(self, other) -> "ZetaLaurent":
        return self + (-other)

    def __mul__(self, other) -> "ZetaLaurent":
        if other.__class__ is not ZetaLaurent:
            if isinstance(other, int):
                return self.scale(other)
            return NotImplemented
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            ((e, k),) = b.items()
            return _zl({m + e: v * k for m, v in a.items()})
        cc: dict = {}
        get = cc.get
        for m2, v2 in b.items():
            for m1, v1 in a.items():
                m = m1 + m2
                cc[m] = get(m, 0) + v1 * v2
        return _zl({m: v for m, v in cc.items() if v})

    __rmul__ = __mul__

    def scale(self, k: int) -> "ZetaLaurent":
        """Multiply by the integer ``k``."""
        if not k:
            return _zl({})
        return _zl({m: v * k for m, v in self.c.items()})

    def bar(self) -> "ZetaLaurent":
        """Substitute zeta -> zeta^(-1)."""
        return _zl({-m: v for m, v in self.c.items()})

    def negate_zeta(self) -> "ZetaLaurent":
        """Substitute zeta -> -zeta."""
        return _zl({m: (-v if m & 1 else v) for m, v in self.c.items()})

    def shift(self, e: int) -> "ZetaLaurent":
        """Multiply by zeta^e."""
        if not e:
            return self
        return _zl({m + e: v for m, v in self.c.items()})

    def zeta_sum(self) -> int:
        """Evaluate at zeta = 1."""
        return sum(self.c.values())

    def monomial_parts(self) -> tuple:
        if len(self.c) != 1:
            raise NotInvertibleError(f"not a monomial: {self!r}")
        ((m, v),) = self.c.items()
        return v, m

    def invert(self) -> "ZetaLaurent":
        """Inverse of a unit, +-zeta^e."""
        v, m = self.monomial_parts()
        if v not in (1, -1):
            raise NotInvertibleError(f"{self!r} is not a unit")
        return _zl({-m: v})

    def divexact_one_minus(self, sigma: int, e: int) -> "ZetaLaurent":
        """Exact division by (1 - sigma * zeta^e), sigma in {1, -1}, e != 0.

        Raises NotInvertibleError when the division is not exact.
        """
        if sigma not in (1, -1) or e == 0:
            raise ValueError("need sigma in {1,-1} and e != 0")
        if e < 0:
            # zeta -> 1/zeta is a ring map taking (1 - s*z^e) to (1 - s*z^-e)
            return self.bar().divexact_one_minus(sigma, -e).bar()
        if not self.c:
            return _zl({})
        lo = min(self.c)
        hi = max(self.c)
        out: dict = {}
        # w[m] = z[m] + sigma * w[m-e], ascending in m
        for m in range(lo, hi + 1):
            w = self.c.get(m, 0) + sigma * out.get(m - e, 0)
            if w:
                out[m] = w
        # verify exactness: top e coefficients of w must vanish beyond hi
        for m in range(hi + 1, hi + e + 1):
            if out.get(m - e, 0):
                raise NotInvertibleError(
                    f"division by (1 - {sigma}*zeta^{e}) not exact for {self!r}")
        return _zl(out)

    def evaluate(self, z: complex) -> complex:
        return sum(complex(v) * z**m for m, v in self.c.items())


def _int_unit_inverse(a):
    if a in (1, -1):
        return a
    raise NotInvertibleError(f"{a} is not a unit")


def _fraction_inverse(a):
    if not a:
        raise NotInvertibleError("0 is not a unit in QQ")
    return 1 / Fraction(a)


class Ring(NamedTuple):
    """A coefficient ring of ``TruncatedSeries``.

    Coefficients are added, negated and multiplied with Python's own
    ``+ - *`` and tested for zero by truth value, so the record only names
    the ring, makes its constants and inverts a unit.
    """

    name: str
    zero: object
    one: object
    from_int: Callable
    unit_inverse: Callable


ZZ = Ring("ZZ", 0, 1, int, _int_unit_inverse)
# GF2 coefficients are ints reduced mod 2 when a series is built; reduction
# is a ring map from ZZ, so an operation done over ZZ and reduced once is
# the same operation over GF2
GF2 = Ring("GF2", 0, 1, lambda k: int(k) & 1, _int_unit_inverse)
QQ = Ring("QQ", Fraction(0), Fraction(1), Fraction, _fraction_inverse)
ZETA = Ring("ZETA", ZetaLaurent(), ZetaLaurent.from_int(1),
            ZetaLaurent.from_int, ZetaLaurent.invert)


class TruncatedSeries:
    """Dense power series in q, exact through q^order inclusive."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, coeffs: Sequence, order: Optional[int] = None):
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = list(coeffs[: order + 1])
        if ring is GF2:
            cs = [c & 1 for c in cs]
        cs += [ring.zero] * (order + 1 - len(cs))
        self.ring = ring
        self.order = order
        self.coeffs = cs

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring, order: int) -> "TruncatedSeries":
        return cls(ring, [], order)

    @classmethod
    def one(cls, ring, order: int) -> "TruncatedSeries":
        return cls(ring, [ring.one], order)

    @classmethod
    def monomial(cls, ring, coef, exp: int, order: int) -> "TruncatedSeries":
        if exp < 0:
            raise CoefficientRangeError("negative exponent in plain series")
        return cls(ring, [ring.zero] * min(exp, order + 1) + [coef], order)

    @classmethod
    def from_int_coeffs(cls, ring, ints: Sequence[int], order: int) -> "TruncatedSeries":
        return cls(ring, [ring.from_int(k) for k in ints], order)

    # -- access ------------------------------------------------------------

    def coeff(self, n: int):
        if n < 0:
            return self.ring.zero
        if n > self.order:
            raise CoefficientRangeError(
                f"coefficient q^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def valuation(self) -> Optional[int]:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.ring is other.ring and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(repr(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries({self.ring.name}, N={self.order}; [{head}{tail}])"

    # -- ring ops ----------------------------------------------------------

    def _check(self, other: "TruncatedSeries") -> None:
        if self.ring is not other.ring:
            raise UnirankError(
                f"ring mismatch: {self.ring.name} vs {other.ring.name}")
        if self.order != other.order:
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.order)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, [-a for a in self.coeffs], self.order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = [self.ring.zero] * (n + 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(0, n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        return TruncatedSeries(self.ring, out, n)

    def scalar_mul(self, c) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, [c * a for a in self.coeffs], self.order)

    def mul_binomial(self, k: int, c) -> "TruncatedSeries":
        """Multiply by (1 + c q^k), k >= 0; k = 0 multiplies by (1 + c)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        out = list(self.coeffs)
        src = self.coeffs
        for i in range(k, self.order + 1):
            out[i] = out[i] + c * src[i - k]
        return TruncatedSeries(self.ring, out, self.order)

    def div_binomial(self, k: int, c) -> "TruncatedSeries":
        """Divide by (1 + c q^k), k >= 1."""
        if k < 1:
            raise ValueError("k must be >= 1")
        out = list(self.coeffs)
        for i in range(k, self.order + 1):
            out[i] = out[i] - c * out[i - k]
        return TruncatedSeries(self.ring, out, self.order)

    def mul_pochhammer(self, factors, n: Optional[int] = None,
                       step: int = 1) -> "TruncatedSeries":
        """Multiply by ``(factors; q^step)_n`` (see ``pochhammer``)."""
        return _pochhammer_pass(self, factors, n, step, False)

    def div_pochhammer(self, factors, n: Optional[int] = None,
                       step: int = 1) -> "TruncatedSeries":
        """Divide by ``(factors; q^step)_n``, one binomial pass per factor."""
        return _pochhammer_pass(self, factors, n, step, True)

    def invert(self) -> "TruncatedSeries":
        a = self.coeffs
        try:
            u = self.ring.unit_inverse(a[0])
        except NotInvertibleError as exc:
            raise NotInvertibleError(
                f"constant term {a[0]!r} is not a unit") from exc
        n = self.order
        out = [u] + [self.ring.zero] * n
        for i in range(1, n + 1):
            acc = self.ring.zero
            for k in range(1, i + 1):
                ak = a[k]
                if ak:
                    acc = acc + ak * out[i - k]
            out[i] = -(u * acc)
        return TruncatedSeries(self.ring, out, n)

    # -- structural ops ----------------------------------------------------

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderMismatchError(
                f"cannot extend truncation {self.order} to {order}")
        return TruncatedSeries(self.ring, self.coeffs[: order + 1], order)

    def shift_q(self, d: int) -> "TruncatedSeries":
        """Multiply by q^d.  Negative d requires vanishing low coefficients
        and lowers the tracked order by |d|."""
        if d == 0:
            return self
        if d > 0:
            out = [self.ring.zero] * d + self.coeffs[: self.order + 1 - d]
            return TruncatedSeries(self.ring, out, self.order)
        m = -d
        for i in range(min(m, self.order + 1)):
            if self.coeffs[i]:
                raise CoefficientRangeError(
                    f"shift by q^{d} hits nonzero coefficient at q^{i}")
        if m > self.order:
            raise OrderMismatchError("shift exceeds truncation order")
        return TruncatedSeries(self.ring, self.coeffs[m:], self.order - m)

    def substitute_q_power(self, k: int, order: Optional[int] = None) -> "TruncatedSeries":
        """Substitute q -> q^k, k >= 1; result exact through ``order``."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if order is None:
            order = self.order
        need = order // k
        if need > self.order:
            raise OrderMismatchError(
                f"substitution needs source order {need}, have {self.order}")
        out = [self.ring.zero] * (order + 1)
        for i in range(need + 1):
            out[i * k] = self.coeffs[i]
        return TruncatedSeries(self.ring, out, order)

    def negate_q(self) -> "TruncatedSeries":
        """Substitute q -> -q."""
        out = [c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)]
        return TruncatedSeries(self.ring, out, self.order)

    # -- ZETA-specific helpers ----------------------------------------------

    def _need_zeta(self) -> None:
        if self.ring is not ZETA:
            raise UnirankError("operation requires the ZETA coefficient ring")

    def bar(self) -> "TruncatedSeries":
        """Substitute zeta -> zeta^(-1) in every coefficient."""
        self._need_zeta()
        return TruncatedSeries(ZETA, [c.bar() for c in self.coeffs], self.order)

    def negate_zeta(self) -> "TruncatedSeries":
        """Substitute zeta -> -zeta in every coefficient."""
        self._need_zeta()
        return TruncatedSeries(ZETA, [c.negate_zeta() for c in self.coeffs], self.order)

    def marginal(self) -> "TruncatedSeries":
        """Evaluate zeta = 1 coefficientwise; integer result over ZZ."""
        self._need_zeta()
        return TruncatedSeries(ZZ, [c.zeta_sum() for c in self.coeffs],
                               self.order)

    def iter_zeta_entries(self) -> Iterator[tuple]:
        """Yield (m, n, c) for all nonzero coefficients, sorted by (n, m)."""
        self._need_zeta()
        for n, zl in enumerate(self.coeffs):
            for m, v in zl.items():
                yield m, n, v

    # -- comparisons and diagnostics ----------------------------------------

    def first_mismatch(self, other: "TruncatedSeries",
                       through: Optional[int] = None) -> Optional[int]:
        if through is None:
            through = min(self.order, other.order)
        for n in range(through + 1):
            a = self.coeffs[n] if n <= self.order else self.ring.zero
            b = other.coeffs[n] if n <= other.order else other.ring.zero
            if a != b:
                return n
        return None

    # -- numerics -----------------------------------------------------------

    def evaluate(self, q0: complex, z0: Optional[complex] = None) -> complex:
        total = 0j
        for n, c in enumerate(self.coeffs):
            if self.ring is ZETA:
                if z0 is None:
                    raise ValueError("ZETA series needs z0")
                total += c.evaluate(z0) * q0**n
            else:
                total += complex(c) * q0**n
        return total


def term_sum(term: TruncatedSeries,
             step: Callable[[TruncatedSeries, int], TruncatedSeries]
             ) -> TruncatedSeries:
    """Sum of term_0 + term_1 + ... with term_n = step(term_(n-1), n).

    Stops at the first term that vanishes through the order.  The stop is
    exact: a step is built from shifts, binomial passes and scalar
    multiples, none of which reads a coefficient above the one it writes,
    so once a term vanishes through the order every later term does too.
    """
    acc = TruncatedSeries.zero(term.ring, term.order)
    n = 1
    while not term.is_zero():
        acc = acc + term
        term = step(term, n)
        n += 1
    return acc


# -- in-place binomial passes on integer coefficient lists -------------------

def mul_binomial_ints(c: list, k: int, b: int) -> None:
    """Multiply the integer coefficient list ``c`` by (1 + b q^k) in place."""
    if b in (1, -1):
        c[k:] = map(add if b == 1 else sub, c[k:], c[:max(len(c) - k, 0)])
        return
    for i in range(len(c) - 1, k - 1, -1):
        c[i] += b * c[i - k]


def div_binomial_ints(c: list, k: int, b: int) -> None:
    """Divide the integer coefficient list ``c`` by (1 + b q^k) in place,
    k >= 1.  For b = -1 a running sum along each residue class mod k (in
    blocks of k when k * k >= len); for b = 1 the alternating one."""
    if k < 1:
        raise UnirankError("binomial divisor needs q power >= 1")
    n = len(c)
    if b not in (1, -1):
        for i in range(k, n):
            c[i] -= b * c[i - k]
    elif k * k >= n:
        op = sub if b == 1 else add
        for j in range(k, n, k):
            c[j:j + k] = map(op, c[j:j + k], c[j - k:j])
    else:
        for r in range(k):
            row = c[r::k]
            if b == 1:
                row[1::2] = map(neg, row[1::2])
            row = list(accumulate(row))
            if b == 1:
                row[1::2] = map(neg, row[1::2])
            c[r::k] = row


# -- monomials and Pochhammer products ---------------------------------------

# (coef, zeta_exp, q_exp) represents coef * zeta^zeta_exp * q^q_exp
Monomial = tuple


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return (_norm_scalar(Fraction(a[0]) * Fraction(b[0])), a[1] + b[1], a[2] + b[2])

def monomial_inv(a: Monomial) -> Monomial:
    return (_norm_scalar(Fraction(1) / Fraction(a[0])), -a[1], -a[2])

def monomial_neg(a: Monomial) -> Monomial:
    return (_norm_scalar(-Fraction(a[0])), a[1], a[2])


def _as_factor_list(factors) -> list:
    if isinstance(factors, tuple) and len(factors) == 3 and not isinstance(
            factors[0], tuple):
        return [factors]
    return list(factors)


def _coef_elem(ring, c: Scalar, e: int):
    """Ring element for c * zeta^e."""
    if ring is ZETA:
        return ZetaLaurent.monomial(c, e)
    if e != 0:
        raise UnirankError(f"zeta exponent {e} outside the ZETA ring")
    if ring is QQ:
        return Fraction(c)
    if isinstance(c, Fraction) and c.denominator != 1:
        raise UnirankError(f"rational coefficient {c} outside {ring.name}")
    return ring.from_int(int(c))


def _factor_exponents(fs: list, n: Optional[int], order: int, step: int):
    """(c, e, r) for each factor (1 - c zeta^e q^r) of (fs; q^step)_n with
    r <= order; n >= 0, or None for the infinite product."""
    for (c, e, t) in fs:
        if n is None and t < 1:
            raise SingularPochhammerError(
                f"infinite product needs q_exp >= 1, got {t}")
        count = n if n is not None else (order - t) // step + 1
        for r in range(t, t + step * count, step):
            if r > order:
                break
            yield c, e, r


def one_minus_split(c: Scalar, e: int, r: int):
    """Write (1 - c zeta^e q^r) as prefix * (1 + b zeta^z q^k) with k >= 0.

    Returns ``(prefix, k, (b, z))`` with ``prefix`` a monomial (coef,
    zeta_exp, q_exp).  A factor with r < 0 is rewritten
    ``(1 - c zeta^e q^r) = (-c zeta^e q^r) (1 - c^{-1} zeta^{-e} q^{-r})``
    so that its monomial moves into the prefix.
    """
    if r >= 0:
        return (1, 0, 0), r, (-c, e)
    return (-c, e, r), -r, (_norm_scalar(-1 / Fraction(c)), -e)


def pochhammer(factors, n: Optional[int], order: int, ring=ZETA,
               step: int = 1) -> TruncatedSeries:
    """q-Pochhammer product ``(a_1, ..., a_k; q^step)_n`` as a plain series.

    ``factors`` is a monomial ``(c, zeta_exp, q_exp)`` or a list of them;
    ``n`` is a non-negative int, a negative int (reciprocal convention), or
    ``None`` for the infinite product.  Factors must stay representable as a
    power series: any factor needing a negative q power raises
    SingularPochhammerError (use ``pochhammer_prefixed`` for those).
    """
    return TruncatedSeries.one(ring, order).mul_pochhammer(factors, n, step)


class PrefixedSeries:
    """A ZETA-ring series with exact monomial prefix.

    Value represented:  ``scalar * i^phase * zeta^(zeta_half/2)
    * q^(q24/24) * body(zeta, q)`` with ``scalar`` rational, ``phase`` in
    {0,1} (factors of i^2 are folded into the scalar sign), ``zeta_half`` and
    ``q24`` integers, and ``body`` a TruncatedSeries over ZETA.
    """

    __slots__ = ("scalar", "phase", "zeta_half", "q24", "body")

    def __init__(self, scalar: Scalar, phase: int, zeta_half: int, q24: int,
                 body: TruncatedSeries):
        if body.ring is not ZETA:
            raise UnirankError("PrefixedSeries body must be over ZETA")
        scalar = Fraction(scalar)
        phase = phase % 4
        if phase >= 2:
            scalar = -scalar
            phase -= 2
        self.scalar = scalar
        self.phase = phase
        self.zeta_half = zeta_half
        self.q24 = q24
        self.body = body

    @classmethod
    def from_series(cls, body: TruncatedSeries) -> "PrefixedSeries":
        return cls(1, 0, 0, 0, body)

    @classmethod
    def one(cls, order: int) -> "PrefixedSeries":
        return cls(1, 0, 0, 0, TruncatedSeries.one(ZETA, order))

    def __repr__(self) -> str:
        return (f"PrefixedSeries({self.scalar} * i^{self.phase} "
                f"* zeta^({self.zeta_half}/2) * q^({self.q24}/24) * {self.body!r})")

    def is_zero(self) -> bool:
        return self.scalar == 0 or self.body.is_zero()

    def times_scalar(self, c: Scalar) -> "PrefixedSeries":
        return PrefixedSeries(self.scalar * Fraction(c), self.phase,
                              self.zeta_half, self.q24, self.body)

    def times_i_power(self, k: int) -> "PrefixedSeries":
        return PrefixedSeries(self.scalar, self.phase + k, self.zeta_half,
                              self.q24, self.body)

    def times_zeta_half(self, k: int) -> "PrefixedSeries":
        return PrefixedSeries(self.scalar, self.phase, self.zeta_half + k,
                              self.q24, self.body)

    def times_q24(self, k: int) -> "PrefixedSeries":
        return PrefixedSeries(self.scalar, self.phase, self.zeta_half,
                              self.q24 + k, self.body)

    def times_body(self, z: ZetaLaurent) -> "PrefixedSeries":
        return PrefixedSeries(self.scalar, self.phase, self.zeta_half,
                              self.q24, self.body.scalar_mul(z))

    def __mul__(self, other: "PrefixedSeries") -> "PrefixedSeries":
        if not isinstance(other, PrefixedSeries):
            return NotImplemented
        a, b = self.body, other.body
        if a.order != b.order:
            m = min(a.order, b.order)
            a, b = a.truncate(m), b.truncate(m)
        return PrefixedSeries(self.scalar * other.scalar,
                              self.phase + other.phase,
                              self.zeta_half + other.zeta_half,
                              self.q24 + other.q24, a * b)

    def mul_binomial(self, k: int, c: ZetaLaurent) -> "PrefixedSeries":
        return PrefixedSeries(self.scalar, self.phase, self.zeta_half,
                              self.q24, self.body.mul_binomial(k, c))

    def div_binomial(self, k: int, c: ZetaLaurent) -> "PrefixedSeries":
        return PrefixedSeries(self.scalar, self.phase, self.zeta_half,
                              self.q24, self.body.div_binomial(k, c))

    def times_monomial(self, mono: Monomial) -> "PrefixedSeries":
        """Multiply by the monomial (coef, zeta_exp, q_exp)."""
        c, z, e = mono
        return PrefixedSeries(self.scalar * Fraction(c), self.phase,
                              self.zeta_half + 2 * z, self.q24 + 24 * e,
                              self.body)

    def mul_pochhammer(self, factors, n: Optional[int] = None,
                       step: int = 1) -> "PrefixedSeries":
        """Multiply by ``(factors; q^step)_n``; see ``pochhammer_prefixed``."""
        return _pochhammer_pass(self, factors, n, step, False)

    def div_pochhammer(self, factors, n: Optional[int] = None,
                       step: int = 1) -> "PrefixedSeries":
        """Divide by ``(factors; q^step)_n``, one binomial pass per factor."""
        return _pochhammer_pass(self, factors, n, step, True)

    def invert(self) -> "PrefixedSeries":
        v = self.body.valuation()
        if v is None:
            raise NotInvertibleError("cannot invert the zero series")
        if self.scalar == 0:
            raise NotInvertibleError("cannot invert zero scalar")
        b = self.body.shift_q(-v)
        cu, eu = b.coeffs[0].monomial_parts()
        n = b.order
        # with d the content of the body and lead c d zeta^eu, 1/B(q) is
        # sum_i g_i c^(n-i) q^i / (d c^(n+1)) for g = 1/E and the integral,
        # unit-lead E(q) = B(cq) zeta^-eu / (c d); d = lead when c = 1
        d = gcd(*(w for z in b.coeffs for w in z.c.values()))
        c = cu // d
        e = [ZETA.one] + [
            _zl({m - eu: w // d * c ** i for m, w in z.c.items()})
            for i, z in enumerate(b.coeffs[1:])]
        g = TruncatedSeries(ZETA, e, n).invert().coeffs
        inv = [z * c ** (n - i) for i, z in enumerate(g)]
        return PrefixedSeries(1 / (self.scalar * d * c ** (n + 1)),
                              -self.phase, -self.zeta_half - 2 * eu,
                              -self.q24 - 24 * v, TruncatedSeries(ZETA, inv, n))

    def negate(self) -> "PrefixedSeries":
        return self.times_scalar(-1)

    def _aligned_bodies(self, other: "PrefixedSeries"):
        """Push both prefixes onto the bodies over a common lattice point.

        Returns (body_self, body_other, scalar, phase, zeta_half, q24) or
        raises LatticeMismatchError.  The common scalar is the rational gcd
        of the two scalars, so the bodies are scaled by integers.
        """
        dp = (other.phase - self.phase) % 4
        dz = other.zeta_half - self.zeta_half
        dq = other.q24 - self.q24
        if dp % 2 != 0 or dz % 2 != 0 or dq % 24 != 0:
            raise LatticeMismatchError(
                f"prefix lattices differ: d_phase={dp}, d_zeta_half={dz}, "
                f"d_q24={dq}")
        # align to self's lattice point for zeta/phase, min for q
        q24 = min(self.q24, other.q24)
        sa = self.scalar
        sb = other.scalar * (-1) ** ((dp % 4) // 2)
        g = Fraction(gcd(sa.numerator, sb.numerator),
                     lcm(sa.denominator, sb.denominator))
        za = ZetaLaurent.monomial(sa / g, 0)
        zb = ZetaLaurent.monomial(sb / g, dz // 2)
        a = self.body.scalar_mul(za).shift_q((self.q24 - q24) // 24)
        b = other.body.scalar_mul(zb).shift_q((other.q24 - q24) // 24)
        m = min(a.order, b.order)
        return (a.truncate(m), b.truncate(m), g, self.phase, self.zeta_half,
                q24)

    def add(self, other: "PrefixedSeries") -> "PrefixedSeries":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b, g, phase, zh, q24 = self._aligned_bodies(other)
        return PrefixedSeries(g, phase, zh, q24, a + b)

    def __add__(self, other):
        if not isinstance(other, PrefixedSeries):
            return NotImplemented
        return self.add(other)

    def __sub__(self, other):
        if not isinstance(other, PrefixedSeries):
            return NotImplemented
        return self.add(other.negate())

    def compare(self, other: "PrefixedSeries") -> "ComparisonResult":
        if self.is_zero() and other.is_zero():
            return ComparisonResult(True, None, None,
                                    min(self.body.order, other.body.order))
        if self.is_zero() or other.is_zero():
            a, b = (self, other) if other.is_zero() else (other, self)
            n = a.body.valuation()
            m = min(a.body.coeff(n).c) if n is not None else None
            return ComparisonResult(False, "one side is zero", (m, n), None)
        try:
            a, b = self._aligned_bodies(other)[:2]
        except LatticeMismatchError as exc:
            return ComparisonResult(False, str(exc), None, None)
        through = min(a.order, b.order)
        for n in range(through + 1):
            if a.coeffs[n] != b.coeffs[n]:
                diff = a.coeffs[n] - b.coeffs[n]
                m = min(diff.c)
                return ComparisonResult(False, "coefficient mismatch",
                                        (m, n), through)
        return ComparisonResult(True, None, None, through)

    def evaluate(self, q0: complex, z0: complex) -> complex:
        pre = (complex(self.scalar) * (1j)**self.phase
               * z0**(self.zeta_half / 2.0) * q0**(self.q24 / 24.0))
        return pre * self.body.evaluate(q0, z0)


class ComparisonResult:
    """Outcome of an exact prefixed-series comparison."""

    __slots__ = ("equal", "reason", "first_mismatch", "through")

    def __init__(self, equal: bool, reason, first_mismatch, through):
        self.equal = equal
        self.reason = reason
        self.first_mismatch = first_mismatch
        self.through = through

    def __bool__(self):
        return self.equal

    def __repr__(self):
        if self.equal:
            return f"ComparisonResult(equal through q^{self.through})"
        return (f"ComparisonResult(unequal: {self.reason}, "
                f"first mismatch {self.first_mismatch})")


def pochhammer_prefixed(factors, n: Optional[int], order: int,
                        step: int = 1) -> PrefixedSeries:
    """q-Pochhammer product as a PrefixedSeries, allowing negative q powers.

    The monomial of a factor with negative exponent moves into the prefix,
    and exponent-zero factors ``(1 - c zeta^e)`` are multiplied into the
    body as constants.
    """
    return PrefixedSeries.one(order).mul_pochhammer(factors, n, step)


def _pochhammer_pass(s, factors, n: Optional[int], step: int, divide: bool):
    """``s`` times, or divided by, ``(factors; q^step)_n``: one binomial
    pass per factor (1 - c zeta^e q^r), split by ``one_minus_split``.

    A negative ``n`` is the other direction on the shifted factors,
    ``(a; q^step)_{-m} = 1 / (a q^{-m step}; q^step)_m``.  A plain series
    rejects a factor with r < 0; a prefixed series moves its monomial into
    the prefix (out of it when dividing).  A factor with r = 0 multiplies in
    as a constant and is never divided by.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    fs = _as_factor_list(factors)
    if n is not None and n < 0:
        fs = [(c, e, t + step * n) for (c, e, t) in fs]
        n, divide = -n, not divide
    prefixed = isinstance(s, PrefixedSeries)
    body = s.body if prefixed else s
    for c, e, r in _factor_exponents(fs, n, body.order, step):
        prefix, k, (bc, be) = one_minus_split(c, e, r)
        if divide and k == 0:
            raise SingularPochhammerError(
                f"cannot divide by the constant factor (1 - {c} zeta^{e})")
        if r < 0:
            if not prefixed:
                raise SingularPochhammerError(
                    f"factor (1 - c q^{r}) not a power series; "
                    "use pochhammer_prefixed")
            s = s.times_monomial(monomial_inv(prefix) if divide else prefix)
        if prefixed and bc.denominator != 1:
            # 1 + (p/r) zeta^be q^k = (r + p zeta^be q^k) / r, body integral
            one = TruncatedSeries.one(ZETA, body.order)
            f = PrefixedSeries(Fraction(1, bc.denominator), 0, 0, 0,
                               one.scalar_mul(bc.denominator) + one.shift_q(k)
                               .scalar_mul(_coef_elem(ZETA, bc.numerator, be)))
            s = s * (f.invert() if divide else f)
        else:
            b = _coef_elem(body.ring, bc, be)
            s = s.div_binomial(k, b) if divide else s.mul_binomial(k, b)
    return s


__all__ = [
    "UnirankError", "OrderMismatchError", "NotInvertibleError",
    "CoefficientRangeError", "SingularPochhammerError", "LatticeMismatchError",
    "ZetaLaurent", "TruncatedSeries", "PrefixedSeries", "ComparisonResult",
    "ZZ", "GF2", "QQ", "ZETA",
    "pochhammer", "pochhammer_prefixed", "one_minus_split", "term_sum",
    "mul_binomial_ints", "div_binomial_ints",
    "monomial_mul", "monomial_inv", "monomial_neg",
]
