"""Exact truncated power series over several coefficient rings.

Core objects:

* ``ZetaLaurent``: finite Laurent polynomial in an auxiliary unit ``zeta``,
  the boundary type of ZETA coefficients: integers only; rationals live only
  in the prefix scalar.
* ``TruncatedSeries``: dense truncated power series in ``q`` over one of the
  rings ``ZZ``, ``GF2``, ``QQ``, ``ZETA``.  Coefficients are ``int`` or
  ``Fraction`` values combined with Python's own ``+ - *``; GF2 ones are
  reduced mod 2 when a series is built; a ZETA one is packed into one int.
* ``PrefixedSeries``: a series together with an exact monomial prefix
  ``scalar * i^phase * zeta^(zeta_half/2) * q^(q24/24)``, for objects that
  live on fractional exponent lattices; only the scalar is rational.
* ``pochhammer`` / ``pochhammer_prefixed``: finite, infinite, and
  negative-index q-Pochhammer products with monomial arguments.  Both are
  ``one(...).mul_pochhammer(...)``: ``mul_pochhammer`` and
  ``div_pochhammer`` on either series type apply one binomial pass per
  factor.  A series times a Pochhammer or eta quotient is passes on that
  series; a product is built only where it is the value itself.
* ``term_sum(first, ratio_step(ups, downs, mult, quad, step))``: the one
  way a series is summed, each step one Pochhammer pass over the ups, the
  multiplier and one over the downs, stopping exactly at the order.  A
  ``Row`` is such a sum as data: ``row_sum`` sums it over a ring, and
  ``row_ints`` its ZZ image, every zeta exponent dropped, on int lists.

All arithmetic is exact; nothing here uses floating point except the explicit
``evaluate`` helpers used by numerical cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import gcd, lcm
from operator import add, mul, neg, or_, sub
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

    ``c`` maps each exponent to its nonzero int coefficient; the constructor
    checks integrality.  ``+ - *`` run through the packed series kernel on a
    single coefficient, except ``*`` by an int, which scales each entry.
    Immutable by convention: no method mutates ``self``.
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
        return (_single(self) + _single(other)).coeff(0)

    def __neg__(self) -> "ZetaLaurent":
        return _zl({m: -v for m, v in self.c.items()})

    def __sub__(self, other) -> "ZetaLaurent":
        return self + (-other)

    def __mul__(self, other) -> "ZetaLaurent":
        if other.__class__ is int:
            return _zl({m: v * other for m, v in self.c.items()} if other
                       else {})
        if other.__class__ is not ZetaLaurent:
            return NotImplemented
        return _single(self).scalar_mul(other).coeff(0)

    __rmul__ = __mul__

    def bar(self) -> "ZetaLaurent":
        """Substitute zeta -> zeta^(-1)."""
        return _zl({-m: v for m, v in self.c.items()})

    def negate_zeta(self) -> "ZetaLaurent":
        """Substitute zeta -> -zeta."""
        return _zl({m: (-v if m & 1 else v) for m, v in self.c.items()})

    def zeta_sum(self) -> int:
        """Evaluate at zeta = 1."""
        return sum(self.c.values())

    def invert(self) -> "ZetaLaurent":
        """Inverse of a unit, +-zeta^e."""
        if len(self.c) != 1 or abs(sum(self.c.values())) != 1:
            raise NotInvertibleError(f"{self!r} is not a unit")
        return _zl({-m: v for m, v in self.c.items()})

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


# -- packed ZETA coefficients -----------------------------------------------
#
# Over ZETA coefficient n is one int: its Laurent polynomial at zeta = 2^b,
# times 2^(b*o) (Kronecker substitution), a ring map, so + - * are exact.
# Decoding needs every zeta power >= -o, kept by lifting the offset o, and
# every digit below 2^(b-1), carried by the majorant maj[n] >= sum of |digits|
# that the same passes update over ZZ.  An operation whose majorant would
# reach 2^(b-1) first repacks its operands into wider slots.

def _grow(b: int, m: int) -> int:
    """Slot width ``b`` if it holds digits up to ``m``, else one at least
    twice as wide: the multiple of 32 above the bits of ``m``."""
    return b if m >> (b - 1) == 0 else max(2 * b, (m.bit_length() + 32) & ~31)


def _encode(z: "ZetaLaurent", b: int, o: int) -> int:
    return sum(v << (b * (m + o)) for m, v in z.c.items())


def _bias(b: int, n: int, w: int) -> int:
    """2^(b-1) in each of n slots of w bits."""
    return int.from_bytes((bytes(b // 8 - 1) + b"\x80" + bytes((w - b) // 8))
                          * n, "little")


def _slots(v: int, b: int) -> list:
    """The b-bit slots of ``v`` as byte strings, each plus 2^(b-1), so a
    signed digit reads as an unsigned one."""
    w, n = b >> 3, v.bit_length() // b + 1
    raw = (v + _bias(b, n, b)).to_bytes(w * n, "little")
    return [raw[i:i + w] for i in range(0, w * n, w)]


def _decode(v: int, b: int, o: int) -> "ZetaLaurent":
    half = 1 << (b - 1)
    digits = [int.from_bytes(s, "little") - half for s in _slots(v, b)]
    return _zl({i - o: d for i, d in enumerate(digits) if d})


def _widen(v: int, b: int, w: int) -> int:
    """``v`` repacked from slot width ``b`` to ``w`` >= b, in linear time."""
    s, pad = _slots(v, b), bytes((w - b) // 8)
    return int.from_bytes(pad.join(s) + pad, "little") - _bias(b, len(s), w)


def _narrow(c: list, b: int, o: int) -> tuple:
    """(c, o) less the zero slots below the lowest digit of every int: an
    offset lifted by a bound becomes exact.  An int's trailing zeros locate
    its lowest digit, since every digit is below 2^(b-1) in absolute value."""
    low = reduce(or_, c, 0)   # its lowest set bit is the lowest of any int
    t = min(o, ((low & -low).bit_length() - 1) // b) if low else o
    return ([v >> (b * t) for v in c], o - t) if t else (c, o)


def _factor(c, b: int) -> tuple:
    """(packed value, zeta offset, majorant) of an int or ZetaLaurent
    multiplier: the offset lifts its negative zeta powers to >= 0."""
    if c.__class__ is not ZetaLaurent:
        return c, 0, abs(c)
    o = max(0, -min(c.c, default=0))
    return _encode(c, b, o), o, sum(map(abs, c.c.values()))


def _convolve(a: list, b: list, zero=0) -> list:
    """Truncated product of two coefficient lists of equal length."""
    return [sum(map(mul, a[:n + 1], b[n::-1]), zero) for n in range(len(a))]


def _single(z: "ZetaLaurent") -> "TruncatedSeries":
    return TruncatedSeries(ZETA, [z], 0)


class TruncatedSeries:
    """Dense power series in q, exact through q^order inclusive.

    Over ZETA the coefficients are packed ints (see ``_encode``) at slot
    width ``_b`` and zeta offset ``_o``, with the majorant ``_maj``;
    ``coeffs`` and ``coeff`` read them back as ``ZetaLaurent`` values.
    """

    __slots__ = ("ring", "order", "_c", "_b", "_o", "_maj")

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
        self._c = cs
        self._maj = self._b = self._o = None
        if ring is ZETA:
            self._maj = [sum(map(abs, z.c.values())) for z in cs]
            self._o = max(0, -min((m for z in cs for m in z.c), default=0))
            self._b = _grow(64, max(self._maj))
            self._c = [_encode(z, self._b, self._o) for z in cs]

    def _like(self, c: list, order: Optional[int] = None, maj=None,
              b: Optional[int] = None, o: Optional[int] = None):
        """A series over this ring with the coefficient list ``c``, of
        length order + 1 and not shared; over ZETA packed at width ``b`` and
        offset ``o`` with majorant ``maj``, each defaulting to its own."""
        order = self.order if order is None else order
        if self.ring is GF2:
            return TruncatedSeries(GF2, c, order)
        out = object.__new__(TruncatedSeries)
        out.ring, out.order, out._c = self.ring, order, c
        out._maj = self._maj if maj is None else maj
        out._b = self._b if b is None else b
        out._o = self._o if o is None else o
        return out

    def _at(self, b: int, o: Optional[int] = None) -> list:
        """The packed ints at width ``b`` >= ``_b``, lifted to offset ``o``.
        A wider ``b`` is kept (the value is unchanged), so a series that
        meets wider ones again and again, like a term of a sum, is repacked
        once."""
        if b != self._b:
            self._c, self._b = [_widen(v, self._b, b) for v in self._c], b
        c = self._c
        if o is not None and o != self._o:
            s = b * (o - self._o)
            c = [v << s for v in c]
        return c

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring, order: int) -> "TruncatedSeries":
        return cls.monomial(ring, ring.zero, 0, order)

    @classmethod
    def one(cls, ring, order: int) -> "TruncatedSeries":
        return cls.monomial(ring, ring.one, 0, order)

    @classmethod
    def monomial(cls, ring, coef, exp: int, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be >= 0")
        if exp < 0:
            raise CoefficientRangeError("negative exponent in plain series")
        z = 0 if ring is ZETA else ring.zero
        pad = [z] * min(exp, order + 1)
        return cls(ring, [coef], 0)._reshaped(
            lambda c: (pad + c + [z] * order)[:order + 1], order)

    @classmethod
    def from_int_coeffs(cls, ring, ints: Sequence[int], order: int) -> "TruncatedSeries":
        return cls(ring, [ring.from_int(k) for k in ints], order)

    # -- access ------------------------------------------------------------

    @property
    def coeffs(self) -> Sequence:
        """The coefficients as a copy: a list, over ZETA a decoded tuple."""
        if self.ring is not ZETA:
            return list(self._c)
        return tuple(_decode(v, self._b, self._o) for v in self._c)

    def coeff(self, n: int):
        if n < 0:
            return self.ring.zero
        if n > self.order:
            raise CoefficientRangeError(
                f"coefficient q^{n} beyond truncation order {self.order}")
        if self.ring is ZETA:
            return _decode(self._c[n], self._b, self._o)
        return self._c[n]

    def valuation(self) -> Optional[int]:
        for i, c in enumerate(self._c):
            if c:
                return i
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.ring is not other.ring or self.order != other.order:
            return False
        return self._c == other._c if self.ring is not ZETA else \
            (self - other).is_zero()

    def __repr__(self) -> str:
        head = ", ".join(repr(self.coeff(n))
                         for n in range(min(6, self.order + 1)))
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
        if self.ring is not ZETA:
            return self._like(list(map(add, self._c, other._c)))
        maj = list(map(add, self._maj, other._maj))
        w, o = _grow(max(self._b, other._b), max(maj)), max(self._o, other._o)
        return self._like(list(map(add, self._at(w, o), other._at(w, o))),
                          None, maj, w, o)

    def __neg__(self) -> "TruncatedSeries":
        return self._like(list(map(neg, self._c)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        if self.ring is not ZETA:
            return self._like(_convolve(self._c, other._c, self.ring.zero))
        maj = _convolve(self._maj, other._maj)
        w = _grow(max(self._b, other._b), max(maj))
        return self._like(_convolve(self._at(w), other._at(w)), None, maj, w,
                          self._o + other._o)

    def scalar_mul(self, c) -> "TruncatedSeries":
        if self.ring is not ZETA:
            return self._like([c * a for a in self._c])
        g, oc, l1 = _factor(c, self._b)
        maj = [l1 * m for m in self._maj]
        w = _grow(self._b, max(maj))
        if w != self._b:
            g = _factor(c, w)[0]
        return self._like([g * v for v in self._at(w)], None, maj, w,
                          self._o + oc)

    def mul_binomial(self, k: int, c) -> "TruncatedSeries":
        """Multiply by (1 + c q^k), k >= 0; k = 0 multiplies by (1 + c)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return self._binomial(k, c, mul_binomial_ints)

    def div_binomial(self, k: int, c) -> "TruncatedSeries":
        """Divide by (1 + c q^k), k >= 1."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._binomial(k, c, div_binomial_ints)

    def _binomial(self, k: int, c, kernel) -> "TruncatedSeries":
        if self.ring is not ZETA:
            out = list(self._c)
            kernel(out, k, c)
            return self._like(out)
        divide = kernel is div_binomial_ints
        g, oc, l1 = _factor(c, self._b)
        maj = list(self._maj)
        kernel(maj, k, -l1 if divide else l1)
        w = _grow(self._b, max(maj))
        if w != self._b:
            g = _factor(c, w)[0]
        # c P reaches oc slots below P, and a quotient applies c up to
        # order // k times; the kernel shifts each c P back down by oc
        o = self._o + oc * (self.order // k if divide else 1)
        out = list(self._at(w, o))
        kernel(out, k, g, w * oc)
        if oc:
            out, o = _narrow(out, w, o)
        return self._like(out, None, maj, w, o)

    def mul_pochhammer(self, factors, n: Optional[int] = None,
                       step: int = 1) -> "TruncatedSeries":
        """Multiply by ``(factors; q^step)_n`` (see ``pochhammer``)."""
        return _pochhammer_pass(self, factors, n, step, False)

    def div_pochhammer(self, factors, n: Optional[int] = None,
                       step: int = 1) -> "TruncatedSeries":
        """Divide by ``(factors; q^step)_n``, one binomial pass per factor."""
        return _pochhammer_pass(self, factors, n, step, True)

    def invert(self) -> "TruncatedSeries":
        u = self.ring.unit_inverse(self.coeff(0))   # or NotInvertibleError
        # 1/self = u/a for a = u self, whose lead is 1
        a = self.scalar_mul(u)
        if self.ring is not ZETA:
            out = [u] + [self.ring.zero] * self.order
            div_series_ints(out, a._c)
            return self._like(out)
        # coefficient i of 1/a sums products of i coefficients of a, each
        # with powers >= -o, and its majorant those of i majorants
        maj = [1] + [0] * self.order
        div_series_ints(maj, [-m for m in a._maj])
        w = _grow(a._b, max(maj))
        s = w * a._o
        out = [1 << (s * self.order)] + [0] * self.order
        div_series_ints(out, a._at(w), s)
        out, o = _narrow(out, w, a._o * self.order)
        return self._like(out, None, maj, w, o).scalar_mul(u)

    # -- structural ops ----------------------------------------------------

    def _reshaped(self, f: Callable, order: Optional[int] = None):
        """Apply the list map ``f`` to the coefficients and the majorant."""
        return self._like(f(self._c), order, self._maj and f(self._maj))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderMismatchError(
                f"cannot extend truncation {self.order} to {order}")
        return self._reshaped(lambda c: c[: order + 1], order)

    def shift_q(self, d: int) -> "TruncatedSeries":
        """Multiply by q^d.  Negative d requires vanishing low coefficients
        and lowers the tracked order by |d|."""
        if d == 0:
            return self
        if d > 0:
            z = 0 if self.ring is ZETA else self.ring.zero
            return self._reshaped(
                lambda c: [z] * min(d, len(c)) + c[: max(len(c) - d, 0)])
        m = -d
        for i in range(min(m, self.order + 1)):
            if self._c[i]:
                raise CoefficientRangeError(
                    f"shift by q^{d} hits nonzero coefficient at q^{i}")
        if m > self.order:
            raise OrderMismatchError("shift exceeds truncation order")
        return self._reshaped(lambda c: c[m:], self.order - m)

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
        z = 0 if self.ring is ZETA else self.ring.zero
        return self._reshaped(lambda c: [c[i // k] if i % k == 0 else z
                                         for i in range(order + 1)], order)

    def negate_q(self) -> "TruncatedSeries":
        """Substitute q -> -q."""
        out = list(self._c)
        out[1::2] = map(neg, out[1::2])
        return self._like(out)

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
        b, o = self._b, self._o
        return TruncatedSeries(ZZ, [_decode(v, b, o).zeta_sum()
                                    for v in self._c], self.order)

    def iter_zeta_entries(self) -> Iterator[tuple]:
        """Yield (m, n, c) for all nonzero coefficients, sorted by (n, m),
        decoding one coefficient at a time."""
        self._need_zeta()
        c, b, o = self._c, self._b, self._o
        for n, v in enumerate(c):
            for m, x in _decode(v, b, o).items():
                yield m, n, x

    # -- comparisons and diagnostics ----------------------------------------

    def first_mismatch(self, other: "TruncatedSeries",
                       through: Optional[int] = None) -> Optional[int]:
        """First q power through ``through`` (default: both orders) at
        which the two series differ, or None."""
        n = min(self.order, other.order) if through is None else through
        return (self.truncate(n) - other.truncate(n)).valuation()

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


def ratio_step(ups, downs, mult=(1, 0, 1), quad: int = 0, step: int = 1):
    """``term_sum``'s step for first * sum_n (ups)_n / (downs)_n mult^n
    q^(quad n(n-1)/2) over base q^step, the form of an r-phi-s (Gasper and
    Rahman, *Basic Hypergeometric Series*, 2nd ed., 2004).

    Parameters are monomials (c, zeta_exp, q_exp); a factor (c, zeta_exp,
    q_exp, k) advances by q^k, not q^step.  mult needs q power >= 1 and
    quad >= 0: every step raises the valuation, so the sum stops.
    """
    c, z, e = mult
    if e < 1 or quad < 0:
        raise UnirankError("step multiplier needs q power >= 1 and quad >= 0")

    def apply(term, n):
        term = term.mul_pochhammer(factors_at(ups, n, step), 1)
        if (c, z) != (1, 0):
            term = term.scalar_mul(_coef_elem(term.ring, c, z))
        return term.shift_q(e + quad * (n - 1)).div_pochhammer(
            factors_at(downs, n, step), 1)
    return apply


def factors_at(factors, n: int, step: int) -> list:
    """The factors (c, zeta_exp, q_exp[, k]) of step n as (c, zeta_exp, r),
    each 1 - c zeta^zeta_exp q^r, r = q_exp + k(n-1) with k = step unless
    the factor gives it."""
    return [(f[0], f[1], f[2] + (f[3] if len(f) > 3 else step) * (n - 1))
            for f in factors]


class Row(NamedTuple):
    """A summed series as data: q^e (ups0; q)_1 / (downs0; q)_1 times the
    sum over n >= 0 of (ups)_n / (downs)_n mult^n q^(quad n(n-1)/2) over
    base q^step, in ``ratio_step``'s factor convention."""

    e: int
    ups0: list
    downs0: list
    ups: list
    downs: list
    mult: tuple = (1, 0, 1)
    quad: int = 0
    step: int = 1


def row_sum(row: Row, ring, order: int) -> TruncatedSeries:
    """``row`` through q^order over ``ring``: ``term_sum`` of its first
    term and ``ratio_step``."""
    first = TruncatedSeries.monomial(ring, ring.one, row.e, order) \
        .mul_pochhammer(row.ups0, 1).div_pochhammer(row.downs0, 1)
    return term_sum(first, ratio_step(*row[3:]))


def row_terms(row: Row, limit: int):
    """Yield (v, sign, window) for each term of the ZZ image of ``row``
    through q^limit, the term being sign q^v times the window (its
    coefficients at q^v .. q^limit).  mult's coefficient must be +-1, the
    sign, and v rises with n, as in ``ratio_step``, so the sum ends at the
    first empty window.  One window is stepped in place after a yield."""
    c, _, e = row.mult
    if c not in (1, -1) or e < 1 or row.quad < 0:
        raise UnirankError("row_terms needs mult +-q^e, e >= 1, quad >= 0")
    val = row.e
    w = [1] + [0] * (limit - val) if val <= limit else []
    for b, _, r in factors_at(row.ups0, 1, row.step):
        mul_binomial_ints(w, r, -b)
    for b, _, r in factors_at(row.downs0, 1, row.step):
        div_binomial_ints(w, r, -b)
    sign, n = 1, 1
    while w:
        yield val, sign, w
        val += e + row.quad * (n - 1)
        del w[max(limit + 1 - val, 0):]
        for b, _, r in factors_at(row.ups, n, row.step):
            mul_binomial_ints(w, r, -b)
        for b, _, r in factors_at(row.downs, n, row.step):
            div_binomial_ints(w, r, -b)
        sign *= c
        n += 1


def row_ints(row: Row, limit: int) -> list:
    """The ZZ image of ``row`` through q^limit, from ``row_terms``."""
    acc = [0] * (limit + 1)
    for v, sign, w in row_terms(row, limit):
        acc[v:] = map(add if sign > 0 else sub, acc[v:], w)
    return acc


# -- in-place binomial passes on integer coefficient lists -------------------

def mul_binomial_ints(c: list, k: int, b: int, s: int = 0) -> None:
    """Multiply the integer coefficient list ``c`` by (1 + b q^k) in place.
    With ``s`` each added term is (b c[i-k]) >> s: a packed ZETA multiplier
    lifted by s bits, shifted back down exactly."""
    src = c[:max(len(c) - k, 0)]
    if s or b not in (1, -1):
        src, b = [(b * v) >> s for v in src] if s else [b * v for v in src], 1
    c[k:] = map(add if b == 1 else sub, c[k:], src)


def div_binomial_ints(c: list, k: int, b: int, s: int = 0) -> None:
    """Divide the integer coefficient list ``c`` by (1 + b q^k) in place,
    k >= 1, with ``s`` as in ``mul_binomial_ints``.  For b = -1 a running sum
    along each residue class mod k (in blocks of k when k * k >= len); for
    b = 1 the alternating one."""
    if k < 1:
        raise UnirankError("binomial divisor needs q power >= 1")
    n = len(c)
    if s or b not in (1, -1):
        for i in range(k, n):
            c[i] -= (b * c[i - k]) >> s if s else b * c[i - k]
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


def mul_series_ints(c: list, d: list) -> None:
    """Multiply the list ``c`` in place by the series ``d``, d[0] = 1 (not
    read), truncated to len(c): one slice add of c shifted by j for each
    nonzero d[j], a term +-1 adding or subtracting without multiplying."""
    src = c[:]
    n = len(c)
    for j in range(1, min(len(d), n)):
        v = d[j]
        if v:
            part = src[:n - j]
            if v not in (1, -1):
                part = [v * x for x in part]
            c[j:] = map(sub if v == -1 else add, c[j:], part)


def div_series_ints(c: list, d: list, s: int = 0) -> None:
    """Divide the list ``c`` in place by the series ``d``, d[0] = 1 (not
    read): for n rising, c[n] -= (sum of d[j] c[n-j] over 1 <= j <= n) >> s,
    with ``s`` as in ``mul_binomial_ints``.  Only the nonzero d[j] are
    visited, and a term +-1 adds or subtracts without multiplying."""
    terms = [(j, v) for j, v in enumerate(d) if j and v]
    for n in range(1, len(c)):
        t = 0
        for j, v in terms:
            if j > n:
                break
            if v == 1:
                t += c[n - j]
            elif v == -1:
                t -= c[n - j]
            else:
                t += v * c[n - j]
        c[n] -= t >> s if s else t


# -- monomials and Pochhammer products ---------------------------------------

class Monomial(NamedTuple):
    """coef * zeta^zeta_exp * q^q_exp, a Pochhammer parameter.

    ``*`` and ``/`` by a monomial (or a plain 3-tuple), ``scalar / m`` and
    unary ``-`` are exact; an integral coefficient comes back as an int.
    The repr is the plain tuple's, so labels do not change with the type.
    """

    coef: Scalar
    zeta_exp: int
    q_exp: int

    __repr__ = tuple.__repr__

    def __mul__(self, other) -> "Monomial":
        c, z, e = other
        return Monomial(_norm_scalar(Fraction(self.coef) * c),
                        self.zeta_exp + z, self.q_exp + e)

    def __truediv__(self, other) -> "Monomial":
        c, z, e = other
        return Monomial(_norm_scalar(Fraction(self.coef) / c),
                        self.zeta_exp - z, self.q_exp - e)

    def __rtruediv__(self, c: Scalar) -> "Monomial":
        return Monomial(c, 0, 0) / self

    def __neg__(self) -> "Monomial":
        return Monomial(_norm_scalar(-Fraction(self.coef)), self.zeta_exp,
                        self.q_exp)


def _coef_elem(ring, c: Scalar, e: int):
    """Ring element for c * zeta^e; over ZETA a zeta-free integral one is
    a plain int, which ``_factor`` takes as it is, unencoded."""
    if ring is ZETA:
        return ZetaLaurent.monomial(c, e) if e or int(c) != c else int(c)
    if e != 0:
        raise UnirankError(f"zeta exponent {e} outside the ZETA ring")
    if ring is QQ:
        return Fraction(c)
    if isinstance(c, Fraction) and c.denominator != 1:
        raise UnirankError(f"rational coefficient {c} outside {ring.name}")
    return ring.from_int(int(c))


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

    def _times(self, c: Scalar = 1, phase: int = 0, zeta_half: int = 0,
               q24: int = 0, body: Optional[TruncatedSeries] = None
               ) -> "PrefixedSeries":
        """This series times c * i^phase * zeta^(zeta_half/2) * q^(q24/24),
        with ``body`` in place of its own if given."""
        return PrefixedSeries(self.scalar * c, self.phase + phase,
                              self.zeta_half + zeta_half, self.q24 + q24,
                              self.body if body is None else body)

    def times_scalar(self, c: Scalar) -> "PrefixedSeries":
        return self._times(c)

    def times_i_power(self, k: int) -> "PrefixedSeries":
        return self._times(phase=k)

    def times_zeta_half(self, k: int) -> "PrefixedSeries":
        return self._times(zeta_half=k)

    def times_q24(self, k: int) -> "PrefixedSeries":
        return self._times(q24=k)

    def times_body(self, z: ZetaLaurent) -> "PrefixedSeries":
        return self._times(body=self.body.scalar_mul(z))

    def __mul__(self, other: "PrefixedSeries") -> "PrefixedSeries":
        if not isinstance(other, PrefixedSeries):
            return NotImplemented
        a, b = self.body, other.body
        if a.order != b.order:
            m = min(a.order, b.order)
            a, b = a.truncate(m), b.truncate(m)
        return self._times(other.scalar, other.phase, other.zeta_half,
                           other.q24, a * b)

    def mul_binomial(self, k: int, c: ZetaLaurent) -> "PrefixedSeries":
        return self._times(body=self.body.mul_binomial(k, c))

    def div_binomial(self, k: int, c: ZetaLaurent) -> "PrefixedSeries":
        return self._times(body=self.body.div_binomial(k, c))

    def times_monomial(self, mono: Monomial) -> "PrefixedSeries":
        """Multiply by the monomial (coef, zeta_exp, q_exp)."""
        c, z, e = mono
        return self._times(c, 0, 2 * z, 24 * e)

    def mul_pochhammer(self, factors, n: Optional[int] = None,
                       step: int = 1) -> "PrefixedSeries":
        """Multiply by ``(factors; q^step)_n``; see ``pochhammer_prefixed``."""
        return _pochhammer_pass(self, factors, n, step, False)

    def div_pochhammer(self, factors, n: Optional[int] = None,
                       step: int = 1) -> "PrefixedSeries":
        """Divide by ``(factors; q^step)_n``, one binomial pass per factor."""
        return _pochhammer_pass(self, factors, n, step, True)

    def invert(self) -> "PrefixedSeries":
        """The reciprocal, for a body whose lowest term is +-d zeta^e q^v
        with d the content of the body (the gcd of its digits): d, q^v and
        zeta^e move into the prefix, and the rest, lead +-1, inverts as a
        plain series.  Any other lead raises NotInvertibleError."""
        v = self.body.valuation()
        if v is None:
            raise NotInvertibleError("cannot invert the zero series")
        if self.scalar == 0:
            raise NotInvertibleError("cannot invert zero scalar")
        b = self.body.shift_q(-v).coeffs
        d = gcd(*(w for z in b for w in z.c.values()))
        e = min(b[0].c)
        rest = [_zl({m - e: w // d for m, w in z.c.items()}) for z in b]
        inv = TruncatedSeries(ZETA, rest, len(b) - 1).invert()
        # re-packed from its digits, which lie far below its majorant
        return PrefixedSeries(1 / (self.scalar * d), -self.phase,
                              -self.zeta_half - 2 * e, -self.q24 - 24 * v,
                              TruncatedSeries(ZETA, inv.coeffs, inv.order))

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
                     lcm(sa.denominator, sb.denominator)) or Fraction(1)
        za = ZetaLaurent.monomial(sa / g, 0)
        zb = ZetaLaurent.monomial(sb / g, dz // 2)
        a = self.body.scalar_mul(za).shift_q((self.q24 - q24) // 24)
        b = other.body.scalar_mul(zb).shift_q((other.q24 - q24) // 24)
        m = min(a.order, b.order)
        return (a.truncate(m), b.truncate(m), g, self.phase, self.zeta_half,
                q24)

    def add(self, other: "PrefixedSeries") -> "PrefixedSeries":
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
        """Coefficientwise comparison.  ``through`` counts absolute powers
        of q: the exponent of the last term compared, rounded down."""
        try:
            a, b, _, _, _, q24 = self._aligned_bodies(other)
        except LatticeMismatchError as exc:
            return ComparisonResult(False, str(exc), None, None)
        through = (q24 + 24 * a.order) // 24
        n = a.first_mismatch(b)
        if n is None:
            return ComparisonResult(True, None, None, through)
        m = min((a.coeff(n) - b.coeff(n)).c)
        return ComparisonResult(False, "coefficient mismatch", (m, n), through)

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
    pass per factor (1 - c zeta^e q^r), r = t, t + step, ... through the
    order for a parameter (c, e, t).

    The pass is by (1 + b q^k).  For r >= 0, b = -c zeta^e and k = r.  For
    r < 0 the factor is split as (-c zeta^e q^r) (1 - c^-1 zeta^-e q^-r):
    the prefix -c zeta^e q^r moves into a prefixed series' prefix (out of
    it when dividing), b = -1/c zeta^-e and k = -r; a plain series rejects
    it.  Over ZETA a non-integral b raises UnirankError, such as for
    (-2, 0, -5), split as 2 q^-5 (1 + q^5 / 2).  A factor with r = 0
    multiplies in as a constant and is never divided by.  A negative ``n``
    is the other direction on the shifted factors,
    ``(a; q^step)_{-m} = 1 / (a q^{-m step}; q^step)_m``.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    if isinstance(factors, tuple) and len(factors) == 3 and not isinstance(
            factors[0], tuple):
        factors = [factors]
    if n is not None and n < 0:
        factors = [(c, e, t + step * n) for (c, e, t) in factors]
        n, divide = -n, not divide
    prefixed = isinstance(s, PrefixedSeries)
    body = s.body if prefixed else s
    for c, e, t in factors:
        if n is None and t < 1:
            raise SingularPochhammerError(
                f"infinite product needs q_exp >= 1, got {t}")
        top = body.order if n is None else min(body.order, t + step * (n - 1))
        for r in range(t, top + 1, step):
            if divide and r == 0:
                raise SingularPochhammerError(
                    f"cannot divide by the constant factor (1 - {c} zeta^{e})")
            k, bc, be = r, -c, e
            if r < 0:
                k, bc, be = -r, _norm_scalar(-1 / Fraction(c)), -e
                if not prefixed:
                    raise SingularPochhammerError(
                        f"factor (1 - c q^{r}) not a power series; "
                        "use pochhammer_prefixed")
                prefix = -Monomial(c, e, r)
                s = s.times_monomial(1 / prefix if divide else prefix)
            b = _coef_elem(body.ring, bc, be)
            s = s.div_binomial(k, b) if divide else s.mul_binomial(k, b)
    return s


__all__ = [
    "UnirankError", "OrderMismatchError", "NotInvertibleError",
    "CoefficientRangeError", "SingularPochhammerError", "LatticeMismatchError",
    "ZetaLaurent", "TruncatedSeries", "PrefixedSeries", "ComparisonResult",
    "ZZ", "GF2", "QQ", "ZETA",
    "pochhammer", "pochhammer_prefixed", "term_sum", "ratio_step",
    "factors_at", "Row", "row_sum", "row_terms", "row_ints",
    "mul_binomial_ints", "div_binomial_ints", "mul_series_ints",
    "div_series_ints", "Monomial",
]
