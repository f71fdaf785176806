"""The integer-only ZetaLaurent kernel against a dict-of-Fraction reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from unirank.series import (
    ZETA, NotInvertibleError, TruncatedSeries, UnirankError, ZetaLaurent,
)


class RefLaurent:
    """Reference Laurent polynomial in zeta: exponent -> nonzero Fraction,
    every result normalised, written for clarity rather than speed."""

    def __init__(self, c):
        self.c = {m: Fraction(v) for m, v in c.items() if v}

    def __add__(self, other):
        return RefLaurent({m: self.c.get(m, 0) + other.c.get(m, 0)
                           for m in self.c.keys() | other.c.keys()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        acc = {}
        for m1, v1 in self.c.items():
            for m2, v2 in other.c.items():
                acc[m1 + m2] = acc.get(m1 + m2, 0) + v1 * v2
        return RefLaurent(acc)

    def scale(self, k):
        return RefLaurent({m: v * k for m, v in self.c.items()})

    def shift(self, e):
        return RefLaurent({m + e: v for m, v in self.c.items()})

    def bar(self):
        return RefLaurent({-m: v for m, v in self.c.items()})

    def negate_zeta(self):
        return RefLaurent({m: (-1) ** (m % 2) * v for m, v in self.c.items()})


def _same(z: ZetaLaurent, ref: RefLaurent) -> bool:
    return (all(v.__class__ is int for v in z.c.values())
            and z.c == ref.c)


_dicts = st.dictionaries(st.integers(-4, 4), st.integers(-6, 6), max_size=5)


@settings(max_examples=300, deadline=None)
@given(_dicts, _dicts, st.integers(-7, 7), st.integers(-5, 5))
def test_kernel_matches_reference(da, db, k, e):
    a, b = ZetaLaurent(da), ZetaLaurent(db)
    ra, rb = RefLaurent(da), RefLaurent(db)
    assert _same(a + b, ra + rb)
    assert _same(a - b, ra - rb)
    assert _same(a * b, ra * rb)
    assert _same(a * k, ra.scale(k))
    assert _same(a * ZetaLaurent.monomial(1, e), ra.shift(e))
    assert _same(a.bar(), ra.bar())
    assert _same(a.negate_zeta(), ra.negate_zeta())


def test_zeta_laurent_integer_only():
    with pytest.raises(UnirankError):
        ZetaLaurent({0: Fraction(1, 2)})
    with pytest.raises(UnirankError):
        ZetaLaurent.monomial(Fraction(-3, 4), 1)
    # an integral Fraction is stored as an int
    z = ZetaLaurent({1: Fraction(6, 3), 2: Fraction(0)})
    assert z.c == {1: 2} and z.c[1].__class__ is int
    # only +-zeta^e is a unit; a lead 2 zeta no longer inverts to halves
    assert ZetaLaurent.monomial(-1, 3).invert() == ZetaLaurent.monomial(-1, -3)
    with pytest.raises(NotInvertibleError):
        ZetaLaurent.monomial(2, 1).invert()
    f = TruncatedSeries(ZETA, [ZetaLaurent.monomial(2, 1),
                               ZetaLaurent.from_int(1)], 5)
    with pytest.raises(NotInvertibleError):
        f.invert()
