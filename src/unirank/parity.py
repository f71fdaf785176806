"""Parity of the even-peak left-heavy counts, by three independent routes.

The count sequence u2(n) is the coefficient sequence of the even-peak
series after the sign flip q -> -q, the row ``U2_negq`` of ``rows.ROWS``.
Its parity can be computed from the literal defining sum mod 2, whose tail
of mere truncations is summed in one pass, from a double indefinite theta sum,
or from representation counts of the quadratic form u^2 - 6 v^2.  All three
agree, and the odd positions obey a factorization criterion on 8n - 1.

The rows of the norm route and of the criterion come from one segmented
sieve along the progression 8n - 1 (C. Bays and R. H. Hudson, BIT 17,
1977), each read from its own fields of a packed per-n state.  The per-n
functions (``norm_parity``, ``odd_criterion``, ``ideal_count``) factor
one number at a time with a least-prime-factor table; the tests compare
the sieve's rows with them.

GF(2) series are packed into Python integers, bit n holding the
coefficient of q^n; the count route holds its terms in reversed order.
"""

from array import array
from math import isqrt

from .series import UnirankError

__all__ = [
    "count_parity_bits", "theta_parity_bits", "norm_parity_bits",
    "theta_row", "double_theta",
    "rep_count", "ideal_count", "norm_parity", "odd_criterion",
    "parity_agreement",
]


def _divide_binomial(bits: int, k: int, width: int) -> int:
    """Multiply a GF(2) series by 1/(1 - q^k), truncated to ``width`` terms.

    The series is packed reversed, bit i holding q^(width - 1 - i), so each
    factor of (1 + q^k)(1 + q^{2k})(1 + q^{4k})..., which telescopes to the
    inverse over GF(2), is a right shift that only ever drops bits.
    """
    if k < 1:
        raise UnirankError("binomial divisor needs q power >= 1")
    step = k
    while step < width:
        bits ^= bits >> step
        step <<= 1
    return bits


def count_parity_bits(limit: int) -> int:
    """Packed parities of the counts, from the defining sum mod 2.

    Term n of the sum is (-q^2;q^2)_{n-1}^2 q^{2n} / (q;q^2)_n; mod 2 the
    squared factor collapses to 1 + q^{4n} per step.  The term is held
    divided by q^{2n} in its lowest width = limit + 1 - 2n coefficients,
    reversed (bit i is q^(limit - i) in the sum), so it is added without a
    shift, and truncation, 1 + q^{4n} and divisor 1 + q^{2n+1} are right
    shifts.  Once 2n + 1 reaches the width, the step's factor and divisor
    touch no kept bit, so every later term is this one truncated: the tail
    is summed in one pass as term / (1 - q^2).  The sum is reversed at the
    end.
    """
    if limit < 0:
        raise UnirankError("limit must be >= 0")
    acc, n, width = 0, 1, max(limit - 1, 0)
    term = _divide_binomial(1 << width >> 1, 1, width)   # 1/(1 - q)
    while 2 * n + 1 < width:
        acc ^= term
        width -= 2
        term >>= 2
        term ^= term >> 4 * n
        term = _divide_binomial(term, 2 * n + 1, width)
        n += 1
    acc ^= _divide_binomial(term, 2, width)
    return int(format(acc, f"0{limit + 1}b")[::-1], 2)


def theta_row(coeffs: list, base: int, n: int, value: int) -> None:
    """Add ``value`` at q^(base - 2j^2 - 3j) and q^(base - 2j^2 - j + 1)
    for 0 <= j <= n, wherever that lies within the truncation.  The lowest
    is q^(base - 2n^2 - 3n), rising with n: each caller's rows end, exactly,
    at the first row whose lowest power passes the order."""
    for j in range(n + 1):
        e = base - 2 * j * j - 3 * j
        for exp in (e, e + 2 * j + 1):
            if exp < len(coeffs):
                coeffs[exp] += value


def double_theta(limit: int) -> list:
    """Coefficients through q^limit of the double sum
    sum_{n >= 0} sum_{0 <= j <= n} (1 + q^{2j+1}) q^{3n^2+6n-2j^2-3j+2}."""
    out = [0] * (limit + 1)
    n = 0
    while n * n + 3 * n + 2 <= limit:
        theta_row(out, 3 * n * n + 6 * n + 2, n, 1)
        n += 1
    return out


def theta_parity_bits(limit: int) -> int:
    """Packed parities of ``double_theta``."""
    if limit < 0:
        raise UnirankError("limit must be >= 0")
    return int(bytes(48 | (c & 1) for c in reversed(double_theta(limit))), 2)


def rep_count(m: int) -> int:
    """Number of (u, v) with u^2 - 6 v^2 = m, u > 0, -u/3 < v <= u/3.

    Each equivalence class of solutions under the unit 5 + 2 sqrt(6)
    contains exactly one such pair, so this counts classes.
    """
    if m < 1:
        raise UnirankError("m must be >= 1")
    cnt = 0
    v_top = isqrt(m // 3) + 1
    for v in range(-v_top, v_top + 1):
        s = m + 6 * v * v
        u = isqrt(s)
        if u * u != s or u == 0:
            continue
        if 3 * v > u or -3 * v >= u:
            continue
        cnt += 1
    return cnt


# _lpf[i]: least prime factor of 2i + 1 if composite, else 0; each is at most
# isqrt(_SIEVE_TOP) < 2^16.  Odd parts above _SIEVE_TOP are trial-divided.
_SIEVE_TOP = 1 << 24
_lpf = array("H")


def _sieve(top: int) -> None:
    """Grow the least-prime-factor table to cover every odd m <= top."""
    global _lpf
    size = top // 2 + 1
    if size <= len(_lpf):
        return
    r = isqrt(top)
    if r > 2:
        _sieve(r)
    table = array("H", bytes(2 * size))
    # descending, so the least prime writes each composite last
    for i in reversed(range(1, (r + 1) // 2)):
        if not _lpf[i]:
            p = 2 * i + 1
            start = p * p // 2
            table[start::p] = array("H", [p]) * len(range(start, size, p))
    _lpf = table


def _factorize(m: int) -> dict:
    out = {}
    twos = (m & -m).bit_length() - 1
    if twos:
        out[2] = twos
        m >>= twos
    p = 3
    while m > _SIEVE_TOP and p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 2
    if m <= _SIEVE_TOP and m // 2 >= len(_lpf):
        _sieve(min(max(m, 4 * len(_lpf)), _SIEVE_TOP))
    while m > 1:
        p = m if m > _SIEVE_TOP else _lpf[m // 2] or m
        out[p] = out.get(p, 0) + 1
        m //= p
    return out


def _class_count(odd: dict, two_exp: int) -> int:
    """``ideal_count(2^two_exp m)`` for the odd m whose factors are ``odd``."""
    out, g_sum = 1, two_exp
    for p, e in odd.items():
        cls = p % 24
        if cls in (1, 19):
            out *= e + 1
        elif cls in (5, 23):
            out *= e + 1
            g_sum += e
        elif e % 2 and p != 3:
            return 0
    return 0 if g_sum % 2 else out


def ideal_count(m: int) -> int:
    """Class count of u^2 - 6 v^2 = m by the multiplicative formula.

    Write m = 2^a 3^b prod p^e prod r^f prod s^g with p = +-7, +-11,
    r = 1, 19, and s = 5, 23 mod 24.  The count is 0 when some e is odd
    or a + sum g is odd, and prod (f+1) prod (g+1) otherwise.
    """
    if m < 1:
        raise UnirankError("m must be >= 1")
    factors = _factorize(m)
    return _class_count(factors, factors.pop(2, 0))


def norm_parity(n: int) -> int:
    """Parity of count n via half the class count of norm 16 n - 2."""
    if n < 1:
        raise UnirankError("n must be >= 1")
    pairs = _class_count(_factorize(8 * n - 1), 1)   # 16 n - 2 = 2 (8n - 1)
    if pairs % 2:
        raise UnirankError(f"odd class count {pairs} at norm {16 * n - 2}")
    return (pairs // 2) & 1


def odd_criterion(n: int) -> bool:
    """True when 8n - 1 = 3^b l^2 p^c with p a prime that is 5 or 23
    mod 24, p not dividing l, and c = 1 mod 4."""
    if n < 1:
        raise UnirankError("n must be >= 1")
    odd = _factorize(8 * n - 1)
    found = 0   # the one prime other than 3 to an odd power, if one
    for p, e in odd.items():
        if e % 2 and p != 3:
            if found:
                return False
            found = p
    return found % 24 in (5, 23) and odd[found] % 4 == 1


# The segmented sieve packs what both rows read of 8n - 1 = 3^b prod p^e
# into one small int per n, five 6-bit fields at these shifts.  Each field
# sums one share per prime p != 3 (see _prime_share); for 8n - 1 < 2^63
# none passes 27 (5^28 > 2^63), so no field carries into the next.
_V2, _G, _INERT, _ODD, _GOOD = 0, 6, 12, 18, 24
_FIELD = (1 << 6) - 1
# the norm row: no inert prime to an odd power, 1 + sum g even, and
# pairs = prod (e + 1) with exactly one factor of 2
_NORM_MASK = _FIELD << _V2 | 1 << _G | _FIELD << _INERT
_NORM_ONE = 1 << _V2 | 1 << _G
_PAIRS_ODD = 1 << _G   # nonzero class count with no factor of 2
# the criterion: one prime to an odd power, and it is 5 or 23 mod 24 to a
# power 1 mod 4
_CRIT_MASK = _FIELD << _ODD | _FIELD << _GOOD
_CRIT_ONE = 1 << _ODD | 1 << _GOOD
_BLOCK = 1 << 13   # n per block of the sieve


def _prime_share(cls: int, e: int) -> int:
    """The packed state of p^e for a prime p of class ``cls`` mod 24.

    Fields: v2(e + 1) for p = 1, 19, 5, 23 mod 24 (its share of the 2-adic
    order of pairs); e for p = 5, 23 (g); e mod 2 for p = 7, 11, 13, 17
    (inert); e mod 2 (odd); 1 when p = 5, 23 and e = 1 mod 4 (good).
    The prime 3 and e = 0 give 0.
    """
    if cls == 3:
        return 0
    share = e % 2 << _ODD
    if cls in (1, 19, 5, 23):
        share |= ((e + 1) & -(e + 1)).bit_length() - 1 << _V2
        if cls in (5, 23):
            share |= e << _G | (e % 4 == 1) << _GOOD
    else:
        share |= e % 2 << _INERT
    return share


def _sieve_rows(limit: int, block: int = _BLOCK) -> tuple:
    """Packed ``norm_parity`` and ``odd_criterion`` rows for 1 <= n <= limit
    (bit 0 unused), from one segmented sieve over the progression 8n - 1.

    For every prime power p^k <= 8 limit with p <= isqrt(8 limit), the
    n with p^k | 8n - 1 are those n = 8^-1 mod p^k.  Within each block of
    ``block`` consecutive n, the walk along them divides p out of n's
    cofactor and adds the share of p^k less that of p^(k-1) to n's state.
    What is left of each cofactor is 1 or one prime above the bound, to
    the first power, whose share is added by its class.  The norm row and
    the criterion then read disjoint fields of the state.
    """
    if limit < 0:
        raise UnirankError("limit must be >= 0")
    top = 8 * limit
    r = isqrt(top)
    _sieve(r)
    walks = []   # (p^k, its first n, p, share of p^k less share of p^(k-1))
    for p in range(3, r + 1, 2):
        if _lpf[p // 2]:
            continue
        q, k, cls = p, 1, p % 24
        while q < top:
            walks.append((q, pow(8, -1, q), p,
                          _prime_share(cls, k) - _prime_share(cls, k - 1)))
            q *= p
            k += 1
    last = [_prime_share(cls, 1) for cls in range(24)]
    norm, crit = bytearray(b"0"), bytearray(b"0")   # as digits, n = 0 first
    for lo in range(1, limit + 1, block):
        hi = min(lo + block, limit + 1)
        cof = list(range(8 * lo - 1, 8 * hi - 1, 8))
        state = [0] * (hi - lo)
        for q, first, p, delta in walks:
            i = (first - lo) % q
            cof[i::q] = [c // p for c in cof[i::q]]
            if delta:
                state[i::q] = [s + delta for s in state[i::q]]
        state = [s + last[c % 24] if c > 1 else s
                 for s, c in zip(state, cof)]
        fields = [s & _NORM_MASK for s in state]
        if _PAIRS_ODD in fields:
            n = lo + fields.index(_PAIRS_ODD)
            raise UnirankError(f"odd class count at norm {16 * n - 2}")
        norm += bytes([48 + (s == _NORM_ONE) for s in fields])
        crit += bytes([48 + (s & _CRIT_MASK == _CRIT_ONE) for s in state])
    return int(norm[::-1], 2), int(crit[::-1], 2)


def norm_parity_bits(limit: int) -> int:
    """Packed ``norm_parity`` values for 1 <= n <= limit (bit 0 unused)."""
    return _sieve_rows(limit)[0]


def parity_agreement(limit: int) -> dict:
    """Cross-check all parity routes for 1 <= n <= limit.

    Returns a dict with the three packed bit rows and the list of
    positions where any pair of routes disagrees (empty on success).
    The norm row and the criterion come from one segmented sieve over
    8n - 1, each from its own fields of the sieve's state.
    """
    rows = {"count": count_parity_bits(limit),
            "theta": theta_parity_bits(limit)}
    rows["norm"], crit = _sieve_rows(limit)
    count = rows["count"]
    # bit n is set where some route disagrees with the count route at n
    diff = (count ^ rows["theta"]) | (count ^ rows["norm"]) | (count ^ crit)
    rows["disagreements"] = [n for n, bit in enumerate(f"{diff:b}"[::-1])
                             if n and bit == "1"]
    return rows
