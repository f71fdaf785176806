"""Exact count sequences, growth checks, and asymptotic probes.

Counts are computed with dense big-integer coefficient lists rather than
the ring-generic series classes; up to the cap of index 5000 the exact
values overflow machine words but stay cheap for Python integers.  Each
count comes from a form with O(sqrt N) terms: every infinite product in it
is one of the sparse series of Euler, Gauss and Jacobi (G. E. Andrews,
The Theory of Partitions, 1976, chs. 1-2),
    (q;q)_inf = sum over j in Z of (-1)^j q^(j(3j-1)/2),
    phi(-q) = (q;q)_inf / (-q;q)_inf = sum over n in Z of (-1)^n q^(n^2),
    psi(q^2) = (q^4;q^4)_inf / (q^2;q^4)_inf = sum over n >= 0 of
        q^(n(n+1)),
    (x;x)_inf^3 = sum over n >= 0 of (-1)^n (2n+1) x^(n(n+1)/2),
which multiply by slice adds (``series.mul_series_ints``) and divide by
one sparse recurrence (``series.div_series_ints``).

p(n) divides 1 by (q;q)_inf.  u(n) divides a Lambert sum by it,
    U(q) (q;q)_inf = sum over m >= 1 of
        (q^(m(m+1)/2) + (-1)^(m+1) q^(m(3m+1)/2)) / (1 + q^m).
This is eq. (1.2) at zeta = 1, 4 U(q) (q;q)_inf = 2 sum over n in Z of
q^(n(n+1)/2) / (1 + q^n) - R(-1; q) (q;q)_inf, with Garvan's Lambert form
of the rank generating function (Trans. AMS 305, 1988) at zeta = -1,
R(-1; q) (q;q)_inf = 2 sum over n in Z of (-1)^n q^(n(3n+1)/2) / (1 + q^n);
the terms n and -n of each sum are equal.

u2(n) is prop. 5.1 at zeta = 1, whose left side is then 4 U2(1; -q):
    4 U2(1; -q) = -A + 4 psi(q^2) / (q;q)_inf (1 - B / (1 + q))
                  + (q;q)_inf^3 phi(-q) / (q^2;q^2)_inf^3,
    A = sum over n >= 0 of (-1)^n q^(n^2) (q;q^2)_n / (-q^2;q^2)_n^2,
    B = sum over n >= 0 of q^(2n^2) / ((-q^3;q^2)_n (-q;q^2)_n).

u2bar(n) is the zeta-derivative of prop. 4.1 at zeta = 1.  Its left side
is (2 - 2 zeta^2) Ubar2(zeta; -q), 0 at zeta = 1, so Ubar2(1; -q) =
-G'(1) / 4 for its right side G; the product (-zeta q^2, -q^2/zeta;
q^2)_inf there is symmetric in zeta <-> 1/zeta, so its derivative at
zeta = 1 is 0, and
    4 Ubar2(1; -q) = 2q (3 L0 + 2 L0') / phi(-q)
                     - (2 L1 + L1' - L2 - L2') / psi(q^2),
L_i = sum over n in Z of (-1)^(f n) q^(a n^2 + b n + c) / (1 + zeta q^(2n+1))
at zeta = 1, ' the derivative there, (a, b, c, f) = (2, 3, 0, 1),
(1, 3, 1, 0) and (1, 1, 0, 0).  The terms n and -n-1 share the pole
1 + q^(2n+1): paired, L0's values cancel and L1's and L2's both sum to
psi(q^2), which leaves
    Ubar2(1; -q) = q / phi(-q) sum over n >= 0 of
                       (-1)^n q^(2n^2+3n) (1 - q^(2n+1)) / (1 + q^(2n+1))^2
                   - 1 / psi(q^2) sum over n >= 0 of
                       q^(n^2+3n+1) / (1 + q^(2n+1))^2,
two division passes per pole.

Each summed q-series is a row of ``rows.ROWS``, whose ZZ image
``series.row_ints`` sums term by term on integer lists: A = R2(-1; -q) and
B = R(-q; q^2), the rows R2_negs and R_negzq_q2 at zeta = 1 (O(sqrt N)
terms of a few passes each) and S1 and S2 of ``lambert_split_check``, all
four in ``_SUMS`` under the names of their float limit probes at
q = exp(-w), and u2bar's grouped defining sum, the row ``grouped``.  The
asymptotic main terms use only float arithmetic.
"""
import itertools
import math
from operator import add, sub

from .rows import ROWS
from .series import (UnirankError, div_binomial_ints, div_series_ints,
                     factors_at, mul_binomial_ints, mul_series_ints, row_ints,
                     row_terms)

__all__ = [
    "COUNT_KEYS", "exact_counts", "partial_sum_terms", "group_identities",
    "nonneg_prefix_ok", "monotonicity_check", "asymptotic_main",
    "tauberian_main", "ratio_report", "ratios_strictly_improving",
    "eta_asymptotic_probe", "eta_product_probe", "lambert_limit_probe",
    "lambert_split_check", "MAX_LIMIT",
]

COUNT_KEYS = ("p", "u", "u2bar", "u2")
MAX_LIMIT = 5000   # largest count index taken from outside


def _check_limit(limit: int) -> None:
    if not 0 <= limit <= MAX_LIMIT:
        raise UnirankError(f"limit must be between 0 and {MAX_LIMIT}")


def _sparse(limit, term):
    """Dense list through q^limit of the sum over n >= 0 of c_n q^(e_n),
    (e_n, c_n) = term(n) with e_n rising in n."""
    d = [0] * (limit + 1)
    for n in itertools.count():
        e, c = term(n)
        if e > limit:
            return d
        d[e] += c


def _sign(n):
    return -1 if n % 2 else 1


def _euler(n):
    """Term n of (q;q)_inf: (-1)^j q^(j(3j-1)/2) at j = 0, 1, -1, 2, ..."""
    j = (n + 1) // 2 if n % 2 else -(n // 2)
    return j * (3 * j - 1) // 2, _sign(j)


def _phi_neg(n):
    """Term n of phi(-q), the terms n and -n of its sum over Z merged."""
    return n * n, _sign(n) * (2 if n else 1)


def _psi_q2(n):
    """Term n of psi(q^2)."""
    return n * (n + 1), 1


def _cube(s):
    """The terms of (q^s;q^s)_inf^3 as a ``_sparse`` term function."""
    return lambda n: (s * n * (n + 1) // 2, _sign(n) * (2 * n + 1))


def _euler_divide(c):
    """Divide the integer list ``c`` by (q;q)_inf in place and return it."""
    div_series_ints(c, _sparse(len(c) - 1, _euler))
    return c


_SUMS = {"half": ROWS["S1"], "quarter": ROWS["S2"], "one": ROWS["R2_negs"],
         "four-thirds": ROWS["R_negzq_q2"]}


def _u2_counts(limit):
    """u2 from prop. 5.1 at zeta = 1 (module docstring)."""
    a = row_ints(_SUMS["one"], limit)
    b = row_ints(_SUMS["four-thirds"], limit)
    div_binomial_ints(b, 1, 1)
    t = [-4 * v for v in b]
    t[0] += 4
    mul_series_ints(t, _sparse(limit, _psi_q2))
    _euler_divide(t)
    c = _sparse(limit, _phi_neg)
    mul_series_ints(c, _sparse(limit, _cube(1)))
    div_series_ints(c, _sparse(limit, _cube(2)))
    return [(x + y - z) >> 2 for x, y, z in zip(t, c, a)]


def _rational(limit, num_pairs, den_pairs, poly):
    """Coefficients of poly(q) prod(1 + s q^k)[num] / prod(1 + s q^k)[den],
    the numerator polynomial ``poly`` given as {exponent: coefficient}."""
    c = [0] * (limit + 1)
    for e, v in poly.items():
        if e <= limit:
            c[e] += v
    for k, s in num_pairs:
        mul_binomial_ints(c, k, s)
    for k, s in den_pairs:
        div_binomial_ints(c, k, s)
    return c


def _lambert(limit, first, summand):
    """Sum over n >= first of the summands through q^limit: summand(n) is
    (monomials, poles), the (exponent, coefficient) monomials, the first
    of least exponent, which rises with n, over the product of 1 + q^k for
    k in poles, one division pass each."""
    acc = [0] * (limit + 1)
    for n in itertools.count(first):
        monomials, poles = summand(n)
        val = monomials[0][0]
        if val > limit:
            return acc
        term = _rational(limit - val, [], [(k, 1) for k in poles],
                         {e - val: c for e, c in monomials})
        acc[val:] = map(add, acc[val:], term)


def _u2bar_counts(limit):
    """u2bar from the zeta-derivative of prop. 4.1 at zeta = 1 (module
    docstring)."""
    x = _lambert(limit, 0, lambda n: ([(2 * n * n + 3 * n + 1, _sign(n)),
                                       (2 * n * n + 5 * n + 2, -_sign(n))],
                                      [2 * n + 1] * 2))
    y = _lambert(limit, 0, lambda n: ([(n * n + 3 * n + 1, 1)],
                                      [2 * n + 1] * 2))
    div_series_ints(x, _sparse(limit, _phi_neg))
    div_series_ints(y, _sparse(limit, _psi_q2))
    return list(map(sub, x, y))


def partial_sum_terms(limit, count=None):
    """The grouped summands F_n of (1 - q) times the even-peak overlined
    series at the flipped sign: F_n = (-q^2;q^2)_{n-1} q^{2n}
    / ((1 + q^{2n}) (q^3;q^2)_{n-1}).

    Returns the list [F_1, F_2, ...] as coefficient lists through q^limit,
    stopping after ``count`` terms or once the terms vanish.
    """
    _check_limit(limit)
    return [[0] * v + w for v, _, w in
            itertools.islice(row_terms(ROWS["grouped"], limit), count)]


def exact_counts(key: str, limit: int):
    """Exact count sequence through index ``limit`` for one of the keys
    'p' (partitions), 'u' (strongly unimodal), 'u2bar' (even-peak
    overlined, sign-flipped), 'u2' (even-peak plain, sign-flipped).

    'u' is sum over k >= 1 of q^k (-q;q)_{k-1}^2, taken as U(q) (q;q)_inf
    = sum over m >= 1 of (q^(m(m+1)/2) + (-1)^(m+1) q^(m(3m+1)/2))
    / (1 + q^m), eq. (1.2) at zeta = 1 with Garvan's Lambert form of
    R(-1; q): one division pass per m, then one division by (q;q)_inf.
    'u2' is sum over n >= 1 of q^{2n} (-q^2;q^2)_{n-1}^2 / (q;q^2)_n, taken
    from prop. 5.1 at zeta = 1: A, B and four sparse products.  'u2bar' is
    sum over n >= 1 of q^{2n} (-q^2;q^2)_{n-1} / ((q;q^2)_n (1 + q^{2n})),
    taken as -1/4 of the zeta-derivative of prop. 4.1's right side at
    zeta = 1: two Lambert sums over (1 + q^(2n+1))^2, divided by phi(-q)
    and psi(q^2).  The module docstring derives both."""
    _check_limit(limit)
    if key == "p":
        return _euler_divide([1] + [0] * limit)
    if key == "u":
        return _euler_divide(_lambert(limit, 1, lambda m: (
            [(m * (m + 1) // 2, 1), (m * (3 * m + 1) // 2, -_sign(m))], [m])))
    if key == "u2":
        return _u2_counts(limit)
    if key == "u2bar":
        return _u2bar_counts(limit)
    raise UnirankError(f"unknown count key {key!r}; choices: {COUNT_KEYS}")


def group_identities(limit: int):
    """Exact checks behind the term-grouping monotonicity argument.

    Returns a dict of booleans:
      * ``f13``: F_1 + F_3 equals its closed rational form,
      * ``f24``: F_2 + F_4 equals its closed rational form,
      * ``f24_tail``: the further regrouping of the F_2 + F_4 bound into
        two manifestly nonnegative pieces,
      * ``g_nonneg``: the auxiliary G_n series have nonnegative
        coefficients for n = 3..8,
      * ``f_nonneg``: F_n has nonnegative coefficients for n = 3..8,
      * ``f_head_nonneg``: F_1 + F_2 + F_3 + F_4 has nonnegative
        coefficients.
    """
    _check_limit(limit)
    terms = partial_sum_terms(limit, count=8)
    while len(terms) < 8:
        terms.append([0] * (limit + 1))
    f1, f2, f3, f4 = terms[0], terms[1], terms[2], terms[3]

    lhs13 = [a + b for a, b in zip(f1, f3)]
    # (1 + q^4 + q^9) q^2 / (1 - q^12)
    part_a = _rational(limit, [], [(12, -1)], {2: 1, 6: 1, 11: 1})
    # (q^4 + q^7 + 2 q^8 + 2 q^11 + q^15 + q^19) q^2 / ((1-q^5)(1-q^12))
    part_b = _rational(limit, [], [(5, -1), (12, -1)],
                       {6: 1, 9: 1, 10: 2, 13: 2, 17: 1, 21: 1})
    rhs13 = [a + b for a, b in zip(part_a, part_b)]
    if limit >= 4:
        rhs13[4] -= 1
    ok13 = lhs13 == rhs13

    lhs24 = [a + b for a, b in zip(f2, f4)]
    part_c = _rational(limit, [(2, 1)], [(3, -1), (4, 1)], {4: 1})
    part_d = _rational(limit, [(2, 1), (4, 1), (6, 1)],
                       [(3, -1), (5, -1), (7, -1), (8, 1)], {8: 1})
    rhs24 = [a + b for a, b in zip(part_c, part_d)]
    ok24 = lhs24 == rhs24

    # dropping the (1 - q^7) denominator keeps the remainder nonnegative,
    # and the result regroups into two nonnegative closed forms
    lhs_tail = [a + b for a, b in zip(
        _rational(limit, [(2, 1)], [(3, -1), (4, 1)], {4: 1}),
        _rational(limit, [(2, 1), (4, 1), (6, 1)],
                  [(3, -1), (5, -1), (8, 1)], {8: 1}))]
    # (1 + 2q + q^2 + q^4 + q^7 + q^8 + q^10) q^13 / ((1-q^5)(1-q^16))
    # + (1 + q^2 + 2q^8 + q^10 + 2q^13 + q^19) q^4 / ((1-q^3)(1-q^16))
    tail = [a + b for a, b in zip(
        _rational(limit, [], [(5, -1), (16, -1)],
                  {13: 1, 14: 2, 15: 1, 17: 1, 20: 1, 21: 1, 23: 1}),
        _rational(limit, [], [(3, -1), (16, -1)],
                  {4: 1, 6: 1, 12: 2, 14: 1, 17: 2, 23: 1}))]
    ok_tail = lhs_tail == tail

    g_ok = True
    g3 = _rational(limit, [], [(3, -1), (6, 1)], {6: 1})
    g_ok &= all(x >= 0 for x in g3)
    for n in range(4, 9):
        if 2 * n > limit:
            break
        gn = _rational(limit, [], [(3, -1), (2 * n - 3, -1), (2 * n, 1)],
                       {2 * n: 1})
        g_ok &= all(x >= 0 for x in gn)

    f_ok = all(all(x >= 0 for x in terms[n]) for n in range(2, 8))
    head = [a + b + c + d for a, b, c, d in zip(f1, f2, f3, f4)]
    head_ok = all(x >= 0 for x in head)

    return {"f13": ok13, "f24": ok24, "f24_tail": ok_tail,
            "g_nonneg": g_ok, "f_nonneg": f_ok, "f_head_nonneg": head_ok}


def nonneg_prefix_ok(limit: int) -> bool:
    """True when (1 - q) times the sign-flipped even-peak overlined series
    has nonnegative coefficients through q^limit, which forces the count
    sequence to be monotone."""
    _check_limit(limit)
    return all(x >= 0 for x in row_ints(ROWS["grouped"], limit))


def monotonicity_check(key: str, limit: int):
    """First index n with count(n + 1) < count(n), or None."""
    counts = exact_counts(key, limit)
    for n in range(limit):
        if counts[n + 1] < counts[n]:
            return n
    return None


def asymptotic_main(key: str, n: int) -> float:
    """Leading-order growth prediction for count key at index n."""
    if n < 1:
        raise UnirankError("n must be >= 1")
    if key == "p":
        return math.exp(math.pi * math.sqrt(2 * n / 3)) \
            / (4 * math.sqrt(3) * n)
    if key == "u":
        return math.exp(math.pi * math.sqrt(2 * n / 3)) \
            / (8 * 6 ** 0.25 * n ** 0.75)
    if key == "u2bar":
        return math.exp(math.pi * math.sqrt(n / 2)) \
            / (8 * (2 * n) ** 0.75)
    if key == "u2":
        return math.exp(math.pi * math.sqrt(2 * n / 3)) \
            / (4 * math.sqrt(3) * (6 * n) ** 0.75)
    raise UnirankError(f"unknown count key {key!r}; choices: {COUNT_KEYS}")


def tauberian_main(lam: float, alpha: float, a_const: float,
                   n: int) -> float:
    """Coefficient main term implied by f(e^-t) ~ lam t^alpha e^{A/t}:
    a(n) ~ (lam / (2 sqrt(pi))) A^{alpha/2 + 1/4} n^{-alpha/2 - 3/4}
    e^{2 sqrt(A n)}."""
    if n < 1:
        raise UnirankError("n must be >= 1")
    return (lam / (2 * math.sqrt(math.pi))
            * a_const ** (alpha / 2 + 0.25)
            * n ** (-alpha / 2 - 0.75)
            * math.exp(2 * math.sqrt(a_const * n)))


def ratio_report(key: str, checkpoints=(500, 1000, 2000)):
    """Exact count over predicted main term at each checkpoint."""
    top = max(checkpoints)
    counts = exact_counts(key, top)
    out = []
    for n in checkpoints:
        ratio = counts[n] / asymptotic_main(key, n)
        out.append((n, ratio))
    return out


def ratios_strictly_improving(key: str, checkpoints=(500, 1000, 2000)):
    """True when |ratio - 1| strictly decreases along the checkpoints."""
    gaps = [abs(r - 1.0) for _, r in ratio_report(key, checkpoints)]
    return all(a > b for a, b in zip(gaps, gaps[1:]))


def _log_qpoch(q, step, start):
    """log prod_{j >= 0} (1 + start * q^{step j}), cut once factors reach
    1, as a sum of log1p: the product itself underflows at small w."""
    total = 0.0
    factor = start
    while abs(factor) > 1e-17:
        total += math.log1p(factor)
        factor *= q ** step
    return total


def eta_asymptotic_probe(w_list):
    """Ratio of (e^-w; e^-w)_inf to sqrt(2 pi / w) e^{-pi^2/(6 w)} at each
    probe point; the ratio tends to 1 as w -> 0.

    Products are truncated once the next factor is within 1e-17 of 1,
    which perturbs the log of the product by less than
    2e-17 / (1 - e^-w), far below double-precision roundoff here.
    """
    return [(w, eta_product_probe(w)["dedekind"]) for w in w_list]


def eta_product_probe(w: float):
    """Ratios of three infinite products to their leading asymptotics at
    q = exp(-w); all three tend to 1 as w -> 0.

    The products are (q;q)_inf against sqrt(2 pi / w) e^{-pi^2/(6w)},
    4 (q^4;q^4)_inf^2 / ((q;q)_inf (q^2;q^2)_inf) against
    sqrt(2) e^{pi^2/(6w)}, and (q;q)_inf^5 / (q^2;q^2)_inf^4 against
    4 sqrt(2 pi / w) e^{-pi^2/(2w)}."""
    if w <= 0:
        raise UnirankError("w must be positive")
    q = math.exp(-w)
    e1 = _log_qpoch(q, 1, -q)
    e2 = _log_qpoch(q, 2, -q * q)
    e4 = _log_qpoch(q, 4, -q ** 4)
    c = math.pi * math.pi / (6 * w)
    half_log = 0.5 * math.log(2 * math.pi / w)   # log sqrt(2 pi / w)
    return {
        "dedekind": math.exp(e1 - half_log + c),
        "plus": math.exp(1.5 * math.log(2) + 2 * e4 - e1 - e2 - c),
        "minus": math.exp(5 * e1 - 4 * e2 - math.log(4) - half_log + 3 * c),
    }


def _float_sum(q, row):
    """Float value at 0 < q < 1 of the ZZ image of a ``_SUMS`` row, stopped
    at the first term below 1e-17 in absolute value: every step's ratio is
    below 1 in absolute value there, so the terms fall."""
    def poch(factors, n):
        return math.prod(1 - c * q ** r
                         for c, _, r in factors_at(factors, n, row.step))

    total = 0.0
    term = q ** row.e * poch(row.ups0, 1) / poch(row.downs0, 1)
    n = 1
    while abs(term) >= 1e-17:
        total += term
        term *= row.mult[0] * q ** (row.mult[2] + row.quad * (n - 1)) \
            * poch(row.ups, n) / poch(row.downs, n)
        n += 1
    return total


def lambert_limit_probe(w: float):
    """Values at q = exp(-w) of the sums of ``_SUMS``, keyed by their names,
    which name each sum's w -> 0 limit."""
    if w <= 0:
        raise UnirankError("w must be positive")
    return {name: _float_sum(math.exp(-w), row)
            for name, row in _SUMS.items()}


def lambert_split_check(order: int = 60) -> bool:
    """Exact check of the two-sum split of the sign-flipped even-peak
    overlined series, q (-q^2;q^2)_inf / (q;q^2)_inf * S1 - q * S2, with S1
    and S2 the sums 'half' and 'quarter' of ``_SUMS``."""
    _check_limit(order)
    rhs = _rational(order, [(k, 1) for k in range(2, order + 1, 2)],
                    [(k, -1) for k in range(1, order + 1, 2)], {1: 1})
    mul_series_ints(rhs, row_ints(_SUMS["half"], order))
    q_s2 = [0] + row_ints(_SUMS["quarter"], order)[:-1]
    return list(map(sub, rhs, q_s2)) == exact_counts("u2bar", order)
