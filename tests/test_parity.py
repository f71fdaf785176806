"""Tests for the parity module."""

import math
import random

import pytest

from unirank import gflib as gf
from unirank import parity as par
from unirank.series import UnirankError

ODD_BELOW_200 = [
    2, 3, 6, 9, 11, 17, 20, 21, 24, 26, 30, 33, 38, 39, 45, 48, 53, 54, 56,
    60, 63, 65, 72, 74, 75, 80, 81, 90, 92, 93, 98, 101, 105, 108, 110, 111,
    114, 119, 123, 129, 138, 141, 144, 146, 147, 152, 153, 165, 171, 173,
    179, 180, 186, 188, 189, 191, 195, 198]


def test_count_parity_matches_exact_series():
    order = 120
    exact = gf.series_U2_negq(order).marginal()
    bits = par.count_parity_bits(order)
    for n in range(order + 1):
        assert (bits >> n) & 1 == exact.coeffs[n] % 2, n


def ref_count_parity_bits(limit):
    """The defining sum mod 2 with every term held at full width."""
    mask = (1 << (limit + 1)) - 1

    def divide(bits, k):
        step = k
        while step <= limit:
            bits ^= bits << step
            step <<= 1
        return bits & mask
    acc = 0
    term = divide(4 & mask, 1)
    n = 1
    while 2 * n <= limit:
        acc ^= term
        term = (term ^ (term << 4 * n)) & mask
        term = divide((term << 2) & mask, 2 * n + 1)
        n += 1
    return acc


def ref_factorize(m):
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def test_windowed_count_route_matches_full_width():
    # across the switch to the one-pass tail, near limit / 4
    for limit in list(range(401)) + [1000, 4097, 20000]:
        assert par.count_parity_bits(limit) == ref_count_parity_bits(limit), \
            limit


def test_divide_binomial_multiplies_back():
    # reversed frame, bit i is q^(width - 1 - i): times 1 - q^k is r ^ r >> k
    rng = random.Random(17)
    for _ in range(2000):
        width = rng.randrange(1, 400)
        k = rng.randrange(1, width + 8)
        bits = rng.getrandbits(width)
        r = par._divide_binomial(bits, k, width)
        assert r.bit_length() <= width, (width, k)
        assert r ^ (r >> k) == bits, (width, k)
    # 1/(1 - q) is all ones
    assert par._divide_binomial(1 << 99, 1, 100) == (1 << 100) - 1
    with pytest.raises(UnirankError):
        par._divide_binomial(1, 0, 10)


def test_count_row_fits_its_limit():
    # past the limits the full-width reference checks
    for limit in (0, 1, 2, 3, 10**5):
        assert par.count_parity_bits(limit).bit_length() <= limit + 1, limit


def test_factorize_matches_trial_division():
    for m in range(1, 2 * 10**5):
        assert par._factorize(m) == ref_factorize(m), m
    # an odd m past the table built so far makes it grow
    size = len(par._lpf)
    m = 2 * size + 1
    assert par._factorize(m) == ref_factorize(m)
    assert len(par._lpf) > size
    rng = random.Random(7)
    for m in [rng.randrange(1, 16 * 10**6) for _ in range(2000)]:
        assert par._factorize(m) == ref_factorize(m), m
    # odd parts above the sieve's top are trial-divided
    top = par._SIEVE_TOP
    for m in (top - 1, top + 1, top + 3, 2**31 - 1, 10007 * 10009 * 4,
              4099**2, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23):
        assert par._factorize(m) == ref_factorize(m), m


def test_disagreements_are_reported(monkeypatch):
    # the flip goes on the sieve's criterion row, which parity_agreement
    # reads beside its norm row
    honest = par._sieve_rows

    def flipped(limit):
        norm, crit = honest(limit)
        return norm, crit ^ (1 << 1 | 1 << 37 | 1 << 150)
    monkeypatch.setattr(par, "_sieve_rows", flipped)
    assert par.parity_agreement(150)["disagreements"] == [1, 37, 150]


def test_shared_loop_matches_single_routes(monkeypatch):
    honest = par._sieve_rows
    seen = []

    def spy(limit):
        seen.append(honest(limit))
        return seen[-1]
    monkeypatch.setattr(par, "_sieve_rows", spy)
    report = par.parity_agreement(600)
    monkeypatch.undo()
    [(norm, crit)] = seen
    assert report["norm"] == norm == par.norm_parity_bits(600)
    assert crit == sum(par.odd_criterion(n) << n for n in range(1, 601))


def assert_sieve_matches(limit, at, block=par._BLOCK):
    """The sieve's rows through ``limit`` equal the per-n routes at ``at``."""
    norm, crit = par._sieve_rows(limit, block)
    assert norm.bit_length() <= limit + 1 and crit.bit_length() <= limit + 1
    assert not norm & 1 and not crit & 1
    for n in at:
        assert norm >> n & 1 == par.norm_parity(n), (limit, block, n)
        assert crit >> n & 1 == par.odd_criterion(n), (limit, block, n)


def test_sieve_rows_match_per_n_routes():
    # every n through 20000, across the block edges at 8192 and 16384
    assert_sieve_matches(20000, range(1, 20001))
    assert par._sieve_rows(0) == (0, 0)
    # every small limit, with blocks that end short of the limit
    for limit in range(1, 61):
        for block in (7, 11):
            assert_sieve_matches(limit, range(1, limit + 1), block)
    # every n through 1000 in blocks of 64, 15 full and one short
    assert_sieve_matches(1000, range(1, 1001), 64)
    # the first two n with p^k | 8n - 1, up to n = 510528 for 13^5
    at = set()
    for p in (5, 7, 11, 13):
        for k in range(2, 6):
            first = pow(8, -1, p ** k)
            at |= {first, first + p ** k}
    assert_sieve_matches(max(at), sorted(at))


def test_sieve_cofactor_just_above_the_bound():
    # P is the least prime above isqrt(8 limit), so the walks stop below
    # it and P is left as the cofactor of every 8n - 1 it divides; at 1275
    # isqrt(8 limit) is 100 and P = 101, at 1276 it is 101, whose walks
    # reach 101^2 = 10201 <= 8 limit, and P = 103
    for limit in (40, 1000, 1275, 1276, 20000):
        r = math.isqrt(8 * limit)
        P = next(m for m in range(r + 1, 2 * r + 2)
                 if ref_factorize(m) == {m: 1})
        at = range(pow(8, -1, P), limit + 1, P)
        assert at, limit
        assert_sieve_matches(limit, at)


def stub_out(monkeypatch, *names):
    def refuse(*args):
        raise AssertionError("a parity route used another route's code")
    for name in names:
        monkeypatch.setattr(par, name, refuse)


def test_routes_are_independent(monkeypatch):
    row = ref_count_parity_bits(600)
    with monkeypatch.context() as m:
        stub_out(m, "theta_parity_bits", "_factorize", "ideal_count")
        assert par.count_parity_bits(600) == row
    with monkeypatch.context() as m:
        stub_out(m, "count_parity_bits", "_divide_binomial", "_factorize")
        assert par.theta_parity_bits(600) == row
    with monkeypatch.context() as m:
        stub_out(m, "count_parity_bits", "theta_parity_bits",
                 "_divide_binomial")
        # the norm row has no coefficient at n = 0
        assert par.norm_parity_bits(600) == row & ~1


def test_odd_positions_below_200():
    bits = par.count_parity_bits(200)
    assert [n for n in range(201) if (bits >> n) & 1] == ODD_BELOW_200


def test_three_routes_agree():
    report = par.parity_agreement(600)
    assert report["disagreements"] == []
    assert report["count"] == report["theta"]
    # the norm row has no coefficient at n = 0
    assert report["norm"] == report["count"] & ~1


def test_criterion_matches_bits():
    bits = par.count_parity_bits(400)
    for n in range(1, 401):
        assert par.odd_criterion(n) == bool((bits >> n) & 1), n


def test_rep_count_small_values():
    # (5, 0); (7, 2); (7, -2) for m = 25 and so on
    assert [par.rep_count(m) for m in range(1, 13)] == [
        1, 0, 1, 1, 0, 0, 0, 0, 1, 2, 0, 1]
    assert par.rep_count(25) == 3
    assert par.rep_count(10) == 2


def test_rep_count_respects_domain_boundary():
    # m = 3 has the solutions (3, 1) and (3, -1); only v = +u/3 is kept
    assert par.rep_count(3) == 1


def test_ideal_count_formula_cases():
    assert par.ideal_count(1) == 1
    # 2 alone has odd two-exponent
    assert par.ideal_count(2) == 0
    # norm 10 = 2 * 5 balances the two-exponent against g = 1
    assert par.ideal_count(10) == 2
    # primes that are 7, 11, 13, 17 mod 24 must appear to even powers
    assert par.ideal_count(7) == 0
    assert par.ideal_count(49) == 1
    # split primes that are 1 or 19 mod 24 contribute e + 1
    assert par.ideal_count(19) == 2
    assert par.ideal_count(19 * 19) == 3
    assert par.ideal_count(73) == 2


def test_ideal_count_matches_rep_count():
    for m in range(1, 2001):
        assert par.ideal_count(m) == par.rep_count(m), m


def test_norm_parity_values():
    assert par.norm_parity(2) == 1
    assert par.norm_parity(1) == 0
    assert par.norm_parity(17) == 1


def test_guards():
    with pytest.raises(UnirankError):
        par.rep_count(0)
    with pytest.raises(UnirankError):
        par.ideal_count(-3)
    with pytest.raises(UnirankError):
        par.norm_parity(0)
    with pytest.raises(UnirankError):
        par.odd_criterion(0)
    with pytest.raises(UnirankError):
        par.count_parity_bits(-1)
    with pytest.raises(UnirankError):
        par.theta_parity_bits(-1)
    with pytest.raises(UnirankError):
        par.norm_parity_bits(-1)
