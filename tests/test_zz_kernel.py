"""The slice/accumulate ZZ binomial passes against plain index loops, the
series division kernel against a schoolbook multiply-back, and the sparse
series multiply against the schoolbook product and the division."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from unirank.series import (UnirankError, _convolve, div_binomial_ints,
                            div_series_ints, mul_binomial_ints,
                            mul_series_ints)


def ref_mul(c, k, b):
    """Multiply by (1 + b q^k) one coefficient at a time, top down."""
    for i in range(len(c) - 1, k - 1, -1):
        v = c[i - k]
        if v:
            c[i] += b * v


def ref_div(c, k, b):
    """Divide by (1 + b q^k) one coefficient at a time, bottom up."""
    for i in range(k, len(c)):
        v = c[i - k]
        if v:
            c[i] -= b * v


@st.composite
def pass_args(draw):
    c = draw(st.lists(st.integers(-10**30, 10**30), max_size=60))
    k = draw(st.integers(0, len(c) + 2))
    b = draw(st.integers(-3, 3))
    return c, k, b


@settings(max_examples=400, deadline=None)
@given(pass_args())
# residue classes (k * k < len) and blocks (k * k >= len), both signs
@example((list(range(-20, 20)), 3, 1))
@example((list(range(-20, 20)), 3, -1))
@example((list(range(-20, 20)), 7, 1))
@example((list(range(-20, 20)), 7, -1))
@example(([5, -2, 7], 0, 1))
@example(([], 0, -1))
def test_binomial_passes_match_loops(args):
    c, k, b = args
    got, want = c[:], c[:]
    mul_binomial_ints(got, k, b)
    ref_mul(want, k, b)
    assert got == want
    if k < 1:
        return
    got, want = c[:], c[:]
    div_binomial_ints(got, k, b)
    ref_div(want, k, b)
    assert got == want
    mul_binomial_ints(got, k, b)
    assert got == c
    mul_binomial_ints(got, k, b)
    div_binomial_ints(got, k, b)
    assert got == c


@pytest.mark.parametrize("k", [0, -1])
def test_div_binomial_ints_needs_positive_power(k):
    c = [1, 2, 3]
    with pytest.raises(UnirankError):
        div_binomial_ints(c, k, 1)
    assert c == [1, 2, 3]


def ref_multiply_back(q, d, s):
    """The list that ``div_series_ints(., d, s)`` takes to ``q``: c[n] =
    q[n] + (sum of d[j] q[n-j] over 1 <= j <= n) >> s, one product at a
    time; for s = 0 the product of q and d through q's length."""
    return [q[n] + (sum(d[j] * q[n - j]
                        for j in range(1, min(n, len(d) - 1) + 1)) >> s)
            for n in range(len(q))]


@st.composite
def division_args(draw):
    c = draw(st.lists(st.integers(-10**30, 10**30), max_size=50))
    # mostly +-1 and 0, the divisors' usual terms, with a few larger ones;
    # d[0] is not read, and d may be shorter or longer than c
    d = draw(st.lists(st.sampled_from([-1, 0, 1, 1, -1, 0, 0, 2, -5, 10**20]),
                      max_size=len(c) + 3))
    return c, d, draw(st.sampled_from([0, 0, 1, 3, 64]))


@settings(max_examples=400, deadline=None)
@given(division_args())
@example(([7, -3, 2, 5, 11, -13], [4, -1, 1, -1], 0))
@example(([7, -3, 2, 5, 11, -13], [4, 3, 1, -1, -2], 3))
@example((list(range(-20, 20)), [1, -1, -1, 0, 0, 1, 0, 1], 0))
def test_series_division_multiplies_back(args):
    c, d, s = args
    got = c[:]
    div_series_ints(got, d, s)
    assert ref_multiply_back(got, d, s) == c


def test_series_multiply_matches_product_and_divides_back():
    """Random big-int lists times random sparse d with d[0] = 1 and the
    terms of the theta products (+-1, +-2, (-1)^n (2n+1)), d shorter or
    longer than the list: the product is the schoolbook one truncated to
    the list's length, and dividing by d gives the list back."""
    rng = random.Random(28)
    for length in list(range(61)) + [1001]:
        c = [rng.randint(-10 ** 40, 10 ** 40) for _ in range(length)]
        d = [0] * rng.randint(0, length + 3)
        for j in range(len(d)):
            if rng.random() < 0.2:
                n = rng.randrange(40)
                d[j] = rng.choice([1, -1, 2, -2, (-1) ** n * (2 * n + 1)])
        if d:
            d[0] = 1
        got = c[:]
        mul_series_ints(got, d)
        padded = ([1] + d[1:] + [0] * length)[:length]
        assert got == _convolve(c, padded), length
        div_series_ints(got, d)
        assert got == c, length
