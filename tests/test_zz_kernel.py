"""The slice/accumulate ZZ binomial passes against plain index loops, and
the series division kernel against a schoolbook multiply-back."""

import pytest
from hypothesis import example, given, settings, strategies as st

from unirank.series import (UnirankError, div_binomial_ints,
                            div_series_ints, mul_binomial_ints)


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
