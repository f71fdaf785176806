"""The slice/accumulate ZZ binomial passes against plain index loops."""

import pytest
from hypothesis import example, given, settings, strategies as st

from unirank.series import UnirankError, div_binomial_ints, mul_binomial_ints


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
