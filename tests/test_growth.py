"""Tests for the growth and asymptotics module."""

import inspect
import math
import random
import re
from operator import add

import pytest

from unirank import families as fam
from unirank import gflib as gf
from unirank import growth as gw
from unirank import identities as ids
from unirank import series
from unirank.rows import ROWS
from unirank.series import UnirankError

U2BAR_PREFIX = [0, 0, 1, 1, 1, 1, 4, 5, 5, 7, 11, 13, 18, 23, 31, 41, 49,
                61, 80, 97, 122, 152, 187, 231, 282]
U2_PREFIX = [0, 0, 1, 1, 2, 2, 5, 6, 10, 13, 20, 25, 38, 48, 68, 88, 120,
             153, 206, 260, 343, 433, 560, 702, 899]


def _forward_counts(key, limit):
    """u, u2 and u2bar summed term by term, each summand stepped from the
    one before and added into a full-width accumulator: the literal
    defining sums, an oracle for the identity routes of ``growth``."""
    def mul(c, k):      # c *= 1 + q^k
        c[k:] = map(add, c[k:], c[:max(len(c) - k, 0)])

    def div(c, k, b):   # c /= 1 + b q^k
        for i in range(k, len(c)):
            c[i] -= b * c[i - k]

    val = 1 if key == "u" else 2
    acc = [0] * (limit + 1)
    term = [1] + [0] * (limit - val) if limit >= val else []
    if key == "u2":
        div(term, 1, -1)
    elif key == "u2bar":
        div(term, 2, 1)
    n = 1
    while any(term):
        acc[val:] = map(add, acc[val:], term)
        if key == "u":
            del term[-1:]
            mul(term, n)
            mul(term, n)
            val += 1
        else:
            del term[-2:]
            mul(term, 2 * n)
            mul(term, 2 * n)
            div(term, 2 * n + 1, -1)
            if key == "u2bar":
                div(term, 2 * n + 2, 1)
            val += 2
        n += 1
    if key == "u2bar":
        div(acc, 1, -1)
    return acc


def _zz_row(row):
    """``row`` with every zeta exponent dropped: its ZZ image as a row."""
    def drop(factors):
        return [(f[0], 0) + tuple(f[2:]) for f in factors]
    return row._replace(ups0=drop(row.ups0), downs0=drop(row.downs0),
                        ups=drop(row.ups), downs=drop(row.downs),
                        mult=(row.mult[0], 0, row.mult[2]))


@pytest.mark.parametrize("key", ["u", "u2", "u2bar"])
def test_fold_matches_forward_sum(key):
    """Each identity route against the defining sum at every limit to 150,
    where the sparse series and the sums start and stop, then once at a
    size where the counts are large."""
    for limit in list(range(151)) + [1000]:
        assert gw.exact_counts(key, limit) == _forward_counts(key, limit), \
            limit


def test_lambert_route_matches_forward_sum_at_the_cap():
    """u from its Lambert form, u2 from prop. 5.1 and u2bar from prop.
    4.1's zeta-derivative, each against the literal defining sum at the
    largest limit the CLI takes, where the counts have 60 to 80 digits."""
    for key in ("u", "u2", "u2bar"):
        assert gw.exact_counts(key, gw.MAX_LIMIT) == \
            _forward_counts(key, gw.MAX_LIMIT), key


def test_euler_divide_multiplies_back():
    """Dividing by (q;q)_inf and multiplying back by 1 - q^k, k = 1 ..
    len - 1, gives the input: the recurrence divides by the product
    truncated to the list's length, whatever the list holds."""
    rng = random.Random(18)
    for length in list(range(61)) + [500]:
        c = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(length)]
        d = gw._euler_divide(list(c))
        for k in range(1, length):
            series.mul_binomial_ints(d, k, -1)
        assert d == c, length


def test_growth_uses_no_gflib(monkeypatch):
    """The count routes are formulas of their own, never gflib's or the
    catalog's, which check them: the u, u2 and u2bar routes are eq1.2,
    prop5.1 and prop4.1 at zeta = 1 but share no code with them.  Nor does
    any output of ``growth`` build a ``TruncatedSeries`` or use
    ``term_sum``, ``ratio_step`` and ``row_sum``, the oracle its q-sums are
    tested against.  From the package it imports only ``series`` and the
    row table ``rows``."""
    src = inspect.getsource(gw)
    assert not re.search(r"^\s*(from|import)\s.*\b(gflib|identities)\b",
                         src, re.M)
    assert set(re.findall(r"^from \.(\w*) import", src, re.M)) \
        == {"rows", "series"}
    assert not re.search(r"^import unirank|^from unirank", src, re.M)
    for mod in (gf, ids):
        assert not any(v is mod or getattr(v, "__module__", None)
                       == mod.__name__ for v in vars(gw).values())
        for name, v in list(vars(mod).items()):
            if inspect.isfunction(v) and v.__module__ == mod.__name__:
                def stub(*args, _name=name, **kwargs):
                    raise AssertionError(f"{_name} called")
                monkeypatch.setattr(mod, name, stub)
    oracle = (series.TruncatedSeries, series.ZZ, series.term_sum,
              series.ratio_step, series.row_sum)
    assert not any(v is o for v in vars(gw).values() for o in oracle)
    for owner, name in ((series, "term_sum"), (series, "ratio_step"),
                        (series, "row_sum"),
                        (series.TruncatedSeries, "one"),
                        (series.TruncatedSeries, "monomial")):
        def raiser(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called")
        monkeypatch.setattr(owner, name, raiser)
    counts = {key: gw.exact_counts(key, 24) for key in gw.COUNT_KEYS}
    assert counts["p"][:10] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert counts["u"][:12] == [0, 1, 1, 3, 4, 6, 10, 15, 21, 30, 43, 59]
    assert counts["u2bar"] == U2BAR_PREFIX
    assert counts["u2"] == U2_PREFIX
    assert gw.nonneg_prefix_ok(200) and gw.lambert_split_check(60)
    assert len(gw.partial_sum_terms(24)) == 12
    assert all(gw.group_identities(60).values())


def test_partition_counts():
    p = gw.exact_counts("p", 1000)
    assert p[:10] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert p[50] == 204226
    assert p[1000] == 24061467864032622473692149727991


def test_pentagonal_oracle_uses_no_passes(monkeypatch):
    """p(n) comes from the pentagonal recurrence alone, never from the
    binomial passes or Pochhammer products it is checked against."""
    for owner, name in ((gw, "mul_binomial_ints"), (gw, "div_binomial_ints"),
                        (series, "pochhammer")):
        def stub(*args, _name=name):
            raise AssertionError(f"{_name} called")
        monkeypatch.setattr(owner, name, stub)
    p = gw.exact_counts("p", 1000)
    assert p[50] == 204226
    assert p[1000] == 24061467864032622473692149727991


def test_strongly_unimodal_counts_match_enumerator():
    u = gw.exact_counts("u", 24)
    assert u == [fam.count("strongly-unimodal", n) for n in range(25)]
    assert u[:12] == [0, 1, 1, 3, 4, 6, 10, 15, 21, 30, 43, 59]


@pytest.mark.parametrize("family, key", [
    ("strongly-unimodal", "u"),
    ("m2-left-heavy-overlined", "u2bar"),
    ("m2-left-heavy", "u2"),
])
def test_dp_marginals_match_integer_counts_through_dp_limit(family, key):
    """The ZETA peak-sum tables, summed over the rank, against the integer
    routes of ``growth``, at every size the DP allows: the rank counts
    reach 43 to 52 bits there, and the overlined table's packed slots
    widen from 64 to 128 bits."""
    tables = fam.counts_by_rank_through(family, fam.DP_LIMIT)
    assert [sum(t.values()) for t in tables] == \
        gw.exact_counts(key, fam.DP_LIMIT)


def test_peak_counts_match_series_builders():
    assert gw.exact_counts("u2", 80) == gf.series_U2_negq(80).marginal().coeffs
    assert gw.exact_counts("u2bar", 80) == \
        gf.series_Ubar2_negq(80).marginal().coeffs


def test_peak_count_examples():
    u2bar = gw.exact_counts("u2bar", 24)
    u2 = gw.exact_counts("u2", 24)
    assert u2bar == U2BAR_PREFIX
    assert u2 == U2_PREFIX
    assert u2bar[7] == 5
    assert u2[6] == 5


def test_milestone_counts():
    u2bar = gw.exact_counts("u2bar", 2000)
    u2 = gw.exact_counts("u2", 2000)
    assert u2bar[500] == 2449917488573725891
    assert u2bar[2000] == 3349114354077243864040563200706570928213
    assert u2[500] == 2820650549217157738362
    assert u2[2000] == 8209348634503779875923511385869304815967001593


def test_ratio_trends():
    for key in gw.COUNT_KEYS:
        assert gw.ratios_strictly_improving(key)
    report = dict(gw.ratio_report("u2bar"))
    assert report[500] == pytest.approx(0.932303094649, rel=1e-9)
    assert report[1000] == pytest.approx(0.950613546883, rel=1e-9)
    assert report[2000] == pytest.approx(0.964264812367, rel=1e-9)
    report = dict(gw.ratio_report("u2"))
    assert report[2000] == pytest.approx(0.987040238497, rel=1e-9)


def test_log_ratio_convergence():
    for key in ("u2bar", "u2"):
        counts = gw.exact_counts(key, 2000)
        ratio = math.log(counts[2000]) \
            / math.log(gw.asymptotic_main(key, 2000))
        assert abs(ratio - 1.0) < 0.01


def test_partition_calibration():
    p = gw.exact_counts("p", 1000)
    r = p[1000] / gw.asymptotic_main("p", 1000)
    assert 0.5 < r < 1.5


def test_monotonicity():
    assert gw.monotonicity_check("u2bar", 800) is None
    assert gw.monotonicity_check("u2", 800) is None
    assert gw.nonneg_prefix_ok(800)


def test_group_identities():
    result = gw.group_identities(400)
    assert all(result.values()), result


def test_partial_sum_terms_recombine():
    """The grouped sum behind ``nonneg_prefix_ok``, and the sum of the
    terms ``partial_sum_terms`` lists, are the first differences of the
    u2bar counts: their values, not only their signs."""
    for limit in list(range(151)) + [2000]:
        counts = gw.exact_counts("u2bar", limit)
        diffs = counts[:1] + [counts[i] - counts[i - 1]
                              for i in range(1, limit + 1)]
        assert series.row_ints(ROWS["grouped"], limit) == diffs, limit
        terms = gw.partial_sum_terms(limit)
        total = [sum(col) for col in zip(*terms)] or [0] * (limit + 1)
        assert total == diffs, limit


def test_windowed_sums_match_term_sum():
    """Each row of ``ROWS`` summed by the windowed integer loop,
    ``series.row_ints``, equals its ZZ image through ``series.term_sum``
    and ``series.ratio_step`` (``series.row_sum`` over ZZ), at every limit
    to 80 and at 400.  A and B of the u2 route are the table's rows."""
    assert gw._SUMS["one"] is ROWS["R2_negs"]
    assert gw._SUMS["four-thirds"] is ROWS["R_negzq_q2"]
    for name, row in ROWS.items():
        zz = _zz_row(row)
        for limit in list(range(81)) + [400]:
            exact = series.row_sum(zz, series.ZZ, limit)
            assert series.row_ints(row, limit) == exact.coeffs, (name, limit)
    # the loop steps one window in place; each listed term is a copy
    terms = gw.partial_sum_terms(120)
    before = [t[:] for t in terms]
    for i, t in enumerate(terms):
        t[-1] += 1
        assert [u != b for u, b in zip(terms, before)] == \
            [j == i for j in range(len(terms))], i
        t[-1] -= 1
    assert terms == before == gw.partial_sum_terms(120)


def test_small_limits():
    assert [gw.exact_counts(key, limit) for key in gw.COUNT_KEYS
            for limit in range(4)] == [
        [1], [1, 1], [1, 1, 2], [1, 1, 2, 3],
        [0], [0, 1], [0, 1, 1], [0, 1, 1, 3],
        [0], [0, 0], [0, 0, 1], [0, 0, 1, 1],
        [0], [0, 0], [0, 0, 1], [0, 0, 1, 1]]
    assert [len(gw.partial_sum_terms(limit)) for limit in range(6)] == [
        0, 0, 1, 1, 2, 2]
    assert gw.partial_sum_terms(5) == [[0, 0, 1, 0, -1, 0],
                                       [0, 0, 0, 0, 1, 0]]


def test_lambert_split():
    assert gw.lambert_split_check(60)


def test_limit_probes_converge():
    targets = {"half": 0.5, "quarter": 0.25, "one": 1.0,
               "four-thirds": 4.0 / 3.0}
    rows = [gw.lambert_limit_probe(w) for w in (0.2, 0.1, 0.05)]
    for name, goal in targets.items():
        errs = [abs(row[name] - goal) for row in rows]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05


def test_limit_probes_evaluate_their_exact_sums():
    """Each float probe is the sum its ``_SUMS`` row names: the exact ZZ
    image of the row, built by term_sum and ratio_step and evaluated at
    q = e^-w, agrees with it; near w = 0 every probe sits at its limit."""
    limits = {"half": 0.5, "quarter": 0.25, "one": 1.0,
              "four-thirds": 4.0 / 3.0}
    assert set(gw._SUMS) == set(limits)
    probes = {w: gw.lambert_limit_probe(w) for w in (0.2, 0.5, 1.0)}
    for name, row in gw._SUMS.items():
        exact = series.row_sum(_zz_row(row), series.ZZ, 400)
        for w, probe in probes.items():
            value = exact.evaluate(math.exp(-w))
            assert value.imag == 0
            assert abs(value.real - probe[name]) < 1e-12, (name, w)
        assert abs(gw.lambert_limit_probe(1e-5)[name] - limits[name]) < 1e-4


def test_eta_probe():
    probe = gw.eta_asymptotic_probe((0.5, 0.25, 0.125))
    gaps = [abs(r - 1.0) for _, r in probe]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01
    # far from the w -> 0 regime the ratio is visibly off
    (_, far), = gw.eta_asymptotic_probe((5.0,))
    assert abs(far - 1.0) > 0.2
    ratios = gw.eta_product_probe(0.05)
    for name in ("dedekind", "plus", "minus"):
        assert abs(ratios[name] - 1.0) < 0.02
    # deep in the regime the products underflow; their logs do not
    for w in (0.01, 0.002):
        ratios = gw.eta_product_probe(w)
        for name in ("dedekind", "plus", "minus"):
            assert abs(ratios[name] - 1.0) < 0.01, (w, name)


def test_tauberian_consistency():
    for n in (500, 2000):
        assert gw.tauberian_main(0.25, 0.0, math.pi ** 2 / 8, n) == \
            pytest.approx(gw.asymptotic_main("u2bar", n), rel=1e-12)
        assert gw.tauberian_main(1 / (6 * math.sqrt(2)), 0.0,
                                 math.pi ** 2 / 6, n) == \
            pytest.approx(gw.asymptotic_main("u2", n), rel=1e-12)


def test_guards():
    with pytest.raises(UnirankError):
        gw.exact_counts("p", 5001)
    with pytest.raises(UnirankError):
        gw.exact_counts("nope", 10)
    with pytest.raises(UnirankError):
        gw.exact_counts("p", -1)
    with pytest.raises(UnirankError):
        gw.asymptotic_main("nope", 10)
    with pytest.raises(UnirankError):
        gw.asymptotic_main("p", 0)
    with pytest.raises(UnirankError):
        gw.tauberian_main(1.0, 0.0, 1.0, 0)
    with pytest.raises(UnirankError):
        gw.eta_product_probe(0.0)
    with pytest.raises(UnirankError):
        gw.lambert_limit_probe(-0.5)
