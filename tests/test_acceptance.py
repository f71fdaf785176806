"""Acceptance checks: one test per headline criterion, each printing a
single pass/fail line with its runtime."""

import math
import random
import time

from unirank import families as fam
from unirank import gflib as gf
from unirank import growth as gw
from unirank import identities as idn
from unirank import parity as par
from unirank.series import GF2, QQ, ZETA, ZZ, TruncatedSeries, ZetaLaurent


def _finish(num, name, start, checks):
    elapsed = time.perf_counter() - start
    failed = [label for label, ok in checks.items() if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"criterion {num} ({name}): {status} ({elapsed:.2f}s)")
    assert not failed, failed


def _zeta_table(series, n):
    return {m: c for m, k, c in series.iter_zeta_entries() if k == n}


def test_criterion_1_golden_examples():
    start = time.perf_counter()
    ubar = gf.build("Ubar", 10)
    ubar2 = gf.build("Ubar2", 10).negate_q()
    u2 = gf.build("U2", 10).negate_q()
    checks = {
        "ubar(3) = 3 in series": ubar.marginal().coeffs[3] == 3,
        "ubar(3) = 3 by enumeration":
            fam.count("left-heavy-overlined", 3) == 3,
        "ubar2(7) rank multiset": fam.count_by_rank(
            "m2-left-heavy-overlined", 7) == {-1: 1, 0: 3, 1: 1},
        "ubar2(7) series table": _zeta_table(ubar2, 7) == {-1: 1, 0: 3, 1: 1},
        "u2(6) rank multiset": fam.count_by_rank(
            "m2-left-heavy", 6) == {-1: 1, 0: 3, 1: 1},
        "u2(6) series table": _zeta_table(u2, 6) == {-1: 1, 0: 3, 1: 1},
    }
    checks["runtime < 1s"] = time.perf_counter() - start < 1.0
    _finish(1, "golden examples", start, checks)


def test_criterion_2_identity_catalog():
    start = time.perf_counter()
    reports = idn.verify_all(40)
    checks = {key: report.passed for key, report in reports.items()}
    checks["all twenty keys"] = len(reports) == 20
    checks["runtime < 2min"] = time.perf_counter() - start < 120.0
    _finish(2, "identity catalog through q^40", start, checks)


def test_criterion_3_parity_triple_agreement():
    start = time.perf_counter()
    agree = par.parity_agreement(10000)
    bits = agree["count"]
    norm_ok = all(
        (par.rep_count(16 * n - 2) // 2) & 1 == bits >> n & 1
        for n in range(1, 10001))
    crit_ok = all(
        par.odd_criterion(n) == bool(bits >> n & 1)
        for n in range(1, 10001))
    checks = {
        "count/theta/norm routes agree": agree["disagreements"] == [],
        "brute-force norm route": norm_ok,
        "factorization criterion": crit_ok,
        "runtime < 1min": time.perf_counter() - start < 60.0,
    }
    _finish(3, "parity routes to n = 10^4", start, checks)


def test_criterion_4_ideal_count_formula():
    start = time.perf_counter()
    bad = [m for m in range(1, 10001)
           if par.ideal_count(m) != par.rep_count(m)]
    _finish(4, "norm-count formula to m = 10^4", start,
            {"formula equals brute-force count": bad == []})


def test_criterion_5_asymptotic_trend():
    start = time.perf_counter()
    frozen = {"u2bar": 0.999600318972, "u2": 0.999876630109}
    checks = {}
    for key, log_ratio in frozen.items():
        counts = gw.exact_counts(key, 2000)
        got = math.log(counts[2000]) / math.log(gw.asymptotic_main(key, 2000))
        checks[f"{key} frozen log ratio"] = abs(got - log_ratio) < 1e-9
        checks[f"{key} log ratio within 1%"] = abs(got - 1.0) < 0.01
        checks[f"{key} |ratio-1| strictly decreasing"] = \
            gw.ratios_strictly_improving(key, (500, 1000, 2000))
    _finish(5, "growth rates at n = 500/1000/2000", start, checks)


def test_criterion_6_monotonicity():
    start = time.perf_counter()
    checks = {
        "u2bar counts monotone": gw.monotonicity_check("u2bar", 2000) is None,
        "u2 counts monotone": gw.monotonicity_check("u2", 2000) is None,
        "(1-q) * series nonnegative": gw.nonneg_prefix_ok(2000),
    }
    _finish(6, "monotonicity to n = 2000", start, checks)


def _random_element(rng, ring):
    if ring is ZZ:
        return rng.randint(-9, 9)
    if ring is GF2:
        return ring.from_int(rng.randint(0, 1))
    if ring is QQ:
        return QQ.from_int(rng.randint(-9, 9)) / rng.randint(1, 9)
    return ZetaLaurent({rng.randint(-2, 2): rng.randint(-9, 9)
                        for _ in range(rng.randint(0, 3))})


def _random_series(rng, ring, order=30):
    return TruncatedSeries(
        ring, [_random_element(rng, ring) for _ in range(order + 1)], order)


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = random.Random(20240817)
    checks = {}

    axioms_ok = True
    for ring in (ZZ, GF2, QQ, ZETA):
        for case in range(100):
            a = _random_series(rng, ring)
            b = _random_series(rng, ring)
            c = _random_series(rng, ring)
            one = TruncatedSeries.one(ring, 30)
            axioms_ok &= (a + b) + c == a + (b + c)
            axioms_ok &= a + b == b + a
            axioms_ok &= a * b == b * a
            axioms_ok &= a * (b + c) == a * b + a * c
            axioms_ok &= a * one == a and a - a == a * (one - one)
            if case < 25:
                axioms_ok &= (a * b) * c == a * (b * c)
        checks[f"ring axioms over {ring.name}"] = axioms_ok

    rank_keys = ("Uzeta", "R", "Rbar", "Rbar2", "R2", "Ubar", "Ubar2", "U2")
    built = {key: gf.build(key, 40) for key in rank_keys}
    checks["conjugation symmetry"] = all(
        s.bar() == s for s in built.values())

    marg_ok = True
    for key, series in built.items():
        sums = [0] * 41
        for m, n, v in series.iter_zeta_entries():
            sums[n] += v
        marg_ok &= sums == series.marginal().coeffs
    checks["marginalization sums"] = marg_ok

    p = gw.exact_counts("p", 200)
    checks["p(5n+4) = 0 mod 5"] = all(
        p[n] % 5 == 0 for n in range(4, 201, 5))
    checks["p(7n+5) = 0 mod 7"] = all(
        p[n] % 7 == 0 for n in range(5, 201, 7))

    bits = par.count_parity_bits(64)
    checks["negative controls flip"] = (
        not idn.verify("eq1.1", 16, _perturb=(0, 11)).passed
        and not idn.verify("prop4.1", 16, _perturb=(1, 13)).passed
        and (bits ^ (1 << 7)) != par.theta_parity_bits(64)
        and not gw.ratios_strictly_improving("u2bar", (1, 2, 3)))
    _finish(7, "property suites", start, checks)


def test_criterion_8_enumerator_series_equality():
    start = time.perf_counter()
    order = 40
    # The strongly-unimodal and left-heavy-overlined tables are the rows
    # behind Uzeta and Ubar, so those two pairs check only the dispatch;
    # strongly-unimodal is also checked against growth's Lambert form below,
    # and left-heavy-overlined's independent check is the enumeration
    # (test_families.test_dp_agrees_with_explicit_enumeration).  The m2
    # tables are the _negq rows, compared with the Ubar2 and U2 rows at
    # q -> -q.
    pairs = (
        ("partition", "P", False),
        ("partition-with-rank", "R", False),
        ("overpartition", "Rbar", False),
        ("strongly-unimodal", "Uzeta", False),
        ("left-heavy-overlined", "Ubar", False),
        ("m2-left-heavy-overlined", "Ubar2", True),
        ("m2-left-heavy", "U2", True),
    )
    checks = {}
    for family, key, flip in pairs:
        series = gf.build(key, order)
        if flip:
            series = series.negate_q()
        ok = True
        if key == "P":
            for n in range(order + 1):
                ok &= fam.count_by_rank(family, n) == {0: series.coeffs[n]}
        else:
            for n in range(order + 1):
                ok &= fam.count_by_rank(family, n) == _zeta_table(series, n)
        checks[family] = ok
    checks["strongly-unimodal = Lambert-form u(n)"] = [
        fam.count("strongly-unimodal", n) for n in range(order + 1)] \
        == gw.exact_counts("u", order)
    _finish(8, "enumerators equal series to n = 40", start, checks)
