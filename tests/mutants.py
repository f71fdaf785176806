"""The committed mutant table: each entry plants one fault in a copy of the
sources and names the tests that must fail on it.

Run from the repository root:

    python tests/mutants.py [name ...]

For each entry (or only the named ones) the runner copies ``src`` and
``tests`` to a temporary directory, requires the entry's old text exactly
once in its file, puts the new text in its place and runs the entry's test
ids there with pytest.  Every id must fail.  Before any mutant, the ids of
all selected entries run once on an unmutated copy, where each must pass.
The exit status is 1 when a mutant survives (one of its ids passes) or an
entry is stale (its old text is not found exactly once, or an id does not
pass unmutated), else 0.  pytest does not collect this file: its name does
not match ``test_*.py``.  (R. A. DeMillo, R. J. Lipton and F. G. Sayward,
"Hints on test data selection", IEEE Computer 11, 1978.)
"""
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GROWTH = "src/unirank/growth.py"
SERIES = "src/unirank/series.py"
GFLIB = "src/unirank/gflib.py"
FAMILIES = "src/unirank/families.py"
IDENTITIES = "src/unirank/identities.py"
ROWS = "src/unirank/rows.py"
CLI = "src/unirank/cli.py"
PARITY = "src/unirank/parity.py"
T_GROWTH = "tests/test_growth.py::"
T_GFLIB = "tests/test_gflib.py::"
T_GOLDEN = "tests/test_golden.py::test_golden_digests_match"
T_SIEVE = "tests/test_parity.py::test_sieve_rows_match_per_n_routes"

# (name, file, old text, new text, test ids that must fail)
MUTANTS = [
    # the row table's windowed ZZ loop (series.row_terms), its factor
    # helper, shared with ratio_step, and the rows
    ("sign never flips", SERIES,
     "        sign *= c\n", "        sign *= abs(c)\n",
     [T_GROWTH + "test_windowed_sums_match_term_sum",
      T_GROWTH + "test_fold_matches_forward_sum[u2]",
      T_GROWTH + "test_lambert_split"]),
    ("factor step k defaults to 1", SERIES,
     "(f[3] if len(f) > 3 else step)", "(f[3] if len(f) > 3 else 1)",
     [T_GROWTH + "test_partial_sum_terms_recombine",
      T_GROWTH + "test_fold_matches_forward_sum[u2]", T_GOLDEN]),
    ("window cut one coefficient short", SERIES,
     "del w[max(limit + 1 - val, 0):]", "del w[max(limit - val, 0):]",
     [T_GROWTH + "test_windowed_sums_match_term_sum",
      T_GROWTH + "test_partial_sum_terms_recombine",
      T_GROWTH + "test_fold_matches_forward_sum[u2]"]),
    ("the grouped row's (1 - q^3) becomes (1 - q^5)", ROWS,
     "[(1, 0, 3), (-1, 0, 4)]", "[(1, 0, 5), (-1, 0, 4)]",
     [T_GROWTH + "test_partial_sum_terms_recombine",
      T_GROWTH + "test_group_identities"]),
    ("downs0 applied at step 2", SERIES,
     "factors_at(row.downs0, 1, row.step)",
     "factors_at(row.downs0, 2, row.step)",
     [T_GROWTH + "test_windowed_sums_match_term_sum",
      T_GROWTH + "test_lambert_split"]),
    ("the ZZ evaluator ignores ups0", SERIES,
     "    for b, _, r in factors_at(row.ups0, 1, row.step):\n"
     "        mul_binomial_ints(w, r, -b)\n", "",
     [T_GROWTH + "test_windowed_sums_match_term_sum",
      T_GFLIB + "test_row_ints_match_zeta_row_sums"]),
    # the dispatch of a -q key and the JSON rows of the command line
    ('build("Ubar2-q") skips q -> -q', GFLIB,
     '_NEGATE_Q = ("Ubar2-q", "U2-q")', '_NEGATE_Q = ("U2-q",)',
     [T_GFLIB + "test_one_variable_keys_are_marginals", T_GOLDEN]),
    ("one coefficient of a JSON row", CLI,
     '",\\n".join([row % r[k:] for r in block])',
     '",\\n".join([row % r[k:] for r in block]).replace(\'"2"\', \'"3"\', 1)',
     [T_GOLDEN]),
    # the u2 and u2bar identity routes and the sparse product kernel
    ("L0's paired numerator (1 + q^(2n+1))", GROWTH,
     "(2 * n * n + 5 * n + 2, -_sign(n))",
     "(2 * n * n + 5 * n + 2, _sign(n))",
     [T_GROWTH + "test_fold_matches_forward_sum[u2bar]",
      T_GROWTH + "test_peak_count_examples"]),
    ("B over (1 - q)", GROWTH,
     "div_binomial_ints(b, 1, 1)", "div_binomial_ints(b, 1, -1)",
     [T_GROWTH + "test_fold_matches_forward_sum[u2]",
      T_GROWTH + "test_peak_count_examples"]),
    ("mul_series_ints reads the list it writes", SERIES,
     "            part = src[:n - j]\n", "            part = c[:n - j]\n",
     ["tests/test_zz_kernel.py::"
      "test_series_multiply_matches_product_and_divides_back",
      T_GROWTH + "test_fold_matches_forward_sum[u2]"]),
    ("mul_series_ints skips the +-2 scaling", SERIES,
     "            if v not in (1, -1):\n",
     "            if v not in (1, -1, 2, -2):\n",
     ["tests/test_zz_kernel.py::"
      "test_series_multiply_matches_product_and_divides_back"]),
    # the bilateral pole, fixed by its spec, and the spec's reading
    ("cleared() without the q^const numerator", GFLIB,
     "body=body + TruncatedSeries.monomial(\n"
     "            ZETA, ZETA.one, s.const, body.order))",
     "body=body)",
     [T_GFLIB + "test_cleared_float_oracle",
      T_GFLIB + "test_cleared_pole_assembly", T_GOLDEN]),
    ("cleared() with the pole_shift test inverted", GFLIB,
     "        if s.pole_shift:\n", "        if not s.pole_shift:\n",
     [T_GFLIB + "test_cleared_float_oracle",
      T_GFLIB + "test_cleared_pole_assembly", T_GOLDEN]),
    ("flip read as flip and n % 2", GFLIB,
     "(spec.flip * n) % 2", "spec.flip and n % 2",
     [T_GFLIB + "test_bilateral_expand_matches_brute_force"]),
    ("pole_sign check removed", GFLIB,
     "    if spec.pole_sign not in (1, -1):\n",
     "    if False:\n",
     [T_GFLIB + "test_bilateral_rejects_bad_spec"]),
    ("one coefficient of a pair side", IDENTITIES,
     "from_int_coeffs(ZZ, [1, 1], order)",
     "from_int_coeffs(ZZ, [1, 2], order)", [T_GOLDEN]),
    # the segmented sieve behind the norm and criterion rows
    ("prime powers with k >= 2 skipped", PARITY,
     "            q *= p\n", "            q = top\n", [T_SIEVE]),
    ("the cofactor prime's class ignored", PARITY,
     "s + last[c % 24] if c > 1", "s + last[1] if c > 1", [T_SIEVE]),
    ("an exponent 3 mod 4 read as 1 mod 4", PARITY,
     "(e % 4 == 1) << _GOOD", "(e % 2 == 1) << _GOOD", [T_SIEVE]),
    # object input
    ("non-integral parts truncated", FAMILIES,
     "    if n is None or n != v:\n", "    if n is None:\n",
     ["tests/test_families.py::test_malformed_objects_are_rejected"]),
]


def _copy(dest):
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part),
                        ignore=shutil.ignore_patterns("__pycache__"))


def _passed(tree, ids):
    """The ids among ``ids`` that pass when run in the copy ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p",
         "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True).stdout
    good = {line.split()[1] for line in out.splitlines()
            if line.startswith("PASSED ")}
    return [i for i in ids if i in good]


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    problems = []
    with tempfile.TemporaryDirectory() as tree:
        _copy(tree)
        ids = sorted({i for m in chosen for i in m[4]})
        passed = set(_passed(tree, ids))
        problems += [f"stale: {i} does not pass unmutated"
                     for i in ids if i not in passed]
    for name, path, old, new, ids in chosen:
        with tempfile.TemporaryDirectory() as tree:
            _copy(tree)
            target = os.path.join(tree, path)
            with open(target) as f:
                text = f.read()
            if text.count(old) != 1:
                problems.append(f"stale: {name}: old text found "
                                f"{text.count(old)} times in {path}")
                continue
            with open(target, "w") as f:
                f.write(text.replace(old, new))
            survived = _passed(tree, ids)
        status = f"SURVIVED by {', '.join(survived)}" if survived \
            else "killed"
        print(f"{name}: {status}", flush=True)
        if survived:
            problems.append(f"survivor: {name}")
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
