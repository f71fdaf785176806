"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys

import pytest

import unirank
from unirank import cli
from unirank import families as fam


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_partition_json(capsys):
    code, out, _ = run(capsys, ["expand", "--series", "P", "--order", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"series": "P", "order": 4,
                       "coefficients": ["1", "1", "2", "3", "5"]}


def test_expand_golden_coefficient(capsys):
    code, out, _ = run(capsys, ["expand", "--series", "Ubar",
                                "--order", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][3] == "3"


def test_expand_zeta_entries(capsys):
    code, out, _ = run(capsys, ["expand", "--series", "U2-q",
                                "--order", "6", "--zeta"])
    assert code == 0
    entries = {(e["m"], e["n"]): e["c"]
               for e in json.loads(out)["coefficients"]}
    assert entries[(0, 6)] == "3"
    assert entries[(1, 6)] == "1"
    assert entries[(-1, 6)] == "1"


def test_expand_csv(capsys):
    code, out, _ = run(capsys, ["expand", "--series", "P", "--order", "3",
                                "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,m,n,coefficient"
    assert lines[1] == "P,,0,1"
    assert lines[-1] == "P,,3,3"


def test_expand_zeta_csv(capsys):
    code, out, _ = run(capsys, ["expand", "--series", "Uzeta",
                                "--order", "3", "--zeta", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,m,n,coefficient"
    assert "Uzeta,0,1,1" in lines


def test_expand_env_order(capsys, monkeypatch):
    monkeypatch.setenv("UNIRANK_ORDER", "7")
    code, out, _ = run(capsys, ["expand", "--series", "P"])
    assert code == 0
    assert len(json.loads(out)["coefficients"]) == 8
    monkeypatch.setenv("UNIRANK_ORDER", "abc")
    code, out, err = run(capsys, ["expand", "--series", "P"])
    assert code == 2 and out == "" and "UNIRANK_ORDER" in err
    monkeypatch.setenv("UNIRANK_ORDER", "1001")
    code, out, err = run(capsys, ["expand", "--series", "P"])
    assert code == 2 and out == "" and "1000" in err


def test_expand_usage_errors(capsys):
    code, _, err = run(capsys, ["expand", "--series", "nope"])
    assert code == 2 and "unknown series key" in err
    for key in ("P", "U"):
        code, _, err = run(capsys, ["expand", "--series", key, "--zeta"])
        assert code == 2 and "no zeta refinement" in err
    code, _, err = run(capsys, ["expand", "--series", "P", "--order", "0"])
    assert code == 2
    # orders above the limit are refused before any work, on verify too
    for argv in (["expand", "--series", "P", "--order", "1001"],
                 ["verify", "--all", "--order", "1001"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "between 1 and 1000" in err


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["expand"])
    assert info.value.code == 2
    capsys.readouterr()


def test_count_family_alias(capsys):
    code, out, _ = run(capsys, ["count", "--family", "ubar",
                                "--max-n", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "left-heavy-overlined"
    assert payload["counts"] == ["0", "1", "0", "3", "0", "3", "3"]


def test_count_by_rank_csv(capsys):
    code, out, _ = run(capsys, ["count", "--family", "strongly-unimodal",
                                "--max-n", "4", "--by-rank",
                                "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,m,n,coefficient"
    assert "strongly-unimodal,0,1,1" in lines


def test_count_csv(capsys):
    code, out, _ = run(capsys, ["count", "--family", "ubar",
                                "--max-n", "4", "--format", "csv"])
    assert code == 0
    assert out == ("key,m,n,coefficient\n"
                   "left-heavy-overlined,,0,0\n"
                   "left-heavy-overlined,,1,1\n"
                   "left-heavy-overlined,,2,0\n"
                   "left-heavy-overlined,,3,3\n"
                   "left-heavy-overlined,,4,0\n")


def test_count_by_rank_json(capsys):
    code, out, _ = run(capsys, ["count", "--family", "strongly-unimodal",
                                "--max-n", "3", "--by-rank"])
    assert code == 0
    assert out == json.dumps({
        "family": "strongly-unimodal", "max_n": 3, "counts": [
            {"m": m, "n": n, "c": "1"}
            for m, n in ((0, 1), (0, 2), (-1, 3), (0, 3), (1, 3))]},
        indent=2) + "\n"


def test_dp_table_built_once_per_invocation(capsys, monkeypatch):
    builds = []
    for family, table in list(fam._DP_TABLES.items()):
        monkeypatch.setitem(fam._DP_TABLES, family,
                            lambda n, table=table: builds.append(n) or table(n))
    for argv in (["count", "--family", "ubar", "--max-n", "12"],
                 ["count", "--family", "m2-left-heavy", "--max-n", "12",
                  "--by-rank"],
                 ["scan-nonneg", "--family", "ubar", "--max-n", "12"]):
        monkeypatch.setattr(fam, "_dp_cache", {})
        builds.clear()
        code, _, _ = run(capsys, argv)
        assert code == 0 and builds == [12], argv


def test_dp_guard_checked_before_counting(capsys, monkeypatch):
    def no_build(n):
        raise AssertionError(f"table built at {n}, past the guard")

    monkeypatch.setattr(fam, "_dp_cache", {})
    for family in fam.FAMILIES:
        monkeypatch.setitem(fam._DP_TABLES, family, no_build)
        with pytest.raises(fam.SizeLimitError):
            fam.counts_by_rank_through(family, fam.DP_LIMIT + 1)
        for command in ("count", "scan-nonneg"):
            code, out, err = run(capsys, [command, "--family", family,
                                          "--max-n", str(fam.DP_LIMIT + 1)])
            assert code == 2 and out == "", (command, family)
            assert f"exceeds guard {fam.DP_LIMIT}" in err, (command, family)


def test_count_unknown_family(capsys):
    code, _, err = run(capsys, ["count", "--family", "nope",
                                "--max-n", "3"])
    assert code == 2 and "unknown family" in err


def test_verify_single_json(capsys):
    code, out, err = run(capsys, ["verify", "--key", "eq1.1",
                                  "--order", "16", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["reports"][0]["key"] == "eq1.1"
    assert payload["reports"][0]["first_mismatch"] is None
    # the depth actually compared, which can pass the order asked for
    assert payload["reports"][0]["depth"] == 17
    # timing stays out of the data payload
    assert "elapsed" not in payload["reports"][0]
    assert "verified 1 identities" in err


def test_verify_all_text(capsys):
    code, out, _ = run(capsys, ["verify", "--all", "--order", "14"])
    assert code == 0
    assert "eq1.1: ok through q^14" in out
    assert out.count(": ok") == 20


def test_verify_key_and_all_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--key", "eq1.1", "--all"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_verify_unknown_key(capsys):
    code, _, err = run(capsys, ["verify", "--key", "nope"])
    assert code == 2 and "unknown identity key" in err


def test_parity_json(capsys):
    code, out, _ = run(capsys, ["parity", "--max-n", "300",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["disagreements"] == []
    assert payload["odd_count"] == 83


def test_parity_text(capsys):
    code, out, _ = run(capsys, ["parity", "--max-n", "120"])
    assert code == 0
    assert "disagreements: 0" in out
    for max_n in ("0", "800001"):
        code, out, err = run(capsys, ["parity", "--max-n", max_n])
        assert code == 2 and out == "" and "between 1 and 800000" in err


def test_asym_json(capsys):
    code, out, _ = run(capsys, ["asym", "--target", "u2bar",
                                "--checkpoints", "100,200,500",
                                "--emit", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["trend_improving"] is True
    assert payload["rows"][-1]["count"] == "2449917488573725891"
    assert payload["rows"][-1]["ratio"] == pytest.approx(0.93230309, rel=1e-6)


def test_asym_trend_failure_exits_1(capsys):
    # at tiny n the main term is not yet an approximation
    code, out, _ = run(capsys, ["asym", "--target", "u2bar",
                                "--checkpoints", "1,2,3"])
    assert code == 1
    assert "NO" in out


def test_asym_usage_errors(capsys):
    code, _, err = run(capsys, ["asym", "--target", "nope"])
    assert code == 2 and "unknown target" in err
    code, _, err = run(capsys, ["asym", "--checkpoints", "5,4"])
    assert code == 2
    code, _, err = run(capsys, ["asym", "--checkpoints", "7"])
    assert code == 2 and "--checkpoints needs at least two values" in err
    code, _, err = run(capsys, ["asym", "--checkpoints", "a,b"])
    assert code == 2
    code, out, err = run(capsys, ["asym", "--checkpoints", "10,6000"])
    assert code == 2 and out == ""
    assert "--checkpoints must be at most 5000" in err
    assert "limit" not in err


def test_scan_nonneg_report(capsys):
    code, out, _ = run(capsys, ["scan-nonneg", "--family", "ubar",
                                "--max-n", "24"])
    assert code == 0
    assert "0 negative entries" in out


def test_scan_nonneg_json(capsys):
    code, out, _ = run(capsys, ["scan-nonneg", "--family", "overpartition",
                                "--max-n", "10", "--format", "json"])
    assert code == 0
    assert json.loads(out)["negatives"] == []


def test_scan_nonneg_json_lists_negatives(capsys, monkeypatch):
    tables = [{0: 1}, {-1: -2, 0: 3, 1: -2}, {-2: 1, 2: -5}]
    monkeypatch.setattr(fam, "counts_by_rank_through",
                        lambda family, max_n: tables[:max_n + 1])
    for max_n, negatives in ((0, []), (2, [
            {"m": -1, "n": 1, "c": "-2"}, {"m": 1, "n": 1, "c": "-2"},
            {"m": 2, "n": 2, "c": "-5"}])):
        code, out, _ = run(capsys, ["scan-nonneg", "--family", "ubar",
                                    "--max-n", str(max_n), "--format", "json"])
        assert code == 0
        assert out == json.dumps({"family": "left-heavy-overlined",
                                  "max_n": max_n, "negatives": negatives},
                                 indent=2) + "\n"


def _rows(count):
    """(m, n, c) rows with negative m, and c negative, zero and large."""
    return [(i % 7 - 3, i // 5, (-3) ** (i % 150) * (i % 4 != 1))
            for i in range(count)]


@pytest.mark.parametrize("refined", [True, False],
                         ids=["refined", "unrefined"])
@pytest.mark.parametrize("count", [0, 1, 9, 2 * cli._BLOCK + 3],
                         ids=["empty", "single", "few", "blocks"])
def test_emit_rows_matches_json_dumps(capsys, refined, count):
    rows = _rows(count)
    head = {"series": "R", "order": 5}
    cli._emit_rows("json", head, "coefficients", "R", iter(rows), refined)
    want = {**head, "coefficients": [
        {"m": m, "n": n, "c": str(c)} if refined else str(c)
        for m, n, c in rows]}
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_emit_rows_writes_in_blocks(monkeypatch):
    """A generator of rows is written a block at a time, never whole."""
    sink = _Recorder()
    monkeypatch.setattr(sys, "stdout", sink)
    cli._emit_rows("json", {"family": "f", "max_n": 9}, "counts", "f",
                   ((i, i, i) for i in range(10 ** 4)), True)
    assert len(sink.writes) > 1
    assert max(w.count('"m":') for w in sink.writes) <= cli._BLOCK
    assert json.loads("".join(sink.writes))["counts"][-1] == {
        "m": 9999, "n": 9999, "c": "9999"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_pipe_exits_1_without_traceback(fmt):
    """A reader that stops after one line ends the run with exit 1 and no
    traceback: the output (over a megabyte) outgrows the pipe's buffer, so
    the writer meets the closed pipe."""
    src = os.path.dirname(os.path.dirname(unirank.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "unirank", "expand", "--series", "R",
         "--order", "300", "--zeta", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err


def test_output_byte_stable(capsys):
    _, first, _ = run(capsys, ["expand", "--series", "R2", "--order", "9",
                               "--zeta"])
    _, second, _ = run(capsys, ["expand", "--series", "R2", "--order", "9",
                                "--zeta"])
    assert first == second
