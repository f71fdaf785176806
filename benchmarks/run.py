#!/usr/bin/env python3
"""Benchmark of the unirank command line, end to end and layer by layer.

Run from anywhere; the checkout is the parent of this file's directory and
must hold ``src/unirank``.  Standard library only.

    python3 benchmarks/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --all --out benchmarks/results/baseline.json
    python3 benchmarks/run.py --record

``--trace 0`` runs each invocation of the workload as its own child process
and reports the end-to-end metrics.  ``--trace 1`` runs the same invocations
in this process through ``unirank.cli.main(argv)``, once plain and once with
the layers wrapped by ``spans.py``, and reports the per-layer metrics.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every invocation's exit status
and stdout digest must match ``expected.json``.

``--record`` runs every invocation once, cross-checks the expansions
against independent routes and rewrites ``expected.json``; use it only on a
commit whose outputs are trusted.  ``--all`` runs every workload, prints
every metric with its unit, writes a results file and rewrites
``BENCHMARK.json`` from the tables below.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

SIZES = {
    "catalog_order": 40,
    "expand_order": 100,
    "asym_checkpoints": "500,1000,2000,5000",
    "parity_max_n": 100000,
    "count_max_n": 100,
}
PLAIN_KEYS = ("P", "U")   # series keys with no zeta-refined form
SETUP_ARGV = ("expand", "--series", "P", "--order", "1")
SETUP_REPEATS = 25
EXTRA = "extra: "   # prefix of the stdout line with a run's details
RUN_SECONDS = 30

WORKLOADS = {
    "catalog": [("verify", "--all", "--order", str(SIZES["catalog_order"]))],
    "expand": [
        ("expand", "--series", key, "--order", str(SIZES["expand_order"]))
        + (() if key in PLAIN_KEYS else ("--zeta",))
        for key in spans.SERIES_KEYS],
    "counts": [
        ("asym", "--target", target, "--checkpoints",
         SIZES["asym_checkpoints"], "--emit", "json")
        for target in spans.COUNT_KEYS] + [
        ("parity", "--max-n", str(SIZES["parity_max_n"]), "--format", "json"),
        ("count", "--family", "ubar", "--max-n", str(SIZES["count_max_n"]),
         "--by-rank")],
}
WHY = {
    "catalog": "verify --all: many small ZETA and prefixed series ops, "
               "gflib analytic blocks and Bailey pairs; ab6312 is the tail",
    "expand": "every series key at N = 100: a few big ZETA builds dominated "
              "by mul/div_binomial passes and series adds, plus large JSON",
    "counts": "asym, parity and count --by-rank: integer-only paths that "
              "never touch TruncatedSeries",
}

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("unit_max_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)


class BenchmarkError(Exception):
    pass


def require_src():
    if not (SRC / "unirank" / "__init__.py").is_file():
        raise BenchmarkError(f"no unirank package under {SRC}")


def load_expected():
    require_src()
    try:
        pinned = json.loads(EXPECTED.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {EXPECTED}: {exc}") from exc
    if pinned.get("sizes") != SIZES:
        raise BenchmarkError(
            f"{EXPECTED.name} was recorded for other sizes; re-record it "
            "at a commit whose outputs are trusted")
    return pinned["outputs"]


def output_ok(expected, argv, exit_code, data):
    pin = expected.get(" ".join(argv))
    return (pin is not None and pin["exit"] == exit_code
            and pin["sha256"] == hashlib.sha256(data).hexdigest())


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("UNIRANK_ORDER", None)
    return env


def run_child(argv, env):
    """(exit code, stdout, wall s, cpu s, peak rss MiB) of one CLI run."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "unirank", *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    try:
        with proc.stdout:
            data = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, data, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def end_to_end(workload, seed, seconds, expected):
    """Closed loop, one child at a time: rounds of the workload's
    invocations in seeded order until ``seconds`` would be exceeded."""
    env = child_env()
    attempted = failed = 0

    def run(argv):
        nonlocal attempted, failed
        exit_code, data, *cost = run_child(argv, env)
        attempted += 1
        failed += not output_ok(expected, argv, exit_code, data)
        return cost

    run(SETUP_ARGV)   # fills __pycache__, so set-up times a warm start
    setup = [run(SETUP_ARGV)[0] for _ in range(SETUP_REPEATS)]
    rng = random.Random(seed)
    order = list(WORKLOADS[workload])
    rounds, per_invocation = [], {argv: [] for argv in order}
    begin = time.perf_counter()
    while True:
        rng.shuffle(order)
        start = time.perf_counter()
        costs = []
        for argv in order:
            costs.append(run(argv))
            per_invocation[argv].append(costs[-1][0])
        wall = time.perf_counter() - start
        rounds.append((wall, sum(c[1] for c in costs),
                       max(c[2] for c in costs)))
        if time.perf_counter() - begin + wall > seconds:
            break
    walls, cpus, rss = zip(*rounds)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "unit_max_s": max(statistics.median(w)
                          for w in per_invocation.values()),
        "peak_rss_mib": max(rss),
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    return (failed == 0, attempted, failed,
            {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            {"rounds": len(rounds)})


def invoke(main, argv, dp_cache):
    """(exit code, stdout bytes, wall s) of ``main(argv)`` in this process;
    the exit code is None when the program raised."""
    # a fresh process starts with an empty DP cache; so must each in-process
    # invocation, or count --by-rank would reuse the previous pass's tables
    if dp_cache is not None:
        dp_cache.clear()
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            exit_code = main(list(argv))
    except SystemExit as exc:
        exit_code = exc.code
    except Exception:
        traceback.print_exc()
        exit_code = None
    return exit_code, out.getvalue().encode(), time.perf_counter() - start


def traced(workload, seed, expected):
    """Per-layer metrics from one in-process traced pass, plus the tracing
    overhead against an untraced in-process pass of the same order.

    The run is incorrect if an entry point that ``spans.py`` names is gone:
    its metrics would read as zero and its time would move, unseen, into
    the caller's self time.
    """
    sys.path.insert(0, str(SRC))
    from unirank import cli, families

    dp_cache = getattr(families, "_dp_cache", None)
    order = list(WORKLOADS[workload])
    random.Random(seed).shuffle(order)
    attempted = failed = 0
    plain_wall = traced_wall = 0.0
    for argv in order:
        exit_code, data, wall = invoke(cli.main, argv, dp_cache)
        plain_wall += wall
        attempted += 1
        failed += not output_ok(expected, argv, exit_code, data)
    gc.collect()

    tracer = spans.Tracer()
    tracer.install()
    bits = zeta_span = stdout_bytes = pairs = 0
    depths = []
    try:
        for argv in order:
            tracer.active = True
            exit_code, data, wall = invoke(
                lambda a: tracer.call_root(cli.main, a), argv, dp_cache)
            tracer.active = False
            traced_wall += wall
            attempted += 1
            failed += not output_ok(expected, argv, exit_code, data)
            stdout_bytes += len(data)
            for obj in tracer.kept:
                b, z = spans.coefficient_stats(obj)
                bits, zeta_span = max(bits, b), max(zeta_span, z)
                if isinstance(obj, list):   # an identity's (label, lhs, rhs)
                    pairs += len(obj)
                    depths += [spans.compared_depth(lhs, rhs)
                               for _, lhs, rhs in obj]
            tracer.kept.clear()
    finally:
        tracer.uninstall()
    not_wrapped = tracer.missing + (
        [] if dp_cache is not None else ["families._dp_cache"])
    metrics = spans.summarize(tracer.spans, order)
    metrics.update({
        "series.max_coeff_bits": bits,
        "series.max_zeta_span": zeta_span,
        "identities.pairs": pairs,
        "identities.compared_depth_min": min(
            (d if d is not None else -1 for d in depths), default=0),
        "cli.stdout_bytes": stdout_bytes,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    })
    correct = failed == 0 and not not_wrapped
    if workload == "catalog":
        correct = correct and metrics["identities.compared_depth_min"] >= \
            SIZES["catalog_order"]
    units = dict(spans.PER_LAYER)
    return (correct, attempted, failed,
            {n: {"value": metrics[n], "unit": units[n]} for n in units},
            {"spans": len(tracer.spans), "untraced_wall_s": plain_wall,
             "not_wrapped": not_wrapped})


def metadata(seed):
    lines = sum(len(p.read_text().splitlines())
                for p in sorted(SRC.rglob("*.py")))
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": " ".join(os.uname()[i] for i in (0, 2, 4)),
        "sizes": SIZES,
        "seed": seed,
        "src_lines": lines,
    }


# -- recording the pinned outputs ------------------------------------------

def _marginal(payload):
    """Count sequence from an expand payload, summing out the rank m."""
    coeffs = payload["coefficients"]
    if coeffs and isinstance(coeffs[0], dict):
        out = [0] * (payload["order"] + 1)
        for e in coeffs:
            out[e["n"]] += int(e["c"])
        return out
    return [int(c) for c in coeffs]


def cross_check(outputs):
    """Check pinned outputs against routes that share no formula with them."""
    sys.path.insert(0, str(SRC))
    from unirank import families, growth

    order = SIZES["expand_order"]
    expand = {argv[2]: json.loads(data) for argv, (_, data) in outputs.items()
              if argv[0] == "expand" and argv != SETUP_ARGV}
    checks = {
        "P": growth.exact_counts("p", order),      # pentagonal recurrence
        "U": growth.exact_counts("u", order),
        "U2-q": growth.exact_counts("u2", order),
        "Ubar2-q": growth.exact_counts("u2bar", order),
    }
    family = "left-heavy-overlined"
    families.count_by_rank(family, order)          # one DP table for all n
    checks["Ubar-q"] = [families.count(family, n) for n in range(order + 1)]
    for key, want in checks.items():
        if _marginal(expand[key]) != want[:order + 1]:
            raise BenchmarkError(f"expand {key} disagrees with its "
                                 "independent route")
    # count --by-rank (families DP) against expand Ubar-q --zeta (gflib)
    by_rank = next(json.loads(data) for argv, (_, data) in outputs.items()
                   if argv[0] == "count")
    series = {(e["m"], e["n"]): e["c"]
              for e in expand["Ubar-q"]["coefficients"]
              if e["n"] <= by_rank["max_n"]}
    if {(e["m"], e["n"]): e["c"] for e in by_rank["counts"]} != series:
        raise BenchmarkError("count --by-rank disagrees with expand Ubar-q")
    print(f"cross-checked {', '.join(checks)} and count --by-rank")


def record():
    require_src()
    env = child_env()
    outputs = {}
    for argv in [SETUP_ARGV] + [a for w in WORKLOADS.values() for a in w]:
        exit_code, data, wall, *_ = run_child(argv, env)
        outputs[argv] = (exit_code, data)
        print(f"{wall:8.2f} s  exit {exit_code}  {' '.join(argv)}")
        if exit_code != 0:
            raise BenchmarkError(f"{' '.join(argv)} exited {exit_code}")
    cross_check(outputs)
    EXPECTED.write_text(json.dumps({
        "sizes": SIZES,
        "recorded_with": metadata(None),
        "outputs": {" ".join(argv): {
            "exit": code, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data)} for argv, (code, data) in outputs.items()},
    }, indent=2) + "\n")
    print(f"wrote {EXPECTED}")


# -- whole-benchmark report -------------------------------------------------

def spec():
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n in spans.HIGHER_IS_BETTER
                       else "lower"} for n, u in spans.PER_LAYER],
    }


def run_all(seed, seconds, runs, out):
    """Every workload: ``runs`` untraced runs on seeds seed, seed+1, ...
    and one traced run, each as its own process, as single runs are made."""
    report = {"meta": metadata(seed), "workloads": {}}
    for workload in WORKLOADS:
        samples = []
        for trace, seeds in ((0, range(seed, seed + runs)), (1, [seed])):
            for s in seeds:
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(s),
                       "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    raise BenchmarkError(f"{' '.join(cmd)} exited "
                                         f"{proc.returncode}")
                lines = proc.stdout.strip().splitlines()
                extra = next(json.loads(line[len(EXTRA):]) for line in lines
                             if line.startswith(EXTRA))
                samples.append((trace, json.loads(lines[-1]), extra))
        entry = {"correct": all(r["correct"] for _, r, _ in samples),
                 "attempted": sum(r["attempted"] for _, r, _ in samples),
                 "failed": sum(r["failed"] for _, r, _ in samples),
                 "not_wrapped": sorted({name for t, _, x in samples if t
                                        for name in x["not_wrapped"]})}
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        print(f"\n{workload}: correct={entry['correct']} "
              f"failed_frac={entry['failed_frac']:.4f}  (runs={runs})")
        if entry["not_wrapped"]:
            print(f"  not wrapped: {', '.join(entry['not_wrapped'])}")
        e2e = {}
        for name, unit, _, _ in END_TO_END:
            values = [r["metrics"][name]["value"]
                      for t, r, _ in samples if t == 0]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (values[0],) * 3)
            e2e[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                         "values": values}
            print(f"  {name:<14} {med:12.4f} {unit:<4} "
                  f"IQR/median {(q3 - q1) / med:.3f}")
        entry["end_to_end"] = e2e
        entry["per_layer"] = {n: m["value"] for t, r, _ in samples if t == 1
                              for n, m in r["metrics"].items()}
        report["workloads"][workload] = entry
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {out}")
    return all(w["correct"] for w in report["workloads"].values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and write BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --all, untraced runs per workload")
    parser.add_argument("--out", metavar="FILE",
                        help="with --all, write the results file here")
    parser.add_argument("--record", action="store_true",
                        help="cross-check and pin every invocation's output")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record()
            return 0
        if args.all:
            return 0 if run_all(args.seed, args.seconds, args.runs,
                                args.out) else 1
        if args.workload is None:
            parser.error("--workload, --all or --record is required")
        expected = load_expected()
        meta = metadata(args.seed)
        print(f"unirank benchmark: workload={args.workload} "
              f"trace={args.trace} {json.dumps(meta)}")
        if args.trace:
            result = traced(args.workload, args.seed, expected)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds,
                                expected)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct, attempted, failed, metrics, extra = result
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>16.6f} {m['unit']}")
    print(f"attempted={attempted} failed={failed}")
    print(EXTRA + json.dumps(extra))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
