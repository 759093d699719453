#!/usr/bin/env python3
"""Bench-regression gate: diff fresh BENCH_*.json against the committed
baselines in bench/baselines/.

Two modes share the same row-matching machinery:

  default (structural)  Every fresh bench with a committed baseline must
                        keep the same schema version, expose every metric
                        the baseline row has (finite numbers, no NaN/inf),
                        and hold every boolean invariant the baseline
                        holds (guard_met, all_verified, ...). Values are
                        NOT compared — smoke runs and cold containers are
                        too noisy for that. This is what check.sh's bench
                        smoke runs.

  --strict              Additionally compares numeric metrics row-by-row
                        with per-metric ratio tolerances: lower-is-better
                        metrics (*_ns/_us/_ms, *_pct) may regress up to
                        --slack x baseline; higher-is-better metrics
                        (speedup*) may drop to baseline / --slack.
                        Neutral metrics (counts such as channel_epochs)
                        must match exactly. For full bench runs only.

Rows are matched by per-bench key columns (op / n / kind + threads / k);
a key that names two rows of one report is a failure, since either row
could be judged against the other's counterpart. Benches whose baseline
has a single keyless row (telemetry_overhead) match by position. Fresh runs may have FEWER rows than the baseline (a smoke run
sweeps fewer points); a baseline row with no fresh counterpart is
reported but never fails the gate. A fresh bench with no baseline is
skipped — baselines are opt-in via bench/baselines/.

Output: one human line per bench on stderr, a machine-readable JSON
verdict on stdout (or --json-out FILE). Exit 0 on PASS, 1 on FAIL,
2 on usage/IO errors.

Usage:
  scripts/bench_compare.py RUN_DIR [--baseline-dir bench/baselines]
                           [--strict] [--slack 2.5] [--json-out FILE]
"""

import argparse
import json
import math
import os
import sys

# Row-identity columns per bench. Benches absent here match by position,
# which is only sound for single-row reports.
KEY_COLUMNS = {
    "micro_crypto": ("op",),
    "fig6a_querier_vs_n": ("n",),
    "fig6b_querier_vs_domain": ("domain_pow10",),
    # cold_start rows repeat their kind once per thread count.
    "batched_crypto": ("kind", "threads"),
    "engine_multiquery": ("k",),
    "transport": ("mode",),
    "predicate": ("range",),
}

# Metrics that must match exactly under --strict (determinism claims,
# not timings). Everything else numeric is classified by suffix.
EXACT_METRICS = {
    "channel_epochs",
    "naive_channel_epochs",
    "sessions_channel_epochs",
    "pairs",
    "reps",
}

LOWER_IS_BETTER_SUFFIXES = ("_ns", "_us", "_ms", "_seconds", "_pct")
HIGHER_IS_BETTER_PREFIXES = ("speedup",)
# Counters that legitimately drift between runs (cache warm-up order,
# pool scheduling) and noise-differencing ratios whose contract is
# already a guard boolean (guard_met / ops_guard_met); never
# value-compared.
IGNORED_SUFFIXES = ("_hits", "_misses", "_jobs", "_depth_peak",
                    "overhead_pct")


def classify(metric):
    """'lower' | 'higher' | 'exact' | 'ignore' for a numeric metric."""
    if metric in EXACT_METRICS:
        return "exact"
    if metric.endswith(IGNORED_SUFFIXES):
        return "ignore"
    if metric.startswith(HIGHER_IS_BETTER_PREFIXES) or metric.endswith(
            "_speedup"):
        return "higher"
    if metric.endswith(LOWER_IS_BETTER_SUFFIXES):
        return "lower"
    return "ignore"


def load_report(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    for field in ("bench", "rows"):
        if field not in doc:
            raise ValueError(f"{path}: missing '{field}'")
    return doc


def row_key(bench, row):
    """The row's identity: one value per key column, None when keyless."""
    columns = KEY_COLUMNS.get(bench)
    if not columns:
        return None
    values = tuple(row.get(c) for c in columns)
    return values[0] if len(values) == 1 else values


def duplicate_keys(bench, report, side):
    """Yields a failure per key that names more than one row of `report`."""
    seen = set()
    for row in report["rows"]:
        key = row_key(bench, row)
        if key in seen:
            yield {"bench": bench, "row": key, "metric": None,
                   "kind": "duplicate_key",
                   "detail": f"{bench}[{key}]: key names two {side} rows"}
        seen.add(key)


def compare_rows(bench, key, base_row, fresh_row, strict, slack):
    """Yields failure dicts for one matched row pair."""
    where = f"{bench}[{key}]" if key is not None else bench
    for metric, base_value in base_row.items():
        if metric in KEY_COLUMNS.get(bench, ()):
            continue
        if metric not in fresh_row:
            yield {"bench": bench, "row": key, "metric": metric,
                   "kind": "missing_metric",
                   "detail": f"{where}: baseline metric absent from fresh run"}
            continue
        fresh_value = fresh_row[metric]
        if isinstance(base_value, bool):
            # A boolean invariant the baseline holds must keep holding;
            # a baseline False (e.g. a guard that was failing) places no
            # obligation on the fresh run.
            if base_value and fresh_value is not True:
                yield {"bench": bench, "row": key, "metric": metric,
                       "kind": "invariant_broken",
                       "detail": f"{where}: {metric} was true in baseline, "
                                 f"got {fresh_value!r}"}
            continue
        if isinstance(base_value, (int, float)):
            if not isinstance(fresh_value, (int, float)) or isinstance(
                    fresh_value, bool) or not math.isfinite(fresh_value):
                yield {"bench": bench, "row": key, "metric": metric,
                       "kind": "not_finite",
                       "detail": f"{where}: {metric} = {fresh_value!r}"}
                continue
            if not strict:
                continue
            direction = classify(metric)
            if direction == "ignore":
                continue
            if direction == "exact":
                if fresh_value != base_value:
                    yield {"bench": bench, "row": key, "metric": metric,
                           "kind": "exact_mismatch",
                           "detail": f"{where}: {metric} {base_value} -> "
                                     f"{fresh_value}"}
                continue
            if base_value <= 0:
                continue  # ratio undefined; structural checks already ran
            ratio = fresh_value / base_value
            if direction == "lower" and ratio > slack:
                yield {"bench": bench, "row": key, "metric": metric,
                       "kind": "regression",
                       "detail": f"{where}: {metric} {base_value:.6g} -> "
                                 f"{fresh_value:.6g} ({ratio:.2f}x, "
                                 f"slack {slack:g}x)"}
            elif direction == "higher" and ratio < 1.0 / slack:
                yield {"bench": bench, "row": key, "metric": metric,
                       "kind": "regression",
                       "detail": f"{where}: {metric} {base_value:.6g} -> "
                                 f"{fresh_value:.6g} ({ratio:.2f}x, floor "
                                 f"{1.0 / slack:.2f}x)"}


def compare_bench(name, baseline, fresh, strict, slack):
    """Returns the per-bench verdict dict."""
    failures = []
    unmatched = []
    if baseline.get("schema") != fresh.get("schema"):
        failures.append({
            "bench": name, "row": None, "metric": "schema",
            "kind": "schema_mismatch",
            "detail": f"{name}: schema {baseline.get('schema')} -> "
                      f"{fresh.get('schema')}"})
    if KEY_COLUMNS.get(name):
        failures.extend(duplicate_keys(name, baseline, "baseline"))
        failures.extend(duplicate_keys(name, fresh, "fresh"))
        fresh_by_key = {row_key(name, r): r for r in fresh["rows"]}
        pairs = [(row_key(name, b), b, fresh_by_key.get(row_key(name, b)))
                 for b in baseline["rows"]]
    else:
        pairs = [(i if len(baseline["rows"]) > 1 else None, b,
                  fresh["rows"][i] if i < len(fresh["rows"]) else None)
                 for i, b in enumerate(baseline["rows"])]
    matched = 0
    for key, base_row, fresh_row in pairs:
        if fresh_row is None:
            unmatched.append(key)
            continue
        matched += 1
        failures.extend(
            compare_rows(name, key, base_row, fresh_row, strict, slack))
    return {
        "bench": name,
        "baseline_rows": len(baseline["rows"]),
        "fresh_rows": len(fresh["rows"]),
        "matched_rows": matched,
        "unmatched_baseline_rows": unmatched,
        "failures": failures,
    }


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff fresh BENCH_*.json against committed baselines.")
    parser.add_argument("run_dir", help="directory holding fresh BENCH_*.json")
    parser.add_argument("--baseline-dir", default=None,
                        help="baseline directory (default: bench/baselines "
                             "next to this script's repo)")
    parser.add_argument("--strict", action="store_true",
                        help="also compare numeric metrics with ratio "
                             "tolerances (full runs only)")
    parser.add_argument("--slack", type=float, default=2.5,
                        help="allowed regression factor under --strict "
                             "(default 2.5; containers are noisy)")
    parser.add_argument("--json-out", default=None,
                        help="write the JSON verdict here instead of stdout")
    args = parser.parse_args(argv)

    baseline_dir = args.baseline_dir
    if baseline_dir is None:
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        baseline_dir = os.path.join(repo, "bench", "baselines")
    if not os.path.isdir(args.run_dir):
        print(f"bench_compare: no such run dir: {args.run_dir}",
              file=sys.stderr)
        return 2
    if args.slack <= 1.0:
        print("bench_compare: --slack must be > 1.0", file=sys.stderr)
        return 2

    fresh_files = sorted(f for f in os.listdir(args.run_dir)
                         if f.startswith("BENCH_") and f.endswith(".json"))
    if not fresh_files:
        print(f"bench_compare: no BENCH_*.json in {args.run_dir}",
              file=sys.stderr)
        return 2

    benches = []
    skipped = []
    for fname in fresh_files:
        try:
            fresh = load_report(os.path.join(args.run_dir, fname))
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"bench_compare: unreadable fresh report: {err}",
                  file=sys.stderr)
            return 2
        base_path = os.path.join(baseline_dir, fname)
        if not os.path.exists(base_path):
            skipped.append(fresh["bench"])
            continue
        try:
            baseline = load_report(base_path)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"bench_compare: unreadable baseline: {err}",
                  file=sys.stderr)
            return 2
        benches.append(compare_bench(fresh["bench"], baseline, fresh,
                                     args.strict, args.slack))

    total_failures = sum(len(b["failures"]) for b in benches)
    verdict = {
        "verdict": "PASS" if total_failures == 0 else "FAIL",
        "strict": args.strict,
        "slack": args.slack,
        "baseline_dir": baseline_dir,
        "benches_compared": len(benches),
        "benches_skipped_no_baseline": skipped,
        "failures": total_failures,
        "benches": benches,
    }

    for b in benches:
        status = "OK" if not b["failures"] else f"{len(b['failures'])} FAIL"
        extra = ""
        if b["unmatched_baseline_rows"]:
            extra = (f", {len(b['unmatched_baseline_rows'])} baseline "
                     f"row(s) not in fresh run (tolerated)")
        print(f"bench_compare: {b['bench']}: {b['matched_rows']}/"
              f"{b['baseline_rows']} rows matched{extra}: {status}",
              file=sys.stderr)
        for failure in b["failures"]:
            print(f"bench_compare:   {failure['detail']}", file=sys.stderr)
    if skipped:
        print(f"bench_compare: no baseline for: {', '.join(skipped)}",
              file=sys.stderr)

    payload = json.dumps(verdict, indent=2) + "\n"
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            f.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if total_failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
