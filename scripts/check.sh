#!/usr/bin/env bash
# Full local check: configure, build, run every test, example, and bench.
# Usage: scripts/check.sh [--skip-bench] [--sanitize] [--tsan] [--tidy]
#                         [--lint] [--telemetry-smoke] [--fault-smoke]
#                         [--engine-smoke] [--bench-smoke] [--ops-smoke]
#                         [--transport-smoke] [--predicate-smoke]
#                         [--fuzz] [--coverage]
#   --skip-bench       skip the full (slow) bench binaries; the JSON smoke
#                      pass below always runs
#   --bench-smoke      ONLY run the bench JSON smoke (tiny-N --smoke runs
#                      of the JSON-emitting benches, outputs validated
#                      with python3 and diffed against bench/baselines/
#                      by scripts/bench_compare.py — structural checks
#                      only; full bench runs get the --strict ratio
#                      gate); the smoke also runs as part of the full
#                      check
#   --sanitize         build + test under ASan/UBSan (-DSIES_SANITIZE=ON) in
#                      a separate build-sanitize/ tree; implies --skip-bench
#   --tsan             ONLY build the concurrency-sensitive test subset
#                      under ThreadSanitizer (-DSIES_TSAN=ON) in a separate
#                      build-tsan/ tree and run the race/engine/telemetry/
#                      threadpool/loss/ops ctest labels with suppressions
#                      from scripts/tsan.supp (policy: docs/DEVELOPING.md)
#   --tidy             ONLY run the static-analysis gate over src/:
#                      clang-tidy against the compile database when a
#                      clang-tidy binary exists, otherwise the strict
#                      g++ -Wshadow -Wconversion -Werror syntax-only pass
#   --lint             ONLY run the secret-hygiene linter
#                      (scripts/lint_secrets.py: self-test + full src/
#                      scan) followed by the --tidy gate; nonzero on any
#                      finding
#   --telemetry-smoke  ONLY run the telemetry smoke (sies_sim with
#                      --metrics-out/--trace-out/--audit-out on a tiny
#                      topology, outputs validated with python3); the
#                      smoke also runs as part of the full check
#   --fault-smoke      ONLY run the fault-injection smoke (sies_sim across
#                      a loss-rate x adversary matrix; exit codes, CSV
#                      coverage fields, and audit exports validated); the
#                      smoke also runs as part of the full check
#   --engine-smoke     ONLY run the multi-query engine smoke (sies_sim
#                      --queries across a K x loss-rate x adversary
#                      matrix; per-query CSV rows, dedup accounting, and
#                      tamper fault isolation validated) plus the
#                      `engine`-labeled ctest subset; the smoke also runs
#                      as part of the full check
#   --ops-smoke        ONLY run the live ops-plane smoke (sies_sim
#                      --queries with --ops-port=0 on a paced
#                      single-threaded run; every admin endpoint scraped
#                      mid-run and validated: 200s, parseable bodies,
#                      critical path <= wall, and the phase probes
#                      explaining >= 90% of the best epoch's wall); the
#                      smoke also runs as part of the full check
#   --transport-smoke  ONLY run the real-transport smoke (sies_sim
#                      --transport=udp across a loss-rate x retry
#                      matrix; every UDP CSV must equal the simulator's
#                      CSV for the same seed once the timing columns
#                      are dropped, and --pipeline must not change
#                      outcomes either); the smoke also runs as part of
#                      the full check
#   --predicate-smoke  ONLY run the predicate-compiler smoke (sies_sim
#                      with a band-query mix across a loss-rate x
#                      adversary matrix — per-query channel counts
#                      bounded by 2*ceil(log2 D), dedup accounting —
#                      plus the --histogram / --group-by demos and the
#                      grammar's inverted/strict-bound rejections) plus
#                      the `predicate`-labeled ctest subset; the smoke
#                      also runs as part of the full check
#   --fuzz             ONLY run the fuzz smoke: the `fuzz`-labeled
#                      corpus-replay ctests (committed corpora +
#                      regressions through every harness in fuzz/)
#                      followed by a short fixed-budget scripts/fuzz.sh
#                      campaign (libFuzzer when clang exists, replay
#                      fallback otherwise); the replay ctests also run
#                      as part of the full check and under --sanitize
#   --coverage         ONLY run the parser-coverage gate
#                      (scripts/coverage.sh): line coverage of the
#                      untrusted-input parser TUs measured from the
#                      committed corpora + parser unit tests must stay
#                      at or above the floors in fuzz/coverage_floors.tsv
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_BENCH=0
SANITIZE=0
TSAN_ONLY=0
TIDY_ONLY=0
LINT_ONLY=0
TELEMETRY_ONLY=0
FAULT_ONLY=0
ENGINE_ONLY=0
BENCH_SMOKE_ONLY=0
OPS_ONLY=0
TRANSPORT_ONLY=0
PREDICATE_ONLY=0
FUZZ_ONLY=0
COVERAGE_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --skip-bench) SKIP_BENCH=1 ;;
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN_ONLY=1 ;;
    --tidy) TIDY_ONLY=1 ;;
    --lint) LINT_ONLY=1 ;;
    --telemetry-smoke) TELEMETRY_ONLY=1 ;;
    --fault-smoke) FAULT_ONLY=1 ;;
    --engine-smoke) ENGINE_ONLY=1 ;;
    --bench-smoke) BENCH_SMOKE_ONLY=1 ;;
    --ops-smoke) OPS_ONLY=1 ;;
    --transport-smoke) TRANSPORT_ONLY=1 ;;
    --predicate-smoke) PREDICATE_ONLY=1 ;;
    --fuzz) FUZZ_ONLY=1 ;;
    --coverage) COVERAGE_ONLY=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

# Configures a build tree. New trees get Ninja; a tree that already has
# a cache keeps whatever generator created it (the tier-1 flow uses the
# default Makefiles generator on build/, and cmake refuses to switch
# generators in place).
configure() {
  local dir="$1"
  shift
  if [[ -f "$dir/CMakeCache.txt" ]]; then
    cmake -B "$dir" "$@"
  else
    cmake -B "$dir" -G Ninja "$@"
  fi
}

# Static-analysis gate over src/. Prefers clang-tidy (any versioned
# binary) with the tuned .clang-tidy config against the build tree's
# compile database; containers without LLVM fall back to an equally
# blocking strict-warning pass (g++ -Wshadow -Wconversion -Werror,
# syntax-only so it is fast and build-tree independent). The tree is
# kept clean under BOTH gates.
tidy_gate() {
  local tidy=""
  for candidate in clang-tidy clang-tidy-{21,20,19,18,17,16,15,14}; do
    if command -v "$candidate" > /dev/null 2>&1; then
      tidy="$candidate"
      break
    fi
  done
  mapfile -t sources < <(find src -name '*.cc' | sort)
  if [[ -n "$tidy" ]]; then
    echo "== clang-tidy gate ($tidy, ${#sources[@]} files) =="
    configure build > /dev/null
    "$tidy" -p build --quiet --warnings-as-errors='*' "${sources[@]}"
  else
    echo "== tidy gate: clang-tidy not installed; strict g++ fallback" \
         "(${#sources[@]} files) =="
    local failed=0
    for f in "${sources[@]}"; do
      g++ -std=c++20 -Isrc -fsyntax-only \
          -Wall -Wextra -Wshadow -Wconversion -Werror "$f" || failed=1
    done
    if [[ $failed -ne 0 ]]; then
      echo "tidy gate FAILED" >&2
      return 1
    fi
  fi
  echo "tidy gate OK"
}

# Fails on any compiler warning located in a file of this repo, given
# the build's output (an incremental build reports the files it
# recompiled; a clean tree compiles every file). Warnings located in
# system headers (GCC 12's libstdc++ false positives, see CHANGES.md)
# do not count.
warning_gate() {
  local log="$1" hits
  hits="$(grep -E "^($PWD/|(\.\./)*)(src|tests|bench|examples|fuzz|epochbench)/[^:]+:[0-9]+(:[0-9]+)?: warning:" \
              "$log" || true)"
  if [[ -n "$hits" ]]; then
    echo "$hits" >&2
    echo "warning gate FAILED: $(echo "$hits" | wc -l) warning(s) in repo files" >&2
    return 1
  fi
  echo "warning gate OK"
}

# Runs sies_sim on a tiny 2-level/8-source topology under a tampering
# adversary with all three telemetry exports, then validates that the
# metrics/trace/audit files parse and contain what the run implies.
telemetry_smoke() {
  local build="$1" dir
  dir="$(mktemp -d)"
  echo "== telemetry smoke =="
  "./$build/examples/sies_sim" --scheme=sies --sources=8 --fanout=2 \
      --epochs=3 --threads=2 --adversary=tamper \
      --metrics-out="$dir/metrics.json" --trace-out="$dir/trace.json" \
      --audit-out="$dir/audit.json" > /dev/null
  python3 - "$dir" <<'PYEOF'
import json, sys
d = sys.argv[1]
m = json.load(open(d + "/metrics.json"))
hists = {(h["name"], h["labels"].get("phase")): h for h in m["histograms"]}
for phase in ("source_init", "merge", "evaluate"):
    assert hists[("sies_phase_seconds", phase)]["count"] > 0, phase
t = json.load(open(d + "/trace.json"))
names = {e["name"] for e in t["traceEvents"]}
assert {"source_init", "merge", "evaluate", "epoch"} <= names, names
assert len({e["tid"] for e in t["traceEvents"]}) > 1, "expected >1 thread"
a = json.load(open(d + "/audit.json"))
kinds = [e["kind"] for e in a["events"]]
assert kinds.count("tamper") > 0, "no tamper events recorded"
assert kinds.count("verification_failure") == 3, kinds
print(f"telemetry smoke OK: {len(m['counters'])} counters, "
      f"{len(t['traceEvents'])} spans, {len(a['events'])} audit events")
PYEOF
  rm -rf "$dir"
}

# Runs sies_sim across the loss-rate x adversary matrix with the audit
# trail exported, then validates exit codes and the loss-resilience
# fields: answered/unanswered/partial bookkeeping, coverage bounds,
# exact partial sums (rel_err 0), and that pure radio loss is never
# audited as tampering.
fault_smoke() {
  local build="$1" dir rc loss adversary
  dir="$(mktemp -d)"
  echo "== fault smoke (loss-rate x adversary matrix) =="
  for loss in 0 0.3 1.0; do
    for adversary in none tamper drop; do
      rc=0
      "./$build/examples/sies_sim" --scheme=sies --sources=16 --fanout=4 \
          --epochs=20 --seed=5 --loss-rate="$loss" --max-retries=2 \
          --adversary="$adversary" --csv \
          --audit-out="$dir/$loss-$adversary.audit.json" \
          > "$dir/$loss-$adversary.csv" || rc=$?
      if [[ $rc -ne 0 ]]; then
        echo "sies_sim --loss-rate=$loss --adversary=$adversary exited $rc" >&2
        exit 1
      fi
    done
  done
  python3 - "$dir" <<'PYEOF'
import csv, json, sys
d = sys.argv[1]

def load(loss, adversary):
    with open(f"{d}/{loss}-{adversary}.csv") as f:
        row = next(csv.DictReader(f))
    with open(f"{d}/{loss}-{adversary}.audit.json") as f:
        kinds = [e["kind"] for e in json.load(f)["events"]]
    return row, kinds

for loss in ("0", "0.3", "1.0"):
    for adversary in ("none", "tamper", "drop"):
        row, kinds = load(loss, adversary)
        answered, unanswered = int(row["answered"]), int(row["unanswered"])
        partial, coverage = int(row["partial"]), float(row["coverage"])
        epochs = int(row["epochs"])
        label = f"loss={loss} adversary={adversary}"
        assert answered + unanswered == epochs, label
        assert 0.0 <= coverage <= 1.0, label
        if adversary == "none":
            # Graceful degradation: partial sums verify and stay exact
            # over their contributor sets at every loss rate.
            assert int(row["verified"]) == 1, label
            assert float(row["rel_err"]) == 0.0, label
            assert "tamper" not in kinds, label
            assert "verification_failure" not in kinds, label
        if loss == "0":
            assert unanswered == 0 and int(row["lost"]) == 0, label
            assert "radio_loss" not in kinds, label
        if loss == "0" and adversary == "none":
            assert coverage == 1.0 and partial == 0, label
        if loss == "0.3" and adversary == "none":
            assert partial > 0 and "reported_loss" in kinds, label
            assert int(row["retransmits"]) > 0, label
        if loss == "1.0":
            assert answered == 0 and coverage == 0.0, label
        if adversary == "tamper" and loss == "0":
            assert "tamper" in kinds and "verification_failure" in kinds, label
        if adversary == "drop" and loss == "0":
            # An in-flight drop is attributed to the adversary and
            # surfaces as reported loss, never as radio loss.
            assert "adversary_drop" in kinds, label
            assert "reported_loss" in kinds, label
print("fault smoke OK: 9 matrix cells validated")
PYEOF
  rm -rf "$dir"
}

# Runs sies_sim in multi-query engine mode across a K x loss-rate x
# adversary matrix, then validates the per-query CSV rows: one row per
# query, dedup strictly beating the naive channel accounting for K > 1,
# loss degrading coverage (never verification), and the trailing-bit
# tamper failing exactly the queries that read the corrupted channel.
engine_smoke() {
  local build="$1" dir rc k loss adversary
  dir="$(mktemp -d)"
  echo "== engine smoke (K x loss-rate x adversary matrix) =="
  for k in 1 4; do
    for loss in 0 0.3; do
      for adversary in none tamper; do
        rc=0
        "./$build/examples/sies_sim" --queries="$k" --sources=16 --fanout=4 \
            --epochs=10 --seed=5 --loss-rate="$loss" --max-retries=2 \
            --adversary="$adversary" --csv \
            > "$dir/$k-$loss-$adversary.csv" || rc=$?
        if [[ $rc -ne 0 ]]; then
          echo "sies_sim --queries=$k --loss-rate=$loss" \
               "--adversary=$adversary exited $rc" >&2
          exit 1
        fi
      done
    done
  done
  "./$build/examples/sies_sim" --queries=0 --sources=16 --epochs=1 \
      > /dev/null 2>&1 && { echo "--queries=0 must be rejected" >&2; exit 1; }
  python3 - "$dir" <<'PYEOF'
import csv, sys
d = sys.argv[1]

def load(k, loss, adversary):
    with open(f"{d}/{k}-{loss}-{adversary}.csv") as f:
        return list(csv.DictReader(f))

for k in (1, 4):
    for loss in ("0", "0.3"):
        for adversary in ("none", "tamper"):
            rows = load(k, loss, adversary)
            label = f"K={k} loss={loss} adversary={adversary}"
            assert len(rows) == k, label
            ch = int(rows[0]["channel_epochs"])
            naive = int(rows[0]["naive_channel_epochs"])
            # Dedup accounting: a lone query has nothing to share; any
            # K > 1 mix of the default cycle MUST save channel-epochs.
            assert (ch < naive) if k > 1 else (ch == naive), label
            for row in rows:
                answered = int(row["answered"])
                assert answered <= int(row["epochs"]), label
                assert 0.0 <= float(row["coverage"]) <= 1.0, label
                if adversary == "none":
                    # Loss degrades coverage, never verification.
                    assert int(row["unverified"]) == 0, label
                if loss == "0":
                    assert answered == int(row["epochs"]), label
                    if adversary == "none":
                        assert float(row["coverage"]) == 1.0, label
            if k == 4 and loss == "0" and adversary == "tamper":
                # Wire order: (q0,SUM),(q0,COUNT),(q1,SUMSQ); the
                # trailing-bit tamper corrupts the SUMSQ slot, failing
                # exactly the queries that read it (VARIANCE, STDDEV).
                verdicts = {int(r["query_id"]): int(r["verified"])
                            for r in rows}
                assert verdicts[1] == 0 and verdicts[2] == 0, verdicts
                assert verdicts[0] > 0 and verdicts[3] > 0, verdicts
print("engine smoke OK: 8 matrix cells validated")
PYEOF
  rm -rf "$dir"
}

# The real-transport determinism contract: a UDP run (loss injected
# sender-side, BEFORE the socket) must reproduce the simulator's CSV
# bit-for-bit for the same seed — only the timing columns (src_us,
# agg_us, qry_ms) may differ. Checked across a loss-rate x retry
# matrix, and once more with --pipeline on top of UDP.
transport_smoke() {
  local build="$1" dir loss retries
  dir="$(mktemp -d)"
  echo "== transport smoke (sim vs udp CSV diff) =="
  for loss in 0 0.3; do
    for retries in 0 2; do
      "./$build/examples/sies_sim" --queries=2 --sources=16 --fanout=4 \
          --epochs=8 --seed=5 --loss-rate="$loss" --max-retries="$retries" \
          --csv > "$dir/sim-$loss-$retries.csv"
      "./$build/examples/sies_sim" --queries=2 --sources=16 --fanout=4 \
          --epochs=8 --seed=5 --loss-rate="$loss" --max-retries="$retries" \
          --transport=udp --csv > "$dir/udp-$loss-$retries.csv"
    done
  done
  "./$build/examples/sies_sim" --queries=2 --sources=16 --fanout=4 \
      --epochs=8 --seed=5 --loss-rate=0.3 --max-retries=2 \
      --transport=udp --pipeline --csv > "$dir/pipelined.csv"
  # --transport=udp and --pipeline are engine-mode features; the legacy
  # single-query path must reject them instead of silently simulating.
  "./$build/examples/sies_sim" --scheme=sies --sources=16 --epochs=1 \
      --transport=udp > /dev/null 2>&1 \
      && { echo "--transport=udp without --queries must be rejected" >&2
           exit 1; }
  python3 - "$dir" <<'PYEOF'
import csv, sys
d = sys.argv[1]
TIMING = {"src_us", "agg_us", "qry_ms"}

def semantic(path):
    with open(f"{d}/{path}") as f:
        return [{k: v for k, v in row.items() if k not in TIMING}
                for row in csv.DictReader(f)]

for loss in ("0", "0.3"):
    for retries in ("0", "2"):
        sim = semantic(f"sim-{loss}-{retries}.csv")
        udp = semantic(f"udp-{loss}-{retries}.csv")
        assert sim and sim == udp, \
            f"udp diverged from sim at loss={loss} retries={retries}"
# Pipelining is a latency optimization; outcomes stay bit-identical.
assert semantic("pipelined.csv") == semantic("sim-0.3-2.csv"), \
    "pipelined udp run diverged from the serial simulator"
print("transport smoke OK: 4 loss x retry cells + pipelined run "
      "bit-identical to sim")
PYEOF
  rm -rf "$dir"
}

# Compiled range queries end-to-end: a band-query mix across a
# loss-rate x adversary matrix (per-query CSV channel counts bounded by
# 2*ceil(log2 D), dyadic-node dedup strictly beating the naive layout),
# the --histogram and --group-by demos with every cell verified, and
# the grammar's distinct inverted/strict-bound rejections.
predicate_smoke() {
  local build="$1" dir rc loss adversary bad
  dir="$(mktemp -d)"
  echo "== predicate smoke (band mix x loss x adversary matrix) =="
  cat > "$dir/bands.txt" <<'EOF'
count temperature where 20 <= temperature <= 30
count temperature where 20 <= temperature <= 35
avg humidity between 35 and 55
sum temperature
EOF
  for loss in 0 0.3; do
    for adversary in none tamper; do
      rc=0
      "./$build/examples/sies_sim" --queries-file="$dir/bands.txt" \
          --sources=16 --fanout=4 --epochs=8 --seed=5 \
          --loss-rate="$loss" --max-retries=2 --adversary="$adversary" \
          --csv > "$dir/$loss-$adversary.csv" || rc=$?
      if [[ $rc -ne 0 ]]; then
        echo "sies_sim band mix --loss-rate=$loss --adversary=$adversary" \
             "exited $rc" >&2
        exit 1
      fi
    done
  done
  "./$build/examples/sies_sim" --histogram=temperature:20:30:8 \
      --sources=32 --epochs=6 --seed=5 > "$dir/histogram.txt"
  "./$build/examples/sies_sim" --group-by=avg:temperature:humidity:30:60:4 \
      --sources=32 --epochs=6 --seed=5 > "$dir/groupby.txt"
  # The grammar's rejections must fail loudly, not run a wrong query.
  for bad in "sum temperature where 30 <= temperature <= 20" \
             "sum temperature where 20 < temperature <= 30"; do
    echo "$bad" > "$dir/bad.txt"
    if "./$build/examples/sies_sim" --queries-file="$dir/bad.txt" \
        --sources=16 --epochs=1 > /dev/null 2>&1; then
      echo "malformed band must be rejected: $bad" >&2
      exit 1
    fi
  done
  python3 - "$dir" <<'PYEOF'
import csv, math, sys
d = sys.argv[1]
# Scaled (10^-2) domain sizes of the three band queries, and how many
# channel kinds each aggregate reads (AVG = SUM + COUNT).
bands = {0: (1001, 1), 1: (1501, 1), 2: (2001, 2)}
for loss in ("0", "0.3"):
    for adversary in ("none", "tamper"):
        with open(f"{d}/{loss}-{adversary}.csv") as f:
            rows = list(csv.DictReader(f))
        label = f"loss={loss} adversary={adversary}"
        assert len(rows) == 4, label
        ch = int(rows[0]["channel_epochs"])
        naive = int(rows[0]["naive_channel_epochs"])
        # The overlapping [20,30]/[20,35] COUNT bands share dyadic
        # prefix nodes: the engine MUST beat per-query compilation.
        assert ch < naive, (label, ch, naive)
        for row in rows:
            qid = int(row["query_id"])
            channels = int(row["channels"])
            if qid in bands:
                domain, kinds = bands[qid]
                cap = kinds * 2 * math.ceil(math.log2(domain))
                assert 0 < channels <= cap, (label, qid, channels, cap)
            else:
                assert channels == 1, (label, qid)  # plain SUM
            if adversary == "none":
                assert int(row["unverified"]) == 0, label
            if loss == "0" and adversary == "none":
                assert float(row["coverage"]) == 1.0, label
hist = open(f"{d}/histogram.txt").read()
assert "all cells verified" in hist and "quantiles" in hist, "histogram"
assert "BAD" not in hist, "histogram has unverified cells"
gb = open(f"{d}/groupby.txt").read()
assert "all cells verified" in gb and "BAD" not in gb, "group-by"
print("predicate smoke OK: 4 matrix cells + histogram/GROUP-BY demos "
      "validated")
PYEOF
  rm -rf "$dir"
}

# Tiny-N (--smoke) runs of every JSON-emitting bench, outputs validated
# as parseable JSON and diffed against the committed baselines by the
# regression gate (structural mode: schema, metric presence, boolean
# invariants — smoke timings are too noisy for value comparison). The
# smoke catches broken bench plumbing in seconds; the committed
# baselines are regenerated by scripts/bench.sh instead.
bench_smoke() {
  local build="$1" dir b j
  dir="$(mktemp -d)"
  echo "== bench smoke (JSON output) =="
  for b in micro_crypto fig6a_querier_vs_n telemetry_overhead \
           engine_multiquery batched_crypto transport_pipeline \
           predicate_ranges; do
    echo "-- $b --smoke"
    (cd "$dir" && "$OLDPWD/$build/bench/$b" --smoke > /dev/null)
  done
  for j in "$dir"/BENCH_*.json; do
    echo "-- validating $(basename "$j")"
    python3 -m json.tool "$j" > /dev/null
  done
  echo "-- bench_compare (structural) vs bench/baselines"
  python3 scripts/bench_compare.py "$dir" > /dev/null
  rm -rf "$dir"
}

# Boots sies_sim's live ops plane on an ephemeral port and scrapes every
# admin endpoint mid-run. The run is paced (--epoch-ms) and
# single-threaded so wall time is meaningful: beyond the 200/parse
# checks, the epoch timeline must satisfy critical <= wall on every
# record and the phase probes must explain >= 90% of the wall on the
# best-attributed epoch.
ops_smoke() {
  local build="$1" dir port sim_pid
  dir="$(mktemp -d)"
  echo "== ops smoke (live admin server scrape) =="
  "./$build/examples/sies_sim" --queries=4 --sources=64 --epochs=40 \
      --threads=1 --epoch-ms=50 --seed=5 --ops-port=0 \
      > "$dir/stdout" 2> "$dir/stderr" &
  sim_pid=$!
  # The sim announces the kernel-assigned port on stderr once bound.
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's|^ops: serving http://127\.0\.0\.1:||p' "$dir/stderr")"
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "ops smoke: server never announced its port" >&2
    cat "$dir/stderr" >&2
    kill "$sim_pid" 2> /dev/null || true
    exit 1
  fi
  if ! python3 - "$port" <<'PYEOF'
import json, sys, time, urllib.error, urllib.request

port = sys.argv[1]
base = f"http://127.0.0.1:{port}"

def get(path):
    try:
        with urllib.request.urlopen(base + path, timeout=5) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()

status, body = get("/healthz")
assert status == 200 and body.strip() == "ok", (status, body)

# Readiness flips once epoch 1 finishes (keys warm) and stays fresh.
for _ in range(100):
    status, body = get("/readyz")
    if status == 200:
        break
    time.sleep(0.05)
assert status == 200, (status, body)
ready = json.loads(body)
assert ready["ready"] is True, ready

status, body = get("/queries")
assert status == 200, (status, body)
queries = json.loads(body)
assert queries["count"] == 4, queries
for q in queries["queries"]:
    assert q["slots"], q

# Scrape /metrics twice: the first response must be visible as a
# counted 200 in the second (the server observes itself).
status, body = get("/metrics")
assert status == 200 and "# TYPE" in body, (status, body[:200])
status, body = get("/metrics")
assert 'ops_http_responses_total{code="200"}' in body, body[:400]

status, body = get("/nope")
assert status == 404, (status, body)

# Let a few paced epochs land, then check the timeline arithmetic.
time.sleep(0.5)
status, body = get("/epochs?last=16")
assert status == 200, (status, body)
timeline = json.loads(body)
epochs = timeline["epochs"]
assert epochs, timeline
best = 0.0
for rec in epochs:
    wall = rec["wall_seconds"]
    attributed = rec["attributed_seconds"]
    critical = rec["critical_path_seconds"]
    assert wall > 0.0, rec
    assert 0.0 < critical <= wall, rec
    assert critical <= attributed, rec
    assert rec["verified"] is True, rec
    assert rec["tampered_channels"] == 0, rec
    assert sum(p["total_seconds"] for p in rec["phases"]) > 0.0, rec
    best = max(best, attributed / wall)
assert best >= 0.9, f"best attribution {best:.3f} < 0.9 of wall"
print(f"ops smoke OK: {len(epochs)} epochs scraped, "
      f"best attribution {100.0 * best:.1f}% of wall")
PYEOF
  then
    echo "ops smoke FAILED" >&2
    kill "$sim_pid" 2> /dev/null || true
    exit 1
  fi
  if ! wait "$sim_pid"; then
    echo "ops smoke: sies_sim exited nonzero" >&2
    cat "$dir/stderr" >&2
    exit 1
  fi
  rm -rf "$dir"
}

BUILD=build
EXTRA=()
if [[ $SANITIZE -eq 1 ]]; then
  # Sanitized objects live in their own tree so the fast build stays warm.
  BUILD=build-sanitize
  EXTRA+=(-DSIES_SANITIZE=ON)
fi

if [[ $TIDY_ONLY -eq 1 ]]; then
  tidy_gate
  echo "TIDY GATE PASSED"
  exit 0
fi

if [[ $LINT_ONLY -eq 1 ]]; then
  echo "== secret-hygiene linter =="
  python3 scripts/lint_secrets.py --self-test
  # No path args: the linter's default roots (src/, bench/, examples/).
  python3 scripts/lint_secrets.py
  tidy_gate
  echo "LINT GATE PASSED"
  exit 0
fi

if [[ $FUZZ_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD" --target fuzz_wire_envelope_replay \
      fuzz_datagram_replay fuzz_query_spec_replay fuzz_http_request_replay \
      fuzz_flags_replay fuzz_hex_replay
  echo "== fuzz smoke: corpus-replay ctests =="
  ctest --test-dir "$BUILD" -L fuzz --output-on-failure
  echo "== fuzz smoke: short campaign (fixed 10s budget) =="
  scripts/fuzz.sh --time 10
  echo "FUZZ SMOKE PASSED"
  exit 0
fi

if [[ $COVERAGE_ONLY -eq 1 ]]; then
  scripts/coverage.sh
  echo "COVERAGE GATE PASSED"
  exit 0
fi

if [[ $TSAN_ONLY -eq 1 ]]; then
  # TSan objects live in their own tree; only the concurrency-sensitive
  # test subset is built (the full suite under TSan is needlessly slow).
  BUILD=build-tsan
  configure "$BUILD" -DSIES_TSAN=ON
  cmake --build "$BUILD" --target sies_sim \
      race_stress_test pool_oversubscription_test thread_pool_test \
      loss_resilience_test \
      telemetry_metrics_test telemetry_trace_test telemetry_phase_test \
      telemetry_audit_test \
      telemetry_integration_test telemetry_epoch_timeline_test \
      engine_channel_plan_test \
      engine_query_registry_test engine_differential_test \
      engine_epoch_scheduler_test engine_query_spec_test \
      engine_pipeline_test \
      predicate_dyadic_test predicate_compiler_test predicate_answer_test \
      engine_predicate_differential_test engine_predicate_cache_test \
      ops_http_server_test ops_admin_server_test ops_integration_test \
      transport_test transport_differential_test \
      fuzz_wire_envelope_replay fuzz_datagram_replay fuzz_query_spec_replay \
      fuzz_http_request_replay fuzz_flags_replay fuzz_hex_replay
  echo "== TSan run (labels: race engine telemetry threadpool loss ops net" \
       "predicate fuzz) =="
  TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
      ctest --test-dir "$BUILD" \
            -L 'race|engine|telemetry|threadpool|loss|ops|net|predicate|fuzz' \
            --output-on-failure
  echo "TSAN CHECKS PASSED"
  exit 0
fi

if [[ $TELEMETRY_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD" --target sies_sim
  telemetry_smoke "$BUILD"
  echo "TELEMETRY SMOKE PASSED"
  exit 0
fi

if [[ $FAULT_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD" --target sies_sim
  fault_smoke "$BUILD"
  echo "FAULT SMOKE PASSED"
  exit 0
fi

if [[ $BENCH_SMOKE_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD" --target micro_crypto fig6a_querier_vs_n \
      telemetry_overhead engine_multiquery batched_crypto \
      transport_pipeline predicate_ranges
  bench_smoke "$BUILD"
  echo "BENCH SMOKE PASSED"
  exit 0
fi

if [[ $OPS_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD" --target sies_sim
  ops_smoke "$BUILD"
  echo "OPS SMOKE PASSED"
  exit 0
fi

if [[ $TRANSPORT_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD" --target sies_sim
  transport_smoke "$BUILD"
  echo "TRANSPORT SMOKE PASSED"
  exit 0
fi

if [[ $ENGINE_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD"
  ctest --test-dir "$BUILD" -L engine --output-on-failure
  engine_smoke "$BUILD"
  echo "ENGINE SMOKE PASSED"
  exit 0
fi

if [[ $PREDICATE_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD"
  ctest --test-dir "$BUILD" -L predicate --output-on-failure
  predicate_smoke "$BUILD"
  echo "PREDICATE SMOKE PASSED"
  exit 0
fi

configure "$BUILD" "${EXTRA[@]}"
build_log="$(mktemp)"
cmake --build "$BUILD" 2>&1 | tee "$build_log"
warning_gate "$build_log"
rm -f "$build_log"
ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure

echo "== examples =="
for e in quickstart factory_monitoring battlefield_audit scheme_comparison \
         outsourced_aggregation climate_dashboard mixed_aggregates; do
  echo "-- $e"
  "./$BUILD/examples/$e" > /dev/null
done
"./$BUILD/examples/keygen" --sources=4 --out="$(mktemp -u)" > /dev/null
"./$BUILD/examples/sies_sim" --scheme=sies --sources=64 --epochs=2 > /dev/null
"./$BUILD/examples/sies_sim" --scheme=sies --sources=64 --epochs=2 \
    --threads=1 > /dev/null

telemetry_smoke "$BUILD"
fault_smoke "$BUILD"
engine_smoke "$BUILD"
ops_smoke "$BUILD"
transport_smoke "$BUILD"
predicate_smoke "$BUILD"

bench_smoke "$BUILD"

# The whole-epoch benchmark is its own CMake project compiling src/
# (.bench_build/epochbench): build it and run its differential
# self-check and determinism ctests. Skipped in the sanitized pass,
# which builds nothing outside build-sanitize/.
if [[ $SANITIZE -eq 0 ]]; then
  echo "== epochbench self-test =="
  python3 epochbench/run.py --selftest
fi

# Parser-coverage gate: the committed corpora must keep exercising the
# untrusted-input TUs (floors in fuzz/coverage_floors.tsv). Skipped in
# the sanitized pass — the gate owns its own instrumented tree.
if [[ $SANITIZE -eq 0 ]]; then
  scripts/coverage.sh
fi

if [[ $SKIP_BENCH -eq 0 && $SANITIZE -eq 0 ]]; then
  echo "== benches =="
  RUN_DIR="$(mktemp -d)"
  trap 'rm -rf "$RUN_DIR"' EXIT
  for b in "$BUILD"/bench/*; do
    echo "-- $b"
    (cd "$RUN_DIR" && "$OLDPWD/$b" > /dev/null)
  done
  echo "== bench_compare (--strict) vs bench/baselines =="
  python3 scripts/bench_compare.py --strict "$RUN_DIR" > /dev/null
fi
echo "ALL CHECKS PASSED"
