// Telemetry overhead guard: the instrumentation added to the SIES hot
// path must be invisible when nobody is reading it.
//
// Measurements over the fig6a warm-querier hot path (N sources, cached
// epoch keys — the cheapest, most probe-sensitive evaluation in the
// repo):
//
//   1. Per-evaluation probe cost: the exact disabled-telemetry probe
//      sequence one warm K = 1 evaluation executes on the engine path —
//      the network's evaluate timer (two clock reads plus a histogram
//      update), the engine's wire_parse, verify and assemble timers
//      (inert while nobody watches: two relaxed loads each), the
//      drill-down gate of the engine's key warm-up, the querier's
//      evaluation counter and epoch-key-cache hit counters with their
//      stat atomics, one audit enabled-check — timed tightly. The guard
//      asserts that sequence costs < 2% of the warm evaluation itself.
//   2. Enabled cost: the same sequence with the tracer and the epoch
//      timeline recording, alone and wrapped around a warm evaluation
//      (enabled probes take a mutex per sink — they may cost more).
//   3. Ops-plane guard: the same warm evaluations with an idle
//      AdminServer bound on loopback. A server nobody scrapes sits in
//      poll() on another thread; the guard asserts the hot path slows
//      by < 15% (a loose bound — the real cost is ~0, but containers
//      share cores). The not-started case costs exactly one relaxed
//      atomic load (the EpochTimeline enabled check, folded into the
//      probe sequence of measurement 1).
//   4. One epoch's probes enabled: whole K = 1 engine epochs (N
//      sources, 4-ary tree, simulated transport, one thread) with the
//      tracer and timeline off vs on, paired per round like
//      measurement 3; reports the probe count and the median slowdown.
//
// Exit code 1 when either guard fails, so scripts/check.sh can gate on
// it.
//
//   ./build/bench/telemetry_overhead            # full run
//   ./build/bench/telemetry_overhead --smoke    # fewer reps, same guard
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#include <numeric>
#include <vector>

#include "bench_json.h"
#include "common/timer.h"
#include "net/network.h"
#include "ops/admin_server.h"
#include "runner/runner.h"
#include "sies/aggregator.h"
#include "sies/querier.h"
#include "sies/source.h"
#include "telemetry/telemetry.h"
#include "workload/workload.h"

namespace {
constexpr uint64_t kSeed = 7;

/// Median of a sample (sorts it).
double Median(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}
}  // namespace

int main(int argc, char** argv) {
  using namespace sies;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // N stays at the fig6a/paper default even in smoke mode: the guard is
  // a ratio against the real hot path, and shrinking N would shrink the
  // denominator without shrinking the probes. Smoke only cuts reps.
  const uint32_t n = 1024;
  const int reps = smoke ? 30 : 500;

  telemetry::DisableAll();

  // Warm fig6a-style querier: build one honest final PSR, evaluate it
  // once to populate the epoch-key cache, then time cache-hit runs.
  workload::TraceConfig tc;
  tc.num_sources = n;
  tc.scale_pow10 = 2;
  tc.seed = kSeed;
  workload::TraceGenerator trace(tc);
  workload::EpochSnapshot snap = Snapshot(trace, 1);

  auto params = core::MakeParams(n, kSeed).value();
  auto keys = core::GenerateKeys(params, EncodeUint64(kSeed));
  core::Aggregator agg(params);
  core::Querier querier(params, keys);
  Bytes final_psr;
  for (uint32_t i = 0; i < n; ++i) {
    core::Source src(params, i, core::KeysForSource(keys, i).value());
    Bytes psr = src.CreatePsr(snap.values[i], 1).value();
    final_psr = final_psr.empty() ? psr : agg.Merge({final_psr, psr}).value();
  }
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);

  auto evaluate_or_die = [&] {
    auto eval = querier.Evaluate(final_psr, 1, all);
    if (!eval.ok() || !eval.value().verified) {
      std::fprintf(stderr, "verification failed during overhead bench\n");
      std::exit(1);
    }
  };
  evaluate_or_die();  // populate the cache

  Stopwatch watch;
  auto time_evals = [&]() -> double {  // ns per warm evaluation, best of 3
    double best_us = 1e300;
    for (int b = 0; b < 3; ++b) {
      watch.Restart();
      for (int r = 0; r < reps; ++r) evaluate_or_die();
      if (watch.ElapsedMicros() < best_us) best_us = watch.ElapsedMicros();
    }
    return best_us * 1e3 / reps;
  };

  const double eval_disabled_ns = time_evals();

  // The exact probe sequence one warm K = 1 evaluation executes on the
  // engine path (net::Network::RunEpoch -> MultiQueryEngine::Evaluate ->
  // core::Querier), in order, with `work` where the evaluation runs.
  const telemetry::PhaseHistograms& phases =
      telemetry::PhaseHistogramsFor("telemetry_overhead_bench");
  telemetry::Counter* evals =
      telemetry::MetricsRegistry::Global().GetCounter(
          "telemetry_overhead_bench_evals");
  telemetry::Counter* hits_a =
      telemetry::MetricsRegistry::Global().GetCounter(
          "telemetry_overhead_bench_hits", {{"table", "global"}});
  telemetry::Counter* hits_b =
      telemetry::MetricsRegistry::Global().GetCounter(
          "telemetry_overhead_bench_hits", {{"table", "sources"}});
  std::atomic<uint64_t> stat_a{0}, stat_b{0};
  uint64_t gates_open = 0;
  auto probe_sequence = [&](auto&& work) {
    using telemetry::Phase;
    telemetry::PhaseTimer evaluate(phases, Phase::kEvaluate, 1);
    telemetry::PhaseTimer(phases, Phase::kWireParse, 1).Stop();
    if (telemetry::DrillDownWatched()) ++gates_open;  // key warm-up gate
    {
      telemetry::PhaseTimer verify(phases, Phase::kVerify, 1);
      evals->Increment();
      hits_a->Increment();
      stat_a.fetch_add(1, std::memory_order_relaxed);
      hits_b->Increment();
      stat_b.fetch_add(1, std::memory_order_relaxed);
      work();
      telemetry::ChannelVerifySample sample;
      sample.kind = "sum";
      verify.Stop(sample);
    }
    telemetry::PhaseTimer(phases, Phase::kAssemble, 1).Stop();
    evaluate.Stop();
    if (telemetry::AuditTrail::Global().enabled()) ++gates_open;
  };
  auto time_probes = [&](int iters) -> double {  // ns per sequence
    double best_us = 1e300;
    for (int b = 0; b < 3; ++b) {
      telemetry::Tracer::Global().Reset();  // bound the recorded spans
      telemetry::EpochScope scope(1);
      watch.Restart();
      for (int i = 0; i < iters; ++i) probe_sequence([] {});
      best_us = std::min(best_us, watch.ElapsedMicros());
      scope.End(telemetry::EpochVerdict{});
    }
    return best_us * 1e3 / iters;
  };

  const int probe_iters = smoke ? 100000 : 1000000;
  const double probe_ns = time_probes(probe_iters);
  if (gates_open != 0) std::abort();  // every sink was off

  // Enabled: every interval also takes the tracer's and the timeline's
  // mutex. Fewer iterations bound the recorded spans.
  telemetry::Tracer::Global().Enable();
  telemetry::EpochTimeline::Global().Enable();
  telemetry::AuditTrail::Global().Enable();
  const double probe_enabled_ns = time_probes(smoke ? 5000 : 50000);
  double eval_enabled_best_us = 1e300;
  for (int b = 0; b < 3; ++b) {
    telemetry::Tracer::Global().Reset();
    telemetry::EpochScope scope(1);
    watch.Restart();
    for (int r = 0; r < reps; ++r) probe_sequence(evaluate_or_die);
    eval_enabled_best_us =
        std::min(eval_enabled_best_us, watch.ElapsedMicros());
    scope.End(telemetry::EpochVerdict{});
  }
  const double eval_enabled_ns = eval_enabled_best_us * 1e3 / reps;
  telemetry::DisableAll();
  telemetry::ResetAll();

  const double overhead_pct = 100.0 * probe_ns / eval_disabled_ns;
  const bool guard_met = overhead_pct < 2.0;

  // Ops-plane A/B: the same warm evaluations with an idle AdminServer
  // bound on loopback (never scraped). Its thread sits in poll(), so
  // the hot path should not notice it. Measured pairwise like fig6a's
  // wire overhead: each round times a server-less batch and an
  // idle-server batch back to back, so both sides of a ratio see the
  // same host contention, and the overhead is the median of per-round
  // ratios — robust even when the whole machine is busy. 15% slack
  // absorbs what little scheduler noise survives that.
  const int ops_rounds = smoke ? 8 : 24;
  const int ops_batch = 10;
  std::vector<double> ops_ratios;
  std::vector<double> ops_idle_ns;
  ops_ratios.reserve(static_cast<size_t>(ops_rounds));
  ops_idle_ns.reserve(static_cast<size_t>(ops_rounds));
  auto time_batch = [&]() -> double {  // ns per evaluation, one batch
    watch.Restart();
    for (int r = 0; r < ops_batch; ++r) evaluate_or_die();
    return watch.ElapsedMicros() * 1e3 / ops_batch;
  };
  for (int round = 0; round < ops_rounds; ++round) {
    const double base_ns = time_batch();
    auto server = ops::AdminServer::Start(ops::AdminOptions{}, nullptr);
    if (!server.ok()) {
      std::fprintf(stderr, "admin server failed to start: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    const double idle_ns = time_batch();
    ops_ratios.push_back(idle_ns / base_ns);
    ops_idle_ns.push_back(idle_ns);
  }
  const double eval_ops_idle_ns = Median(ops_idle_ns);
  const double ops_idle_overhead_pct = 100.0 * (Median(ops_ratios) - 1.0);
  const bool ops_guard_met = ops_idle_overhead_pct < 15.0;

  // One epoch's probes, enabled: whole K = 1 engine epochs over the
  // same trace, sinks off vs on, paired per round.
  net::Network network(net::Topology::BuildCompleteTree(n, 4).value());
  auto scheduler =
      runner::MakeSingleQueryScheduler(
          params, keys, network.topology(),
          [&trace](uint32_t index, uint64_t epoch) {
            return trace.ReadingAt(index, epoch);
          },
          core::Query{})
          .value();
  uint64_t epoch = 0;
  auto time_epochs = [&](int count) -> double {  // ms per epoch
    watch.Restart();
    for (int e = 0; e < count; ++e) {
      telemetry::EpochScope scope(++epoch);
      auto report = network.RunEpoch(*scheduler, epoch);
      if (!report.ok() || !report.value().outcome.verified) {
        std::fprintf(stderr, "epoch failed during overhead bench\n");
        std::exit(1);
      }
      telemetry::EpochVerdict verdict;
      verdict.answered = true;
      verdict.verified = true;
      scope.End(verdict);
    }
    return watch.ElapsedMillis() / count;
  };
  time_epochs(2);  // warm the caches
  const int epoch_rounds = smoke ? 4 : 16;
  const int epoch_batch = smoke ? 2 : 5;
  std::vector<double> epoch_ratios, epoch_off_ms, epoch_on_ms;
  uint64_t epoch_probes = 0;
  for (int round = 0; round < epoch_rounds; ++round) {
    epoch_off_ms.push_back(time_epochs(epoch_batch));
    telemetry::Tracer::Global().Enable();
    telemetry::EpochTimeline::Global().Enable();
    epoch_on_ms.push_back(time_epochs(epoch_batch));
    telemetry::DisableAll();
    epoch_ratios.push_back(epoch_on_ms.back() / epoch_off_ms.back());
    const std::vector<telemetry::EpochRecord> last =
        telemetry::EpochTimeline::Global().Last(1);
    epoch_probes = 0;
    for (const telemetry::PhaseStat& stat : last.at(0).phases) {
      epoch_probes += stat.calls;
    }
    telemetry::ResetAll();
  }
  const double epoch_disabled_ms = Median(epoch_off_ms);
  const double epoch_enabled_ms = Median(epoch_on_ms);
  const double epoch_enabled_overhead_pct =
      100.0 * (Median(epoch_ratios) - 1.0);

  std::printf("=== telemetry overhead on the warm querier path (N=%u) ===\n",
              n);
  std::printf("warm evaluate, telemetry disabled : %10.1f ns\n",
              eval_disabled_ns);
  std::printf("warm evaluate, sinks enabled      : %10.1f ns\n",
              eval_enabled_ns);
  std::printf("disabled probes per evaluation    : %10.2f ns\n", probe_ns);
  std::printf("enabled probes per evaluation     : %10.2f ns\n",
              probe_enabled_ns);
  std::printf("probe cost / warm evaluation      : %10.3f%% "
              "(budget 2%%): %s\n",
              overhead_pct, guard_met ? "OK" : "EXCEEDED");
  std::printf("warm evaluate, idle admin server  : %10.1f ns\n",
              eval_ops_idle_ns);
  std::printf("idle ops plane / warm evaluation  : %10.3f%% "
              "(budget 15%%): %s\n",
              ops_idle_overhead_pct, ops_guard_met ? "OK" : "EXCEEDED");
  std::printf("engine epoch, sinks off / on      : %10.3f / %.3f ms "
              "(%llu probes, %+.2f%% enabled)\n",
              epoch_disabled_ms, epoch_enabled_ms,
              static_cast<unsigned long long>(epoch_probes),
              epoch_enabled_overhead_pct);

  bench::BenchReport report("telemetry_overhead");
  report.config().Add("n", n);
  report.config().Add("reps", reps);
  report.config().Add("smoke", smoke);
  report.config().Add("budget_pct", 2.0);
  bench::JsonObject row;
  row.Add("eval_disabled_ns", eval_disabled_ns);
  row.Add("eval_enabled_ns", eval_enabled_ns);
  row.Add("probe_ns", probe_ns);
  row.Add("probe_enabled_ns", probe_enabled_ns);
  row.Add("overhead_pct", overhead_pct);
  row.Add("guard_met", guard_met);
  row.Add("eval_ops_idle_ns", eval_ops_idle_ns);
  row.Add("ops_idle_overhead_pct", ops_idle_overhead_pct);
  row.Add("ops_guard_met", ops_guard_met);
  row.Add("epoch_probes", epoch_probes);
  row.Add("epoch_disabled_ms", epoch_disabled_ms);
  row.Add("epoch_enabled_ms", epoch_enabled_ms);
  row.Add("epoch_enabled_overhead_pct", epoch_enabled_overhead_pct);
  report.AddRow(std::move(row));
  std::string path = report.Write();
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return (guard_met && ops_guard_met) ? 0 : 1;
}
