// Figure 6(a) reproduction: computational cost at the querier vs. the
// number of sources N in {64, 256, 1024, 4096, 16384}; F=4,
// D=[1800,5000], J=300.
//
// SIES/CMT final payloads are produced by genuinely summing N source
// PSRs; the SECOA_S final payload is fabricated via
// FabricateHonestFinalPsr (verifies exactly like an honest run and costs
// the querier identical work) because running 16k sources at J=300 full
// fidelity would take hours without changing what is measured here.
//
// SIES is timed twice: "cold" clears the querier's EpochKeyCache before
// every evaluation (the first query of an epoch — all N k_{i,t}/ss_{i,t}
// derivations plus the K_t inverse are paid), "warm" reuses the cached
// epoch keys (every subsequent query).  Results also land in
// BENCH_fig6a_querier_vs_n.json (schema in docs/REPRODUCING.md).
//
// Expected shape: all linear in N; warm SIES well under cold SIES; SIES
// within a small factor of CMT; SECOA_S 1-2 orders above both.
//
//   ./build/bench/fig6a_querier_vs_n              # full run
//   ./build/bench/fig6a_querier_vs_n --smoke      # tiny grid, JSON only
//   ./build/bench/fig6a_querier_vs_n --threads=4  # pooled cold SIES
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_json.h"
#include "cmt/cmt.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "crypto/rsa.h"
#include "secoa/secoa_sum.h"
#include "sies/aggregator.h"
#include "sies/querier.h"
#include "sies/source.h"
#include "telemetry/metrics.h"
#include "workload/workload.h"

namespace {
constexpr uint64_t kSeed = 7;
}  // namespace

int main(int argc, char** argv) {
  using namespace sies;

  bool smoke = false;
  uint32_t threads = 1;  // serial by default: the paper's querier is one core
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<uint32_t>(std::strtoul(argv[i] + 10, nullptr, 10));
    }
  }
  // The smoke grid only exercises the measurement + JSON plumbing.
  const uint32_t j = smoke ? 20 : 300;
  const size_t rsa_bits = smoke ? 512 : 1024;
  const std::vector<uint32_t> sizes =
      smoke ? std::vector<uint32_t>{64, 256}
            : std::vector<uint32_t>{64, 256, 1024, 4096, 16384};

  std::printf(
      "=== Figure 6(a): querier CPU vs N (F=4, D=[1800,5000], J=%u) ===\n",
      j);
  std::printf("%-8s %14s %14s %14s %14s %14s\n", "N", "SIES cold",
              "SIES warm", "SIES wire", "CMT", "SECOA_S");

  bench::BenchReport report("fig6a_querier_vs_n");
  report.config().Add("j", j);
  report.config().Add("rsa_bits", static_cast<uint64_t>(rsa_bits));
  report.config().Add("seed", kSeed);
  report.config().Add("smoke", smoke);
  report.config().Add("threads", threads);

  // Optional pool for the cold SIES evaluations (the N-way k_{i,t} /
  // ss_{i,t} recomputation fans out). threads=1 keeps the paper's
  // single-core querier.
  std::unique_ptr<common::ThreadPool> pool;
  if (threads != 1) pool = std::make_unique<common::ThreadPool>(threads);
  telemetry::Gauge* queue_depth =
      telemetry::MetricsRegistry::Global().GetGauge(
          "sies_thread_pool_queue_depth");
  telemetry::Counter* pool_jobs =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_thread_pool_jobs_total");

  Xoshiro256 rsa_rng(kSeed);
  auto kp = crypto::GenerateRsaKeyPair(rsa_bits, rsa_rng,
                                       /*public_exponent=*/3)
                .value();
  secoa::SealOps ops(kp.public_key);

  for (uint32_t n : sizes) {
    workload::TraceConfig tc;
    tc.num_sources = n;
    tc.scale_pow10 = 2;
    tc.seed = kSeed;
    workload::TraceGenerator trace(tc);
    workload::EpochSnapshot snap = Snapshot(trace, 1);

    std::vector<uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);

    // --- SIES ---
    auto sies_params = core::MakeParams(n, kSeed).value();
    auto sies_keys = core::GenerateKeys(sies_params, EncodeUint64(kSeed));
    core::Aggregator sies_agg(sies_params);
    core::Querier sies_querier(sies_params, sies_keys);
    if (pool != nullptr) sies_querier.SetThreadPool(pool.get());
    Bytes sies_final;
    for (uint32_t i = 0; i < n; ++i) {
      core::Source src(sies_params, i,
                       core::KeysForSource(sies_keys, i).value());
      Bytes psr = src.CreatePsr(snap.values[i], 1).value();
      sies_final =
          sies_final.empty() ? psr : sies_agg.Merge({sies_final, psr}).value();
    }
    Stopwatch watch;
    int reps = smoke ? 2 : (n <= 1024 ? 10 : 3);
    // Warm evaluations are hundreds of µs at most, so the warm and wire
    // series are timed as interleaved batch pairs: interleaving exposes
    // both series to the same scheduler/frequency perturbations. Each
    // series reports its per-batch minimum; the overhead ratio comes
    // from the MEDIAN of per-round ratios, because the two batches of a
    // round are adjacent in time and see the same perturbation — a
    // mean-of-3 of either series alone swings by tens of percent on a
    // busy host, which would make the wire-overhead figure meaningless.
    // The smoke grid runs enough rounds for the wire guard below to be a
    // stable verdict even there (a round at N <= 256 costs microseconds).
    const int warm_rounds = smoke ? 11 : 24;
    const int warm_reps = smoke ? 50 : 10;
    struct PairedTiming {
      double min_a = 0;
      double min_b = 0;
      double median_ratio = 1.0;
    };
    auto paired_ms = [&](auto&& fn_a, auto&& fn_b) {
      PairedTiming t;
      std::vector<double> ratios;
      ratios.reserve(warm_rounds);
      for (int round = 0; round < warm_rounds; ++round) {
        watch.Restart();
        for (int r = 0; r < warm_reps; ++r) fn_a();
        double a = watch.ElapsedMillis() / warm_reps;
        watch.Restart();
        for (int r = 0; r < warm_reps; ++r) fn_b();
        double b = watch.ElapsedMillis() / warm_reps;
        if (round == 0 || a < t.min_a) t.min_a = a;
        if (round == 0 || b < t.min_b) t.min_b = b;
        if (a > 0) ratios.push_back(b / a);
      }
      if (!ratios.empty()) {
        auto mid = ratios.begin() + ratios.size() / 2;
        std::nth_element(ratios.begin(), mid, ratios.end());
        t.median_ratio = *mid;
      }
      return t;
    };
    // The 2-arg convenience overload iterates the querier's own cached
    // all-sources index list — the same vector the wire fast path uses,
    // so the warm and wire series differ only in the envelope handling
    // being measured.
    auto evaluate_or_die = [&] {
      auto eval = sies_querier.Evaluate(sies_final, 1);
      if (!eval.ok() || !eval.value().verified) {
        std::fprintf(stderr, "SIES verification failed!\n");
        std::exit(1);
      }
    };
    const uint64_t pool_jobs_before = pool_jobs->Value();
    core::EpochKeyCache::Stats stats0 = sies_querier.CacheStats();
    watch.Restart();
    for (int r = 0; r < reps; ++r) {
      sies_querier.ClearEpochKeyCache();
      evaluate_or_die();
    }
    double sies_cold_ms = watch.ElapsedMillis() / reps;
    core::EpochKeyCache::Stats stats_cold = sies_querier.CacheStats();
    evaluate_or_die();  // prime the cache outside the timed region

    // --- SIES wire path (contributor bitmap carried in-band) ---
    // Same warm-cache evaluation through EvaluateWire: the querier
    // additionally parses the ⌈N/8⌉-byte bitmap and derives the
    // participating set from it. The acceptance bar for the loss
    // extension is <2% over the raw warm path at this grid.
    Bytes wire_final;
    for (uint32_t i = 0; i < n; ++i) {
      core::Source src(sies_params, i,
                       core::KeysForSource(sies_keys, i).value());
      Bytes psr = src.CreateWirePsr(snap.values[i], 1).value();
      wire_final = wire_final.empty()
                       ? psr
                       : sies_agg.MergeWire({wire_final, psr}).value();
    }
    // Check once (outside the timed region) that the bitmap reports all
    // N sources; the timed loop then measures the evaluation itself —
    // envelope validation, bitmap-derived participating set, decrypt and
    // share-sum verification — without the contributor-list copy that
    // only reporting callers ask for.
    {
      std::vector<uint32_t> wire_contributors;
      auto eval = sies_querier.EvaluateWire(wire_final, 1, &wire_contributors);
      if (!eval.ok() || !eval.value().verified ||
          wire_contributors.size() != n) {
        std::fprintf(stderr, "SIES wire verification failed!\n");
        std::exit(1);
      }
    }
    auto evaluate_wire_or_die = [&] {
      auto eval = sies_querier.EvaluateWire(wire_final, 1, nullptr);
      if (!eval.ok() || !eval.value().verified) {
        std::fprintf(stderr, "SIES wire verification failed!\n");
        std::exit(1);
      }
    };
    core::EpochKeyCache::Stats stats1 = sies_querier.CacheStats();
    PairedTiming warm_timing =
        paired_ms(evaluate_or_die, evaluate_wire_or_die);
    double sies_warm_ms = warm_timing.min_a;
    double sies_wire_ms = warm_timing.min_b;
    core::EpochKeyCache::Stats stats_warm = sies_querier.CacheStats();

    // --- CMT ---
    auto cmt_params = cmt::MakeParams(n, kSeed).value();
    auto cmt_keys = cmt::GenerateKeys(cmt_params, EncodeUint64(kSeed));
    cmt::Aggregator cmt_agg(cmt_params);
    cmt::Querier cmt_querier(cmt_params, cmt_keys);
    Bytes cmt_final;
    for (uint32_t i = 0; i < n; ++i) {
      cmt::Source src(cmt_params, cmt_keys.source_keys[i]);
      Bytes ct = src.CreateCiphertext(snap.values[i], 1).value();
      cmt_final =
          cmt_final.empty() ? ct : cmt_agg.Merge({cmt_final, ct}).value();
    }
    watch.Restart();
    for (int r = 0; r < reps; ++r) {
      auto sum = cmt_querier.Decrypt(cmt_final, 1, all);
      if (!sum.ok()) return 1;
    }
    double cmt_ms = watch.ElapsedMillis() / reps;

    // --- SECOA_S (fabricated honest final PSR; see header comment) ---
    secoa::SumParams sum_params{n, j, kSeed};
    auto secoa_keys = secoa::GenerateKeys(n, EncodeUint64(kSeed));
    secoa::SumQuerier secoa_querier(ops, sum_params, secoa_keys);
    Xoshiro256 sketch_rng(kSeed + n);
    std::vector<uint8_t> values =
        secoa::SampleSketchValues(sum_params, snap.exact_sum, sketch_rng);
    std::vector<uint32_t> winners(j);
    for (auto& w : winners) {
      w = static_cast<uint32_t>(sketch_rng.NextBelow(n));
    }
    auto secoa_final = secoa::FabricateHonestFinalPsr(
                           ops, sum_params, secoa_keys, 1, all, values,
                           winners)
                           .value();
    watch.Restart();
    auto eval = secoa_querier.Evaluate(secoa_final, 1, all);
    if (!eval.ok() || !eval.value().verified) {
      std::fprintf(stderr, "SECOA verification failed!\n");
      return 1;
    }
    double secoa_ms = watch.ElapsedMillis();

    // The documented bound (DESIGN.md §9): carrying the contributor
    // bitmap in-band costs the warm evaluation < 2% at every N, from the
    // median of paired per-round ratios.
    const double wire_overhead_pct = 100.0 * (warm_timing.median_ratio - 1.0);
    const bool wire_guard_met = wire_overhead_pct < 2.0;
    std::printf("%-8u %11.3f ms %11.3f ms %11.3f ms %11.3f ms %11.1f ms"
                "   wire +%.2f%% (%s)\n",
                n, sies_cold_ms, sies_warm_ms, sies_wire_ms, cmt_ms,
                secoa_ms, wire_overhead_pct,
                wire_guard_met ? "OK" : "EXCEEDED");
    bench::JsonObject row;
    row.Add("n", n);
    row.Add("sies_cold_ms", sies_cold_ms);
    row.Add("sies_warm_ms", sies_warm_ms);
    row.Add("sies_wire_warm_ms", sies_wire_ms);
    row.Add("sies_wire_overhead_pct", wire_overhead_pct);
    row.Add("wire_guard_met", wire_guard_met);
    row.Add("cmt_ms", cmt_ms);
    row.Add("secoa_ms", secoa_ms);
    row.Add("reps", reps);
    // Epoch-key-cache behaviour of the two SIES series: the cold loop
    // should be all misses (the cache is cleared every rep), the warm
    // loop all hits. A deviation means the bench no longer measures
    // what its name claims.
    row.Add("sies_cold_cache_hits",
            (stats_cold.global_hits - stats0.global_hits) +
                (stats_cold.source_hits - stats0.source_hits));
    row.Add("sies_cold_cache_misses",
            (stats_cold.global_misses - stats0.global_misses) +
                (stats_cold.source_misses - stats0.source_misses));
    row.Add("sies_warm_cache_hits",
            (stats_warm.global_hits - stats1.global_hits) +
                (stats_warm.source_hits - stats1.source_hits));
    row.Add("sies_warm_cache_misses",
            (stats_warm.global_misses - stats1.global_misses) +
                (stats_warm.source_misses - stats1.source_misses));
    row.Add("pool_jobs", pool_jobs->Value() - pool_jobs_before);
    row.Add("pool_queue_depth_peak", queue_depth->Peak());
    report.AddRow(std::move(row));
  }
  std::string path = report.Write();
  if (path.empty()) return 1;
  std::printf(
      "\nshape check: all linear in N; warm SIES under cold SIES; SIES "
      "within a small factor of CMT; SECOA_S 1-2 orders above.\n"
      "wrote %s\n",
      path.c_str());
  return 0;
}
