// Batched-crypto microbenchmarks: the data-parallel derivation layer.
//
// Three row kinds land in BENCH_batched_crypto.json (schema 2, see
// docs/PERFORMANCE.md "Benchmark JSON"):
//
//   kind=hmac_micro   scalar one-shot HMAC-SHA256 epoch derivation vs
//                     the 8-lane batch kernel over the same pairs, one
//                     thread. `speedup` is the acceptance metric: >= 4x
//                     batched-vs-scalar on AVX2 hardware.
//   kind=fp256_mul    the 256-bit Fp<4> Barrett multiply over
//                     independent operands.
//   kind=cold_start   the fig6a querier cold start at N = 10^6 (smoke:
//                     4096): one full epoch — per-source PSR creation
//                     into a PsrArena, contiguous aggregation, then a
//                     cold Querier::Evaluate (all N k_{i,t}/ss_{i,t}
//                     derivations) — at --threads {1,2,4}. The PSR
//                     phases do no per-source heap allocation.
//
//   ./build/bench/batched_crypto            # full run (N = 10^6)
//   ./build/bench/batched_crypto --smoke    # tiny grid, JSON plumbing
//   ./build/bench/batched_crypto --threads=1,2,4   # cold-start sweep
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "crypto/cpu_features.h"
#include "crypto/fp.h"
#include "crypto/hmac.h"
#include "crypto/sha256x8.h"
#include "sies/aggregator.h"
#include "sies/psr_arena.h"
#include "sies/querier.h"
#include "sies/source.h"

namespace {
constexpr uint64_t kSeed = 7;
}  // namespace

int main(int argc, char** argv) {
  using namespace sies;

  bool smoke = false;
  std::vector<uint32_t> thread_counts = {1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts.clear();
      for (const char* p = argv[i] + 10; *p != '\0';) {
        char* end = nullptr;
        thread_counts.push_back(
            static_cast<uint32_t>(std::strtoul(p, &end, 10)));
        p = (*end == ',') ? end + 1 : end;
      }
    }
  }

  const crypto::CpuFeatures& cpu = crypto::Cpu();
  const char* kernel = cpu.avx2 ? "avx2" : "scalar";
  bench::BenchReport report("batched_crypto");
  report.config().Add("seed", kSeed);
  report.config().Add("smoke", smoke);
  report.config().Add("kernel", kernel);
  report.config().Add("avx2", cpu.avx2);
  report.config().Add("adx", cpu.adx && cpu.bmi2);
  report.config().Add("hw_threads",
                      static_cast<uint64_t>(common::HardwareConcurrency()));

  Stopwatch watch;
  std::printf("=== batched crypto (dispatch: %s) ===\n", kernel);

  // --- kind=hmac_micro: the derivation kernel itself, one thread ------
  {
    const size_t pairs = smoke ? 2'000 : 100'000;
    const int reps = smoke ? 2 : 5;
    Xoshiro256 rng(kSeed);
    std::vector<Bytes> keys(pairs);
    std::vector<crypto::ByteView> views(pairs);
    for (size_t i = 0; i < pairs; ++i) {
      keys[i] = rng.NextBytes(20);  // the protocol's long-term key width
      views[i] = crypto::ByteView(keys[i]);
    }
    const uint64_t epoch = 1;

    double scalar_ms = 0;
    {
      Bytes sink(32);
      watch.Restart();
      for (int r = 0; r < reps; ++r) {
        for (size_t i = 0; i < pairs; ++i) {
          sink = crypto::EpochPrfSha256(keys[i], epoch);
        }
      }
      scalar_ms = watch.ElapsedMillis() / reps;
      if (sink.size() != 32) return 1;  // keep the loop observable
    }

    // The "keys" are per-run throwaway randomness timed in a benchmark,
    // never real key material, so the derived digests need no wipe.
    std::vector<uint8_t> out(32 * pairs);
    watch.Restart();
    for (int r = 0; r < reps; ++r) {
      crypto::EpochPrfSha256Batch(pairs, views.data(), epoch, out.data());  // lint:allow(zeroize)
    }
    double batched_ms = watch.ElapsedMillis() / reps;

    // The batch must agree with the scalar reference (spot check here;
    // the exhaustive differential lives in tests/crypto/sha256x8_test).
    Bytes ref = crypto::EpochPrfSha256(keys[0], epoch);
    // Equality spot-check on throwaway bench digests; nothing secret to
    // leak through timing here.
    if (std::memcmp(ref.data(), out.data(), 32) != 0) {  // lint:allow(ct-compare)
      std::fprintf(stderr, "batched digest mismatch!\n");
      return 1;
    }

    double speedup = batched_ms > 0 ? scalar_ms / batched_ms : 0;
    std::printf("hmac_micro  %zu pairs: scalar %.2f ms, batched %.2f ms "
                "(%.2fx, kernel=%s)\n",
                pairs, scalar_ms, batched_ms, speedup, kernel);
    bench::JsonObject row;
    row.Add("kind", "hmac_micro");
    row.Add("pairs", static_cast<uint64_t>(pairs));
    row.Add("reps", reps);
    row.Add("kernel", kernel);
    row.Add("scalar_ms", scalar_ms);
    row.Add("batched_ms", batched_ms);
    row.Add("speedup", speedup);
    report.AddRow(std::move(row));
  }

  // --- kind=fp256_mul: the 256-bit Barrett multiply --------------------
  {
    const size_t ops = smoke ? 20'000 : 2'000'000;
    auto params = core::MakeParams(1024, kSeed).value();
    const auto& fp = std::get<crypto::Fp<4>>(*params.field);

    Xoshiro256 rng(kSeed + 1);
    // Independent multiplies (the decrypt/verify shape: distinct
    // operands each time); a serial dependent chain would measure
    // latency only.
    constexpr size_t kOperands = 1024;
    std::vector<crypto::UInt<4>> xs(kOperands);
    for (crypto::UInt<4>& v : xs) {
      for (uint64_t& limb : v.v) limb = rng.Next();
      v = fp.Reduce(v);
    }
    crypto::UInt<4> y;
    for (uint64_t& limb : y.v) limb = rng.Next();
    y = fp.Reduce(y);

    uint64_t low = 0;
    watch.Restart();
    for (size_t i = 0; i < ops; ++i) {
      low += fp.Mul(xs[i % kOperands], y).Low64();
    }
    const double portable_ms = watch.ElapsedMillis();
    // Keep the products observable.
    std::printf("fp256_mul   %zu muls: %.2f ms (checksum %llx)\n", ops,
                portable_ms, static_cast<unsigned long long>(low));
    bench::JsonObject row;
    row.Add("kind", "fp256_mul");
    row.Add("ops", static_cast<uint64_t>(ops));
    row.Add("portable_ms", portable_ms);
    report.AddRow(std::move(row));
  }

  // --- kind=cold_start: fig6a at N = 10^6, threads sweep ---------------
  {
    const uint32_t n = smoke ? 4'096 : 1'000'000;
    const int reps = smoke ? 2 : 2;
    auto params = core::MakeParams(n, kSeed).value();
    auto qkeys = core::GenerateKeys(params, EncodeUint64(kSeed));
    const size_t width = params.PsrBytes();
    core::Aggregator agg(params);
    core::PsrArena arena;

    for (uint32_t threads : thread_counts) {
      std::unique_ptr<common::ThreadPool> pool;
      if (threads != 1) pool = std::make_unique<common::ThreadPool>(threads);

      // Phase 1: every source encrypts into its arena slot — zero
      // per-source heap allocation (the arena reuses capacity across
      // reps, i.e. across epochs in a deployment).
      auto create_all = [&] {
        arena.Reset(width, n);
        auto create_one = [&](size_t i) {
          core::Source src(
              params, static_cast<uint32_t>(i),
              core::KeysForSource(qkeys, static_cast<uint32_t>(i)).value());
          if (!src.CreatePsrInto(1, 1, arena.Slot(i)).ok()) std::abort();
        };
        if (pool != nullptr) {
          pool->ParallelFor(n, create_one);
        } else {
          for (size_t i = 0; i < n; ++i) create_one(i);
        }
      };
      watch.Restart();
      create_all();
      double create_ms = watch.ElapsedMillis();

      // Phase 2: one contiguous fold over the arena.
      Bytes final_psr(width);
      watch.Restart();
      if (!agg.MergeContiguous(arena.data(), n, final_psr.data()).ok()) {
        return 1;
      }
      double merge_ms = watch.ElapsedMillis();

      // Phase 3: the fig6a cold querier evaluation — all N k_{i,t} and
      // ss_{i,t} derivations through the batched kernel, fanned out over
      // the pool in derivation groups.
      core::Querier querier(params, qkeys);
      if (pool != nullptr) querier.SetThreadPool(pool.get());
      double cold_ms = 0;
      for (int r = 0; r < reps; ++r) {
        querier.ClearEpochKeyCache();
        watch.Restart();
        auto eval = querier.Evaluate(final_psr, 1);
        double ms = watch.ElapsedMillis();
        if (!eval.ok() || !eval.value().verified ||
            eval.value().sum != n) {
          std::fprintf(stderr, "cold-start verification failed!\n");
          return 1;
        }
        if (r == 0 || ms < cold_ms) cold_ms = ms;
      }

      std::printf("cold_start  N=%u threads=%u: create %.1f ms, merge "
                  "%.1f ms, cold evaluate %.1f ms\n",
                  n, threads, create_ms, merge_ms, cold_ms);
      bench::JsonObject row;
      row.Add("kind", "cold_start");
      row.Add("n", n);
      row.Add("threads", threads);
      row.Add("reps", reps);
      row.Add("kernel", kernel);
      row.Add("psr_create_ms", create_ms);
      row.Add("merge_ms", merge_ms);
      row.Add("cold_evaluate_ms", cold_ms);
      report.AddRow(std::move(row));
    }
  }

  std::string path = report.Write();
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
