// Ablation: SIES cost vs the width of the prime modulus p.
//
// The paper fixes p at 32 bytes because the plaintext layout (4-byte
// value + log N pad + 20-byte share) must fit beneath it. This bench
// sweeps the prime width to show what the design choice costs and buys:
// the PSR (= per-edge bytes) is exactly the prime width, source cost
// grows mildly, and widths below the layout (or above the 512-bit field
// cap) are rejected outright.
#include <cstdio>

#include "common/timer.h"
#include "sies/aggregator.h"
#include "sies/querier.h"
#include "sies/source.h"

int main() {
  using namespace sies;
  constexpr uint32_t kN = 64;
  constexpr uint64_t kSeed = 7;

  std::printf("=== Ablation: SIES cost vs prime width (N=%u) ===\n", kN);
  std::printf("%-12s %10s %14s %14s %14s\n", "prime bits", "PSR B",
              "source", "agg (F=4)", "querier");

  for (size_t bits : {192ul, 224ul, 256ul, 320ul, 512ul, 1024ul}) {
    auto params_or = core::MakeParams(kN, kSeed, 4, bits);
    if (!params_or.ok()) {
      std::printf("%-12zu %10s rejected (%s)\n", bits, "-",
                  params_or.status().message().c_str());
      continue;
    }
    auto params = params_or.value();
    auto keys = core::GenerateKeys(params, EncodeUint64(kSeed));
    core::Aggregator aggregator(params);
    core::Querier querier(params, keys);

    std::vector<core::Source> sources;
    for (uint32_t i = 0; i < kN; ++i) {
      sources.emplace_back(params, i, core::KeysForSource(keys, i).value());
    }

    Stopwatch watch;
    constexpr int kReps = 50;
    watch.Restart();
    for (int r = 0; r < kReps; ++r) {
      if (!sources[0].CreatePsr(3000, r + 1).ok()) return 1;
    }
    double src_us = watch.ElapsedMicros() / kReps;

    std::vector<Bytes> children;
    for (uint32_t i = 0; i < 4; ++i) {
      children.push_back(sources[i].CreatePsr(3000 + i, 1).value());
    }
    watch.Restart();
    for (int r = 0; r < kReps * 4; ++r) {
      if (!aggregator.Merge(children).ok()) return 1;
    }
    double agg_us = watch.ElapsedMicros() / (kReps * 4);

    Bytes final_psr = sources[0].CreatePsr(100, 1).value();
    uint64_t expected = 100;
    for (uint32_t i = 1; i < kN; ++i) {
      uint64_t v = 100 + i;
      expected += v;
      final_psr =
          aggregator.Merge({final_psr, sources[i].CreatePsr(v, 1).value()})
              .value();
    }
    watch.Restart();
    for (int r = 0; r < 10; ++r) {
      auto eval = querier.Evaluate(final_psr, 1);
      if (!eval.ok() || !eval.value().verified ||
          eval.value().sum != expected) {
        std::fprintf(stderr, "verification failed at %zu bits\n", bits);
        return 1;
      }
    }
    double qry_us = watch.ElapsedMicros() / 10;

    std::printf("%-12zu %10zu %11.2f us %11.2f us %11.1f us\n", bits,
                params.PsrBytes(), src_us, agg_us, qry_us);
  }
  std::printf(
      "\nshape check: widths under 193 bits cannot hold the layout and "
      "widths over 512 bits have no field; 32 bytes (256 bits) is the "
      "smallest power-of-two width with headroom for N up to 2^63 — the "
      "paper's choice. Wider primes only add cost.\n");
  return 0;
}
