// Microbenchmarks of the from-scratch crypto substrate (not a paper
// table; used to validate that the substrate's performance is in a sane
// range for the cost models to be meaningful).
//
// Besides the google-benchmark suite this binary runs a BigUint-vs-Fp<L>
// comparison of the SIES hot operations and writes the result to
// BENCH_micro_crypto.json (schema in docs/REPRODUCING.md): at the paper's
// 256-bit prime (Fp<4>) and at the hardened profile's 384-bit prime
// (Fp<6>, rows suffixed _384). The fixed target tracked across PRs: the
// 256-bit kernel must keep SIES Encrypt/Decrypt at >= 5x over the same
// arithmetic built from BigUint.
//
//   ./build/bench/micro_crypto            # full run
//   ./build/bench/micro_crypto --smoke    # seconds-fast, JSON only
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/timer.h"
#include "crypto/biguint.h"
#include "crypto/fp.h"
#include "crypto/hmac.h"
#include "crypto/hmac_drbg.h"
#include "crypto/prime.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "sies/message_format.h"

namespace {

using sies::Bytes;
using sies::Xoshiro256;
using sies::crypto::BigUint;

void BM_Sha1_64B(benchmark::State& state) {
  Bytes msg(64, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sies::crypto::Sha1::Hash(msg));
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Sha1_64B);

void BM_Sha256_64B(benchmark::State& state) {
  Bytes msg(64, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sies::crypto::Sha256::Hash(msg));
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_4KiB(benchmark::State& state) {
  Bytes msg(4096, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sies::crypto::Sha256::Hash(msg));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Sha256_4KiB);

void BM_HmacDrbg_20B(benchmark::State& state) {
  sies::crypto::HmacDrbg drbg({1, 2, 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(drbg.Generate(20));
  }
}
BENCHMARK(BM_HmacDrbg_20B);

void BM_BigUintMul(benchmark::State& state) {
  Xoshiro256 rng(1);
  BigUint a = BigUint::RandomWithBits(state.range(0), rng);
  BigUint b = BigUint::RandomWithBits(state.range(0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigUint::Mul(a, b));
  }
}
BENCHMARK(BM_BigUintMul)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BigUintDivMod(benchmark::State& state) {
  Xoshiro256 rng(2);
  BigUint a = BigUint::RandomWithBits(2 * state.range(0), rng);
  BigUint b = BigUint::RandomWithBits(state.range(0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigUint::DivMod(a, b).value());
  }
}
BENCHMARK(BM_BigUintDivMod)->Arg(256)->Arg(1024);

void BM_ModExp(benchmark::State& state) {
  Xoshiro256 rng(3);
  BigUint m = sies::crypto::GeneratePrime(state.range(0), rng);
  BigUint a = BigUint::RandomBelow(m, rng);
  BigUint e = BigUint::RandomWithBits(state.range(0), rng);
  auto ctx = sies::crypto::MontgomeryCtx::Create(m).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ModExp(a, e));
  }
}
BENCHMARK(BM_ModExp)->Arg(256)->Arg(1024);

void BM_MillerRabinPrime(benchmark::State& state) {
  Xoshiro256 rng(4);
  BigUint p = sies::crypto::GeneratePrime(state.range(0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sies::crypto::IsProbablePrime(p, 5, rng));
  }
}
BENCHMARK(BM_MillerRabinPrime)->Arg(160)->Arg(256);

// --- BigUint vs Fp<L> comparison -----------------------------------------
//
// Times each SIES hot operation on the fixed-width Fp<L> kernel and on
// the same arithmetic built inline from BigUint::ModMul/ModAdd/ModSub,
// and reports the speedup. The "sies_decrypt" pair intentionally compares
// the pre-cache querier inner loop (an extended-Euclid inverse per call)
// against the current one (Decrypt with the per-epoch cached inverse) —
// that is the code the EpochKeyCache + fixed-width change replaced.
// "sies_decrypt_cached_inverse" isolates the arithmetic-kernel share of
// that win.

using sies::Stopwatch;

// Best-of-3 batches; one warmup batch absorbs cache/page effects.
double NsPerOp(size_t iters, const std::function<void()>& op) {
  for (size_t i = 0; i < iters / 4 + 1; ++i) op();
  double best_us = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    for (size_t i = 0; i < iters; ++i) op();
    best_us = std::min(best_us, watch.ElapsedMicros());
  }
  return best_us * 1e3 / static_cast<double>(iters);
}

// (name, BigUint op, Fp<L> op, iterations); iterations shrink 100x in
// --smoke mode where only the JSON plumbing is under test.
struct Pair {
  std::string name;
  size_t prime_bits;
  std::function<void()> generic;
  std::function<void()> fast;
  size_t iters;
};

// One epoch's SIES operands on one prime, as BigUint and as UInt<L>.
template <size_t L>
struct Operands {
  sies::crypto::Fp<L> fp;
  BigUint p, gk, sk, msg, ct, gk_inv, wide;
  sies::crypto::UInt<L> ugk, usk, umsg, uct, ugk_inv;
  uint64_t uwide[2 * L];
};

// Appends the comparison rows for `params`' prime (an Fp<L>). With
// `full`, every op; otherwise the three that bound the hardened
// profile's per-PSR and per-evaluation cost. Rows get `suffix`.
template <size_t L>
void AddPairs(const sies::core::Params& params,
              const sies::core::QuerierKeys& keys, bool full,
              const std::string& suffix, std::vector<Pair>* pairs) {
  using namespace sies::core;
  auto o = std::make_shared<Operands<L>>(Operands<L>{
      std::get<sies::crypto::Fp<L>>(*params.field)});
  const auto& fp = o->fp;
  o->ugk = DeriveEpochGlobalKey(fp, keys.global_key, 1);
  o->usk = DeriveEpochSourceKey(fp, keys.source_keys[0], 1);
  o->umsg = PackMessage(params, 2345,
                        DeriveEpochShare(fp, params.share_prf,
                                         keys.source_keys[0], 1))
                .value();
  o->uct = Encrypt(fp, o->umsg, o->ugk, o->usk).value();
  o->ugk_inv = fp.Inverse(o->ugk).value();
  sies::crypto::UInt<L>::Mul(o->ugk, o->umsg, o->uwide);
  o->p = params.prime;
  o->gk = o->ugk.ToBigUint();
  o->sk = o->usk.ToBigUint();
  o->msg = o->umsg.ToBigUint();
  o->ct = o->uct.ToBigUint();
  o->gk_inv = o->ugk_inv.ToBigUint();
  o->wide = BigUint::Mul(o->gk, o->msg);

  // E(m) = K_t * m + k mod p and D(c) = (c - k) * K_t^-1 mod p, built
  // from the BigUint modular primitives.
  auto big_encrypt = [o] {
    return BigUint::ModAdd(BigUint::ModMul(o->gk, o->msg, o->p).value(),
                           o->sk, o->p)
        .value();
  };
  auto big_decrypt = [o](const BigUint& inv) {
    return BigUint::ModMul(BigUint::ModSub(o->ct, o->sk, o->p).value(), inv,
                           o->p)
        .value();
  };
  const size_t bits = params.prime.BitLength();
  auto add = [&](const char* name, std::function<void()> generic,
                 std::function<void()> fast, size_t iters) {
    pairs->push_back({name + suffix, bits, std::move(generic),
                      std::move(fast), iters});
  };
  if (full) {
    add("mod_add",
        [o] {
          benchmark::DoNotOptimize(BigUint::ModAdd(o->gk, o->sk, o->p).value());
        },
        [o] { benchmark::DoNotOptimize(o->fp.Add(o->ugk, o->usk)); }, 100000);
  }
  add("mod_mul",
      [o] {
        benchmark::DoNotOptimize(BigUint::ModMul(o->gk, o->msg, o->p).value());
      },
      [o] { benchmark::DoNotOptimize(o->fp.Mul(o->ugk, o->umsg)); }, 50000);
  if (full) {
    add("reduce_512",
        [o] { benchmark::DoNotOptimize(BigUint::Mod(o->wide, o->p).value()); },
        [o] { benchmark::DoNotOptimize(o->fp.ReduceWide(o->uwide)); }, 50000);
  }
  add("sies_encrypt", [big_encrypt] {
        benchmark::DoNotOptimize(big_encrypt());
      },
      [o] {
        benchmark::DoNotOptimize(
            Encrypt(o->fp, o->umsg, o->ugk, o->usk).value());
      },
      50000);
  if (full) {
    add("sies_decrypt",
        [o, big_decrypt] {
          benchmark::DoNotOptimize(
              big_decrypt(BigUint::ModInverse(o->gk, o->p).value()));
        },
        [o] {
          benchmark::DoNotOptimize(Decrypt(o->fp, o->uct, o->ugk_inv, o->usk));
        },
        2000);
  }
  add("sies_decrypt_cached_inverse",
      [o, big_decrypt] { benchmark::DoNotOptimize(big_decrypt(o->gk_inv)); },
      [o] {
        benchmark::DoNotOptimize(Decrypt(o->fp, o->uct, o->ugk_inv, o->usk));
      },
      50000);
}

int RunComparison(bool smoke) {
  using namespace sies::core;
  auto params = MakeParams(16, 7).value();
  QuerierKeys keys = GenerateKeys(params, sies::EncodeUint64(7));
  auto hardened = MakeParams(16, 7, 4, 384, SharePrf::kHmacSha256).value();
  QuerierKeys hardened_keys = GenerateKeys(hardened, sies::EncodeUint64(7));

  std::vector<Pair> pairs;
  AddPairs<4>(params, keys, /*full=*/true, "", &pairs);
  AddPairs<6>(hardened, hardened_keys, /*full=*/false, "_384", &pairs);

  sies::bench::BenchReport report("micro_crypto");
  report.config().Add("prime_bits", static_cast<uint64_t>(256));
  report.config().Add("hardened_prime_bits", static_cast<uint64_t>(384));
  report.config().Add("smoke", smoke);
  report.config().Add("speedup_target", 5.0);

  std::printf("\n=== BigUint vs Fp<L> (256-bit Fp<4>; _384: Fp<6>) ===\n");
  std::printf("%-32s %12s %12s %9s\n", "op", "biguint", "fp", "speedup");
  double encrypt_speedup = 0.0, decrypt_speedup = 0.0;
  double hardened_encrypt = 0.0, hardened_decrypt = 0.0;
  for (const Pair& pair : pairs) {
    size_t iters = smoke ? std::max<size_t>(pair.iters / 100, 20) : pair.iters;
    double generic_ns = NsPerOp(iters, pair.generic);
    double fast_ns = NsPerOp(iters, pair.fast);
    double speedup = generic_ns / fast_ns;
    if (pair.name == "sies_encrypt") encrypt_speedup = speedup;
    if (pair.name == "sies_decrypt") decrypt_speedup = speedup;
    if (pair.name == "sies_encrypt_384") hardened_encrypt = speedup;
    if (pair.name == "sies_decrypt_cached_inverse_384") {
      hardened_decrypt = speedup;
    }
    std::printf("%-32s %9.1f ns %9.1f ns %8.1fx\n", pair.name.c_str(),
                generic_ns, fast_ns, speedup);
    sies::bench::JsonObject row;
    row.Add("op", pair.name);
    row.Add("prime_bits", static_cast<uint64_t>(pair.prime_bits));
    row.Add("biguint_ns", generic_ns);
    // The 256-bit rows keep their original column name.
    row.Add(pair.prime_bits == 256 ? "fp256_ns" : "fp_ns", fast_ns);
    row.Add("speedup", speedup);
    report.AddRow(std::move(row));
  }

  bool target_met = encrypt_speedup >= 5.0 && decrypt_speedup >= 5.0;
  report.config().Add("encrypt_speedup", encrypt_speedup);
  report.config().Add("decrypt_speedup", decrypt_speedup);
  report.config().Add("speedup_target_met", target_met);
  report.config().Add("hardened_encrypt_speedup", hardened_encrypt);
  report.config().Add("hardened_decrypt_cached_inverse_speedup",
                      hardened_decrypt);
  std::printf("encrypt %.1fx, decrypt %.1fx vs >=5x target: %s%s\n",
              encrypt_speedup, decrypt_speedup,
              target_met ? "MET" : "NOT MET",
              smoke ? " (smoke timings are indicative only)" : "");
  std::printf("hardened 384-bit: encrypt %.1fx, decrypt (cached inverse) "
              "%.1fx\n",
              hardened_encrypt, hardened_decrypt);
  std::string path = report.Write();
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> pass_through;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      pass_through.push_back(argv[i]);
    }
  }
  if (!smoke) {
    int pass_argc = static_cast<int>(pass_through.size());
    benchmark::Initialize(&pass_argc, pass_through.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               pass_through.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return RunComparison(smoke);
}
