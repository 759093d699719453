#include "sies/epoch_key_cache.h"

#include <gtest/gtest.h>

#include <variant>

#include "sies/message_format.h"

namespace sies::core {
namespace {

struct Fixture {
  Params params = MakeParams(8, 42).value();
  QuerierKeys keys = GenerateKeys(params, EncodeUint64(42));
  const crypto::Fp<4>& fp = std::get<crypto::Fp<4>>(*params.field);
};

// Every cached value equals its scalar derivation, and K_t^{-1} the
// BigUint oracle's inverse, at each profile's width: the 256-bit paper
// prime (Fp<4>), a 384-bit prime with HM1 shares and the hardened
// 384-bit HM256 profile (both Fp<6>, the latter on the batched share
// kernel). 70 sources leave a ragged final 8-lane batch.
TEST(EpochKeyCacheTest, EntriesMatchScalarDerivationAtEveryWidth) {
  struct Profile {
    size_t bits;
    SharePrf prf;
  };
  for (const Profile& profile : {Profile{256, SharePrf::kHmacSha1},
                                 Profile{384, SharePrf::kHmacSha1},
                                 Profile{384, SharePrf::kHmacSha256}}) {
    SCOPED_TRACE(profile.bits);
    Params params = MakeParams(70, 42, 4, profile.bits, profile.prf).value();
    QuerierKeys keys = GenerateKeys(params, EncodeUint64(42));
    params.WithField([&](const auto& fp) {
      EpochKeyCache cache;
      auto global = cache.Global(fp, keys.global_key, 5);
      EXPECT_EQ(global->key, DeriveEpochGlobalKey(fp, keys.global_key, 5));
      EXPECT_EQ(global->key_inv.ToBigUint(),
                crypto::BigUint::ModInverse(global->key.ToBigUint(),
                                            params.prime)
                    .value());
      auto sources = cache.Sources(fp, profile.prf, keys.source_keys, 6,
                                   nullptr);
      ASSERT_EQ(sources->keys.size(), 70u);
      ASSERT_EQ(sources->shares.size(), 70u);
      for (size_t i = 0; i < 70; ++i) {
        EXPECT_EQ(sources->keys[i],
                  DeriveEpochSourceKey(fp, keys.source_keys[i], 6));
        EXPECT_EQ(sources->shares[i],
                  DeriveEpochShare(fp, profile.prf, keys.source_keys[i], 6));
      }
    });
  }
}

TEST(EpochKeyCacheTest, GlobalIsMemoizedPerEpoch) {
  Fixture f;
  EpochKeyCache cache;
  auto a = cache.Global(f.fp, f.keys.global_key, 7);
  auto b = cache.Global(f.fp, f.keys.global_key, 7);
  EXPECT_EQ(a.get(), b.get()) << "same epoch must share one snapshot";
  auto c = cache.Global(f.fp, f.keys.global_key, 8);
  EXPECT_NE(a.get(), c.get());
}

TEST(EpochKeyCacheTest, BatchedDerivationMatchesScalarAcrossGroups) {
  // 300 sources spans multiple 256-wide derivation groups and a ragged
  // final 8-lane batch; every cached entry must equal the per-index
  // scalar derivation bit for bit, with and without a pool fanning the
  // groups out.
  Params params = MakeParams(300, 42).value();
  QuerierKeys keys = GenerateKeys(params, EncodeUint64(42));
  const auto& fp = std::get<crypto::Fp<4>>(*params.field);
  common::ThreadPool pool(3);
  EpochKeyCache pooled, serial;
  auto a = pooled.Sources(fp, params.share_prf, keys.source_keys, 11, &pool);
  auto b = serial.Sources(fp, params.share_prf, keys.source_keys, 11, nullptr);
  ASSERT_EQ(a->keys.size(), 300u);
  for (size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(a->keys[i], DeriveEpochSourceKey(fp, keys.source_keys[i], 11));
    EXPECT_EQ(a->shares[i], DeriveEpochShare(fp, params.share_prf,
                                             keys.source_keys[i], 11));
    EXPECT_EQ(a->keys[i], b->keys[i]);
    EXPECT_EQ(a->shares[i], b->shares[i]);
  }
}

TEST(EpochKeyCacheTest, EvictionBoundsRetainedEpochs) {
  Fixture f;
  EpochKeyCache cache(/*capacity=*/2);
  auto e1 = cache.Global(f.fp, f.keys.global_key, 1);
  cache.Global(f.fp, f.keys.global_key, 2);
  cache.Global(f.fp, f.keys.global_key, 3);  // evicts epoch 1
  auto e1_again = cache.Global(f.fp, f.keys.global_key, 1);
  EXPECT_NE(e1.get(), e1_again.get()) << "epoch 1 was evicted, re-derived";
  EXPECT_EQ(e1->key, e1_again->key) << "re-derivation is deterministic";
}

TEST(EpochKeyCacheTest, EvictionsAreCounted) {
  Fixture f;
  EpochKeyCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    cache.Global(f.fp, f.keys.global_key, epoch);
  }
  // Capacity 2, 5 inserts: epochs 1-3 were pushed out.
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(EpochKeyCacheTest, ReserveGrowsAndNeverShrinks) {
  Fixture f;
  EpochKeyCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.capacity(), 2u);
  cache.Reserve(8);
  EXPECT_EQ(cache.capacity(), 8u);
  cache.Reserve(4);  // no shrink: readers may hold the larger set
  EXPECT_EQ(cache.capacity(), 8u);

  // With room for all 5 epochs, the same access pattern evicts nothing.
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    cache.Global(f.fp, f.keys.global_key, epoch);
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  auto early = cache.Global(f.fp, f.keys.global_key, 1);
  EXPECT_EQ(cache.stats().global_hits, 1u) << "epoch 1 must still be held";
  EXPECT_EQ(early->key, DeriveEpochGlobalKey(f.fp, f.keys.global_key, 1));
}

TEST(EpochKeyCacheTest, ClearDropsEverything) {
  Fixture f;
  EpochKeyCache cache;
  auto a = cache.Global(f.fp, f.keys.global_key, 4);
  cache.Clear();
  auto b = cache.Global(f.fp, f.keys.global_key, 4);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->key, b->key);
}

}  // namespace
}  // namespace sies::core
