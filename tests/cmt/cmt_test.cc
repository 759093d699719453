#include "cmt/cmt.h"

#include <gtest/gtest.h>

#include <numeric>

namespace sies::cmt {
namespace {

class CmtTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kN = 8;

  CmtTest()
      : params_(MakeParams(kN, /*seed=*/5).value()),
        keys_(GenerateKeys(params_, {1, 2, 3})),
        aggregator_(params_),
        querier_(params_, keys_) {
    for (uint32_t i = 0; i < kN; ++i) {
      sources_.emplace_back(params_, keys_.source_keys[i]);
    }
    all_.resize(kN);
    std::iota(all_.begin(), all_.end(), 0u);
  }

  Params params_;
  QuerierKeys keys_;
  std::vector<Source> sources_;
  Aggregator aggregator_;
  Querier querier_;
  std::vector<uint32_t> all_;
};

TEST_F(CmtTest, ParamsShape) {
  EXPECT_EQ(params_.CiphertextBytes(), 20u);  // the paper's 20-byte edge
  EXPECT_EQ(params_.modulus.BitLength(), 160u);
}

TEST_F(CmtTest, MakeParamsValidation) {
  EXPECT_FALSE(MakeParams(0, 1).ok());
  EXPECT_FALSE(MakeParams(8, 1, /*modulus_bits=*/64).ok());
}

TEST_F(CmtTest, EncryptDecryptSingle) {
  Bytes c = sources_[0].CreateCiphertext(1234, 7).value();
  EXPECT_EQ(c.size(), 20u);
  EXPECT_EQ(querier_.Decrypt(c, 7, {0}).value(), 1234u);
}

TEST_F(CmtTest, AggregateSumExact) {
  std::vector<uint64_t> values = {1800, 5000, 0, 3141, 2718, 999, 1, 4242};
  uint64_t expected = std::accumulate(values.begin(), values.end(), 0ull);
  std::vector<Bytes> cts;
  for (uint32_t i = 0; i < kN; ++i) {
    cts.push_back(sources_[i].CreateCiphertext(values[i], 3).value());
  }
  Bytes merged = aggregator_.Merge(cts).value();
  EXPECT_EQ(querier_.Decrypt(merged, 3, all_).value(), expected);
}

TEST_F(CmtTest, EpochKeysRotate) {
  Bytes c1 = sources_[0].CreateCiphertext(100, 1).value();
  Bytes c2 = sources_[0].CreateCiphertext(100, 2).value();
  EXPECT_NE(c1, c2) << "same value must encrypt differently across epochs";
  // Decrypting with the wrong epoch gives garbage: either a wrong value,
  // or a 160-bit residue that does not even fit the 64-bit result.
  auto wrong = querier_.Decrypt(c1, 2, {0});
  if (wrong.ok()) {
    EXPECT_NE(wrong.value(), 100u);
  }
}

TEST_F(CmtTest, MergeAssociative) {
  std::vector<Bytes> cts;
  for (uint32_t i = 0; i < 4; ++i) {
    cts.push_back(sources_[i].CreateCiphertext(10 * (i + 1), 1).value());
  }
  Bytes ab = aggregator_.Merge({cts[0], cts[1]}).value();
  Bytes cd = aggregator_.Merge({cts[2], cts[3]}).value();
  Bytes pairwise = aggregator_.Merge({ab, cd}).value();
  Bytes flat = aggregator_.Merge(cts).value();
  EXPECT_EQ(pairwise, flat);
}

TEST_F(CmtTest, PartialParticipation) {
  Bytes c0 = sources_[0].CreateCiphertext(111, 9).value();
  Bytes c3 = sources_[3].CreateCiphertext(222, 9).value();
  Bytes merged = aggregator_.Merge({c0, c3}).value();
  EXPECT_EQ(querier_.Decrypt(merged, 9, {0, 3}).value(), 333u);
}

TEST_F(CmtTest, InputValidation) {
  EXPECT_FALSE(aggregator_.Merge({}).ok());
  EXPECT_FALSE(aggregator_.Merge({Bytes{1, 2}}).ok());
  EXPECT_FALSE(querier_.Decrypt(Bytes{1, 2}, 1, {0}).ok());
  EXPECT_FALSE(querier_.Decrypt(Bytes(20, 0), 1, {kN}).ok());
}

TEST_F(CmtTest, ValueMustBeBelowModulus) {
  // values are tiny vs the 160-bit modulus; but the API must reject >= n.
  // (Construct an impossible value via the modulus itself.)
  EXPECT_TRUE(sources_[0].CreateCiphertext(UINT64_MAX, 1).ok());
}

// The documented weakness (paper Section II-D): injection of an arbitrary
// v' into the aggregate is accepted as a correct result.
TEST_F(CmtTest, InjectionAttackSucceedsUndetected) {
  std::vector<Bytes> cts;
  uint64_t honest_sum = 0;
  for (uint32_t i = 0; i < kN; ++i) {
    cts.push_back(sources_[i].CreateCiphertext(1000 + i, 4).value());
    honest_sum += 1000 + i;
  }
  Bytes merged = aggregator_.Merge(cts).value();
  // Adversary adds v' = 77777 homomorphically: c += v' mod n.
  crypto::BigUint c = crypto::BigUint::FromBytes(merged);
  c = crypto::BigUint::ModAdd(c, crypto::BigUint(77777), params_.modulus)
          .value();
  Bytes attacked = c.ToBytes(params_.CiphertextBytes()).value();
  // The querier happily decrypts the falsified sum: CMT has no integrity.
  EXPECT_EQ(querier_.Decrypt(attacked, 4, all_).value(),
            honest_sum + 77777);
}

TEST_F(CmtTest, DroppedContributionUndetected) {
  // A compromised aggregator drops source 5's ciphertext; the querier
  // still "successfully" decrypts — it just subtracts too many keys and
  // returns a wrong value with no error signal. (SIES detects this.)
  std::vector<Bytes> cts;
  for (uint32_t i = 0; i < kN; ++i) {
    if (i == 5) continue;
    cts.push_back(sources_[i].CreateCiphertext(100, 6).value());
  }
  Bytes merged = aggregator_.Merge(cts).value();
  auto result = querier_.Decrypt(merged, 6, all_);
  // No detection: either a wrong value decodes, or the subtraction
  // wrapped mod n producing a huge value that fails the 64-bit cast.
  if (result.ok()) {
    EXPECT_NE(result.value(), 100u * kN);
  }
}

class CmtRandomizedSweep : public ::testing::TestWithParam<int> {};

TEST_P(CmtRandomizedSweep, RandomSumsExact) {
  Xoshiro256 rng(GetParam());
  uint32_t n = 1 + static_cast<uint32_t>(rng.NextBelow(16));
  auto params = MakeParams(n, GetParam()).value();
  auto keys = GenerateKeys(params, EncodeUint64(GetParam()));
  Aggregator agg(params);
  Querier querier(params, keys);
  uint64_t epoch = rng.NextBelow(100);
  uint64_t expected = 0;
  std::vector<Bytes> cts;
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t v = rng.NextBelow(1u << 20);
    expected += v;
    Source src(params, keys.source_keys[i]);
    cts.push_back(src.CreateCiphertext(v, epoch).value());
  }
  EXPECT_EQ(querier.Decrypt(agg.Merge(cts).value(), epoch, all).value(),
            expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CmtRandomizedSweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace sies::cmt
