// End-to-end SIES: source -> aggregator tree -> querier, including
// failure handling and the exactness guarantee.
#include <gtest/gtest.h>

#include <numeric>

#include "sies/aggregator.h"
#include "sies/querier.h"
#include "sies/source.h"

namespace sies::core {
namespace {

class SiesEndToEndTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kN = 8;

  SiesEndToEndTest()
      : params_(MakeParams(kN, /*seed=*/3).value()),
        keys_(GenerateKeys(params_, {4, 2})),
        aggregator_(params_),
        querier_(params_, keys_) {
    for (uint32_t i = 0; i < kN; ++i) {
      sources_.emplace_back(params_, i, KeysForSource(keys_, i).value());
    }
  }

  // Aggregates all sources' PSRs pairwise (binary tree shape).
  Bytes AggregateAll(const std::vector<Bytes>& psrs) {
    std::vector<Bytes> level = psrs;
    while (level.size() > 1) {
      std::vector<Bytes> next;
      for (size_t i = 0; i < level.size(); i += 2) {
        if (i + 1 < level.size()) {
          next.push_back(
              aggregator_.Merge({level[i], level[i + 1]}).value());
        } else {
          next.push_back(level[i]);
        }
      }
      level = std::move(next);
    }
    return level[0];
  }

  Params params_;
  QuerierKeys keys_;
  std::vector<Source> sources_;
  Aggregator aggregator_;
  Querier querier_;
};

TEST_F(SiesEndToEndTest, ExactSumVerifies) {
  std::vector<uint64_t> values = {1800, 2500, 3000, 4999, 0, 42, 5000, 1};
  uint64_t expected = std::accumulate(values.begin(), values.end(), 0ull);
  std::vector<Bytes> psrs;
  for (uint32_t i = 0; i < kN; ++i) {
    psrs.push_back(sources_[i].CreatePsr(values[i], /*epoch=*/1).value());
    EXPECT_EQ(psrs.back().size(), params_.PsrBytes());
  }
  auto eval = querier_.Evaluate(AggregateAll(psrs), 1).value();
  EXPECT_TRUE(eval.verified);
  EXPECT_EQ(eval.sum, expected);
}

TEST_F(SiesEndToEndTest, ExactAcrossManyEpochs) {
  for (uint64_t epoch = 1; epoch <= 20; ++epoch) {
    std::vector<Bytes> psrs;
    uint64_t expected = 0;
    for (uint32_t i = 0; i < kN; ++i) {
      uint64_t v = 1800 + 37 * i + 11 * epoch;
      expected += v;
      psrs.push_back(sources_[i].CreatePsr(v, epoch).value());
    }
    auto eval = querier_.Evaluate(AggregateAll(psrs), epoch).value();
    EXPECT_TRUE(eval.verified) << "epoch " << epoch;
    EXPECT_EQ(eval.sum, expected) << "epoch " << epoch;
  }
}

TEST_F(SiesEndToEndTest, MergeOrderIrrelevant) {
  std::vector<Bytes> psrs;
  for (uint32_t i = 0; i < kN; ++i) {
    psrs.push_back(sources_[i].CreatePsr(100 + i, 2).value());
  }
  // Left-fold vs pairwise tree must give identical final PSRs.
  Bytes left_fold = psrs[0];
  for (size_t i = 1; i < psrs.size(); ++i) {
    left_fold = aggregator_.Merge({left_fold, psrs[i]}).value();
  }
  Bytes tree = AggregateAll(psrs);
  EXPECT_EQ(left_fold, tree);
  // Reversed order too (commutativity).
  Bytes reverse_fold = psrs.back();
  for (size_t i = psrs.size() - 1; i-- > 0;) {
    reverse_fold = aggregator_.Merge({reverse_fold, psrs[i]}).value();
  }
  EXPECT_EQ(reverse_fold, tree);
}

TEST_F(SiesEndToEndTest, WideMergeEqualsPairwise) {
  std::vector<Bytes> psrs;
  for (uint32_t i = 0; i < kN; ++i) {
    psrs.push_back(sources_[i].CreatePsr(7 * i, 3).value());
  }
  EXPECT_EQ(aggregator_.Merge(psrs).value(), AggregateAll(psrs));
}

TEST_F(SiesEndToEndTest, FailedSourceHandledWithParticipationList) {
  // Source 3 fails; the querier is told and sums shares of the rest
  // (paper Section IV-B "Discussion").
  std::vector<Bytes> psrs;
  uint64_t expected = 0;
  std::vector<uint32_t> participating;
  for (uint32_t i = 0; i < kN; ++i) {
    if (i == 3) continue;
    uint64_t v = 1000 + i;
    expected += v;
    participating.push_back(i);
    psrs.push_back(sources_[i].CreatePsr(v, 4).value());
  }
  auto eval =
      querier_.Evaluate(AggregateAll(psrs), 4, participating).value();
  EXPECT_TRUE(eval.verified);
  EXPECT_EQ(eval.sum, expected);
}

TEST_F(SiesEndToEndTest, WrongParticipationListFailsVerification) {
  // If the querier believes all N contributed but one PSR is missing,
  // the share sums cannot match: a dropped contribution is detected.
  std::vector<Bytes> psrs;
  for (uint32_t i = 0; i < kN - 1; ++i) {  // source 7 silently dropped
    psrs.push_back(sources_[i].CreatePsr(500, 5).value());
  }
  auto eval = querier_.Evaluate(AggregateAll(psrs), 5).value();
  EXPECT_FALSE(eval.verified);
}

TEST_F(SiesEndToEndTest, SingleSourceNetwork) {
  auto params = MakeParams(1, 3).value();
  auto keys = GenerateKeys(params, {1});
  Source source(params, 0, KeysForSource(keys, 0).value());
  Querier querier(params, keys);
  auto psr = source.CreatePsr(31415, 9).value();
  auto eval = querier.Evaluate(psr, 9).value();
  EXPECT_TRUE(eval.verified);
  EXPECT_EQ(eval.sum, 31415u);
}

TEST_F(SiesEndToEndTest, MaxValuesDoNotOverflow) {
  // Every source reports MaxSafeValue: Σv stays within the 4-byte field.
  uint64_t v = params_.MaxSafeValue();
  std::vector<Bytes> psrs;
  for (uint32_t i = 0; i < kN; ++i) {
    psrs.push_back(sources_[i].CreatePsr(v, 6).value());
  }
  auto eval = querier_.Evaluate(AggregateAll(psrs), 6).value();
  EXPECT_TRUE(eval.verified);
  EXPECT_EQ(eval.sum, v * kN);
}

TEST_F(SiesEndToEndTest, EpochMismatchFailsVerification) {
  // Evaluating epoch-1 PSRs as if they were epoch 2 must fail: this is
  // the freshness property (Theorem 4).
  std::vector<Bytes> psrs;
  for (uint32_t i = 0; i < kN; ++i) {
    psrs.push_back(sources_[i].CreatePsr(100, 1).value());
  }
  Bytes final_psr = AggregateAll(psrs);
  EXPECT_TRUE(querier_.Evaluate(final_psr, 1).value().verified);
  EXPECT_FALSE(querier_.Evaluate(final_psr, 2).value().verified);
}

TEST_F(SiesEndToEndTest, TamperedFinalPsrFailsVerification) {
  std::vector<Bytes> psrs;
  for (uint32_t i = 0; i < kN; ++i) {
    psrs.push_back(sources_[i].CreatePsr(2000, 7).value());
  }
  Bytes final_psr = AggregateAll(psrs);
  for (size_t byte = 0; byte < final_psr.size(); byte += 5) {
    Bytes tampered = final_psr;
    tampered[byte] ^= 0x01;
    auto eval = querier_.Evaluate(tampered, 7);
    if (eval.ok()) {
      EXPECT_FALSE(eval.value().verified) << "flip at byte " << byte;
    }
    // (!ok means the tampered PSR stopped being a residue: also a reject.)
  }
}

TEST_F(SiesEndToEndTest, InjectedCiphertextFailsVerification) {
  // An adversary adds a spurious encrypted-looking contribution.
  std::vector<Bytes> psrs;
  for (uint32_t i = 0; i < kN; ++i) {
    psrs.push_back(sources_[i].CreatePsr(100, 8).value());
  }
  Bytes bogus(params_.PsrBytes(), 0x00);
  bogus.back() = 0x2a;  // small residue, valid format
  psrs.push_back(bogus);
  auto eval = querier_.Evaluate(AggregateAll(psrs), 8).value();
  EXPECT_FALSE(eval.verified);
}

TEST_F(SiesEndToEndTest, MergeValidatesInput) {
  EXPECT_FALSE(aggregator_.Merge({}).ok());
  EXPECT_FALSE(aggregator_.Merge({Bytes{1, 2, 3}}).ok());
}

TEST_F(SiesEndToEndTest, SourceRejectsOversizedValue) {
  EXPECT_FALSE(sources_[0].CreatePsr(uint64_t{1} << 33, 1).ok());
}

TEST_F(SiesEndToEndTest, HardenedSha256ProfileEndToEnd) {
  // The SHA-256-share profile through the real Source/Aggregator/Querier
  // classes: exact, verified, and tamper-rejecting like the default.
  auto params =
      MakeParams(4, 11, 4, /*prime_bits=*/352, SharePrf::kHmacSha256)
          .value();
  auto keys = GenerateKeys(params, {6});
  Aggregator aggregator(params);
  Querier querier(params, keys);
  Bytes sum;
  uint64_t expected = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    Source source(params, i, KeysForSource(keys, i).value());
    uint64_t v = 2500 + i;
    expected += v;
    Bytes psr = source.CreatePsr(v, 1).value();
    EXPECT_EQ(psr.size(), 44u);  // 352-bit PSR
    sum = sum.empty() ? psr : aggregator.Merge({sum, psr}).value();
  }
  auto eval = querier.Evaluate(sum, 1).value();
  EXPECT_TRUE(eval.verified);
  EXPECT_EQ(eval.sum, expected);
  Bytes tampered = sum;
  tampered[10] ^= 0x04;
  auto attacked = querier.Evaluate(tampered, 1);
  if (attacked.ok()) {
    EXPECT_FALSE(attacked.value().verified);
  }
}

// Property sweep: random values, random epoch, always exact + verified.
class SiesRandomizedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SiesRandomizedSweep, RandomValuesExact) {
  Xoshiro256 rng(GetParam());
  uint32_t n = 1 + static_cast<uint32_t>(rng.NextBelow(12));
  auto params = MakeParams(n, GetParam()).value();
  auto keys = GenerateKeys(params, EncodeUint64(GetParam()));
  Aggregator agg(params);
  Querier querier(params, keys);
  uint64_t epoch = rng.NextBelow(1000);
  uint64_t expected = 0;
  Bytes acc;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t v = rng.NextBelow(params.MaxSafeValue() + 1);
    expected += v;
    Source source(params, i, KeysForSource(keys, i).value());
    Bytes psr = source.CreatePsr(v, epoch).value();
    acc = acc.empty() ? psr : agg.Merge({acc, psr}).value();
  }
  auto eval = querier.Evaluate(acc, epoch).value();
  EXPECT_TRUE(eval.verified);
  EXPECT_EQ(eval.sum, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SiesRandomizedSweep,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace sies::core
