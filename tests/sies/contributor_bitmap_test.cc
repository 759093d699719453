#include "sies/contributor_bitmap.h"

#include <gtest/gtest.h>

#include "sies/aggregator.h"
#include "sies/message_format.h"
#include "sies/querier.h"
#include "sies/source.h"

namespace sies::core {
namespace {

TEST(ContributorBitmapTest, WidthsRoundUpToWholeBytes) {
  EXPECT_EQ(ContributorBitmap::WidthBytes(1), 1u);
  EXPECT_EQ(ContributorBitmap::WidthBytes(7), 1u);
  EXPECT_EQ(ContributorBitmap::WidthBytes(8), 1u);
  EXPECT_EQ(ContributorBitmap::WidthBytes(9), 2u);
  EXPECT_EQ(ContributorBitmap::WidthBytes(255), 32u);
  EXPECT_EQ(ContributorBitmap::WidthBytes(256), 32u);
}

TEST(ContributorBitmapTest, SetTestCountIndices) {
  ContributorBitmap bitmap(9);
  EXPECT_EQ(bitmap.Count(), 0u);
  EXPECT_TRUE(bitmap.Indices().empty());
  ASSERT_TRUE(bitmap.Set(0).ok());
  ASSERT_TRUE(bitmap.Set(7).ok());
  ASSERT_TRUE(bitmap.Set(8).ok());
  EXPECT_TRUE(bitmap.Test(0));
  EXPECT_FALSE(bitmap.Test(1));
  EXPECT_TRUE(bitmap.Test(7));
  EXPECT_TRUE(bitmap.Test(8));
  EXPECT_EQ(bitmap.Count(), 3u);
  EXPECT_EQ(bitmap.Indices(), (std::vector<uint32_t>{0, 7, 8}));
  // Setting the same bit twice is idempotent.
  ASSERT_TRUE(bitmap.Set(7).ok());
  EXPECT_EQ(bitmap.Count(), 3u);
}

TEST(ContributorBitmapTest, OutOfRangeIndexRejected) {
  ContributorBitmap bitmap(8);
  EXPECT_FALSE(bitmap.Set(8).ok());
  EXPECT_FALSE(bitmap.Test(8));
  EXPECT_FALSE(bitmap.Test(1000));
}

TEST(ContributorBitmapTest, OrMergeUnionsContributors) {
  ContributorBitmap left(255), right(255);
  ASSERT_TRUE(left.Set(0).ok());
  ASSERT_TRUE(left.Set(100).ok());
  ASSERT_TRUE(right.Set(100).ok());
  ASSERT_TRUE(right.Set(254).ok());
  ASSERT_TRUE(left.OrWith(right).ok());
  EXPECT_EQ(left.Indices(), (std::vector<uint32_t>{0, 100, 254}));
  // Merge must not disturb the right operand.
  EXPECT_EQ(right.Indices(), (std::vector<uint32_t>{100, 254}));
}

TEST(ContributorBitmapTest, OrMergeRejectsWidthMismatch) {
  ContributorBitmap a(8), b(9);
  EXPECT_FALSE(a.OrWith(b).ok());
}

TEST(ContributorBitmapTest, WireRoundTripAtAwkwardWidths) {
  for (uint32_t n : {1u, 8u, 9u, 255u}) {
    ContributorBitmap bitmap(n);
    ASSERT_TRUE(bitmap.Set(0).ok());
    ASSERT_TRUE(bitmap.Set(n - 1).ok());
    const Bytes& wire = bitmap.bytes();
    ASSERT_EQ(wire.size(), ContributorBitmap::WidthBytes(n));
    auto parsed =
        ContributorBitmap::Parse(n, wire.data(), wire.size()).value();
    EXPECT_EQ(parsed, bitmap) << "N=" << n;
  }
}

TEST(ContributorBitmapTest, ParseRejectsWrongWidth) {
  Bytes wire(2, 0xFF);
  EXPECT_FALSE(ContributorBitmap::Parse(8, wire.data(), wire.size()).ok());
  EXPECT_FALSE(ContributorBitmap::Parse(17, wire.data(), wire.size()).ok());
}

TEST(ContributorBitmapTest, ParseMasksPaddingBits) {
  // N=9: bits 9..15 of the second byte are padding. A corrupted padding
  // bit must not abort parsing or invent contributors.
  Bytes wire = {0x01, 0xFF};
  auto parsed = ContributorBitmap::Parse(9, wire.data(), wire.size()).value();
  EXPECT_EQ(parsed.Indices(), (std::vector<uint32_t>{0, 8}));
  EXPECT_EQ(parsed.bytes()[1], 0x01);
}

TEST(WirePsrTest, PartialSumVerifiesOverExactContributorSet) {
  // Unit-level version of the loss story: only sources {1, 3} of 9
  // reach the aggregator; the querier recovers and verifies the partial
  // sum from the bitmap alone.
  constexpr uint32_t kN = 9;
  auto params = MakeParams(kN, /*seed=*/23).value();
  auto keys = GenerateKeys(params, {4, 2});
  Aggregator aggregator(params);
  Querier querier(params, keys);
  std::vector<Bytes> payloads;
  uint64_t expected = 0;
  for (uint32_t i : {1u, 3u}) {
    Source source(params, i, KeysForSource(keys, i).value());
    payloads.push_back(source.CreateWirePsr(100 + i, /*epoch=*/6).value());
    expected += 100 + i;
  }
  Bytes merged = aggregator.MergeWire(payloads).value();
  auto eval = querier.EvaluateWire(merged, /*epoch=*/6).value();
  EXPECT_TRUE(eval.verified);
  EXPECT_EQ(eval.sum, expected);
  EXPECT_EQ(eval.contributors, (std::vector<uint32_t>{1, 3}));
}

TEST(WirePsrTest, MergeRejectsMixedWidths) {
  auto params = MakeParams(9, /*seed=*/23).value();
  auto keys = GenerateKeys(params, {4, 2});
  Source source(params, 0, KeysForSource(keys, 0).value());
  Aggregator aggregator(params);
  Bytes good = source.CreateWirePsr(1, 1).value();
  EXPECT_FALSE(aggregator.MergeWire({good, Bytes(3, 0)}).ok());
}

}  // namespace
}  // namespace sies::core
