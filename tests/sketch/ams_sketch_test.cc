#include "sketch/ams_sketch.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace sies::sketch {
namespace {

TEST(UnitLevelTest, DeterministicAndSeedSeparated) {
  EXPECT_EQ(UnitLevel(1, 2, 3), UnitLevel(1, 2, 3));
  // Different seeds give (almost surely) some differing level across units.
  bool any_diff = false;
  for (uint64_t u = 0; u < 100; ++u) {
    if (UnitLevel(1, 2, u) != UnitLevel(9, 2, u)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(UnitLevelTest, GeometricDistribution) {
  // P[level >= 1] should be ~1/2, P[level >= 2] ~1/4, etc.
  constexpr int kDraws = 100000;
  int ge1 = 0, ge2 = 0, ge3 = 0;
  for (int i = 0; i < kDraws; ++i) {
    uint8_t level = UnitLevel(0xabc, 1, static_cast<uint64_t>(i));
    if (level >= 1) ++ge1;
    if (level >= 2) ++ge2;
    if (level >= 3) ++ge3;
  }
  EXPECT_NEAR(ge1 / double(kDraws), 0.5, 0.01);
  EXPECT_NEAR(ge2 / double(kDraws), 0.25, 0.01);
  EXPECT_NEAR(ge3 / double(kDraws), 0.125, 0.01);
}

TEST(SketchInstanceTest, ObserveKeepsMax) {
  SketchInstance inst;
  inst.Observe(3);
  inst.Observe(1);
  EXPECT_EQ(inst.max_level, 3);
  inst.Observe(7);
  EXPECT_EQ(inst.max_level, 7);
}

TEST(SketchInstanceTest, MergeIsMaxIdempotentCommutative) {
  SketchInstance a{5}, b{9};
  EXPECT_EQ(SketchInstance::Merge(a, b).max_level, 9);
  EXPECT_EQ(SketchInstance::Merge(b, a).max_level, 9);
  EXPECT_EQ(SketchInstance::Merge(a, a).max_level, 5);
}

TEST(SketchSetTest, EmptyEstimatesOne) {
  SketchSet set(16, 1);
  // All levels 0 -> 2^0 = 1 (the sketch's floor; SUM=0 handled by caller).
  EXPECT_DOUBLE_EQ(set.Estimate(), 1.0);
  EXPECT_EQ(set.MaxValue(), 0);
}

TEST(SketchSetTest, MergeRequiresSameJ) {
  SketchSet a(8, 1), b(16, 1);
  EXPECT_FALSE(a.MergeFrom(b).ok());
  SketchSet c(8, 1);
  EXPECT_TRUE(a.MergeFrom(c).ok());
}

TEST(SketchSetTest, MergeEqualsJointInsertion) {
  // Inserting sources separately and merging must equal inserting all
  // into one set: the property that makes in-network aggregation valid.
  SketchSet joint(32, 99);
  SketchSet part1(32, 99), part2(32, 99);
  joint.InsertValue(/*source=*/1, 500);
  joint.InsertValue(/*source=*/2, 700);
  part1.InsertValue(1, 500);
  part2.InsertValue(2, 700);
  ASSERT_TRUE(part1.MergeFrom(part2).ok());
  for (uint32_t j = 0; j < 32; ++j) {
    EXPECT_EQ(part1.instances()[j].max_level,
              joint.instances()[j].max_level);
  }
}

TEST(SketchSetTest, EstimateGrowsWithSum) {
  SketchSet small(64, 5), large(64, 5);
  small.InsertValue(1, 100);
  large.InsertValue(1, 100000);
  EXPECT_GT(large.Estimate(), small.Estimate());
}

TEST(SketchSetTest, EstimateWithinPaperErrorBound) {
  // With J=300 the paper bounds relative error within ~10% w.p. 90%.
  // 2^x̄ is biased; allow a loose factor-2 envelope here and measure the
  // corrected estimator's accuracy separately below.
  SketchSet set(300, 7);
  uint64_t total = 0;
  Xoshiro256 rng(3);
  for (uint64_t src = 0; src < 64; ++src) {
    uint64_t v = rng.NextInRange(1800, 5000);
    set.InsertValue(src, v);
    total += v;
  }
  double est = set.Estimate();
  EXPECT_GT(est, total / 3.0);
  EXPECT_LT(est, total * 3.0);
}

TEST(SketchSetTest, CorrectedEstimatorScalesAcrossMagnitudes) {
  for (uint64_t truth : {1000ull, 10000ull, 100000ull}) {
    SketchSet set(300, 11);
    set.InsertValue(1, truth);
    double est = set.EstimateCorrected();
    EXPECT_GT(est, truth / 3.0) << truth;
    EXPECT_LT(est, truth * 3.0) << truth;
  }
}

TEST(SketchSetTest, MaxValueBoundedByLogSum) {
  // x is a max over total-units geometric draws; values exceeding
  // log2(total) + slack are astronomically unlikely.
  SketchSet set(300, 13);
  uint64_t total = 0;
  for (uint64_t src = 0; src < 16; ++src) {
    set.InsertValue(src, 3000);
    total += 3000;
  }
  double bound = std::log2(static_cast<double>(total));
  EXPECT_LE(set.MaxValue(), bound + 16);
  EXPECT_GE(set.MaxValue(), bound - 16);
}

TEST(SketchSetTest, InsertZeroIsNoOp) {
  SketchSet set(8, 1);
  set.InsertValue(1, 0);
  EXPECT_EQ(set.MaxValue(), 0);
  EXPECT_DOUBLE_EQ(set.Estimate(), 1.0);
}

class SketchAccuracySweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SketchAccuracySweep, MoreInstancesTightenTheEstimate) {
  uint32_t j = GetParam();
  constexpr uint64_t kTruth = 50000;
  // Average absolute log-error over several trials.
  double log_err_sum = 0;
  constexpr int kTrials = 5;
  for (int trial = 0; trial < kTrials; ++trial) {
    SketchSet set(j, 1000 + trial);
    set.InsertValue(1, kTruth);
    log_err_sum += std::abs(std::log2(set.EstimateCorrected() / kTruth));
  }
  double mean_log_err = log_err_sum / kTrials;
  // J >= 100 should land within one octave on average.
  if (j >= 100) {
    EXPECT_LT(mean_log_err, 1.0) << "J=" << j;
  }
  // Any J should land within three octaves.
  EXPECT_LT(mean_log_err, 3.0) << "J=" << j;
}

INSTANTIATE_TEST_SUITE_P(Js, SketchAccuracySweep,
                         ::testing::Values(10, 50, 100, 300, 600));

}  // namespace
}  // namespace sies::sketch
