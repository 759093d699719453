#include "runner/runner.h"

#include <gtest/gtest.h>

namespace sies::runner {
namespace {

ExperimentConfig SmallConfig(Scheme scheme) {
  ExperimentConfig c;
  c.scheme = scheme;
  c.num_sources = 16;
  c.fanout = 4;
  c.epochs = 3;
  c.secoa_j = 8;
  c.rsa_modulus_bits = 512;
  c.seed = 11;
  return c;
}

TEST(SourceIndexMapTest, DenseAndInvertible) {
  auto topology = net::Topology::BuildCompleteTree(16, 4).value();
  SourceIndexMap map(topology);
  EXPECT_EQ(map.num_sources(), 16u);
  for (uint32_t i = 0; i < 16; ++i) {
    net::NodeId node = map.NodeOf(i);
    EXPECT_EQ(map.IndexOf(node).value(), i);
  }
  // The root is not a source.
  EXPECT_FALSE(map.IndexOf(topology.root()).ok());
}

TEST(SourceIndexMapTest, TranslatesLists) {
  auto topology = net::Topology::BuildCompleteTree(8, 2).value();
  SourceIndexMap map(topology);
  std::vector<net::NodeId> nodes = {map.NodeOf(3), map.NodeOf(1)};
  auto indices = map.ToIndices(nodes).value();
  EXPECT_EQ(indices, (std::vector<uint32_t>{3, 1}));
  EXPECT_FALSE(map.ToIndices({topology.root()}).ok());
}

TEST(RunExperimentTest, SiesExactAndVerified) {
  auto result = RunExperiment(SmallConfig(Scheme::kSies)).value();
  EXPECT_EQ(result.scheme_name, "SIES");
  EXPECT_TRUE(result.all_verified);
  EXPECT_DOUBLE_EQ(result.mean_relative_error, 0.0) << "SIES must be exact";
  // Wire width: 32-byte PSR + 2-byte contributor bitmap (N=16) on
  // every edge class.
  EXPECT_DOUBLE_EQ(result.source_to_aggregator_bytes, 34.0);
  EXPECT_DOUBLE_EQ(result.aggregator_to_aggregator_bytes, 34.0);
  EXPECT_DOUBLE_EQ(result.aggregator_to_querier_bytes, 34.0);
}

TEST(RunExperimentTest, CmtExact) {
  auto result = RunExperiment(SmallConfig(Scheme::kCmt)).value();
  EXPECT_EQ(result.scheme_name, "CMT");
  EXPECT_DOUBLE_EQ(result.mean_relative_error, 0.0);
  EXPECT_DOUBLE_EQ(result.source_to_aggregator_bytes, 20.0);
}

TEST(RunExperimentTest, SecoaVerifiedButApproximate) {
  auto result = RunExperiment(SmallConfig(Scheme::kSecoa)).value();
  EXPECT_EQ(result.scheme_name, "SECOA_S");
  EXPECT_TRUE(result.all_verified);
  EXPECT_GT(result.mean_relative_error, 0.0) << "sketches approximate";
  // J=8 is very coarse; just require the right order of magnitude window.
  EXPECT_LT(result.mean_relative_error, 20.0);
  // SECOA edges dwarf SIES edges even at J=8 with 512-bit SEALs.
  EXPECT_GT(result.source_to_aggregator_bytes, 500.0);
}

TEST(RunExperimentTest, SecoaCostsDwarfSiesCosts) {
  // The true ratio is >10x even at J=8; the 2x asserted here leaves
  // headroom for noisy parallel-ctest timing.
  auto sies = RunExperiment(SmallConfig(Scheme::kSies)).value();
  auto secoa = RunExperiment(SmallConfig(Scheme::kSecoa)).value();
  EXPECT_GT(secoa.source_cpu_seconds, sies.source_cpu_seconds * 2);
  EXPECT_GT(secoa.aggregator_cpu_seconds, sies.aggregator_cpu_seconds * 2);
}

TEST(RunExperimentTest, DeterministicAcrossRuns) {
  auto a = RunExperiment(SmallConfig(Scheme::kSies)).value();
  auto b = RunExperiment(SmallConfig(Scheme::kSies)).value();
  EXPECT_EQ(a.all_verified, b.all_verified);
  EXPECT_DOUBLE_EQ(a.mean_relative_error, b.mean_relative_error);

  // Pinned non-timing results over the loss x adversary matrix (N = 16,
  // F = 4, 12 epochs, seed 11): any drift in wire width, loss-RNG
  // consumption, verdicts or coverage shows up here.
  struct Pinned {
    double loss_rate;
    AdversaryKind adversary;
    uint32_t answered, partial, unanswered, unverified;
    uint64_t retransmits, lost, adversary_events;
    double mean_coverage, sa_bytes, aa_bytes, aq_bytes, relative_error;
  };
  const Pinned kPinned[] = {
      {0.0, AdversaryKind::kNone, 12, 0, 0, 0, 0, 0, 0, 1, 34, 34, 34, 0},
      {0.0, AdversaryKind::kTamper, 12, 0, 0, 12, 0, 0, 252, 1, 34, 34, 34,
       1},
      {0.0, AdversaryKind::kReplay, 12, 0, 0, 11, 0, 0, 231, 1, 34, 34, 34,
       0.91666666666666663},
      {0.0, AdversaryKind::kDrop, 12, 12, 0, 0, 0, 0, 12, 0.9375, 34, 34, 34,
       0},
      {0.2, AdversaryKind::kNone, 12, 1, 0, 0, 58, 1, 0, 0.99479166666666663,
       41.4375, 43.916666666666664, 39.666666666666664, 0},
      {0.2, AdversaryKind::kTamper, 12, 0, 0, 12, 58, 1, 251,
       0.99479166666666663, 41.4375, 43.916666666666664, 39.666666666666664,
       1},
      {0.2, AdversaryKind::kReplay, 12, 1, 0, 11, 58, 1, 220, 0.9375,
       41.4375, 43.916666666666664, 39.666666666666664, 0.91666666666666663},
      {0.2, AdversaryKind::kDrop, 12, 12, 0, 0, 58, 1, 12,
       0.93229166666666663, 41.4375, 43.916666666666664, 39.666666666666664,
       0},
  };
  for (const Pinned& want : kPinned) {
    ExperimentConfig c = SmallConfig(Scheme::kSies);
    c.epochs = 12;
    c.adversary = want.adversary;
    if (want.loss_rate > 0) {
      c.loss_rate = want.loss_rate;
      c.max_retries = 2;
    }
    auto got = RunExperiment(c).value();
    SCOPED_TRACE("loss " + std::to_string(want.loss_rate) + " adversary " +
                 std::to_string(static_cast<int>(want.adversary)));
    EXPECT_EQ(got.scheme_name, "SIES");
    EXPECT_EQ(got.answered_epochs, want.answered);
    EXPECT_EQ(got.partial_epochs, want.partial);
    EXPECT_EQ(got.unanswered_epochs, want.unanswered);
    EXPECT_EQ(got.unverified_epochs, want.unverified);
    EXPECT_EQ(got.retransmits, want.retransmits);
    EXPECT_EQ(got.lost_messages, want.lost);
    EXPECT_EQ(got.adversary_events, want.adversary_events);
    EXPECT_EQ(got.mean_coverage, want.mean_coverage);
    EXPECT_EQ(got.source_to_aggregator_bytes, want.sa_bytes);
    EXPECT_EQ(got.aggregator_to_aggregator_bytes, want.aa_bytes);
    EXPECT_EQ(got.aggregator_to_querier_bytes, want.aq_bytes);
    EXPECT_EQ(got.mean_relative_error, want.relative_error);
  }
}

TEST(RunExperimentTest, FanoutSweepRuns) {
  for (uint32_t f = 2; f <= 6; ++f) {
    ExperimentConfig c = SmallConfig(Scheme::kSies);
    c.fanout = f;
    auto result = RunExperiment(c).value();
    EXPECT_TRUE(result.all_verified) << "fanout " << f;
    EXPECT_DOUBLE_EQ(result.mean_relative_error, 0.0) << "fanout " << f;
  }
}

// The parallel source phase must not change a single bit of the
// simulation: PSRs are delivered serially in source order, so traffic,
// the loss-RNG sequence, and the evaluated results all match the serial
// run exactly.
TEST(RunExperimentTest, ResultsBitIdenticalAcrossThreadCounts) {
  struct EpochResult {
    uint64_t epoch = 0;
    double value = -1.0;
    bool verified = false;
    uint64_t lost = 0;
    uint64_t sa_bytes = 0;
    bool operator==(const EpochResult&) const = default;
  };
  auto run = [](uint32_t threads) {
    std::vector<EpochResult> results;
    net::Network network(net::Topology::BuildCompleteTree(16, 4).value());
    EXPECT_TRUE(network.SetLossRate(0.15, 99).ok());
    common::ThreadPool pool(threads);
    network.SetThreadPool(&pool);
    auto params = core::MakeParams(16, 11).value();
    core::QuerierKeys keys = core::GenerateKeys(params, EncodeUint64(11));
    engine::ReadingFn readings = [](uint32_t index, uint64_t epoch) {
      core::SensorReading reading;
      reading.temperature = static_cast<double>(1800 + 13 * index + epoch);
      return reading;
    };
    core::Query query;
    query.scale_pow10 = 0;
    auto protocol = MakeSingleQueryScheduler(params, keys, network.topology(),
                                             readings, query)
                        .value();
    protocol->SetThreadPool(&pool);
    for (uint64_t epoch = 1; epoch <= 4; ++epoch) {
      auto report = network.RunEpoch(*protocol, epoch);
      if (!report.ok()) {
        // Losses can starve the querier of a final payload; that must
        // happen identically for every thread count.
        results.push_back({epoch, -1.0, false, network.lost_messages(), 0});
        continue;
      }
      const net::EpochReport& r = report.value();
      results.push_back({epoch, r.outcome.value, r.outcome.verified,
                         network.lost_messages(),
                         r.source_to_aggregator.bytes});
    }
    return results;
  };
  std::vector<EpochResult> serial = run(1);
  std::vector<EpochResult> parallel = run(3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i]) << "epoch " << serial[i].epoch;
  }
}

TEST(RunExperimentTest, DomainSweepLeavesSiesExact) {
  for (uint32_t k = 0; k <= 4; ++k) {
    ExperimentConfig c = SmallConfig(Scheme::kSies);
    c.scale_pow10 = k;
    auto result = RunExperiment(c).value();
    EXPECT_TRUE(result.all_verified) << "scale 10^" << k;
    EXPECT_DOUBLE_EQ(result.mean_relative_error, 0.0) << "scale 10^" << k;
  }
}

}  // namespace
}  // namespace sies::runner
