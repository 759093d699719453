#include "net/energy.h"

#include <gtest/gtest.h>

#include "net/network.h"

namespace sies::net {
namespace {

// A fixed-width dummy protocol for traffic shaping.
class FixedWidthProtocol : public AggregationProtocol {
 public:
  explicit FixedWidthProtocol(size_t width) : width_(width) {}
  std::string Name() const override { return "FixedWidth"; }
  StatusOr<Bytes> SourceInitialize(NodeId, uint64_t) override {
    return Bytes(width_, 0x01);
  }
  StatusOr<Bytes> AggregatorMerge(NodeId, uint64_t,
                                  const std::vector<Bytes>&) override {
    return Bytes(width_, 0x02);
  }
  StatusOr<EvalOutcome> QuerierEvaluate(uint64_t, const Bytes&,
                                        const std::vector<NodeId>&) override {
    return EvalOutcome{};  // value 0, verified, exact
  }

 private:
  size_t width_;
};

TEST(RadioParamsTest, TxRxFormulas) {
  RadioParams radio;
  radio.e_elec_j_per_bit = 50e-9;
  radio.e_amp_j_per_bit_m2 = 100e-12;
  radio.hop_distance_m = 10.0;
  // 1 byte = 8 bits: tx = 8*(50n + 100p*100) = 8*60n = 480 nJ.
  EXPECT_NEAR(radio.TxJoules(1), 480e-9, 1e-12);
  EXPECT_NEAR(radio.RxJoules(1), 400e-9, 1e-12);
  // Linear in bytes.
  EXPECT_NEAR(radio.TxJoules(100), 100 * radio.TxJoules(1), 1e-10);
}

TEST(EnergyTest, PerNodeAccountingMatchesTraffic) {
  Network net(Topology::BuildCompleteTree(16, 4).value());
  FixedWidthProtocol protocol(32);
  auto report = net.RunEpoch(protocol, 1).value();
  ASSERT_EQ(report.node_tx_bytes.size(), net.topology().num_nodes());
  // Every node transmits exactly one 32-byte payload.
  for (NodeId i = 0; i < net.topology().num_nodes(); ++i) {
    EXPECT_EQ(report.node_tx_bytes[i], 32u) << "node " << i;
  }
  // Sources receive nothing; each aggregator receives 32 bytes/child.
  for (NodeId src : net.topology().sources()) {
    EXPECT_EQ(report.node_rx_bytes[src], 0u);
  }
  for (NodeId agg : net.topology().aggregators_bottom_up()) {
    EXPECT_EQ(report.node_rx_bytes[agg],
              32u * net.topology().children(agg).size());
  }
}

TEST(EnergyTest, HottestNodeIsNearTheSink) {
  Network net(Topology::BuildCompleteTree(64, 4).value());
  FixedWidthProtocol protocol(32);
  auto report = net.RunEpoch(protocol, 1).value();
  RadioParams radio;
  auto joules = EpochEnergyJoules(report, radio);
  EnergySummary summary = Summarize(joules);
  // With uniform payloads, aggregators (which also receive) burn more
  // than leaf sources; the hottest node must be an aggregator.
  EXPECT_EQ(net.topology().role(summary.hottest_node),
            NodeRole::kAggregator);
  EXPECT_GT(summary.total_joules, 0.0);
  EXPECT_GT(summary.max_node_joules, 0.0);
}

TEST(EnergyTest, WiderPayloadsBurnProportionallyMore) {
  Network net(Topology::BuildCompleteTree(16, 4).value());
  RadioParams radio;
  FixedWidthProtocol small(32), big(320);
  auto r_small = net.RunEpoch(small, 1).value();
  auto r_big = net.RunEpoch(big, 2).value();
  EnergySummary s_small = Summarize(EpochEnergyJoules(r_small, radio));
  EnergySummary s_big = Summarize(EpochEnergyJoules(r_big, radio));
  EXPECT_NEAR(s_big.total_joules / s_small.total_joules, 10.0, 0.01);
}

TEST(EnergyTest, LifetimeInverseInEnergy) {
  EnergySummary summary;
  summary.max_node_joules = 0.002;
  EXPECT_DOUBLE_EQ(LifetimeEpochs(summary, 10.0), 5000.0);
  summary.max_node_joules = 0.004;
  EXPECT_DOUBLE_EQ(LifetimeEpochs(summary, 10.0), 2500.0);
  EnergySummary idle;
  EXPECT_DOUBLE_EQ(LifetimeEpochs(idle, 10.0), 0.0);
}

TEST(EnergyTest, SummarizeEmptyIsZero) {
  EnergySummary summary = Summarize({});
  EXPECT_DOUBLE_EQ(summary.total_joules, 0.0);
  EXPECT_DOUBLE_EQ(summary.max_node_joules, 0.0);
}

}  // namespace
}  // namespace sies::net
