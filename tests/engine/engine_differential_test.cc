// Differential test: the multi-query engine must produce outcomes
// BIT-IDENTICAL to a plaintext oracle over the same readings (Σ channel
// value over the reported contributors, assembled by the same
// AssembleOutcome) — same values, verified, same contributor sets, same
// coverage — across query mixes, partial participation (loss), both
// share profiles (HM1 at 256 bits, HM256 at 352), and tampering. Also: per-query fault isolation
// (corrupting one physical channel fails exactly the queries reading
// it) and thread-count invariance.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/engine.h"
#include "engine/epoch_scheduler.h"
#include "plaintext_oracle.h"
#include "workload/workload.h"

namespace sies::engine {
namespace {

constexpr uint32_t kN = 16;
constexpr uint64_t kSeed = 11;

core::Query MakeQuery(core::Aggregate aggregate, uint32_t id,
                      core::Field attribute = core::Field::kTemperature,
                      uint32_t scale = 2) {
  core::Query q;
  q.aggregate = aggregate;
  q.attribute = attribute;
  q.scale_pow10 = scale;
  q.query_id = id;
  return q;
}

class Fixture {
 public:
  Fixture() {
    params_ = core::MakeParams(kN, kSeed, /*value_bytes=*/8).value();
    keys_ = core::GenerateKeys(params_, EncodeUint64(kSeed));
    workload::TraceConfig tc;
    tc.num_sources = kN;
    tc.seed = kSeed;
    trace_ = std::make_unique<workload::TraceGenerator>(tc);
  }

  MultiQueryEngine MakeEngine() const { return MultiQueryEngine(params_, keys_); }

  /// One engine epoch with only `participants` transmitting.
  StatusOr<Bytes> EngineRound(const MultiQueryEngine& eng,
                              const std::vector<uint32_t>& participants,
                              uint64_t epoch) {
    std::vector<Bytes> payloads;
    for (uint32_t i : participants) {
      auto p = eng.CreateSourcePayload(i, trace_->ReadingAt(i, epoch), epoch);
      if (!p.ok()) return p.status();
      payloads.push_back(std::move(p).value());
    }
    return eng.Merge(payloads);
  }

  /// Asserts outcome equality for every query of the mix at `epoch`.
  void ExpectBitIdentical(const std::vector<core::Query>& mix,
                          const std::vector<uint32_t>& participants,
                          uint64_t epoch) {
    MultiQueryEngine eng = MakeEngine();
    for (const core::Query& q : mix) {
      ASSERT_TRUE(eng.Admit(q, 1).ok());
    }
    auto merged = EngineRound(eng, participants, epoch);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    auto outcomes = eng.Evaluate(merged.value(), epoch);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    ASSERT_EQ(outcomes.value().size(), mix.size());

    for (size_t i = 0; i < mix.size(); ++i) {
      const QueryEpochOutcome& got = outcomes.value()[i];
      EXPECT_EQ(got.query_id, mix[i].query_id);
      // The bitmap must report exactly the sources that transmitted.
      EXPECT_EQ(got.outcome.contributors, participants);
      ExpectMatchesOracle(mix[i], got.outcome, epoch);
    }
  }

  /// Asserts `got` is the verified plaintext answer of `query` over the
  /// contributors it reports.
  void ExpectMatchesOracle(const core::Query& query,
                           const core::EpochOutcome& got, uint64_t epoch) {
    auto want = PlaintextOutcome(query, params_.num_sources, *trace_,
                                 got.contributors, epoch);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    // Bit-identical, not approximately equal: both sides run the same
    // integer channel sums through the same AssembleOutcome doubles.
    EXPECT_EQ(got.result.value, want.value().result.value)
        << "query " << query.ToSql();
    EXPECT_EQ(got.result.count, want.value().result.count);
    EXPECT_EQ(got.verified, want.value().verified);
    EXPECT_EQ(got.contributors, want.value().contributors);
    EXPECT_EQ(got.coverage, want.value().coverage);
  }

  core::Params params_{};
  core::QuerierKeys keys_;
  std::unique_ptr<workload::TraceGenerator> trace_;
};

std::vector<uint32_t> AllSources() {
  std::vector<uint32_t> all;
  for (uint32_t i = 0; i < kN; ++i) all.push_back(i);
  return all;
}

std::vector<uint32_t> EveryOtherSource() {
  std::vector<uint32_t> some;
  for (uint32_t i = 0; i < kN; i += 2) some.push_back(i);
  return some;
}

// Mix 1: plain aggregates sharing all three channels.
std::vector<core::Query> MixShared() {
  return {MakeQuery(core::Aggregate::kAvg, 0),
          MakeQuery(core::Aggregate::kVariance, 1),
          MakeQuery(core::Aggregate::kSum, 2)};
}

// Mix 2: predicated queries plus an unpredicated STDDEV.
std::vector<core::Query> MixPredicated() {
  core::Predicate hot{core::Field::kTemperature,
                      core::CompareOp::kGreaterEqual, 30.0};
  core::Query count_hot = MakeQuery(core::Aggregate::kCount, 0);
  count_hot.where = hot;
  core::Query avg_hot = MakeQuery(core::Aggregate::kAvg, 1);
  avg_hot.where = hot;
  return {count_hot, avg_hot, MakeQuery(core::Aggregate::kStddev, 2)};
}

// Mix 3: mixed attributes and scales, non-contiguous ids.
std::vector<core::Query> MixAttributes() {
  return {MakeQuery(core::Aggregate::kCount, 0),
          MakeQuery(core::Aggregate::kSum, 3, core::Field::kHumidity, 1),
          MakeQuery(core::Aggregate::kAvg, 7, core::Field::kHumidity, 1)};
}

TEST(EngineDifferentialTest, SharedMixMatchesOracleFullParticipation) {
  Fixture f;
  for (uint64_t epoch : {1u, 2u, 5u}) {
    f.ExpectBitIdentical(MixShared(), AllSources(), epoch);
  }
}

TEST(EngineDifferentialTest, SharedMixMatchesOracleUnderLoss) {
  Fixture f;
  f.ExpectBitIdentical(MixShared(), EveryOtherSource(), 3);
}

TEST(EngineDifferentialTest, PredicatedMixMatchesOracle) {
  Fixture f;
  f.ExpectBitIdentical(MixPredicated(), AllSources(), 1);
  f.ExpectBitIdentical(MixPredicated(), EveryOtherSource(), 2);
}

TEST(EngineDifferentialTest, AttributeMixMatchesOracle) {
  Fixture f;
  f.ExpectBitIdentical(MixAttributes(), AllSources(), 1);
  f.ExpectBitIdentical(MixAttributes(), EveryOtherSource(), 4);
}

TEST(EngineDifferentialTest, TamperedChannelFailsOnlyItsReaders) {
  // Corrupt the final byte of the envelope (inside the LAST physical
  // channel's PSR): exactly the queries reading that channel fail.
  Fixture f;
  MultiQueryEngine eng = f.MakeEngine();
  core::Query sum = MakeQuery(core::Aggregate::kSum, 0);
  core::Query var = MakeQuery(core::Aggregate::kVariance, 1);
  ASSERT_TRUE(eng.Admit(sum, 1).ok());
  ASSERT_TRUE(eng.Admit(var, 1).ok());

  auto merged = f.EngineRound(eng, AllSources(), 1);
  ASSERT_TRUE(merged.ok());
  Bytes tampered = merged.value();
  tampered.back() ^= 0x01;
  auto outcomes = eng.Evaluate(tampered, 1);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes.value().size(), 2u);
  // Wire order (salt_id, kind): (0,SUM), (1,SUMSQ), (1,COUNT) — the
  // corrupted tail is VARIANCE's COUNT channel.
  EXPECT_TRUE(outcomes.value()[0].outcome.verified)
      << "SUM does not read the corrupted channel";
  EXPECT_FALSE(outcomes.value()[1].outcome.verified)
      << "VARIANCE reads the corrupted channel";
}

TEST(EngineDifferentialTest, NoMatchesYieldZero) {
  // COUNT-dependent aggregates over an empty match set verify and
  // report 0 rather than dividing by a zero count.
  Fixture f;
  core::Query q = MakeQuery(core::Aggregate::kAvg, 0);
  q.where = core::Predicate{core::Field::kTemperature,
                            core::CompareOp::kGreater, 1000.0};
  f.ExpectBitIdentical({q}, AllSources(), 6);
  MultiQueryEngine eng = f.MakeEngine();
  ASSERT_TRUE(eng.Admit(q, 1).ok());
  auto merged = f.EngineRound(eng, AllSources(), 6);
  ASSERT_TRUE(merged.ok());
  auto outcomes = eng.Evaluate(merged.value(), 6);
  ASSERT_TRUE(outcomes.ok());
  EXPECT_TRUE(outcomes.value()[0].outcome.verified);
  EXPECT_EQ(outcomes.value()[0].outcome.result.value, 0.0);
  EXPECT_EQ(outcomes.value()[0].outcome.result.count, 0u);
}

TEST(EngineDifferentialTest, ReplayedEnvelopeFailsEveryQuery) {
  // Freshness (Theorem 4): an envelope captured at epoch 8 and replayed
  // at epoch 9 fails every channel, hence every query.
  Fixture f;
  MultiQueryEngine eng = f.MakeEngine();
  for (const core::Query& q : MixShared()) ASSERT_TRUE(eng.Admit(q, 1).ok());
  auto captured = f.EngineRound(eng, AllSources(), 8);
  ASSERT_TRUE(captured.ok());
  auto fresh = eng.Evaluate(captured.value(), 8);
  auto replayed = eng.Evaluate(captured.value(), 9);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(replayed.ok());
  for (size_t i = 0; i < MixShared().size(); ++i) {
    EXPECT_TRUE(fresh.value()[i].outcome.verified);
    EXPECT_FALSE(replayed.value()[i].outcome.verified);
  }
}

TEST(EngineDifferentialTest, ChannelsAreIndependentlyKeyed) {
  // The same reading encrypts differently on the SUM and COUNT slots of
  // one envelope, and a query admitted under another id (so another
  // channel salt) cannot verify this plan's envelope.
  Fixture f;
  core::Query avg = MakeQuery(core::Aggregate::kAvg, 1,
                              core::Field::kHumidity, 0);
  MultiQueryEngine eng = f.MakeEngine();
  ASSERT_TRUE(eng.Admit(avg, 1).ok());
  auto payload = eng.CreateSourcePayload(0, f.trace_->ReadingAt(0, 3), 3);
  ASSERT_TRUE(payload.ok());
  const size_t width = f.params_.PsrBytes();
  auto body = payload.value().begin() + core::WireBitmapBytes(f.params_);
  EXPECT_NE(Bytes(body, body + width), Bytes(body + width, body + 2 * width));

  core::Query impostor = avg;
  impostor.query_id = 3;
  MultiQueryEngine other = f.MakeEngine();
  ASSERT_TRUE(other.Admit(impostor, 1).ok());
  auto merged = f.EngineRound(eng, AllSources(), 3);
  ASSERT_TRUE(merged.ok());
  auto crossed = other.Evaluate(merged.value(), 3);
  ASSERT_TRUE(crossed.ok());
  EXPECT_FALSE(crossed.value()[0].outcome.verified);
}

TEST(EngineDifferentialTest, MalformedEnvelopesAreRejected) {
  Fixture f;
  MultiQueryEngine eng = f.MakeEngine();
  ASSERT_TRUE(eng.Admit(MakeQuery(core::Aggregate::kAvg, 0), 1).ok());
  EXPECT_FALSE(eng.Merge({Bytes(5, 0)}).ok());
  EXPECT_FALSE(eng.Merge({}).ok());
  EXPECT_FALSE(eng.Evaluate(Bytes(5, 0), 1).ok());
}

TEST(EngineDifferentialTest, HardenedProfileMixMatchesOracleUnderLoss) {
  // The hardened HM256 profile (352-bit prime on the 6-limb field,
  // HMAC-SHA256 shares) instead of the 256-bit paper profile, driven
  // over a network whose radio turns lossy after epoch 4.
  auto params = core::MakeParams(kN, kSeed, /*value_bytes=*/8,
                                 /*prime_bits=*/352,
                                 core::SharePrf::kHmacSha256)
                    .value();
  Fixture f;
  f.params_ = params;
  f.keys_ = core::GenerateKeys(params, EncodeUint64(kSeed));
  net::Network network(net::Topology::BuildCompleteTree(kN, 4).value());
  EpochScheduler scheduler(
      std::make_shared<MultiQueryEngine>(f.params_, f.keys_),
      network.topology(), [&f](uint32_t index, uint64_t epoch) {
        return f.trace_->ReadingAt(index, epoch);
      });
  std::vector<core::Query> mix = MixPredicated();
  mix.push_back(
      MakeQuery(core::Aggregate::kSum, 3, core::Field::kHumidity, 1));
  for (const core::Query& q : mix) ASSERT_TRUE(scheduler.Admit(q, 1).ok());

  int lossless = 0, partial = 0;
  for (uint64_t epoch = 1; epoch <= 10; ++epoch) {
    if (epoch == 5) {
      ASSERT_TRUE(network.SetLossRate(0.2, kSeed).ok());
    }
    auto report = network.RunEpoch(scheduler, epoch);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (!report.value().answered) continue;  // final payload lost
    const auto& outcomes = scheduler.last_outcomes();
    ASSERT_EQ(outcomes.size(), mix.size());
    for (size_t i = 0; i < mix.size(); ++i) {
      EXPECT_EQ(outcomes[i].query_id, mix[i].query_id);
      f.ExpectMatchesOracle(mix[i], outcomes[i].outcome, epoch);
    }
    if (report.value().coverage < 1.0) {
      EXPECT_GE(epoch, 5u) << "loss before the radio turned lossy";
      ++partial;
    } else {
      ++lossless;
    }
  }
  EXPECT_GE(lossless, 4);
  EXPECT_GT(partial, 0) << "the lossy epochs produced no partial answer";
}

TEST(EngineDifferentialTest, ThreadCountDoesNotChangeOutcomes) {
  Fixture f;
  MultiQueryEngine serial = f.MakeEngine();
  MultiQueryEngine pooled = f.MakeEngine();
  common::ThreadPool pool(4);
  pooled.SetThreadPool(&pool);
  for (const core::Query& q : MixShared()) {
    ASSERT_TRUE(serial.Admit(q, 1).ok());
    ASSERT_TRUE(pooled.Admit(q, 1).ok());
  }
  auto merged = f.EngineRound(serial, AllSources(), 2);
  ASSERT_TRUE(merged.ok());
  auto a = serial.Evaluate(merged.value(), 2);
  auto b = pooled.Evaluate(merged.value(), 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i].outcome.result.value,
              b.value()[i].outcome.result.value);
    EXPECT_EQ(a.value()[i].outcome.verified, b.value()[i].outcome.verified);
    EXPECT_EQ(a.value()[i].outcome.contributors,
              b.value()[i].outcome.contributors);
  }
}

TEST(EngineDifferentialTest, AdmissionOrderDoesNotChangeAnswers) {
  // The same mix admitted in a different order dedups onto different
  // salt slots, but every query's ANSWER must be unchanged.
  Fixture f;
  MultiQueryEngine forward = f.MakeEngine();
  MultiQueryEngine reverse = f.MakeEngine();
  std::vector<core::Query> mix = MixShared();
  for (const core::Query& q : mix) ASSERT_TRUE(forward.Admit(q, 1).ok());
  for (auto it = mix.rbegin(); it != mix.rend(); ++it) {
    ASSERT_TRUE(reverse.Admit(*it, 1).ok());
  }
  auto fwd_merged = f.EngineRound(forward, AllSources(), 1);
  auto rev_merged = f.EngineRound(reverse, AllSources(), 1);
  ASSERT_TRUE(fwd_merged.ok());
  ASSERT_TRUE(rev_merged.ok());
  auto fwd = forward.Evaluate(fwd_merged.value(), 1);
  auto rev = reverse.Evaluate(rev_merged.value(), 1);
  ASSERT_TRUE(fwd.ok());
  ASSERT_TRUE(rev.ok());
  for (const QueryEpochOutcome& fo : fwd.value()) {
    bool found = false;
    for (const QueryEpochOutcome& ro : rev.value()) {
      if (ro.query_id != fo.query_id) continue;
      found = true;
      EXPECT_EQ(fo.outcome.result.value, ro.outcome.result.value);
      EXPECT_TRUE(fo.outcome.verified);
      EXPECT_TRUE(ro.outcome.verified);
    }
    EXPECT_TRUE(found);
  }
}

}  // namespace
}  // namespace sies::engine
