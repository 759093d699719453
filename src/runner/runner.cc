#include "runner/runner.h"

#include <cmath>

#include "crypto/prime.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::runner {

SourceIndexMap::SourceIndexMap(const net::Topology& topology)
    : nodes_(topology.sources()) {
  for (uint32_t i = 0; i < nodes_.size(); ++i) index_[nodes_[i]] = i;
}

StatusOr<uint32_t> SourceIndexMap::IndexOf(net::NodeId node) const {
  auto it = index_.find(node);
  if (it == index_.end()) return Status::NotFound("node is not a source");
  return it->second;
}

StatusOr<std::vector<uint32_t>> SourceIndexMap::ToIndices(
    const std::vector<net::NodeId>& nodes) const {
  std::vector<uint32_t> out;
  out.reserve(nodes.size());
  for (net::NodeId node : nodes) {
    auto idx = IndexOf(node);
    if (!idx.ok()) return idx.status();
    out.push_back(idx.value());
  }
  return out;
}

// ---------------------------------------------------------------------------
// SIES: the K = 1 engine deployment
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<engine::EpochScheduler>> MakeSingleQueryScheduler(
    const core::Params& params, const core::QuerierKeys& keys,
    const net::Topology& topology, engine::ReadingFn readings,
    const core::Query& query) {
  auto scheduler = std::make_unique<engine::EpochScheduler>(
      std::make_shared<engine::MultiQueryEngine>(params, keys), topology,
      std::move(readings));
  SIES_RETURN_IF_ERROR(scheduler->Admit(query, /*epoch=*/1));
  return scheduler;
}

// ---------------------------------------------------------------------------
// CMT
// ---------------------------------------------------------------------------

CmtProtocol::CmtProtocol(cmt::Params params, cmt::QuerierKeys keys,
                         const net::Topology& topology, ValueFn values)
    : params_(params),
      index_map_(topology),
      aggregator_(params),
      querier_(params, keys),
      values_(std::move(values)) {
  sources_.reserve(index_map_.num_sources());
  for (uint32_t i = 0; i < index_map_.num_sources(); ++i) {
    sources_.emplace_back(params_, keys.source_keys[i]);
  }
}

StatusOr<Bytes> CmtProtocol::SourceInitialize(net::NodeId id,
                                              uint64_t epoch) {
  auto index = index_map_.IndexOf(id);
  if (!index.ok()) return index.status();
  uint64_t value = values_(index.value(), epoch);
  return sources_[index.value()].CreateCiphertext(value, epoch);
}

StatusOr<Bytes> CmtProtocol::AggregatorMerge(
    net::NodeId, uint64_t, const std::vector<Bytes>& children) {
  return aggregator_.Merge(children);
}

StatusOr<net::EvalOutcome> CmtProtocol::QuerierEvaluate(
    uint64_t epoch, const Bytes& final_payload,
    const std::vector<net::NodeId>& participating) {
  auto indices = index_map_.ToIndices(participating);
  if (!indices.ok()) return indices.status();
  auto sum = querier_.Decrypt(final_payload, epoch, indices.value());
  if (!sum.ok()) return sum.status();
  net::EvalOutcome outcome;
  outcome.value = static_cast<double>(sum.value());
  outcome.verified = true;  // CMT cannot verify; it accepts everything
  outcome.exact = true;
  return outcome;
}

// ---------------------------------------------------------------------------
// SECOA_S
// ---------------------------------------------------------------------------

SecoaProtocol::SecoaProtocol(secoa::SealOps ops, secoa::SumParams params,
                             secoa::QuerierKeys keys,
                             const net::Topology& topology, ValueFn values)
    : ops_(ops),
      params_(params),
      index_map_(topology),
      root_(topology.root()),
      aggregator_(ops, params),
      querier_(ops, params, keys),
      values_(std::move(values)) {
  sources_.reserve(index_map_.num_sources());
  for (uint32_t i = 0; i < index_map_.num_sources(); ++i) {
    sources_.emplace_back(ops_, params_, i, keys.sources[i]);
  }
}

StatusOr<Bytes> SecoaProtocol::SourceInitialize(net::NodeId id,
                                                uint64_t epoch) {
  auto index = index_map_.IndexOf(id);
  if (!index.ok()) return index.status();
  uint64_t value = values_(index.value(), epoch);
  auto psr = sources_[index.value()].CreatePsr(value, epoch);
  if (!psr.ok()) return psr.status();
  return SerializeSumPsr(ops_, psr.value());
}

StatusOr<Bytes> SecoaProtocol::AggregatorMerge(
    net::NodeId id, uint64_t, const std::vector<Bytes>& children) {
  std::vector<secoa::SumPsr> parsed;
  parsed.reserve(children.size());
  for (const Bytes& child : children) {
    auto psr = ParseSumPsr(ops_, params_, child);
    if (!psr.ok()) return psr.status();
    parsed.push_back(std::move(psr).value());
  }
  auto merged = aggregator_.Merge(parsed);
  if (!merged.ok()) return merged.status();
  if (id == root_) {
    auto finalized = aggregator_.Finalize(merged.value());
    if (!finalized.ok()) return finalized.status();
    return SerializeSumPsr(ops_, finalized.value());
  }
  return SerializeSumPsr(ops_, merged.value());
}

StatusOr<net::EvalOutcome> SecoaProtocol::QuerierEvaluate(
    uint64_t epoch, const Bytes& final_payload,
    const std::vector<net::NodeId>& participating) {
  auto psr = ParseSumPsr(ops_, params_, final_payload);
  if (!psr.ok()) return psr.status();
  auto indices = index_map_.ToIndices(participating);
  if (!indices.ok()) return indices.status();
  auto eval = querier_.Evaluate(psr.value(), epoch, indices.value());
  if (!eval.ok()) return eval.status();
  net::EvalOutcome outcome;
  outcome.value = eval.value().estimate;
  outcome.verified = eval.value().verified;
  outcome.exact = false;
  return outcome;
}

// ---------------------------------------------------------------------------
// SECOA_M
// ---------------------------------------------------------------------------

SecoaMaxProtocol::SecoaMaxProtocol(secoa::SealOps ops,
                                   secoa::QuerierKeys keys,
                                   const net::Topology& topology,
                                   ValueFn values)
    : ops_(ops),
      index_map_(topology),
      aggregator_(ops),
      querier_(ops, keys),
      values_(std::move(values)) {
  sources_.reserve(index_map_.num_sources());
  for (uint32_t i = 0; i < index_map_.num_sources(); ++i) {
    sources_.emplace_back(ops_, i, keys.sources[i]);
  }
}

StatusOr<Bytes> SecoaMaxProtocol::SourceInitialize(net::NodeId id,
                                                   uint64_t epoch) {
  auto index = index_map_.IndexOf(id);
  if (!index.ok()) return index.status();
  uint64_t value = values_(index.value(), epoch);
  auto psr = sources_[index.value()].CreatePsr(value, epoch);
  if (!psr.ok()) return psr.status();
  return SerializeMaxPsr(ops_, psr.value());
}

StatusOr<Bytes> SecoaMaxProtocol::AggregatorMerge(
    net::NodeId, uint64_t, const std::vector<Bytes>& children) {
  std::vector<secoa::MaxPsr> parsed;
  parsed.reserve(children.size());
  for (const Bytes& child : children) {
    auto psr = ParseMaxPsr(ops_, child);
    if (!psr.ok()) return psr.status();
    parsed.push_back(std::move(psr).value());
  }
  auto merged = aggregator_.Merge(parsed);
  if (!merged.ok()) return merged.status();
  return SerializeMaxPsr(ops_, merged.value());
}

StatusOr<net::EvalOutcome> SecoaMaxProtocol::QuerierEvaluate(
    uint64_t epoch, const Bytes& final_payload,
    const std::vector<net::NodeId>& participating) {
  auto psr = ParseMaxPsr(ops_, final_payload);
  if (!psr.ok()) return psr.status();
  auto indices = index_map_.ToIndices(participating);
  if (!indices.ok()) return indices.status();
  auto eval = querier_.Evaluate(psr.value(), epoch, indices.value());
  if (!eval.ok()) return eval.status();
  net::EvalOutcome outcome;
  outcome.value = static_cast<double>(eval.value().max);
  outcome.verified = eval.value().verified;
  outcome.exact = true;
  return outcome;
}

// ---------------------------------------------------------------------------
// Experiment driver
// ---------------------------------------------------------------------------

StatusOr<std::function<uint64_t()>> InstallFaults(net::Network& network,
                                                 AdversaryKind adversary,
                                                 double loss_rate,
                                                 uint32_t max_retries,
                                                 uint64_t seed) {
  if (loss_rate > 0.0) {
    SIES_RETURN_IF_ERROR(network.SetLossRate(loss_rate, seed));
    network.SetMaxRetries(max_retries);
  }
  switch (adversary) {
    case AdversaryKind::kNone:
      return std::function<uint64_t()>([] { return uint64_t{0}; });
    case AdversaryKind::kTamper: {
      // Flip the trailing payload bit: always inside the ciphertext of
      // the LAST wire channel (SIES wire payloads lead with the
      // contributor bitmap, and flipping the same bitmap bit on every
      // edge of an even-depth tree cancels out through the OR-merges),
      // and low-order, so the tampered PSR stays a residue and is
      // rejected by verification rather than aborting as malformed.
      // Exactly the queries reading that channel fail.
      auto bitflip = std::make_shared<net::BitFlipAdversary>(
          std::nullopt, /*bit_index=*/0, /*from_end=*/true);
      network.SetAdversary(bitflip.get());
      return std::function<uint64_t()>(
          [bitflip] { return bitflip->tampered_count(); });
    }
    case AdversaryKind::kReplay: {
      // Epochs run 1..E: capture the first, replay the rest.
      auto replay = std::make_shared<net::ReplayAdversary>(1);
      network.SetAdversary(replay.get());
      return std::function<uint64_t()>(
          [replay] { return replay->replayed_count(); });
    }
    case AdversaryKind::kDrop: {
      auto drop = std::make_shared<net::DropAdversary>(
          network.topology().sources().front());
      network.SetAdversary(drop.get());
      return std::function<uint64_t()>(
          [drop] { return drop->dropped_count(); });
    }
  }
  return Status::InvalidArgument("unknown adversary kind");
}

StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  auto topology =
      net::Topology::BuildCompleteTree(config.num_sources, config.fanout);
  if (!topology.ok()) return topology.status();
  net::Network network(std::move(topology).value());

  workload::TraceConfig trace_config;
  trace_config.num_sources = config.num_sources;
  trace_config.scale_pow10 = config.scale_pow10;
  trace_config.seed = config.seed;
  auto trace = std::make_shared<workload::TraceGenerator>(trace_config);
  ValueFn values = [trace](uint32_t index, uint64_t epoch) {
    return trace->ValueAt(index, epoch);
  };
  // The paper's query, SUM(temperature) at the trace's scaling: its
  // channel values are exactly TraceGenerator::ValueAt.
  core::Query sum_query;
  sum_query.scale_pow10 = config.scale_pow10;

  Bytes master_seed = EncodeUint64(config.seed);
  std::unique_ptr<net::AggregationProtocol> protocol;
  switch (config.scheme) {
    case Scheme::kSies: {
      auto params = core::MakeParams(config.num_sources, config.seed);
      if (!params.ok()) return params.status();
      auto scheduler = MakeSingleQueryScheduler(
          params.value(), core::GenerateKeys(params.value(), master_seed),
          network.topology(),
          [trace](uint32_t index, uint64_t epoch) {
            return trace->ReadingAt(index, epoch);
          },
          sum_query);
      if (!scheduler.ok()) return scheduler.status();
      protocol = std::move(scheduler).value();
      break;
    }
    case Scheme::kCmt: {
      auto params = cmt::MakeParams(config.num_sources, config.seed);
      if (!params.ok()) return params.status();
      cmt::QuerierKeys keys = cmt::GenerateKeys(params.value(), master_seed);
      protocol = std::make_unique<CmtProtocol>(
          params.value(), std::move(keys), network.topology(), values);
      break;
    }
    case Scheme::kSecoa: {
      Xoshiro256 rng(config.seed);
      auto kp = crypto::GenerateRsaKeyPair(config.rsa_modulus_bits, rng,
                                           config.rsa_public_exponent);
      if (!kp.ok()) return kp.status();
      secoa::SealOps ops(kp.value().public_key);
      secoa::SumParams params;
      params.num_sources = config.num_sources;
      params.j = config.secoa_j;
      params.sketch_seed = config.seed;
      secoa::QuerierKeys keys =
          secoa::GenerateKeys(config.num_sources, master_seed);
      protocol = std::make_unique<SecoaProtocol>(
          ops, params, std::move(keys), network.topology(), values);
      break;
    }
  }

  common::ThreadPool pool(config.threads);
  network.SetThreadPool(&pool);
  protocol->SetThreadPool(&pool);

  auto adversary_events =
      InstallFaults(network, config.adversary, config.loss_rate,
                    config.max_retries, config.seed);
  if (!adversary_events.ok()) return adversary_events.status();

  ExperimentResult result;
  // The engine names itself SIES_ENGINE; experiments report the scheme.
  result.scheme_name =
      config.scheme == Scheme::kSies ? "SIES" : protocol->Name();
  result.epochs = config.epochs;

  static telemetry::Counter* epochs_total =
      telemetry::MetricsRegistry::Global().GetCounter("sies_epochs_total");
  static telemetry::Counter* epochs_unverified =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_epochs_unverified_total");

  // Maps the contributor NodeIds a protocol reports back to trace
  // indices so partial sums can be checked against the exact sum over
  // exactly the contributing subset.
  SourceIndexMap source_map(network.topology());

  CostAccumulator src, agg, qry;
  net::EdgeTraffic sa, aa, aq;
  double error_sum = 0.0;
  double coverage_sum = 0.0;
  for (uint64_t epoch = 1; epoch <= config.epochs; ++epoch) {
    telemetry::ScopedSpan span("epoch", "runner", epoch);
    auto report = network.RunEpoch(*protocol, epoch);
    if (!report.ok()) return report.status();
    const net::EpochReport& r = report.value();
    epochs_total->Increment();
    src.Add(r.source_cpu.MeanSeconds());
    agg.Add(r.aggregator_cpu.MeanSeconds());
    qry.Add(r.querier_cpu.MeanSeconds());
    sa.messages += r.source_to_aggregator.messages;
    sa.bytes += r.source_to_aggregator.bytes;
    aa.messages += r.aggregator_to_aggregator.messages;
    aa.bytes += r.aggregator_to_aggregator.bytes;
    aq.messages += r.aggregator_to_querier.messages;
    aq.bytes += r.aggregator_to_querier.bytes;
    result.retransmits += r.retransmits;
    if (!r.answered) {
      // Graceful degradation: the epoch was swallowed by the radio or
      // the adversary. Record the gap and keep the deployment going.
      ++result.unanswered_epochs;
      continue;
    }
    ++result.answered_epochs;
    coverage_sum += r.coverage;
    if (r.outcome.verified && r.coverage < 1.0) ++result.partial_epochs;
    result.all_verified = result.all_verified && r.outcome.verified;
    if (!r.outcome.verified) {
      ++result.unverified_epochs;
      epochs_unverified->Increment();
    }

    if (r.outcome.has_contributors) {
      // Only SIES reports contributors; its answer is in query units.
      uint64_t exact = 0;
      for (net::NodeId node : r.outcome.contributors) {
        auto index = source_map.IndexOf(node);
        if (!index.ok()) return index.status();
        exact += trace->ValueAt(index.value(), epoch);
      }
      auto expected = core::CombineChannels(sum_query, exact, 0, 0);
      if (!expected.ok()) return expected.status();
      if (exact > 0) {
        error_sum += std::abs(r.outcome.value - expected.value().value) /
                     expected.value().value;
      }
    } else {
      workload::EpochSnapshot snap = Snapshot(*trace, epoch);
      if (snap.exact_sum > 0) {
        error_sum += std::abs(r.outcome.value -
                              static_cast<double>(snap.exact_sum)) /
                     static_cast<double>(snap.exact_sum);
      }
    }
  }
  auto spread = [](const CostAccumulator& acc) {
    return CostSpread{acc.MinSeconds(), acc.MaxSeconds(),
                      acc.StdDevSeconds()};
  };
  result.source_cpu_seconds = src.MeanSeconds();
  result.aggregator_cpu_seconds = agg.MeanSeconds();
  result.querier_cpu_seconds = qry.MeanSeconds();
  result.source_cpu_spread = spread(src);
  result.aggregator_cpu_spread = spread(agg);
  result.querier_cpu_spread = spread(qry);
  result.source_to_aggregator_bytes = sa.MeanBytes();
  result.aggregator_to_aggregator_bytes = aa.MeanBytes();
  result.aggregator_to_querier_bytes = aq.MeanBytes();
  result.adversary_events = adversary_events.value()();
  result.lost_messages = network.lost_messages();
  result.mean_coverage = result.answered_epochs == 0
                             ? 0.0
                             : coverage_sum / result.answered_epochs;
  result.mean_relative_error =
      result.answered_epochs == 0 ? 0.0
                                  : error_sum / result.answered_epochs;
  return result;
}

}  // namespace sies::runner
