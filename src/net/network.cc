#include "net/network.h"

#include <string>
#include <unordered_map>
#include <utility>

#include "telemetry/audit.h"
#include "telemetry/metrics.h"
#include "telemetry/phase.h"

namespace sies::net {

namespace {

telemetry::Counter* DropCounter(const char* cause) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      "sies_net_dropped_total", {{"cause", cause}});
}

}  // namespace

Status Network::SetLossRate(double loss_rate, uint64_t seed) {
  SIES_RETURN_IF_ERROR(transport().SetLossRate(loss_rate, seed));
  loss_rate_ = loss_rate;
  loss_seed_ = seed;
  return Status::OK();
}

Status Network::SetTransport(Transport* transport) {
  transport_ = transport;
  // The new backend inherits the network's loss/retry configuration —
  // callers must not have to remember which setter came first.
  Transport& active = this->transport();
  active.SetMaxRetries(max_retries_);
  return active.SetLossRate(loss_rate_, loss_seed_);
}

StatusOr<EpochReport> Network::RunEpoch(AggregationProtocol& protocol,
                                        uint64_t epoch) {
  EpochReport report;
  report.epoch = epoch;
  report.node_tx_bytes.assign(topology_.num_nodes(), 0);
  report.node_rx_bytes.assign(topology_.num_nodes(), 0);

  // Every party's interval is timed once, by the phase probe.
  using telemetry::Phase;
  using telemetry::PhaseTimer;
  const telemetry::PhaseHistograms& phases =
      telemetry::PhaseHistogramsFor(protocol.Name());
  telemetry::AuditTrail& audit = telemetry::AuditTrail::Global();

  // Payload arriving at each node's parent slot, keyed by child id.
  std::unordered_map<NodeId, Bytes> inbox;

  Transport& transport = this->transport();

  auto deliver = [&](NodeId from, NodeId to, Bytes payload,
                     EdgeTraffic& traffic) -> StatusOr<bool> {
    const uint64_t wire_size = payload.size();

    // Link layer, behind the Transport interface: loss, retries, and
    // (for real backends) the payload's actual journey over sockets.
    // Deliveries stay serial and in a fixed order — the determinism
    // contract both backends' loss models are built on.
    PhaseTimer transport_timer(phases, Phase::kTransport, epoch);
    auto result = transport.Deliver(from, to, epoch, std::move(payload));
    transport_timer.Stop();
    if (!result.ok()) return result.status();
    Delivery& delivery = result.value();
    const uint32_t attempts = delivery.attempts;
    report.backoff_slots += delivery.backoff_slots;

    // The sender radiated every attempt whether or not anything arrived,
    // so tx bytes and edge-class traffic are charged per attempt; rx is
    // charged only on actual delivery.
    traffic.messages += 1;
    traffic.bytes += wire_size * attempts;
    traffic.retransmits += attempts - 1;
    report.retransmits += attempts - 1;
    retransmits_ += attempts - 1;
    report.node_tx_bytes[from] += wire_size * attempts;
    if (attempts > 1) {
      static telemetry::Counter* retx =
          telemetry::MetricsRegistry::Global().GetCounter(
              "sies_net_retransmits_total");
      retx->Increment(attempts - 1);
    }
    if (!delivery.delivered) {
      traffic.undelivered += 1;
      ++lost_messages_;
      static telemetry::Counter* lost = DropCounter("radio_loss");
      lost->Increment();
      audit.Record(telemetry::AuditKind::kRadioLoss, epoch, from,
                   "message lost on the radio channel after " +
                       std::to_string(attempts) + " transmission attempt" +
                       (attempts == 1 ? "" : "s"));
      return false;  // lost on the radio channel
    }
    Message msg{from, to, epoch, std::move(delivery.payload)};
    if (adversary_ != nullptr) {
      // The byte-compare that attributes in-flight mutation is only paid
      // when someone asked for the audit trail.
      Bytes original;
      const bool auditing = audit.enabled();
      if (auditing) original = msg.payload;
      if (!adversary_->OnMessage(msg)) {
        static telemetry::Counter* dropped = DropCounter("adversary");
        dropped->Increment();
        audit.Record(telemetry::AuditKind::kAdversaryDrop, epoch, from,
                     "message dropped in flight by the adversary");
        traffic.undelivered += 1;
        return false;  // dropped in flight (after the sender radiated)
      }
      if (auditing && msg.payload != original) {
        static telemetry::Counter* tampered =
            telemetry::MetricsRegistry::Global().GetCounter(
                "sies_net_tampered_total");
        tampered->Increment();
        audit.Record(telemetry::AuditKind::kTamper, epoch, from,
                     "payload mutated in flight by the adversary");
      }
    }
    if (to != kQuerierId) report.node_rx_bytes[to] += msg.WireSize();
    inbox[from] = std::move(msg.payload);
    return true;
  };

  // --- Initialization phase: every live source emits a PSR. ---
  //
  // PSR creation is independent per source, so it fans out over the pool
  // when the protocol allows it. Accounting and delivery stay serial and
  // in source order below — the loss RNG consumes one draw per delivered
  // message in a fixed sequence, so the epoch's results are bit-identical
  // for any thread count.
  std::vector<NodeId> live;
  live.reserve(topology_.sources().size());
  for (NodeId src : topology_.sources()) {
    if (!failed_sources_.contains(src)) live.push_back(src);
  }
  std::vector<StatusOr<Bytes>> psrs(live.size(),
                                    Status::Internal("psr not produced"));
  std::vector<double> psr_seconds(live.size(), 0.0);
  auto create_one = [&](size_t i) {
    // Timed on the worker thread, so a `--threads` run shows overlapping
    // source_init spans in the Chrome trace.
    PhaseTimer timer(phases, Phase::kSourceInit, epoch);
    psrs[i] = protocol.SourceInitialize(live[i], epoch);
    psr_seconds[i] = timer.Stop();
  };
  if (pool_ != nullptr && protocol.ParallelSourceInitSafe()) {
    pool_->ParallelFor(live.size(), create_one);
  } else {
    for (size_t i = 0; i < live.size(); ++i) create_one(i);
  }
  for (size_t i = 0; i < live.size(); ++i) {
    report.source_cpu.Add(psr_seconds[i]);
    if (!psrs[i].ok()) return psrs[i].status();
    NodeId src = live[i];
    NodeId parent = topology_.parent(src);
    EdgeTraffic& traffic = (parent == kQuerierId)
                               ? report.aggregator_to_querier
                               : report.source_to_aggregator;
    auto sent = deliver(src, parent, std::move(psrs[i]).value(), traffic);
    if (!sent.ok()) return sent.status();
  }

  // --- Merging phase: aggregators fuse children payloads bottom-up. ---
  for (NodeId agg : topology_.aggregators_bottom_up()) {
    std::vector<Bytes> received;
    for (NodeId child : topology_.children(agg)) {
      auto it = inbox.find(child);
      if (it != inbox.end()) {
        received.push_back(std::move(it->second));
        inbox.erase(it);
      }
    }
    if (received.empty()) continue;  // all children failed/dropped
    PhaseTimer timer(phases, Phase::kMerge, epoch);
    StatusOr<Bytes> merged = protocol.AggregatorMerge(agg, epoch, received);
    report.aggregator_cpu.Add(timer.Stop());
    if (!merged.ok()) return merged.status();
    NodeId parent = topology_.parent(agg);
    EdgeTraffic& traffic = (parent == kQuerierId)
                               ? report.aggregator_to_querier
                               : report.aggregator_to_aggregator;
    auto sent = deliver(agg, parent, std::move(merged).value(), traffic);
    if (!sent.ok()) return sent.status();
  }

  // --- Evaluation phase at the querier. ---
  std::vector<NodeId> participating;
  participating.reserve(topology_.sources().size());
  for (NodeId src : topology_.sources()) {
    if (!failed_sources_.contains(src)) participating.push_back(src);
  }
  report.expected_contributors = static_cast<uint32_t>(participating.size());

  static telemetry::Gauge* coverage_gauge =
      telemetry::MetricsRegistry::Global().GetGauge(
          "sies_net_coverage_ratio");

  auto it = inbox.find(topology_.root());
  if (it == inbox.end()) {
    // Nothing survived the radio/adversary — an unanswered epoch, not a
    // protocol error. The per-message causes are already in the audit
    // trail; the runner records the gap and moves on.
    report.answered = false;
    report.outcome.verified = false;
    report.outcome.value = 0.0;
    report.coverage = 0.0;
    coverage_gauge->Set(0.0);
    static telemetry::Counter* unanswered =
        telemetry::MetricsRegistry::Global().GetCounter(
            "sies_net_unanswered_epochs_total");
    unanswered->Increment();
    return report;
  }
  PhaseTimer timer(phases, Phase::kEvaluate, epoch);
  StatusOr<EvalOutcome> outcome =
      protocol.QuerierEvaluate(epoch, it->second, participating);
  report.querier_cpu.Add(timer.Stop());
  if (!outcome.ok()) return outcome.status();
  report.outcome = std::move(outcome).value();
  report.contributing_sources =
      report.outcome.has_contributors
          ? static_cast<uint32_t>(report.outcome.contributors.size())
          : report.expected_contributors;
  report.coverage =
      report.expected_contributors == 0
          ? 0.0
          : static_cast<double>(report.contributing_sources) /
                static_cast<double>(report.expected_contributors);
  coverage_gauge->Set(report.coverage);
  if (!report.outcome.verified) {
    audit.Record(telemetry::AuditKind::kVerificationFailure, epoch,
                 telemetry::kAuditNoNode,
                 "querier verification failed for the epoch aggregate");
  } else if (report.outcome.has_contributors &&
             report.contributing_sources < report.expected_contributors) {
    // Verified, but over fewer sources than expected: the contributor
    // bitmap reported the gap in-band. Degradation of coverage, not an
    // integrity violation — keep it distinct from kTamper.
    audit.Record(telemetry::AuditKind::kReportedLoss, epoch,
                 telemetry::kAuditNoNode,
                 "verified partial aggregate over " +
                     std::to_string(report.contributing_sources) + " of " +
                     std::to_string(report.expected_contributors) +
                     " expected contributors");
  }
  return report;
}

}  // namespace sies::net
