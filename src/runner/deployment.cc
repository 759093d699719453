#include "runner/deployment.h"

namespace sies::runner {

StatusOr<ContinuousDeployment> ContinuousDeployment::Create(
    net::Topology topology, uint64_t seed,
    workload::TraceConfig trace_config, uint64_t chain_length) {
  ContinuousDeployment deployment;
  auto params = core::MakeParams(topology.num_sources(), seed,
                                 /*value_bytes=*/8);
  if (!params.ok()) return params.status();
  core::QuerierKeys keys =
      core::GenerateKeys(params.value(), EncodeUint64(seed));
  deployment.network_ = std::make_unique<net::Network>(std::move(topology));
  trace_config.num_sources = params.value().num_sources;
  deployment.trace_ =
      std::make_unique<workload::TraceGenerator>(trace_config);
  deployment.scheduler_ = std::make_unique<engine::EpochScheduler>(
      std::make_shared<engine::MultiQueryEngine>(params.value(),
                                                 std::move(keys)),
      deployment.network_->topology(),
      [trace = deployment.trace_.get()](uint32_t index, uint64_t epoch) {
        return trace->ReadingAt(index, epoch);
      });
  auto broadcaster = mutesla::Broadcaster::Create(
      EncodeUint64(seed ^ 0xb40adca57ull), chain_length,
      /*disclosure_delay=*/1);
  if (!broadcaster.ok()) return broadcaster.status();
  deployment.broadcaster_ = std::make_unique<mutesla::Broadcaster>(
      std::move(broadcaster).value());
  return deployment;
}

Status ContinuousDeployment::RegisterQuery(const core::Query& query) {
  // One μTesla interval per registration, spent only once the broadcast
  // goes out (past the chain's end it does not).
  std::string sql = query.ToSql();
  Bytes payload(sql.begin(), sql.end());
  auto packet = broadcaster_->Broadcast(broadcast_interval_ + 1, payload);
  if (!packet.ok()) return packet.status();
  ++broadcast_interval_;
  auto disclosure = broadcaster_->Disclose(broadcast_interval_);
  if (!disclosure.ok()) return disclosure.status();

  // Every source independently authenticates the broadcast. (Each keeps
  // its own receiver state in a real deployment; the commitment is the
  // same, so one receiver per source reconstructed from the commitment
  // plus the interval progression is equivalent here.)
  for (net::NodeId node : network_->topology().sources()) {
    (void)node;
    mutesla::Receiver receiver(broadcaster_->commitment(), 1);
    // Catch the receiver up on previously disclosed intervals.
    for (uint64_t i = 1; i + 1 <= broadcast_interval_; ++i) {
      auto catch_up = receiver.OnDisclosure(
          broadcaster_->Disclose(i).value());
      if (!catch_up.ok()) return catch_up.status();
    }
    SIES_RETURN_IF_ERROR(
        receiver.Accept(packet.value(), broadcast_interval_));
    auto authenticated = receiver.OnDisclosure(disclosure.value());
    if (!authenticated.ok()) return authenticated.status();
    if (authenticated.value().size() != 1 ||
        authenticated.value()[0] != payload) {
      return Status::VerificationFailed(
          "a source rejected the query broadcast");
    }
  }

  // Keys unchanged; the engine switches queries at the next epoch.
  pending_query_ = query;
  return Status::OK();
}

Status ContinuousDeployment::SetRadioLoss(double loss_rate,
                                          uint32_t max_retries,
                                          uint64_t seed) {
  SIES_RETURN_IF_ERROR(network_->SetLossRate(loss_rate, seed));
  network_->SetMaxRetries(max_retries);
  return Status::OK();
}

StatusOr<DeploymentEpoch> ContinuousDeployment::RunEpoch(uint64_t epoch) {
  if (pending_query_.has_value()) {
    // Teardown before admission, so re-registering the live query's id
    // is a switch, not a duplicate.
    if (active_query_.has_value()) {
      SIES_RETURN_IF_ERROR(
          scheduler_->Teardown(active_query_->query_id, epoch));
      active_query_.reset();
    }
    SIES_RETURN_IF_ERROR(scheduler_->Admit(*pending_query_, epoch));
    active_query_ = std::move(pending_query_);
    pending_query_.reset();
  }
  if (!active_query_.has_value()) {
    return Status::FailedPrecondition("no query registered");
  }
  auto report = network_->RunEpoch(*scheduler_, epoch);
  if (!report.ok()) return report.status();
  const net::EpochReport& r = report.value();
  DeploymentEpoch out;
  out.epoch = epoch;
  out.query_id = active_query_->query_id;
  out.answered = r.answered;
  if (!r.answered) {
    SIES_RETURN_IF_ERROR(log_.RecordUnanswered(epoch));
    return out;
  }
  out.verified = r.outcome.verified;
  out.contributors = r.contributing_sources;
  out.coverage = r.coverage;
  // K = 1: the scheduler's only outcome is the active query's.
  out.result = scheduler_->last_outcomes().front().outcome.result;
  SIES_RETURN_IF_ERROR(
      log_.Record(epoch, out.result.value, out.verified, out.coverage));
  return out;
}

}  // namespace sies::runner
