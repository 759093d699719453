#include "layer_trace.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace epochbench {

namespace {

/// Seconds on the steady clock, for span boundaries.
double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

EpochLayers LayerTrace::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(current_, EpochLayers{});
}

void LayerTrace::AddSource(double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_.psr_us.empty()) {
    current_.source_first_start = start;
    current_.source_last_end = end;
  } else {
    current_.source_first_start = std::min(current_.source_first_start, start);
    current_.source_last_end = std::max(current_.source_last_end, end);
  }
  current_.source_busy_s += end - start;
  current_.psr_us.push_back(static_cast<float>((end - start) * 1e6));
}

void LayerTrace::AddMerge(double seconds, uint64_t bytes_in) {
  std::lock_guard<std::mutex> lock(mu_);
  current_.merge_busy_s += seconds;
  current_.merge_us.push_back(static_cast<float>(seconds * 1e6));
  current_.merge_bytes_in += bytes_in;
}

void LayerTrace::AddEvaluate(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  current_.evaluate_s += seconds;
}

void LayerTrace::AddDelivery(double seconds, uint32_t attempts,
                             bool delivered) {
  std::lock_guard<std::mutex> lock(mu_);
  current_.deliver_busy_s += seconds;
  current_.deliver_us.push_back(static_cast<float>(seconds * 1e6));
  current_.deliveries += 1;
  current_.delivered += delivered ? 1 : 0;
  current_.attempts += attempts;
}

StatusOr<Bytes> TracedProtocol::SourceInitialize(net::NodeId id,
                                                 uint64_t epoch) {
  const double start = NowSeconds();
  auto out = inner_.SourceInitialize(id, epoch);
  trace_.AddSource(start, NowSeconds());
  return out;
}

StatusOr<Bytes> TracedProtocol::AggregatorMerge(
    net::NodeId id, uint64_t epoch, const std::vector<Bytes>& children) {
  uint64_t bytes_in = 0;
  for (const Bytes& child : children) bytes_in += child.size();
  const double start = NowSeconds();
  auto out = inner_.AggregatorMerge(id, epoch, children);
  trace_.AddMerge(NowSeconds() - start, bytes_in);
  return out;
}

StatusOr<net::EvalOutcome> TracedProtocol::QuerierEvaluate(
    uint64_t epoch, const Bytes& final_payload,
    const std::vector<net::NodeId>& participating) {
  const double start = NowSeconds();
  auto out = inner_.QuerierEvaluate(epoch, final_payload, participating);
  trace_.AddEvaluate(NowSeconds() - start);
  return out;
}

StatusOr<net::Delivery> TracedTransport::Deliver(net::NodeId from,
                                                 net::NodeId to,
                                                 uint64_t epoch,
                                                 Bytes payload) {
  const double start = NowSeconds();
  auto out = inner_.Deliver(from, to, epoch, std::move(payload));
  const double seconds = NowSeconds() - start;
  if (out.ok()) {
    trace_.AddDelivery(seconds, out.value().attempts, out.value().delivered);
  }
  return out;
}

}  // namespace epochbench
