// Outside-in layer timing: thin forwarding decorators around the two
// interfaces net::Network calls during an epoch. TracedProtocol wraps
// the scheduler (source PSR creation, aggregator merge, querier
// evaluation); TracedTransport wraps the link-layer backend (one span
// per Deliver). Nothing inside the program is instrumented — the spans
// are taken at the calls into each layer, so a traced run executes the
// same code as an untraced one plus the wrappers' clock reads.
#ifndef EPOCHBENCH_LAYER_TRACE_H_
#define EPOCHBENCH_LAYER_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/epoch_scheduler.h"
#include "net/network.h"
#include "net/transport.h"

namespace epochbench {

using namespace sies;  // NOLINT: the benchmark talks to every module

/// Every span of one epoch, folded into per-layer sums and samples.
struct EpochLayers {
  // Source layer: SourceInitialize, one call per live source, on pool
  // lanes. The phase is the window from the first call's start to the
  // last call's end; busy is the sum over lanes.
  double source_first_start = 0;
  double source_last_end = 0;
  double source_busy_s = 0;
  std::vector<float> psr_us;
  // Aggregator layer: AggregatorMerge, serial on the run thread.
  double merge_busy_s = 0;
  std::vector<float> merge_us;
  uint64_t merge_bytes_in = 0;
  // Querier layer: QuerierEvaluate (once per answered epoch).
  double evaluate_s = 0;
  // Transport layer: Deliver, serial on the run thread.
  double deliver_busy_s = 0;
  std::vector<float> deliver_us;
  uint64_t deliveries = 0;
  uint64_t delivered = 0;
  uint64_t attempts = 0;

  double SourcePhaseSeconds() const {
    return psr_us.empty() ? 0.0 : source_last_end - source_first_start;
  }
};

/// The span sink both decorators write to. Source spans arrive from
/// several pool lanes at once, so every write takes the mutex.
class LayerTrace {
 public:
  /// Moves the finished epoch's layers out and starts a fresh epoch.
  EpochLayers Take();

  void AddSource(double start, double end);
  void AddMerge(double seconds, uint64_t bytes_in);
  void AddEvaluate(double seconds);
  void AddDelivery(double seconds, uint32_t attempts, bool delivered);

 private:
  std::mutex mu_;
  EpochLayers current_;  // guarded by mu_
};

/// Forwards every AggregationProtocol call to the scheduler, timing it.
class TracedProtocol final : public net::AggregationProtocol {
 public:
  TracedProtocol(engine::EpochScheduler& inner, LayerTrace& trace)
      : inner_(inner), trace_(trace) {}

  std::string Name() const override { return inner_.Name(); }
  StatusOr<Bytes> SourceInitialize(net::NodeId id, uint64_t epoch) override;
  StatusOr<Bytes> AggregatorMerge(
      net::NodeId id, uint64_t epoch,
      const std::vector<Bytes>& children) override;
  StatusOr<net::EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<net::NodeId>& participating) override;
  bool ParallelSourceInitSafe() const override {
    return inner_.ParallelSourceInitSafe();
  }
  void SetThreadPool(common::ThreadPool* pool) override {
    inner_.SetThreadPool(pool);
  }

 private:
  engine::EpochScheduler& inner_;
  LayerTrace& trace_;
};

/// Forwards every Transport call to the backend, timing Deliver.
class TracedTransport final : public net::Transport {
 public:
  TracedTransport(net::Transport& inner, LayerTrace& trace)
      : inner_(inner), trace_(trace) {}

  std::string Name() const override { return inner_.Name(); }
  Status SetLossRate(double loss_rate, uint64_t seed) override {
    return inner_.SetLossRate(loss_rate, seed);
  }
  void SetMaxRetries(uint32_t max_retries) override {
    inner_.SetMaxRetries(max_retries);
  }
  uint32_t max_retries() const override { return inner_.max_retries(); }
  StatusOr<net::Delivery> Deliver(net::NodeId from, net::NodeId to,
                                  uint64_t epoch, Bytes payload) override;

 private:
  net::Transport& inner_;
  LayerTrace& trace_;
};

}  // namespace epochbench

#endif  // EPOCHBENCH_LAYER_TRACE_H_
