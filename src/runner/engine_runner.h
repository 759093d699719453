// Multi-query engine experiments: drives K continuous queries through
// ONE network round per epoch (engine/epoch_scheduler) with the same
// loss/adversary machinery and measurement methodology RunExperiment
// uses for single-query schemes, plus per-query verdict accounting and
// the channel-epoch counters the dedup claims are judged by.
#ifndef SIES_RUNNER_ENGINE_RUNNER_H_
#define SIES_RUNNER_ENGINE_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "engine/epoch_scheduler.h"
#include "runner/runner.h"

namespace sies::runner {

/// One query plus its live-admission window. Epochs run 1..E; a query
/// with admit_epoch t participates (and verifies) from epoch t onward,
/// until teardown_epoch (exclusive; 0 = never torn down).
struct EngineQuerySchedule {
  core::Query query;
  uint64_t admit_epoch = 1;
  uint64_t teardown_epoch = 0;
};

/// Which net::Transport backend carries the epoch's envelopes.
enum class EngineTransport {
  kSim,  ///< in-process deterministic simulator (the default)
  kUdp,  ///< real UDP datagrams + acks on loopback (net/udp_transport)
};

struct EngineExperimentConfig {
  std::vector<EngineQuerySchedule> queries;
  AdversaryKind adversary = AdversaryKind::kNone;
  uint32_t num_sources = 64;
  uint32_t fanout = 4;
  uint32_t scale_pow10 = 2;  ///< trace domain scaling (queries carry their own)
  uint32_t epochs = 20;
  uint64_t seed = 7;
  uint32_t threads = 1;
  double loss_rate = 0.0;
  uint32_t max_retries = 0;

  // ---- Transport / pipelining (DESIGN.md, "Transport abstraction") ----
  /// Backend for epoch delivery. kUdp binds one loopback socket per
  /// tree node; loss injection stays sender-side and deterministic, so
  /// a lossless (or injected-loss) UDP run reproduces the simulator's
  /// outcomes bit-for-bit with the same seed.
  EngineTransport transport = EngineTransport::kSim;
  /// Per-attempt ack deadline of the UDP backend.
  uint32_t udp_ack_timeout_ms = 200;
  /// Epoch pipelining: derive epoch t+1's querier keys on a background
  /// SCHED_IDLE thread while epoch t's verification is consumed, and
  /// route the control plane through the scheduler's boundary queue.
  /// Purely a latency optimization — outcomes are bit-identical.
  bool pipeline = false;
  /// Test hook: every epoch with live channels, from the run thread,
  /// after the round. `answered` is false when loss starved the epoch
  /// (outcomes is then last round's leftovers — ignore it).
  std::function<void(uint64_t epoch, bool answered,
                     const std::vector<engine::QueryEpochOutcome>& outcomes)>
      on_epoch_outcomes;

  // ---- Ops plane (docs/OBSERVABILITY.md, "Live ops plane") ----
  /// < 0 disables the embedded admin server; 0 binds a kernel-assigned
  /// port (read it back via on_ops_ready); > 0 binds that port.
  int ops_port = -1;
  /// /readyz staleness threshold, seconds since the last finished epoch.
  double ops_staleness_seconds = 30.0;
  /// Called once, from the run thread, after the admin server is
  /// listening and before the first epoch — with the resolved port.
  std::function<void(uint16_t port)> on_ops_ready;
  /// Minimum wall time per epoch in milliseconds (0 = free-run). Gives
  /// external scrapers a live run to observe instead of a finished one.
  uint32_t epoch_pacing_ms = 0;
  /// Test hook: called from the run thread after every completed epoch
  /// (including idle and unanswered ones), before pacing sleep.
  std::function<void(uint64_t epoch)> after_epoch;
};

/// Per-query verdict accounting over the run.
struct EngineQueryStats {
  uint32_t query_id = 0;
  std::string sql;
  uint32_t answered_epochs = 0;    ///< epochs live AND answered
  uint32_t verified_epochs = 0;
  uint32_t unverified_epochs = 0;
  uint32_t partial_epochs = 0;     ///< verified with coverage < 1
  double last_value = 0.0;         ///< result of the last verified epoch
  double mean_coverage = 0.0;      ///< over answered epochs
  /// Physical wire channels this query reads in the live plan (from its
  /// last live epoch): ChannelCount for a plain query, buckets × kinds
  /// for a compiled band query (≤ 2⌈log₂ D⌉ per kind).
  uint32_t wire_channels = 0;
};

struct EngineExperimentResult {
  uint32_t epochs = 0;
  uint32_t answered_epochs = 0;
  uint32_t unanswered_epochs = 0;
  /// Epochs with an empty channel plan: the round is skipped entirely
  /// (torn-down queries stop consuming channel slots AND radio time).
  uint32_t idle_epochs = 0;
  /// Σ over run epochs of live physical channels — what the engine
  /// actually puts on the wire.
  uint64_t channel_epochs = 0;
  /// Σ over run epochs of each live query's COMPILED channel count —
  /// what independent per-query (and, for band queries, per-bucket)
  /// rounds would have to transmit. Equals Σ ChannelCount(q) when no
  /// query carries a band. channel_epochs < naive ⇔ dedup won.
  uint64_t naive_channel_epochs = 0;
  /// Mean per-epoch CPU over answered epochs, per party.
  double source_cpu_seconds = 0;
  double aggregator_cpu_seconds = 0;
  double querier_cpu_seconds = 0;
  bool all_verified = true;
  uint64_t retransmits = 0;
  uint64_t lost_messages = 0;
  /// Epochs whose t+1 keys the pipeline prefetched ahead of use (0 when
  /// config.pipeline is off).
  uint64_t prefetched_epochs = 0;
  /// Data datagrams radiated / malformed datagrams dropped by the UDP
  /// backend (0 under the simulator).
  uint64_t udp_datagrams_sent = 0;
  uint64_t udp_malformed_datagrams = 0;
  std::vector<EngineQueryStats> queries;  ///< schedule order
};

StatusOr<EngineExperimentResult> RunEngineExperiment(
    const EngineExperimentConfig& config);

}  // namespace sies::runner

#endif  // SIES_RUNNER_ENGINE_RUNNER_H_
