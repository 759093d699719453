// EpochTimeline: per-epoch latency attribution for the live ops plane,
// answering mid-run "where did THIS epoch's time go". The phase probe
// (telemetry/phase.h) feeds it, so its phases are the trace's spans and
// the `sies_phase_seconds` observations under the same names. Each phase
// accumulates total seconds, calls, the slowest call and the busiest
// lane (thread); attribution and the critical path sum the four
// top-level phases only, since the evaluate breakdown lies inside
// evaluate. Per-channel verify samples keep their slot / salt / kind
// identity. Finished epochs land in a bounded ring (default 256) served
// by the admin server's `GET /epochs?last=K`.
//
// Recording is OFF by default (one relaxed load per probe); an enabled
// timeline takes a mutex per interval.
#ifndef SIES_TELEMETRY_EPOCH_TIMELINE_H_
#define SIES_TELEMETRY_EPOCH_TIMELINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/phase.h"

namespace sies::telemetry {

/// One phase's accumulated attribution within one epoch.
struct PhaseStat {
  double total_seconds = 0.0;     ///< Σ over calls (CPU view)
  double max_call_seconds = 0.0;  ///< slowest single call
  /// Busiest thread's share of total_seconds (a top-level phase's
  /// critical-path share; total_seconds for serial phases).
  double lane_max_seconds = 0.0;
  uint64_t calls = 0;
};

/// One physical channel's verification, attributed to its wire slot.
struct ChannelVerifySample {
  uint32_t slot = 0;      ///< index into the epoch's wire plan
  uint32_t salt_id = 0;   ///< PRF-salt identity of the slot
  const char* kind = "";  ///< "sum" / "sum_squares" / "count"
  /// Dyadic bucket identity of a compiled range channel (predicate
  /// compiler): level = log2 of the bucket width on the scaled domain,
  /// index = its position. level is -1 for full-domain channels.
  int32_t bucket_level = -1;
  uint64_t bucket_index = 0;
  double seconds = 0.0;
  bool verified = true;
  uint32_t tid = 0;       ///< dense thread id (Tracer::CurrentThreadId)
};

/// Run-loop verdicts stamped onto the record at EndEpoch.
struct EpochVerdict {
  bool answered = false;
  bool verified = false;
  double coverage = 0.0;
  uint32_t live_queries = 0;
  uint32_t contributors = 0;
  uint32_t expected_contributors = 0;
};

/// One finished epoch with its run-loop verdict, as `GET /epochs` serves.
struct EpochRecord : EpochVerdict {
  uint64_t epoch = 0;
  double wall_seconds = 0.0;
  /// Σ top-level phase totals: how much of the wall the probes explain.
  double attributed_seconds = 0.0;
  /// Σ top-level per-phase busiest-lane times, clamped to wall_seconds
  /// (clock noise on sub-microsecond phases must not report a critical
  /// path longer than the epoch itself).
  double critical_path_seconds = 0.0;
  std::array<PhaseStat, kPhaseCount> phases{};
  std::vector<ChannelVerifySample> channels;  ///< wire-slot order
  uint32_t tampered_channels = 0;  ///< channels with verified == false
};

class EpochTimeline {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Ring capacity in finished epochs (default 256; clamped to >= 1).
  /// Shrinking drops the oldest records immediately.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  /// Opens the record for `epoch` (no-op while disabled). An already
  /// open record is discarded — a crash mid-epoch must not poison the
  /// next one.
  void BeginEpoch(uint64_t epoch);

  /// Accumulates `seconds` into `phase` of the open record, on the
  /// calling thread's lane or, with a `channel` verify sample, on the
  /// sample's lane (keeping the sample). Safe to call from pool lanes;
  /// no-op while disabled or with no open record.
  void Record(Phase phase, double seconds,
              const ChannelVerifySample* channel = nullptr);

  /// Seals the open record with the run loop's verdicts and the epoch's
  /// wall time, computes the critical path, and pushes it into the ring
  /// (evicting the oldest record when full). No-op while disabled or
  /// with no open record.
  void EndEpoch(const EpochVerdict& verdict, double wall_seconds);

  /// The most recent min(k, size()) finished epochs, oldest first.
  std::vector<EpochRecord> Last(size_t k) const;

  /// Finished epochs currently held (<= capacity()).
  size_t size() const;
  /// Finished epochs ever recorded (monotone across evictions).
  uint64_t epochs_recorded() const;

  /// Drops all records and any open epoch (keeps enabled state and
  /// capacity).
  void Reset();

  /// {"window": K, "capacity": ..., "epochs_recorded": ...,
  ///  "epochs": [...]} for the most recent min(k, size()) epochs,
  ///  oldest first.
  std::string ToJson(size_t last_k) const;

  /// The timeline all built-in instrumentation reports to.
  static EpochTimeline& Global();

 private:
  struct LaneAcc {
    uint32_t tid = 0;
    double seconds = 0.0;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  size_t capacity_ = 256;
  std::deque<EpochRecord> ring_;
  uint64_t epochs_recorded_ = 0;
  bool open_ = false;
  EpochRecord current_;
  std::array<std::vector<LaneAcc>, kPhaseCount> lanes_;
};

}  // namespace sies::telemetry

#endif  // SIES_TELEMETRY_EPOCH_TIMELINE_H_
