// The one phase probe. A PhaseTimer reads the clock once at start and
// once at stop and hands that duration to every sink: the
// `sies_phase_seconds{scheme, phase}` histogram, the Tracer and the
// EpochTimeline when they record, and the caller (net::Network's
// per-party costs) — so those sinks cannot disagree. net::Network times
// the four per-party phases; the engine's breakdown of evaluate is a
// drill-down, timed only while the tracer or timeline records (always
// on, it breaks bench/telemetry_overhead's < 2% budget).
#ifndef SIES_TELEMETRY_PHASE_H_
#define SIES_TELEMETRY_PHASE_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace sies::telemetry {

class Histogram;
struct ChannelVerifySample;
struct EpochVerdict;

/// Where an epoch's time goes, in export order.
enum class Phase : uint8_t {
  kSourceInit,  ///< one source's payload creation
  kMerge,       ///< one aggregator's merge of its children
  kTransport,   ///< one edge's link-layer delivery (sim or real UDP)
  kEvaluate,    ///< the querier's evaluation of the final payload
  kWireParse,   ///< (within kEvaluate) final envelope parse
  kKeyDerive,   ///< (within kEvaluate) epoch key/share warm-up
  kVerify,      ///< (within kEvaluate) one channel's decrypt + verify
  kAssemble,    ///< (within kEvaluate) per-query outcome assembly
};
inline constexpr size_t kPhaseCount = 8;

/// Stable lowercase name ("source_init", ...), the same in every sink.
const char* PhaseName(Phase phase);

/// True for the engine's breakdown of kEvaluate, whose time kEvaluate
/// already holds.
constexpr bool WithinEvaluate(Phase phase) {
  return phase >= Phase::kWireParse;
}

/// True while the tracer or the epoch timeline records.
bool DrillDownWatched();

/// One scheme's `sies_phase_seconds` histograms, indexed by Phase.
using PhaseHistograms = std::array<Histogram*, kPhaseCount>;

/// Registers them on the scheme's first call; valid forever.
const PhaseHistograms& PhaseHistogramsFor(const std::string& scheme);

/// Times one phase interval; Stop() or the destructor ends it and feeds
/// every sink. A breakdown timer started while nobody watches reads no
/// clock and Stop() returns 0.
class PhaseTimer {
 public:
  PhaseTimer(const PhaseHistograms& histograms, Phase phase, uint64_t epoch)
      : histograms_(histograms),
        phase_(phase),
        running_(!WithinEvaluate(phase) || DrillDownWatched()),
        epoch_(epoch) {
    if (running_) start_ = Clock::now();
  }
  ~PhaseTimer() { Stop(); }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Ends the interval; returns its seconds (0 once stopped).
  double Stop() { return running_ ? Finish(nullptr) : 0.0; }
  /// Stop() for one channel's verify: the timeline keeps the sample's
  /// wire identity and gets its seconds and thread id from here.
  double Stop(const ChannelVerifySample& sample) {
    return running_ ? Finish(&sample) : 0.0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  double Finish(const ChannelVerifySample* sample);

  const PhaseHistograms& histograms_;
  Phase phase_;
  bool running_;
  uint64_t epoch_;
  Clock::time_point start_;
};

/// One run-loop epoch: opens the timeline record; End() reads the clock
/// once for the tracer's "epoch" span and the record's wall time. An
/// epoch left without End() records nothing.
class EpochScope {
 public:
  explicit EpochScope(uint64_t epoch);
  void End(const EpochVerdict& verdict);

 private:
  uint64_t epoch_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sies::telemetry

#endif  // SIES_TELEMETRY_PHASE_H_
