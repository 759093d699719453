#include "telemetry/phase.h"

#include <map>
#include <mutex>

#include "telemetry/epoch_timeline.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::telemetry {

const char* PhaseName(Phase phase) {
  static constexpr const char* kNames[kPhaseCount] = {
      "source_init", "merge",      "transport", "evaluate",
      "wire_parse",  "key_derive", "verify",    "assemble"};
  return kNames[static_cast<size_t>(phase)];
}

bool DrillDownWatched() {
  return Tracer::Global().enabled() || EpochTimeline::Global().enabled();
}

const PhaseHistograms& PhaseHistogramsFor(const std::string& scheme) {
  // Leaked like the registry they point into: timers may still run
  // while static destructors do.
  static auto* mu = new std::mutex();
  static auto* sets = new std::map<std::string, PhaseHistograms>();
  std::lock_guard<std::mutex> lock(*mu);
  auto [it, fresh] = sets->try_emplace(scheme);
  for (size_t p = 0; fresh && p < kPhaseCount; ++p) {
    it->second[p] = MetricsRegistry::Global().GetHistogram(
        "sies_phase_seconds",
        {{"scheme", scheme}, {"phase", PhaseName(static_cast<Phase>(p))}});
  }
  return it->second;
}

double PhaseTimer::Finish(const ChannelVerifySample* sample) {
  const Clock::time_point stop = Clock::now();
  running_ = false;
  const double seconds = std::chrono::duration<double>(stop - start_).count();
  histograms_[static_cast<size_t>(phase_)]->Observe(seconds);
  if (Tracer::Global().enabled()) {
    Tracer::Global().Record(PhaseName(phase_), "phase", epoch_, start_, stop);
  }
  if (sample != nullptr && EpochTimeline::Global().enabled()) {
    ChannelVerifySample timed = *sample;
    timed.seconds = seconds;
    timed.tid = Tracer::CurrentThreadId();
    EpochTimeline::Global().Record(phase_, seconds, &timed);
  } else {
    EpochTimeline::Global().Record(phase_, seconds);
  }
  return seconds;
}

EpochScope::EpochScope(uint64_t epoch)
    : epoch_(epoch), start_(std::chrono::steady_clock::now()) {
  EpochTimeline::Global().BeginEpoch(epoch);
}

void EpochScope::End(const EpochVerdict& verdict) {
  const auto stop = std::chrono::steady_clock::now();
  if (Tracer::Global().enabled()) {
    Tracer::Global().Record("epoch", "epoch", epoch_, start_, stop);
  }
  EpochTimeline::Global().EndEpoch(
      verdict, std::chrono::duration<double>(stop - start_).count());
}

}  // namespace sies::telemetry
