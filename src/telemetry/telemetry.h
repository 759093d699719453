// Umbrella header for the telemetry layer: metrics registry, the phase
// probe with its tracer and epoch-timeline sinks, and the security audit
// trail (see docs/OBSERVABILITY.md for names, labels and formats).
//
// Compiled in unconditionally and cheap when nothing reads it: metrics
// are relaxed atomics (an unread registry is the no-op sink); spans,
// timeline records and audit events sit behind a relaxed "enabled" flag
// (off by default); bench/telemetry_overhead guards the disabled probes
// of one warm evaluation at <2% of that evaluation.
#ifndef SIES_TELEMETRY_TELEMETRY_H_
#define SIES_TELEMETRY_TELEMETRY_H_

#include "telemetry/audit.h"
#include "telemetry/epoch_timeline.h"
#include "telemetry/metrics.h"
#include "telemetry/phase.h"
#include "telemetry/trace.h"

namespace sies::telemetry {

/// Turns span tracing, audit recording, and the epoch timeline on
/// (metrics are always on).
inline void EnableAll() {
  Tracer::Global().Enable();
  AuditTrail::Global().Enable();
  EpochTimeline::Global().Enable();
}

/// Turns span tracing, audit recording, and the epoch timeline off.
inline void DisableAll() {
  Tracer::Global().Disable();
  AuditTrail::Global().Disable();
  EpochTimeline::Global().Disable();
}

/// Zeroes all global metrics and drops all spans, audit events, and
/// timeline records. Pointers previously returned by the registry
/// remain valid.
inline void ResetAll() {
  MetricsRegistry::Global().Reset();
  Tracer::Global().Reset();
  AuditTrail::Global().Reset();
  EpochTimeline::Global().Reset();
}

}  // namespace sies::telemetry

#endif  // SIES_TELEMETRY_TELEMETRY_H_
