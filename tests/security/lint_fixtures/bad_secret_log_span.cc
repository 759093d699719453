// Lint fixture: key-material identifier flowing into a trace span.
// Span names/labels land verbatim in the exported Chrome trace, so this
// must trip the secret-log rule.
#include <chrono>
#include <cstdint>

#include "common/bytes.h"
#include "telemetry/trace.h"

namespace sies {

void TraceDerivationLeaky(const Bytes& source_key, uint64_t epoch) {
  // BAD: the span name is built from the source key.
  const auto now = std::chrono::steady_clock::now();
  telemetry::Tracer::Global().Record(ToHex(source_key).c_str(), "querier",
                                     epoch, now, now);
}

}  // namespace sies
