// Plaintext oracle for the engine differential tests: the outcome a
// verified SIES epoch must report, computed in the clear. Each channel
// of the query is Σ core::ChannelValue over the reported contributors'
// readings, and core::AssembleOutcome turns those sums into the answer —
// the same function the engine's querier ends in, so an engine outcome
// and its oracle compare bit for bit.
#ifndef SIES_TESTS_ENGINE_PLAINTEXT_ORACLE_H_
#define SIES_TESTS_ENGINE_PLAINTEXT_ORACLE_H_

#include <vector>

#include "sies/session.h"
#include "workload/workload.h"

namespace sies::engine {

inline StatusOr<core::EpochOutcome> PlaintextOutcome(
    const core::Query& query, uint32_t num_sources,
    workload::TraceGenerator& trace,
    const std::vector<uint32_t>& contributors, uint64_t epoch) {
  uint64_t sums[3] = {0, 0, 0};  // indexed by core::Channel
  for (uint32_t i : contributors) {
    const core::SensorReading reading = trace.ReadingAt(i, epoch);
    for (core::Channel ch : core::ActiveChannels(query)) {
      auto value = core::ChannelValue(query, ch, reading);
      if (!value.ok()) return value.status();
      sums[static_cast<size_t>(ch)] += value.value();
    }
  }
  return core::AssembleOutcome(query, num_sources, sums[0], sums[1], sums[2],
                               /*verified=*/true, contributors);
}

}  // namespace sies::engine

#endif  // SIES_TESTS_ENGINE_PLAINTEXT_ORACLE_H_
