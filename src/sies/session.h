// Per-epoch outcome types shared by every SIES query path.
//
// A Query (Section III-B) compiles to 1-3 parallel SIES channels
// (SUM(x), SUM(x²), COUNT). The multi-query engine (src/engine) carries
// them on the wire and decrypts each channel; this header turns the
// verified channel sums into one query's answer for one epoch. The
// plaintext oracles of the differential tests and the epoch benchmark
// feed the same AssembleOutcome with sums they compute in the clear, so
// an engine answer and its oracle are comparable bit for bit.
#ifndef SIES_SIES_SESSION_H_
#define SIES_SIES_SESSION_H_

#include <vector>

#include "sies/query.h"

namespace sies::core {

/// Channels used by `query`, in wire order.
std::vector<Channel> ActiveChannels(const Query& query);

/// Outcome of one epoch of one continuous query.
struct EpochOutcome {
  QueryResult result;
  bool verified = false;  ///< all channels verified
  /// Bitmap-derived contributing source indices, increasing. When
  /// verified, `result` is the exact aggregate over exactly this set.
  std::vector<uint32_t> contributors;
  double coverage = 0.0;  ///< contributors ÷ N
};

/// Assembles the final per-query outcome from verified channel sums:
/// computes coverage, short-circuits COUNT-dependent aggregates over
/// zero matches, and otherwise combines the channels into the numeric
/// answer. `sum`/`sum_squares`/`count` are the decrypted channel results
/// (0 for unused channels).
StatusOr<EpochOutcome> AssembleOutcome(const Query& query, uint32_t num_sources,
                                       uint64_t sum, uint64_t sum_squares,
                                       uint64_t count, bool verified,
                                       std::vector<uint32_t> contributors);

}  // namespace sies::core

#endif  // SIES_SIES_SESSION_H_
