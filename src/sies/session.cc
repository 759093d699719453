#include "sies/session.h"

namespace sies::core {

std::vector<Channel> ActiveChannels(const Query& query) {
  std::vector<Channel> channels;
  for (Channel ch :
       {Channel::kSum, Channel::kSumSquares, Channel::kCount}) {
    if (UsesChannel(query.aggregate, ch)) channels.push_back(ch);
  }
  return channels;
}

StatusOr<EpochOutcome> AssembleOutcome(const Query& query,
                                       uint32_t num_sources, uint64_t sum,
                                       uint64_t sum_squares, uint64_t count,
                                       bool verified,
                                       std::vector<uint32_t> contributors) {
  EpochOutcome outcome;
  outcome.verified = verified;
  outcome.contributors = std::move(contributors);
  outcome.coverage =
      num_sources == 0
          ? 0.0
          : static_cast<double>(outcome.contributors.size()) /
                static_cast<double>(num_sources);
  if (!verified) return outcome;  // result is meaningless if unverified
  // COUNT-dependent aggregates over zero matches report value 0.
  if (count == 0 && query.aggregate != Aggregate::kSum &&
      query.aggregate != Aggregate::kCount) {
    outcome.result.value = 0.0;
    outcome.result.count = 0;
    return outcome;
  }
  auto result = CombineChannels(query, sum, sum_squares, count);
  if (!result.ok()) return result.status();
  outcome.result = result.value();
  return outcome;
}

}  // namespace sies::core
