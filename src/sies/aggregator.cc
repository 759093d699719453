#include "sies/aggregator.h"

#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::core {

template <typename PsrAt>
Status Aggregator::Sum(size_t count, PsrAt psr_at, uint8_t* out) const {
  if (count == 0) return Status::InvalidArgument("nothing to merge");
  static telemetry::Counter* merges =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_aggregator_merge_total", {{"scheme", "SIES"}});
  merges->Increment();
  telemetry::ScopedSpan span("merge-add", "aggregator", /*epoch=*/0);
  return params_.WithField([&](const auto& fp) -> Status {
    auto parse = [&](size_t i) {
      const auto [data, size] = psr_at(i);
      return ParsePsr(fp, data, size);
    };
    auto acc = parse(0);
    if (!acc.ok()) return acc.status();
    auto sum = acc.value();
    for (size_t i = 1; i < count; ++i) {
      auto next = parse(i);
      if (!next.ok()) return next.status();
      sum = fp.Add(sum, next.value());
    }
    SerializePsr(fp, sum, out);
    return Status::OK();
  });
}

StatusOr<Bytes> Aggregator::Merge(const std::vector<Bytes>& child_psrs) const {
  Bytes out(params_.PsrBytes());
  SIES_RETURN_IF_ERROR(Sum(
      child_psrs.size(),
      [&](size_t i) {
        return std::pair(child_psrs[i].data(), child_psrs[i].size());
      },
      out.data()));
  return out;
}

Status Aggregator::MergeContiguous(const uint8_t* psrs, size_t count,
                                   uint8_t* out) const {
  const size_t width = params_.PsrBytes();
  return Sum(
      count, [&](size_t i) { return std::pair(psrs + i * width, width); },
      out);
}

StatusOr<Bytes> Aggregator::MergeWire(
    const std::vector<Bytes>& child_payloads) const {
  if (child_payloads.empty()) {
    return Status::InvalidArgument("nothing to merge");
  }
  ContributorBitmap bitmap(params_.num_sources);
  std::vector<Bytes> psrs;
  psrs.reserve(child_payloads.size());
  for (const Bytes& child : child_payloads) {
    auto parsed = ParseWirePayload(params_, child, params_.PsrBytes());
    if (!parsed.ok()) return parsed.status();
    Status merged = bitmap.OrWith(parsed.value().bitmap);
    if (!merged.ok()) return merged;
    psrs.push_back(std::move(parsed.value().body));
  }
  auto sum = Merge(psrs);
  if (!sum.ok()) return sum.status();
  return SerializeWirePayload(params_, bitmap, sum.value());
}

}  // namespace sies::core
