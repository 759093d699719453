// Channel planner for the concurrent multi-query engine.
//
// Every query compiles to a list of SIES channels (predicate/compiler):
// 1-3 full-domain channels for plain queries, and for band queries one
// bucketed channel per (kind, dyadic interval) of the range's canonical
// cover. When K queries run at once, many of those channels are
// semantically identical — e.g. every AVG/VARIANCE/STDDEV query over
// the same attribute needs the same COUNT channel, and two overlapping
// range queries share their common dyadic nodes. The planner
// deduplicates: each distinct (kind, attribute, predicate, scaling,
// bucket) tuple occupies exactly one *physical channel* slot on the
// wire, no matter how many queries read it.
//
// Deduplication is sound because a channel's per-source value is a pure
// function of that tuple (see ChannelSpec::ValueFor), and its key
// material is salted by the channel's own stable identity —
// SaltedEpoch(epoch, salt_id, kind), where salt_id is allocated at slot
// creation from the query-id namespace — so two distinct physical
// channels never share a PRF input and a shared channel decrypts to the
// same channel sum every reader expects (DESIGN.md "Multi-query
// engine", §12 "Predicate compilation").
#ifndef SIES_ENGINE_CHANNEL_PLAN_H_
#define SIES_ENGINE_CHANNEL_PLAN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "predicate/dyadic.h"
#include "sies/query.h"

namespace sies::engine {

using core::Channel;
using core::Query;

/// Largest admissible query id / channel salt: SaltedEpoch reserves 14
/// bits for it.
inline constexpr uint32_t kMaxQueryId = (1u << 14) - 1;

/// Dyadic bucket restriction of a channel: the channel carries a
/// reading's value only when the scaled bucket field falls inside the
/// canonical interval. The bucket field may differ from the channel's
/// value attribute (GROUP-BY sums one attribute over a band of
/// another).
struct BucketSpec {
  core::Field field = core::Field::kTemperature;
  uint32_t scale_pow10 = 0;
  predicate::DyadicInterval interval;

  bool operator==(const BucketSpec&) const = default;
};

/// Semantic identity of a physical channel: two queries may share one
/// slot iff their specs compare equal (then every source transmits the
/// same value on it, so one ciphertext serves both).
struct ChannelSpec {
  Channel kind = Channel::kSum;
  core::Field attribute = core::Field::kTemperature;
  std::optional<core::Predicate> where;
  uint32_t scale_pow10 = 0;
  /// Bucketed channels (compiled band queries) carry a value only for
  /// readings inside the dyadic interval; absent = full domain.
  std::optional<BucketSpec> bucket;

  /// The spec of a plain (band-free) query's `kind` channel,
  /// canonicalized: a COUNT channel's value ignores attribute and
  /// scaling (it transmits 1{pred}), so those fields are normalized to
  /// fixed values and every COUNT over the same predicate shares one
  /// slot. Band queries compile through predicate::CompileChannelSpecs
  /// instead, which bucket-extends this canonical form.
  static ChannelSpec Canonical(const Query& query, Channel kind) {
    ChannelSpec spec;
    spec.kind = kind;
    spec.where = query.where;
    if (kind != Channel::kCount) {
      spec.attribute = query.attribute;
      spec.scale_pow10 = query.scale_pow10;
    }
    return spec;
  }

  /// The per-source value this channel carries for `reading`, computed
  /// through the same core::ChannelValue path the plaintext oracles
  /// use — which is what makes engine results bit-identical to them.
  /// Bucket membership is evaluated first, like
  /// ChannelValue evaluates a band first: outside the bucket the
  /// channel transmits 0.
  StatusOr<uint64_t> ValueFor(const core::SensorReading& reading) const {
    if (bucket.has_value()) {
      auto scaled = core::ScaledFieldValue(reading, bucket->field,
                                           bucket->scale_pow10);
      if (!scaled.ok()) return scaled.status();
      if (!bucket->interval.Contains(scaled.value())) return uint64_t{0};
    }
    Query shim;
    shim.attribute = attribute;
    shim.where = where;
    shim.scale_pow10 = scale_pow10;
    return core::ChannelValue(shim, kind, reading);
  }

  bool operator==(const ChannelSpec&) const = default;
};

/// One deduplicated wire slot.
struct PhysicalChannel {
  ChannelSpec spec;
  /// PRF-salt identity, allocated from the 14-bit query-id namespace at
  /// slot creation: the creating query's own id for its first new slot,
  /// then the nearest free ids after it (ChannelPlan::Admit). salt_id
  /// is unique across live slots — so SaltedEpoch inputs never collide
  /// — and OUTLIVES its creator: tearing down the creating query while
  /// other queries still read the slot keeps salt_id fixed.
  uint32_t salt_id = 0;
  /// Queries currently reading this slot; the slot dies at zero.
  uint32_t refcount = 0;

  /// The PRF input of this channel at `epoch`.
  uint64_t SaltedEpochFor(uint64_t epoch) const {
    return core::SaltedEpoch(epoch, salt_id, spec.kind);
  }
};

/// The live set of physical channels, in wire order. Wire order is
/// ascending (salt_id, kind) — stable under admission (new slots carry
/// fresh salts) and under teardown (surviving slots keep their position
/// relative to each other), so every party derives the same layout from
/// the same admission history.
class ChannelPlan {
 public:
  /// Callback deciding whether a query id is free to use as a channel
  /// salt (the registry passes "no active query holds it"); the plan
  /// additionally excludes ids salting live slots.
  using IdFreeFn = std::function<bool(uint32_t)>;

  /// Compiles `query` (predicate/compiler) and adds its channels,
  /// sharing existing compatible slots and creating missing ones. The
  /// first new slot is salted with query.query_id; further new slots
  /// (a band query's extra buckets) take the nearest free ids after it,
  /// skipping ids for which `id_free` (when set) returns false. Fails —
  /// without mutating the plan — on uncompilable queries or salt-space
  /// exhaustion.
  Status Admit(const Query& query, const IdFreeFn& id_free = nullptr);

  /// Releases `query`'s channels; slots that reach refcount zero are
  /// removed and stop consuming wire bytes from the next epoch on.
  Status Teardown(const Query& query);

  /// Live slots in wire order.
  const std::vector<PhysicalChannel>& channels() const { return channels_; }

  /// Indices into channels() for `query`'s compiled channels, in
  /// compilation order (per kind: kSum, kSumSquares, kCount as used;
  /// band queries list each kind's buckets in ascending interval
  /// order). Fails if the query's channels are not all in the plan.
  StatusOr<std::vector<size_t>> ChannelsOf(const Query& query) const;

  /// True when some live slot is salted with `id` — admitting a new
  /// query under that id would collide PRF inputs (see QueryRegistry).
  bool SaltIdInUse(uint32_t id) const;

  /// Σ compiled channel counts over admitted queries minus live slots:
  /// how many wire channels deduplication is currently saving per
  /// epoch.
  uint32_t DedupSavings() const { return naive_channels_ - Count(); }

  uint32_t Count() const {
    return static_cast<uint32_t>(channels_.size());
  }

 private:
  std::vector<PhysicalChannel> channels_;
  uint32_t naive_channels_ = 0;
};

}  // namespace sies::engine

#endif  // SIES_ENGINE_CHANNEL_PLAN_H_
