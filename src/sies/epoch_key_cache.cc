#include "sies/epoch_key_cache.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::core {

namespace {
// One labeled counter per (table, event); registered once, then each
// hit/miss is a single relaxed fetch_add.
telemetry::Counter* CacheCounter(const char* table, const char* event) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      "sies_epoch_key_cache_events_total",
      {{"table", table}, {"event", event}});
}

telemetry::Counter* EvictionCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_epoch_key_cache_evictions_total", {});
  return counter;
}
}  // namespace

EpochKeyCache::EpochKeyCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const void> EpochKeyCache::Find(const Table& table,
                                                uint64_t epoch, size_t limbs) {
  for (const Slot& slot : table) {
    if (slot.epoch == epoch && slot.limbs == limbs) return slot.entry;
  }
  return nullptr;
}

void EpochKeyCache::Insert(Table& table, Slot slot) {
  // Salted keys carry the real epoch in their high 48 bits (SaltedEpoch
  // layout); the newest real epoch seen defines the live window.
  const uint64_t real = slot.epoch >> 16;
  if (real > newest_real_epoch_) newest_real_epoch_ = real;
  while (table.size() >= capacity_) {
    const uint64_t dropped = table.front().epoch >> 16;
    table.pop_front();
    // Dropping an entry at least two real epochs old is *retirement* —
    // epochs advance monotonically, so it would never have been read
    // again. Dropping from the live window (the current epoch, or the
    // next one a pipeline prefetch already derived) is a premature
    // eviction: the entry will be re-derived within the same epoch,
    // which is the thrash the eviction counter exists to expose.
    // Unsalted epochs (single-party tests) all report real epoch 0 and
    // keep the pre-salt behaviour: every drop counts.
    if (dropped + 1 >= newest_real_epoch_) {
      evictions_.fetch_add(1, std::memory_order_relaxed);
      EvictionCounter()->Increment();
    }
  }
  table.push_back(std::move(slot));
}

void EpochKeyCache::Reserve(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity > capacity_) capacity_ = capacity;
}

size_t EpochKeyCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

template <size_t L>
std::shared_ptr<const EpochKeyCache::GlobalEntry<L>> EpochKeyCache::Global(
    const crypto::Fp<L>& fp, const Bytes& global_key, uint64_t epoch) {
  static telemetry::Counter* hits = CacheCounter("global", "hit");
  static telemetry::Counter* misses = CacheCounter("global", "miss");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = Find(global_, epoch, L)) {
      hits->Increment();
      global_hits_.fetch_add(1, std::memory_order_relaxed);
      return std::static_pointer_cast<const GlobalEntry<L>>(hit);
    }
  }
  misses->Increment();
  global_misses_.fetch_add(1, std::memory_order_relaxed);
  telemetry::ScopedSpan span("key-derivation", "cache", epoch);

  auto entry = std::make_shared<GlobalEntry<L>>();
  entry->key = DeriveEpochGlobalKey(fp, global_key, epoch);
  // K_t is in [1, p) and p is prime, so the inverse always exists.
  entry->key_inv = fp.Inverse(entry->key).value();

  std::lock_guard<std::mutex> lock(mu_);
  // A racing thread may have derived the same epoch; keep the first so
  // every caller shares one snapshot.
  if (auto hit = Find(global_, epoch, L)) {
    return std::static_pointer_cast<const GlobalEntry<L>>(hit);
  }
  Insert(global_, Slot{epoch, L, entry});
  return entry;
}

template <size_t L>
std::shared_ptr<const EpochKeyCache::SourceEntry<L>> EpochKeyCache::Sources(
    const crypto::Fp<L>& fp, SharePrf prf, const std::vector<Bytes>& keys,
    uint64_t epoch, common::ThreadPool* pool) {
  static telemetry::Counter* hits = CacheCounter("sources", "hit");
  static telemetry::Counter* misses = CacheCounter("sources", "miss");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = Find(sources_, epoch, L)) {
      hits->Increment();
      source_hits_.fetch_add(1, std::memory_order_relaxed);
      return std::static_pointer_cast<const SourceEntry<L>>(hit);
    }
  }
  misses->Increment();
  source_misses_.fetch_add(1, std::memory_order_relaxed);
  // The cold-epoch N-way k_{i,t}/ss_{i,t} derivation — the querier's
  // "share-recompute" phase in the paper's cost model.
  telemetry::ScopedSpan span("share-recompute", "cache", epoch);

  auto entry = std::make_shared<SourceEntry<L>>();
  const size_t n = keys.size();
  entry->keys.resize(n);
  entry->shares.resize(n);
  // Sources are derived in groups so the 8-lane HMAC kernel always sees
  // full batches, and the pool fans out over *groups* in one flat
  // ParallelFor — never a nested dispatch per index. (When Sources is
  // itself reached from inside a pool lane — e.g. the engine's
  // per-channel Evaluate fan-out — ThreadPool runs this loop inline on
  // that lane; lane batching keeps even that path on the fast kernel.)
  constexpr size_t kGroup = 256;
  const size_t num_groups = (n + kGroup - 1) / kGroup;
  auto derive_group = [&](size_t g) {
    const size_t begin = g * kGroup;
    const size_t count = std::min(kGroup, n - begin);
    DeriveEpochSourceKeysBatch(fp, keys, begin, count, epoch,
                               entry->keys.data() + begin);
    if (prf == SharePrf::kHmacSha256) {
      DeriveEpochSharesHm256Batch(keys, begin, count, epoch,
                                  entry->shares.data() + begin);
    } else {
      // HM1 shares are SHA-1; no batch kernel exists for them.
      for (size_t i = begin; i < begin + count; ++i) {
        entry->shares[i] = DeriveEpochShare(fp, prf, keys[i], epoch);
      }
    }
  };
  if (pool != nullptr && num_groups > 1) {
    pool->ParallelFor(num_groups, derive_group);
  } else {
    for (size_t g = 0; g < num_groups; ++g) derive_group(g);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (auto hit = Find(sources_, epoch, L)) {
    return std::static_pointer_cast<const SourceEntry<L>>(hit);
  }
  Insert(sources_, Slot{epoch, L, entry});
  return entry;
}

#define SIES_INSTANTIATE_CACHE(L)                                           \
  template std::shared_ptr<const EpochKeyCache::GlobalEntry<L>>             \
  EpochKeyCache::Global(const crypto::Fp<L>&, const Bytes&, uint64_t);      \
  template std::shared_ptr<const EpochKeyCache::SourceEntry<L>>             \
  EpochKeyCache::Sources(const crypto::Fp<L>&, SharePrf,                    \
                         const std::vector<Bytes>&, uint64_t,               \
                         common::ThreadPool*);
SIES_FOR_EACH_FIELD_LIMBS(SIES_INSTANTIATE_CACHE)
#undef SIES_INSTANTIATE_CACHE

void EpochKeyCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  global_.clear();
  sources_.clear();
}

}  // namespace sies::core
