// Per-epoch temporal-key cache shared by the SIES parties.
//
// The temporal material of an epoch t — K_t, K_t^{-1}, and the querier's
// per-source k_{i,t} / ss_{i,t} — is a pure function of the long-term
// keys, yet the naive protocol re-derives it at every use: each of N
// sources pays one HM256 for the same K_t, and the querier pays an
// extended-Euclid inverse on every channel of every evaluation. This
// cache computes each epoch's material exactly once and hands out shared
// immutable snapshots. Entries are keyed by the (salted) epoch, so
// multi-channel queries — whose channels deliberately use distinct PRF
// inputs via SaltedEpoch — occupy distinct entries.
//
// Eviction is FIFO with a small capacity: the simulator advances epochs
// monotonically, and a histogram query touches B+1 salted epochs per
// real epoch, so a few dozen entries cover every workload in the repo.
#ifndef SIES_SIES_EPOCH_KEY_CACHE_H_
#define SIES_SIES_EPOCH_KEY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/secure.h"
#include "common/thread_pool.h"
#include "crypto/fp.h"
#include "sies/params.h"

namespace sies::core {

/// Thread-safe cache of per-epoch derived key material. One instance is
/// typically shared by all co-located parties (every simulated Source in
/// a run, or one per Querier).
class EpochKeyCache {
 public:
  /// `capacity` bounds the number of retained epochs per table.
  explicit EpochKeyCache(size_t capacity = 32);

  /// Global-key material of one epoch, at the field's limb count L.
  /// Zeroized on eviction/destruction: an evicted K_t must not linger in
  /// freed heap pages.
  template <size_t L>
  struct GlobalEntry {
    crypto::UInt<L> key;      ///< K_t in [1, p)
    crypto::UInt<L> key_inv;  ///< K_t^{-1} mod p

    ~GlobalEntry() {
      common::SecureZero(&key, sizeof(key));
      common::SecureZero(&key_inv, sizeof(key_inv));
    }
  };

  /// Per-source material of one epoch, index-aligned with the querier's
  /// source_keys: L limbs per value (a 256-bit key is 32 bytes).
  template <size_t L>
  struct SourceEntry {
    std::vector<crypto::UInt<L>> keys;    ///< k_{i,t}
    std::vector<crypto::UInt<L>> shares;  ///< ss_{i,t}

    ~SourceEntry() {
      common::SecureZero(keys.data(), keys.size() * sizeof(crypto::UInt<L>));
      common::SecureZero(shares.data(),
                         shares.size() * sizeof(crypto::UInt<L>));
    }
  };

  /// K_t and K_t^{-1} for `epoch`, derived (and memoized) on first use.
  template <size_t L>
  std::shared_ptr<const GlobalEntry<L>> Global(const crypto::Fp<L>& fp,
                                               const Bytes& global_key,
                                               uint64_t epoch);

  /// All sources' k_{i,t} / ss_{i,t} (shares from `prf`) for `epoch`,
  /// derived once. `pool` (optional) fans the N derivations out across
  /// lanes; the result is identical for any thread count since every
  /// index writes its own slot.
  template <size_t L>
  std::shared_ptr<const SourceEntry<L>> Sources(
      const crypto::Fp<L>& fp, SharePrf prf, const std::vector<Bytes>& keys,
      uint64_t epoch, common::ThreadPool* pool);

  /// Drops every entry (benchmarks use this to measure cold evaluations).
  /// Hit/miss statistics survive — they describe lookups, not contents.
  void Clear();

  /// Grows the capacity to at least `capacity` entries per table (never
  /// shrinks — concurrent readers may still hold the larger working
  /// set). The multi-query engine calls this with the live channel
  /// count: K queries touch K × (channels per query) distinct salted
  /// epochs per real epoch, so a fixed capacity of 32 would evict every
  /// entry before its re-use and turn the cache into pure overhead.
  void Reserve(size_t capacity);

  /// Current per-table capacity.
  size_t capacity() const;

  /// Lifetime hit/miss/eviction totals per table. Also exported as the
  /// labeled counter `sies_epoch_key_cache_events_total` (hits/misses)
  /// and `sies_epoch_key_cache_evictions_total` in the global metrics
  /// registry; these accessors exist so benches (fig6a) can report the
  /// cache behaviour of one specific instance.
  struct Stats {
    uint64_t global_hits = 0;
    uint64_t global_misses = 0;
    uint64_t source_hits = 0;
    uint64_t source_misses = 0;
    /// PREMATURE drops, both tables: entries evicted out of the live
    /// epoch window (current epoch, or the prefetched next one) and so
    /// re-derived within the epoch. Retiring entries of finished epochs
    /// is normal FIFO aging and is NOT counted — a correctly sized
    /// cache (engine ReserveCaches: plan-driven) reports 0 here over
    /// any run length, which is what the range-query regression test
    /// asserts.
    uint64_t evictions = 0;
  };
  Stats stats() const {
    return Stats{global_hits_.load(std::memory_order_relaxed),
                 global_misses_.load(std::memory_order_relaxed),
                 source_hits_.load(std::memory_order_relaxed),
                 source_misses_.load(std::memory_order_relaxed),
                 evictions_.load(std::memory_order_relaxed)};
  }

 private:
  /// One cached epoch: its salted key, the limb count of the entry (so a
  /// lookup never reinterprets another width), and the immutable entry.
  struct Slot {
    uint64_t epoch;
    size_t limbs;
    std::shared_ptr<const void> entry;
  };
  using Table = std::deque<Slot>;

  static std::shared_ptr<const void> Find(const Table& table, uint64_t epoch,
                                          size_t limbs);
  void Insert(Table& table, Slot slot);

  size_t capacity_;  // guarded by mu_; grows via Reserve, never shrinks
  /// Newest real epoch (salted key >> 16) ever inserted — the live
  /// window marker premature-eviction accounting compares against.
  /// Guarded by mu_ (Insert runs under it).
  uint64_t newest_real_epoch_ = 0;
  mutable std::mutex mu_;
  Table global_;
  Table sources_;
  std::atomic<uint64_t> global_hits_{0};
  std::atomic<uint64_t> global_misses_{0};
  std::atomic<uint64_t> source_hits_{0};
  std::atomic<uint64_t> source_misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace sies::core

#endif  // SIES_SIES_EPOCH_KEY_CACHE_H_
