// The SIES source (paper Section IV-A, initialization phase).
//
// Each epoch, a source derives its temporal keys and share, packs its
// reading into m_{i,t}, encrypts, and emits a fixed-width PSR.
#ifndef SIES_SIES_SOURCE_H_
#define SIES_SIES_SOURCE_H_

#include <memory>

#include "sies/epoch_key_cache.h"
#include "sies/message_format.h"
#include "sies/params.h"

namespace sies::core {

/// A data source S_i. Holds (K, k_i, p); cheap to copy.
class Source {
 public:
  /// `index` is the source's logical id i in [0, N).
  Source(Params params, uint32_t index, SourceKeys keys)
      : params_(std::move(params)), index_(index), keys_(std::move(keys)) {}

  /// Initialization phase: produces PSR_{i,t} for reading `value` at
  /// epoch `epoch`. Cost profile (paper Eq. 3): two HM256, one HM1, one
  /// PsrBytes-wide modular multiplication and one addition.
  StatusOr<Bytes> CreatePsr(uint64_t value, uint64_t epoch) const;

  /// CreatePsr writing the params().PsrBytes()-wide PSR into `out`
  /// instead of allocating — for hot epoch loops assembling many PSRs
  /// into one buffer (a core::PsrArena, the engine's multi-channel
  /// body). The arithmetic performs no heap allocation. Identical bytes
  /// to CreatePsr.
  Status CreatePsrInto(uint64_t value, uint64_t epoch, uint8_t* out) const;

  /// Like CreatePsr, but wrapped in the loss-reporting wire envelope
  /// [contributor bitmap ‖ PSR] with only this source's bit set (see
  /// message_format.h). This is what goes on the radio; the bare PSR
  /// remains for paper-exact benchmarks.
  StatusOr<Bytes> CreateWirePsr(uint64_t value, uint64_t epoch) const;

  /// Optional: share an EpochKeyCache with co-located sources so K_t is
  /// derived once per epoch instead of once per source. The simulated
  /// MultiQueryEngine wires one cache into all N sources; a real
  /// deployment (one process per source) simply skips this.
  void SetEpochKeyCache(std::shared_ptr<EpochKeyCache> cache) {
    cache_ = std::move(cache);
  }

  uint32_t index() const { return index_; }
  const Params& params() const { return params_; }

 private:
  Params params_;
  uint32_t index_;
  SourceKeys keys_;
  std::shared_ptr<EpochKeyCache> cache_;
};

}  // namespace sies::core

#endif  // SIES_SIES_SOURCE_H_
