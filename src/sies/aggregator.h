// The SIES aggregator (paper Section IV-A, merging phase).
//
// Aggregators hold no secrets: only the public prime p. Merging is a
// modular addition of the children's PSRs — the entire reason the scheme
// is deployable on resource-constrained relay nodes.
#ifndef SIES_SIES_AGGREGATOR_H_
#define SIES_SIES_AGGREGATOR_H_

#include <vector>

#include "sies/message_format.h"
#include "sies/params.h"

namespace sies::core {

/// An aggregator A_j. Stateless apart from the public parameters.
class Aggregator {
 public:
  explicit Aggregator(Params params) : params_(std::move(params)) {}

  /// Merging phase: PSR' = Σ PSR_c mod p over the children's PSRs.
  /// Cost profile (paper Eq. 6): (F-1) 32-byte modular additions.
  StatusOr<Bytes> Merge(const std::vector<Bytes>& child_psrs) const;

  /// Merge over `count` PSRs stored back to back at `psrs` (PSR i at
  /// `psrs + i * PsrBytes()`), writing the merged PSR to `out` (also
  /// PsrBytes() wide). Allocation-free — the form the epoch hot loop
  /// uses with a core::PsrArena, where the vector-of-Bytes overload
  /// would cost one heap slice per source. Identical bytes to Merge.
  Status MergeContiguous(const uint8_t* psrs, size_t count,
                         uint8_t* out) const;

  /// Merging phase over wire envelopes: ORs the children's contributor
  /// bitmaps and sums their ciphertexts, producing one merged envelope.
  /// Adds ⌈N/8⌉ bytewise ORs per child to the Eq. 6 cost profile.
  StatusOr<Bytes> MergeWire(const std::vector<Bytes>& child_payloads) const;

  const Params& params() const { return params_; }

 private:
  /// Σ PSR_i mod p over `count` PSRs, `psr_at(i)` giving PSR i as a
  /// (data, size) pair; writes the PsrBytes()-wide sum to `out`.
  template <typename PsrAt>
  Status Sum(size_t count, PsrAt psr_at, uint8_t* out) const;

  Params params_;
};

}  // namespace sies::core

#endif  // SIES_SIES_AGGREGATOR_H_
