#include "sies/params.h"

#include <algorithm>
#include <cmath>

#include "common/secure.h"
#include "crypto/hmac.h"
#include "crypto/hmac_drbg.h"
#include "crypto/prime.h"
#include "crypto/sha256x8.h"

namespace sies::core {

namespace {
/// Smallest number of bits that can absorb the carry of summing
/// `num_sources` share values: ceil(log2 N).
size_t PadBitsFor(uint32_t num_sources) {
  size_t bits = 0;
  while ((uint64_t{1} << bits) < num_sources) ++bits;
  return bits;
}
}  // namespace

uint64_t Params::MaxSafeValue() const {
  if (num_sources == 0) return 0;
  uint64_t field_max = value_bytes >= 8
                           ? UINT64_MAX
                           : (uint64_t{1} << (8 * value_bytes)) - 1;
  return field_max / num_sources;
}

void Params::SetPrime(crypto::BigUint p) {
  prime = std::move(p);
  auto built = crypto::MakePrimeField(prime);
  field = built.ok() ? std::make_shared<const crypto::PrimeField>(
                           std::move(built).value())
                     : nullptr;
}

Status Params::Validate() const {
  if (num_sources == 0) {
    return Status::InvalidArgument("num_sources must be >= 1");
  }
  if (value_bytes != 4 && value_bytes != 8) {
    return Status::InvalidArgument("value_bytes must be 4 or 8");
  }
  size_t expected_share =
      share_prf == SharePrf::kHmacSha1 ? 20 : 32;
  if (share_bytes != expected_share) {
    return Status::InvalidArgument(
        "share_bytes must match the share PRF's digest size");
  }
  if (prime.IsZero()) return Status::InvalidArgument("prime not set");
  if (prime.BitLength() > crypto::kMaxFieldBits) {
    return Status::InvalidArgument(
        "prime wider than 512 bits is not supported");
  }
  // The whole sum (value field + pad + share field) must stay below p:
  // Σm_i < 2^(value_bits + pad + share_bits) requires at least one extra
  // bit of headroom under p.
  size_t plaintext_bits = 8 * value_bytes + pad_bits + 8 * share_bytes;
  if (plaintext_bits + 1 > prime.BitLength()) {
    return Status::InvalidArgument(
        "message layout does not fit below the prime (reduce N or enlarge "
        "the prime)");
  }
  if ((uint64_t{1} << pad_bits) < num_sources) {
    return Status::InvalidArgument("pad_bits too small for num_sources");
  }
  const bool field_matches =
      field != nullptr && WithField([&](const auto& fp) {
        auto p = std::decay_t<decltype(fp.prime())>::FromBigUint(prime);
        return p.ok() && p.value() == fp.prime();
      });
  if (!field_matches) {
    return Status::InvalidArgument(
        "field context not built for this prime (set it with SetPrime)");
  }
  return Status::OK();
}

StatusOr<Params> MakeParams(uint32_t num_sources, uint64_t seed,
                            size_t value_bytes, size_t prime_bits,
                            SharePrf share_prf) {
  Params params;
  params.num_sources = num_sources;
  params.value_bytes = value_bytes;
  params.share_prf = share_prf;
  params.share_bytes = share_prf == SharePrf::kHmacSha1 ? 20 : 32;
  params.pad_bits = PadBitsFor(num_sources);
  Xoshiro256 rng(seed);
  params.SetPrime(crypto::GeneratePrime(prime_bits, rng));
  SIES_RETURN_IF_ERROR(params.Validate());
  return params;
}

QuerierKeys GenerateKeys(const Params& params, const Bytes& master_seed) {
  Bytes personalization = {'s', 'i', 'e', 's', '-', 's', 'e', 't', 'u', 'p'};
  crypto::HmacDrbg drbg(master_seed, personalization);
  QuerierKeys keys;
  keys.global_key = drbg.Generate(20);
  keys.source_keys.reserve(params.num_sources);
  for (uint32_t i = 0; i < params.num_sources; ++i) {
    keys.source_keys.push_back(drbg.Generate(20));
  }
  return keys;
}

StatusOr<SourceKeys> KeysForSource(const QuerierKeys& keys, uint32_t index) {
  if (index >= keys.source_keys.size()) {
    return Status::NotFound("no such source index");
  }
  return SourceKeys{keys.global_key, keys.source_keys[index]};
}

template <size_t L>
crypto::UInt<L> DeriveEpochGlobalKey(const crypto::Fp<L>& fp,
                                     const Bytes& global_key, uint64_t epoch) {
  Bytes prf = crypto::EpochPrfSha256(global_key, epoch);
  crypto::UInt<L> k =
      fp.Reduce(crypto::UInt<L>::FromBytesBE(prf.data(), prf.size()));
  SecureWipe(prf);
  if (k.IsZero()) k = crypto::UInt<L>::FromUint64(1);  // K_t invertible
  return k;
}

template <size_t L>
crypto::UInt<L> DeriveEpochSourceKey(const crypto::Fp<L>& fp,
                                     const Bytes& source_key, uint64_t epoch) {
  Bytes prf = crypto::EpochPrfSha256(source_key, epoch);
  crypto::UInt<L> k =
      fp.Reduce(crypto::UInt<L>::FromBytesBE(prf.data(), prf.size()));
  SecureWipe(prf);
  return k;
}

namespace {

/// The HM256 share input "share" || t, shared by the scalar and batch
/// derivations (domain separation from k_{i,t} = HM256(k_i, t)).
Bytes Hm256ShareInput(uint64_t epoch) {
  Bytes input = {'s', 'h', 'a', 'r', 'e'};
  Bytes e = EncodeUint64(epoch);
  input.insert(input.end(), e.begin(), e.end());
  return input;
}

}  // namespace

template <size_t L>
crypto::UInt<L> DeriveEpochShare(const crypto::Fp<L>& /*fp*/, SharePrf prf,
                                 const Bytes& source_key, uint64_t epoch) {
  Bytes digest = prf == SharePrf::kHmacSha1
                     ? crypto::EpochPrfSha1(source_key, epoch)
                     : crypto::HmacSha256(source_key, Hm256ShareInput(epoch));
  crypto::UInt<L> share =
      crypto::UInt<L>::FromBytesBE(digest.data(), digest.size());
  SecureWipe(digest);
  return share;
}

namespace {

// Chunk width for the batch derivations: a multiple of the kernel's 8
// lanes, small enough that the per-chunk digest scratch (kChunk x 32 B)
// stays on the stack. The chunking is invisible in the output — each
// digest is an independent HMAC.
constexpr size_t kDeriveChunk = 64;

}  // namespace

template <size_t L>
void DeriveEpochSourceKeysBatch(const crypto::Fp<L>& fp,
                                const std::vector<Bytes>& source_keys,
                                size_t begin, size_t count, uint64_t epoch,
                                crypto::UInt<L>* out) {
  crypto::ByteView views[kDeriveChunk];
  uint8_t digests[kDeriveChunk * 32];
  for (size_t off = 0; off < count; off += kDeriveChunk) {
    const size_t take = std::min(kDeriveChunk, count - off);
    for (size_t j = 0; j < take; ++j) {
      views[j] = crypto::ByteView(source_keys[begin + off + j]);
    }
    crypto::EpochPrfSha256Batch(take, views, epoch, digests);
    for (size_t j = 0; j < take; ++j) {
      out[off + j] =
          fp.Reduce(crypto::UInt<L>::FromBytesBE(digests + 32 * j, 32));
    }
  }
  common::SecureZero(digests, sizeof(digests));
}

template <size_t L>
void DeriveEpochSharesHm256Batch(const std::vector<Bytes>& source_keys,
                                 size_t begin, size_t count, uint64_t epoch,
                                 crypto::UInt<L>* out) {
  const Bytes input = Hm256ShareInput(epoch);
  const crypto::ByteView msg(input);
  crypto::ByteView keys[kDeriveChunk];
  crypto::ByteView msgs[kDeriveChunk];
  for (size_t j = 0; j < kDeriveChunk; ++j) msgs[j] = msg;
  uint8_t digests[kDeriveChunk * 32];
  for (size_t off = 0; off < count; off += kDeriveChunk) {
    const size_t take = std::min(kDeriveChunk, count - off);
    for (size_t j = 0; j < take; ++j) {
      keys[j] = crypto::ByteView(source_keys[begin + off + j]);
    }
    crypto::HmacSha256Batch(take, keys, msgs, digests);
    for (size_t j = 0; j < take; ++j) {
      out[off + j] = crypto::UInt<L>::FromBytesBE(digests + 32 * j, 32);
    }
  }
  common::SecureZero(digests, sizeof(digests));
}

#define SIES_INSTANTIATE_DERIVATIONS(L)                                     \
  template crypto::UInt<L> DeriveEpochGlobalKey(const crypto::Fp<L>&,      \
                                                const Bytes&, uint64_t);    \
  template crypto::UInt<L> DeriveEpochSourceKey(const crypto::Fp<L>&,      \
                                                const Bytes&, uint64_t);    \
  template crypto::UInt<L> DeriveEpochShare(const crypto::Fp<L>&, SharePrf, \
                                            const Bytes&, uint64_t);        \
  template void DeriveEpochSourceKeysBatch(                                 \
      const crypto::Fp<L>&, const std::vector<Bytes>&, size_t, size_t,      \
      uint64_t, crypto::UInt<L>*);                                          \
  template void DeriveEpochSharesHm256Batch(                                \
      const std::vector<Bytes>&, size_t, size_t, uint64_t, crypto::UInt<L>*);
SIES_FOR_EACH_FIELD_LIMBS(SIES_INSTANTIATE_DERIVATIONS)
#undef SIES_INSTANTIATE_DERIVATIONS

}  // namespace sies::core
