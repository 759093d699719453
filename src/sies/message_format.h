// The SIES plaintext layout m_{i,t} (paper Figure 2) and the homomorphic
// encryption of Section III-D.
//
//   m_{i,t} = [ v_{i,t} | 0...0 (pad) | ss_{i,t} ]
//             value_bytes  pad_bits     share_bytes
//
// interpreted as the integer  v · 2^(pad + 8·share_bytes) + ss.
// After summing N such messages, the low (pad + share) bits hold
// s_t = Σ ss_{i,t} (the pad absorbs the carry), and the top field holds
// res_t = Σ v_{i,t}.
#ifndef SIES_SIES_MESSAGE_FORMAT_H_
#define SIES_SIES_MESSAGE_FORMAT_H_

#include "sies/contributor_bitmap.h"
#include "sies/params.h"

namespace sies::core {

// Every step below is one template over the field's limb count L
// (crypto::Fp<L>, L = 4..8); callers reach it through
// Params::WithField. The definitions are inline: they run once or more
// per PSR on every party.

/// Packs a value and a share into the m_{i,t} integer.
/// Fails if `value` exceeds the value field or `share` the share field.
template <size_t L>
StatusOr<crypto::UInt<L>> PackMessage(const Params& params, uint64_t value,
                                      const crypto::UInt<L>& share) {
  if (params.value_bytes < 8) {
    uint64_t field_max = (uint64_t{1} << (8 * params.value_bytes)) - 1;
    if (value > field_max) {
      return Status::OutOfRange("value exceeds the value field width");
    }
  }
  if (share.BitLength() > 8 * params.share_bytes) {
    return Status::OutOfRange("share exceeds the share field width");
  }
  // Value and share fields are disjoint (Validate guarantees the layout
  // fits under the prime), so the add cannot carry.
  crypto::UInt<L> m;
  crypto::UInt<L>::Add(
      crypto::UInt<L>::FromUint64(value).Shl(params.ValueShiftBits()), share,
      &m);
  return m;
}

/// Decoded contents of a summed message m_{f,t}.
template <size_t L>
struct UnpackedMessage {
  uint64_t sum = 0;           ///< res_t, the SUM result field
  crypto::UInt<L> share_sum;  ///< s_t, the summed-share field (incl. carry)
};

/// Splits a (possibly summed) message back into (res_t, s_t).
/// Fails if the value field overflows its width (Σv too large for the
/// configured value_bytes).
template <size_t L>
StatusOr<UnpackedMessage<L>> UnpackMessage(const Params& params,
                                           const crypto::UInt<L>& message) {
  const size_t shift = params.ValueShiftBits();
  const crypto::UInt<L> value = message.Shr(shift);
  if (value.BitLength() > 8 * params.value_bytes) {
    return Status::OutOfRange(
        "summed value overflows the value field; configure value_bytes=8");
  }
  UnpackedMessage<L> out;
  out.sum = value.Low64();
  crypto::UInt<L>::Sub(message, value.Shl(shift), &out.share_sum);
  return out;
}

/// E(m, K_t, k_{i,t}, p) = K_t · m + k_{i,t} mod p.
template <size_t L>
StatusOr<crypto::UInt<L>> Encrypt(const crypto::Fp<L>& fp,
                                  const crypto::UInt<L>& message,
                                  const crypto::UInt<L>& epoch_global_key,
                                  const crypto::UInt<L>& epoch_source_key) {
  if (message.Compare(fp.prime()) >= 0) {
    return Status::OutOfRange("message must be < p");
  }
  return fp.Add(fp.Mul(epoch_global_key, message), epoch_source_key);
}

/// D(c, K_t^{-1}, k, p) = (c - k) · K_t^{-1} mod p, where k is the sum of
/// the epoch source keys of all contributing sources. The querier derives
/// K_t^{-1} once per epoch (EpochKeyCache), not once per evaluation.
template <size_t L>
crypto::UInt<L> Decrypt(const crypto::Fp<L>& fp,
                        const crypto::UInt<L>& ciphertext,
                        const crypto::UInt<L>& global_key_inv,
                        const crypto::UInt<L>& key_sum) {
  return fp.Mul(fp.Sub(ciphertext, key_sum), global_key_inv);
}

/// Writes a ciphertext as a fixed-width (fp.bytes() == PsrBytes) big-
/// endian PSR into `out`.
template <size_t L>
void SerializePsr(const crypto::Fp<L>& fp, const crypto::UInt<L>& ciphertext,
                  uint8_t* out) {
  ciphertext.ToBytesBE(out, fp.bytes());
}

/// Parses `size` PSR bytes at `data` in place. Fails on wrong width or a
/// value >= p.
template <size_t L>
StatusOr<crypto::UInt<L>> ParsePsr(const crypto::Fp<L>& fp,
                                   const uint8_t* data, size_t size) {
  if (size != fp.bytes()) {
    return Status::InvalidArgument("PSR has wrong width");
  }
  crypto::UInt<L> c = crypto::UInt<L>::FromBytesBE(data, size);
  if (c.Compare(fp.prime()) >= 0) {
    return Status::InvalidArgument("PSR is not a residue mod p");
  }
  return c;
}

// --- Loss-reporting wire envelope -----------------------------------------
//
// wire payload = [contributor bitmap (⌈N/8⌉ bytes)][body], where the
// body is one ciphertext PSR or the concatenated per-channel PSRs of a
// multi-query engine envelope. A source sets its
// own bit, aggregators OR their children's bitmaps while summing
// ciphertexts, and the querier reads the final bitmap as the
// participating set — so radio losses are reported in-band instead of
// making every lossy epoch fail verification. The bitmap itself is not
// trusted: flipping any bit changes the share subset the querier checks
// against, and the share-sum test fails (DESIGN.md, "Contributor
// bitmaps").

/// Bitmap width of the wire envelope: ⌈N/8⌉ bytes.
size_t WireBitmapBytes(const Params& params);

/// Single-channel wire PSR width: WireBitmapBytes + PsrBytes.
size_t WirePsrBytes(const Params& params);

/// Concatenates [bitmap ‖ body]. Fails on a bitmap/params width
/// mismatch.
StatusOr<Bytes> SerializeWirePayload(const Params& params,
                                     const ContributorBitmap& bitmap,
                                     const Bytes& body);

/// A parsed wire envelope.
struct WirePayload {
  ContributorBitmap bitmap;
  Bytes body;
};

/// Splits a wire payload back into bitmap and body; the body must be
/// exactly `expected_body_bytes` wide (PsrBytes per channel).
StatusOr<WirePayload> ParseWirePayload(const Params& params,
                                       const Bytes& wire,
                                       size_t expected_body_bytes);

/// Width of a multi-channel envelope [bitmap ‖ PSR × channels]: the
/// engine's one-round-per-epoch batch of all live physical channels.
size_t WireEnvelopeBytes(const Params& params, size_t channels);

/// Parses a multi-channel envelope, distinguishing the failure modes a
/// hostile or truncated frame can produce: a frame too short to hold the
/// contributor bitmap, a body that is not a whole number of PSRs, and a
/// well-formed envelope carrying the wrong PSR count for the expected
/// channel plan. Never reads past `wire`'s bounds.
StatusOr<WirePayload> ParseWireEnvelope(const Params& params,
                                        const Bytes& wire,
                                        size_t expected_channels);

}  // namespace sies::core

#endif  // SIES_SIES_MESSAGE_FORMAT_H_
