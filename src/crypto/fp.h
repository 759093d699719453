// Fixed-width modular arithmetic for every SIES prime.
//
// The SIES homomorphic scheme (paper Section III-D) is arithmetic modulo
// one public prime p. UInt<L> is an L-limb unsigned integer (64-bit
// limbs, little-endian) and Fp<L> the reduction context for a prime of
// 64(L-1)+1 .. 64L bits, holding the Barrett constant
// mu = floor(2^(128L) / p) (L + 1 limbs). Both are plain value types with
// no heap, so the per-epoch hot path (source encryption, aggregator
// merge, querier decrypt/verify) runs allocation-free at every width:
// L = 4 for the paper's 256-bit prime, L = 6 for the hardened HM256
// profile's 352/384-bit primes. PrimeField holds one of the instantiated
// widths (193..512 bits, L = 4..8); Params builds it once per prime.
//
// BigUint is the oracle: the conversions below exist for setup, tests,
// and the cold per-epoch inverse, never for per-PSR work.
#ifndef SIES_CRYPTO_FP_H_
#define SIES_CRYPTO_FP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <variant>

#include "common/status.h"
#include "crypto/biguint.h"

namespace sies::crypto {

/// The instantiated limb counts: primes of 193 to 512 bits. Narrower
/// primes cannot hold the SIES message layout; wider ones are unused.
inline constexpr size_t kMinFieldLimbs = 4;
inline constexpr size_t kMaxFieldLimbs = 8;
inline constexpr size_t kMaxFieldBits = 64 * kMaxFieldLimbs;

/// The limb count L of a prime of `bits` bits — the one map from a
/// prime's width to its field type.
constexpr size_t LimbsForBits(size_t bits) { return (bits + 63) / 64; }

namespace fp_internal {

using u128 = unsigned __int128;

/// a -= b over `n` limbs; returns the borrow-out bit.
inline uint64_t SubLimbs(uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<uint64_t>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  return borrow;
}

}  // namespace fp_internal

/// L-limb unsigned integer: value semantics, no heap. The static
/// arithmetic helpers expose carries and borrows so callers handle the
/// (rare) overflow cases explicitly.
template <size_t L>
struct UInt {
  static_assert(L >= 1, "UInt needs at least one limb");
  static constexpr size_t kLimbs = L;
  uint64_t v[L] = {};

  /// Zero-extended machine word.
  static UInt FromUint64(uint64_t x) {
    UInt r;
    r.v[0] = x;
    return r;
  }

  /// From BigUint; fails if the value needs more than 64L bits.
  static StatusOr<UInt> FromBigUint(const BigUint& x) {
    const std::vector<uint64_t>& limbs = x.limbs();
    if (limbs.size() > L) {
      return Status::OutOfRange("value does not fit in the fixed width");
    }
    UInt r;
    for (size_t i = 0; i < limbs.size(); ++i) r.v[i] = limbs[i];
    return r;
  }

  /// Parses `len` <= 8L big-endian bytes (leading zeros allowed).
  static UInt FromBytesBE(const uint8_t* data, size_t len) {
    assert(len <= 8 * L && "UInt::FromBytesBE input wider than the type");
    UInt r;
    for (size_t i = 0; i < len; ++i) {
      const size_t byte_from_right = len - 1 - i;
      r.v[byte_from_right / 8] |= static_cast<uint64_t>(data[i])
                                  << (8 * (byte_from_right % 8));
    }
    return r;
  }

  BigUint ToBigUint() const {
    uint8_t be[8 * L];
    ToBytesBE(be, sizeof(be));
    return BigUint::FromBytes(be, sizeof(be));
  }

  /// Writes the low `len` <= 8L bytes big-endian: exactly `len` bytes,
  /// zero-padded on the left (a PSR is written at the prime's width).
  void ToBytesBE(uint8_t* out, size_t len) const {
    assert(len <= 8 * L && "UInt::ToBytesBE output wider than the type");
    for (size_t i = 0; i < len; ++i) {
      const size_t byte_from_right = len - 1 - i;
      out[i] = static_cast<uint8_t>(v[byte_from_right / 8] >>
                                    (8 * (byte_from_right % 8)));
    }
  }

  bool IsZero() const {
    uint64_t any = 0;
    for (size_t i = 0; i < L; ++i) any |= v[i];
    return any == 0;
  }
  uint64_t Low64() const { return v[0]; }

  /// Number of significant bits (0 for zero).
  size_t BitLength() const {
    for (size_t i = L; i-- > 0;) {
      if (v[i] != 0) return 64 * i + 64 - __builtin_clzll(v[i]);
    }
    return 0;
  }

  /// Three-way compare: -1, 0, or +1.
  int Compare(const UInt& o) const {
    for (size_t i = L; i-- > 0;) {
      if (v[i] != o.v[i]) return v[i] < o.v[i] ? -1 : 1;
    }
    return 0;
  }
  bool operator==(const UInt& o) const { return Compare(o) == 0; }
  bool operator!=(const UInt& o) const { return Compare(o) != 0; }

  /// Constant-time equality: always touches every limb of both values.
  /// Use for secret material (share sums, epoch keys), where the
  /// early-exit Compare() would leak the first differing limb.
  static bool ConstantTimeEqual(const UInt& a, const UInt& b) {
    uint64_t diff = 0;
    for (size_t i = 0; i < L; ++i) diff |= a.v[i] ^ b.v[i];
    return diff == 0;
  }

  /// out = a + b (mod 2^64L); returns the carry-out bit.
  static uint64_t Add(const UInt& a, const UInt& b, UInt* out) {
    uint64_t carry = 0;
    for (size_t i = 0; i < L; ++i) {
      fp_internal::u128 s =
          static_cast<fp_internal::u128>(a.v[i]) + b.v[i] + carry;
      out->v[i] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64);
    }
    return carry;
  }

  /// out = a - b (mod 2^64L); returns the borrow-out bit.
  static uint64_t Sub(const UInt& a, const UInt& b, UInt* out) {
    *out = a;
    return fp_internal::SubLimbs(out->v, b.v, L);
  }

  /// Full L x L -> 2L-limb product, little-endian limbs.
  static void Mul(const UInt& a, const UInt& b, uint64_t out[2 * L]) {
    for (size_t i = 0; i < 2 * L; ++i) out[i] = 0;
    for (size_t i = 0; i < L; ++i) {
      uint64_t carry = 0;
      for (size_t j = 0; j < L; ++j) {
        fp_internal::u128 cur =
            static_cast<fp_internal::u128>(a.v[i]) * b.v[j] + out[i + j] +
            carry;
        out[i + j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      out[i + L] = carry;  // untouched by previous outer iterations
    }
  }

  /// Left shift by `bits`, truncating at 2^64L (bits may be >= 64L).
  UInt Shl(size_t bits) const {
    UInt r;
    if (bits >= 64 * L) return r;
    const size_t limb_shift = bits / 64;
    const size_t bit_shift = bits % 64;
    for (size_t i = L; i-- > limb_shift;) {
      const uint64_t lo = v[i - limb_shift] << bit_shift;
      const uint64_t hi = (bit_shift && i - limb_shift > 0)
                              ? v[i - limb_shift - 1] >> (64 - bit_shift)
                              : 0;
      r.v[i] = lo | hi;
    }
    return r;
  }

  /// Logical right shift by `bits` (bits may be >= 64L).
  UInt Shr(size_t bits) const {
    UInt r;
    if (bits >= 64 * L) return r;
    const size_t limb_shift = bits / 64;
    const size_t bit_shift = bits % 64;
    for (size_t i = 0; i + limb_shift < L; ++i) {
      const uint64_t lo = v[i + limb_shift] >> bit_shift;
      const uint64_t hi = (bit_shift && i + limb_shift + 1 < L)
                              ? v[i + limb_shift + 1] << (64 - bit_shift)
                              : 0;
      r.v[i] = lo | hi;
    }
    return r;
  }
};

/// Reduction context for a fixed prime p of 64(L-1)+1 .. 64L bits. Mul
/// costs one L x L schoolbook product plus two truncated (L+1)-limb
/// products: no division, no allocation. Add/Sub/Mul take reduced
/// operands (< p); Reduce takes any L-limb value and ReduceWide any
/// 2L-limb value.
template <size_t L>
class Fp {
 public:
  using Uint = UInt<L>;

  /// Creates the context; fails unless `prime` is 64(L-1)+1 .. 64L bits.
  /// (Primality is the caller's concern; only Inverse needs it.)
  static StatusOr<Fp> Create(const BigUint& prime) {
    if (prime.BitLength() == 0 || LimbsForBits(prime.BitLength()) != L) {
      return Status::InvalidArgument("modulus width does not match the field");
    }
    // mu = floor(b^2L / p) <= b^(L+1), with equality only for
    // p = b^(L-1): a power of b is no prime, and its mu would not fit.
    BigUint mu = BigUint::DivMod(BigUint::Shl(BigUint(1), 128 * L), prime)
                     .value()
                     .quotient;
    const std::vector<uint64_t>& limbs = mu.limbs();
    if (limbs.size() > L + 1) {
      return Status::InvalidArgument("modulus is a power of 2^64");
    }
    Fp fp;
    fp.p_ = Uint::FromBigUint(prime).value();
    fp.bytes_ = (prime.BitLength() + 7) / 8;
    fp.top_limb_full_ = prime.BitLength() == 64 * L;
    for (size_t i = 0; i < limbs.size(); ++i) fp.mu_[i] = limbs[i];
    return fp;
  }

  const Uint& prime() const { return p_; }
  /// Width of p in bytes: the fixed width of every PSR.
  size_t bytes() const { return bytes_; }

  /// (a + b) mod p for reduced a, b.
  Uint Add(const Uint& a, const Uint& b) const {
    Uint s;
    const uint64_t carry = Uint::Add(a, b, &s);
    // a + b < 2p: on carry the true sum is 2^64L + s, and the wrapping
    // subtract below yields exactly (a + b) - p.
    if (carry || s.Compare(p_) >= 0) Uint::Sub(s, p_, &s);
    return s;
  }

  /// (a - b) mod p for reduced a, b.
  Uint Sub(const Uint& a, const Uint& b) const {
    Uint r;
    if (Uint::Sub(a, b, &r)) Uint::Add(r, p_, &r);  // wraps back below p
    return r;
  }

  /// (a * b) mod p for reduced a, b (Barrett).
  Uint Mul(const Uint& a, const Uint& b) const {
    uint64_t prod[2 * L];
    Uint::Mul(a, b, prod);
    return ReduceWide(prod);
  }

  /// x mod p for any L-limb x — e.g. a 256-bit PRF output. When p fills
  /// its top limb, x < 2p and one conditional subtract suffices; a
  /// narrower p (a 193-bit prime under a 256-bit PRF output) can be
  /// exceeded many times over, so that case takes the Barrett path.
  Uint Reduce(const Uint& x) const {
    if (x.Compare(p_) < 0) return x;
    if (top_limb_full_) {
      Uint r;
      Uint::Sub(x, p_, &r);
      return r;
    }
    uint64_t wide[2 * L] = {};
    for (size_t i = 0; i < L; ++i) wide[i] = x.v[i];
    return ReduceWide(wide);
  }

  /// x mod p for any 2L-limb value (e.g. an L x L product).
  Uint ReduceWide(const uint64_t x[2 * L]) const {
    using fp_internal::u128;
    // Barrett reduction (HAC Algorithm 14.42, b = 2^64, k = L):
    //   q3 = floor(floor(x / b^(L-1)) * mu / b^(L+1)) underestimates
    //   floor(x / p) by at most 2. Both products are truncated: q1 * mu
    //   drops the products that only feed limbs below L-1 (costing at
    //   most one more unit of underestimate, see below), and q3 * p is
    //   computed mod b^(L+1) only. Hence r = x - q3 * p < 4p and the
    //   final loop subtracts p at most three times.
    constexpr size_t K = L + 1;
    const uint64_t* q1 = x + (L - 1);  // K limbs

    // q2h[d] = limb (d + L - 1) of q1 * mu, summing only products with
    // i + j >= L - 1. The dropped products total < L^2 * b^L << b^(L+1),
    // so the partial sum's top K limbs floor-divide to at most one less
    // than the true q3 — absorbed by the subtraction loop. Row i's carry
    // lands at position i + K (index i + 2), untouched by earlier rows.
    uint64_t q2h[K + 2] = {};
    for (size_t i = 0; i < K; ++i) {
      uint64_t carry = 0;
      for (size_t j = i >= L - 1 ? 0 : L - 1 - i; j < K; ++j) {
        u128 cur =
            static_cast<u128>(q1[i]) * mu_[j] + q2h[i + j - (L - 1)] + carry;
        q2h[i + j - (L - 1)] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      q2h[i + 2] = carry;
    }
    const uint64_t* q3 = &q2h[2];  // limbs K .. 2K-1 of q1 * mu

    // r2 = (q3 * p) mod b^K: truncated K x L product, dropping every
    // carry that would land at position >= K (exact mod b^K).
    uint64_t r2[K] = {};
    for (size_t i = 0; i < K; ++i) {
      uint64_t carry = 0;
      for (size_t j = 0; j < L && i + j < K; ++j) {
        u128 cur = static_cast<u128>(q3[i]) * p_.v[j] + r2[i + j] + carry;
        r2[i + j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      if (i + L < K) r2[i + L] = carry;
    }

    // r = (x mod b^K) - r2, wrapping mod b^K (the true difference is
    // >= 0 and < 4p < b^K, so the wrap is exact).
    uint64_t r[K];
    for (size_t i = 0; i < K; ++i) r[i] = x[i];
    fp_internal::SubLimbs(r, r2, K);

    // At most three final subtractions of p.
    uint64_t pk[K] = {};
    for (size_t i = 0; i < L; ++i) pk[i] = p_.v[i];
    auto geq_p = [&]() {
      if (r[L] != 0) return true;
      for (size_t i = L; i-- > 0;) {
        if (r[i] != pk[i]) return r[i] > pk[i];
      }
      return true;  // equal
    };
    while (geq_p()) fp_internal::SubLimbs(r, pk, K);

    Uint out;
    for (size_t i = 0; i < L; ++i) out.v[i] = r[i];
    return out;
  }

  /// a^{-1} mod p via BigUint extended Euclid — the cold path, run once
  /// per salted epoch (callers cache the result). Fails if
  /// gcd(a, p) != 1.
  StatusOr<Uint> Inverse(const Uint& a) const {
    BigUint a_big = a.ToBigUint();
    auto inv = BigUint::ModInverse(a_big, p_.ToBigUint());
    a_big.Wipe();
    if (!inv.ok()) return inv.status();
    auto out = Uint::FromBigUint(inv.value());
    inv.value().Wipe();
    return out;
  }

 private:
  Fp() = default;

  Uint p_;
  uint64_t mu_[L + 1] = {};
  size_t bytes_ = 0;
  bool top_limb_full_ = false;
};

/// The field of one SIES prime: an Fp<L> for each instantiated L.
using PrimeField = std::variant<Fp<4>, Fp<5>, Fp<6>, Fp<7>, Fp<8>>;
static_assert(std::variant_size_v<PrimeField> ==
              kMaxFieldLimbs - kMinFieldLimbs + 1);

/// Builds the field context of `prime`; fails outside 193..512 bits.
template <size_t L = kMinFieldLimbs>
StatusOr<PrimeField> MakePrimeField(const BigUint& prime) {
  if constexpr (L > kMaxFieldLimbs) {
    (void)prime;
    return Status::InvalidArgument(
        "prime width outside the supported 193..512 bits");
  } else {
    if (LimbsForBits(prime.BitLength()) != L) {
      return MakePrimeField<L + 1>(prime);
    }
    auto fp = Fp<L>::Create(prime);
    if (!fp.ok()) return fp.status();
    return PrimeField(std::in_place_type<Fp<L>>, std::move(fp).value());
  }
}

/// Expands X(L) once per instantiated limb count (explicit template
/// instantiations of the protocol steps).
#define SIES_FOR_EACH_FIELD_LIMBS(X) X(4) X(5) X(6) X(7) X(8)

}  // namespace sies::crypto

#endif  // SIES_CRYPTO_FP_H_
