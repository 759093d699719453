// Differential test of the fixed-width field kernel: UInt<L> and Fp<L>
// against the BigUint oracle at every instantiated limb count L = 4..8,
// over primes of 193 to 512 bits. The 193-, 255- and 257-bit primes
// leave their top limb nearly empty, where a 256-bit PRF output exceeds
// p by many multiples (193) or the prime sits just off a limb boundary.
#include "crypto/fp.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "crypto/biguint.h"
#include "crypto/prime.h"

namespace sies::crypto {
namespace {

struct PrimeCase {
  size_t bits;
  /// Hex of a fixed prime, or nullptr to generate a `bits`-bit prime.
  const char* hex;
};

BigUint PrimeOf(const PrimeCase& c) {
  if (c.hex != nullptr) return BigUint::FromHexString(c.hex).value();
  Xoshiro256 rng(c.bits);
  return GeneratePrime(c.bits, rng);
}

BigUint Pow2(size_t bits) { return BigUint::Shl(BigUint(1), bits); }

// BigUint value of a little-endian limb array.
BigUint FromLimbs(const uint64_t* limbs, size_t n) {
  BigUint out;
  for (size_t i = n; i-- > 0;) {
    out = BigUint::Add(BigUint::Shl(out, 64), BigUint(limbs[i]));
  }
  return out;
}

template <size_t L>
UInt<L> FromBig(const BigUint& x) {
  auto r = UInt<L>::FromBigUint(x);
  EXPECT_TRUE(r.ok()) << x.ToHexString();
  return r.ok() ? r.value() : UInt<L>();
}

class FpDifferentialTest : public ::testing::TestWithParam<PrimeCase> {
 protected:
  void SetUp() override {
    prime_ = PrimeOf(GetParam());
    ASSERT_EQ(prime_.BitLength(), GetParam().bits);
    auto field = MakePrimeField(prime_);
    ASSERT_TRUE(field.ok()) << field.status().message();
    field_.emplace(std::move(field).value());
  }

  /// Runs `check(fp)` with the prime's Fp<L>.
  template <typename Check>
  void WithFp(Check check) {
    std::visit(check, *field_);
  }

  BigUint prime_;
  std::optional<PrimeField> field_;
};

TEST_P(FpDifferentialTest, FieldHasThePrimesWidth) {
  WithFp([&](const auto& fp) {
    using Uint = typename std::decay_t<decltype(fp)>::Uint;
    constexpr size_t L = Uint::kLimbs;
    EXPECT_EQ(L, LimbsForBits(GetParam().bits));
    EXPECT_EQ(fp.prime().ToBigUint(), prime_);
    EXPECT_EQ(fp.bytes(), (GetParam().bits + 7) / 8);
    // The same prime under any other limb count is rejected.
    EXPECT_FALSE(Fp<L == 8 ? 4 : L + 1>::Create(prime_).ok());
  });
}

TEST_P(FpDifferentialTest, EdgeOperands) {
  WithFp([&](const auto& fp) {
    using Uint = typename std::decay_t<decltype(fp)>::Uint;
    constexpr size_t L = Uint::kLimbs;
    const BigUint& p = prime_;

    // UInt<L> representation edges: zero, the widest value, carries.
    Uint zero;
    EXPECT_TRUE(zero.IsZero());
    EXPECT_EQ(zero.BitLength(), 0u);
    EXPECT_TRUE(zero.ToBigUint().IsZero());
    EXPECT_TRUE(Uint::FromBytesBE(nullptr, 0).IsZero());
    const BigUint max = BigUint::Sub(Pow2(64 * L), BigUint(1));
    EXPECT_FALSE(Uint::FromBigUint(Pow2(64 * L)).ok());
    Uint umax = FromBig<L>(max);
    EXPECT_EQ(umax.BitLength(), 64 * L);
    EXPECT_EQ(umax.ToBigUint(), max);
    Uint one = Uint::FromUint64(1), wrapped, back;
    EXPECT_EQ(Uint::Add(umax, one, &wrapped), 1u);  // wraps with carry
    EXPECT_TRUE(wrapped.IsZero());
    EXPECT_EQ(Uint::Sub(wrapped, one, &back), 1u);  // borrows back
    EXPECT_EQ(back, umax);
    Uint word = Uint::FromUint64(0x123456789abcdef0ull);
    EXPECT_EQ(word.Low64(), 0x123456789abcdef0ull);
    EXPECT_EQ(word.BitLength(), 61u);
    uint8_t nine[9] = {0x01, 0, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_EQ(Uint::FromBytesBE(nine, 9).BitLength(), 65u);

    // Field operands: 0, 1, p-1, p-2, 2^(64(L-1)) in every pairing.
    const std::vector<BigUint> edges = {
        BigUint(0), BigUint(1), BigUint::Sub(p, BigUint(1)),
        BigUint::Sub(p, BigUint(2)), Pow2(64 * (L - 1))};
    for (const BigUint& a_big : edges) {
      const Uint a = FromBig<L>(a_big);
      for (const BigUint& b_big : edges) {
        const Uint b = FromBig<L>(b_big);
        EXPECT_EQ(fp.Add(a, b).ToBigUint(),
                  BigUint::ModAdd(a_big, b_big, p).value());
        EXPECT_EQ(fp.Sub(a, b).ToBigUint(),
                  BigUint::ModSub(a_big, b_big, p).value());
        EXPECT_EQ(fp.Mul(a, b).ToBigUint(),
                  BigUint::ModMul(a_big, b_big, p).value());
      }
      if (a_big.IsZero()) {
        EXPECT_FALSE(fp.Inverse(a).ok());
      } else {
        EXPECT_EQ(fp.Inverse(a).value().ToBigUint(),
                  BigUint::ModInverse(a_big, p).value());
      }
    }

    // Reduce of 256-bit PRF outputs at and past p (where p < 2^256), and
    // of the widest L-limb value; ReduceWide of the widest 2L-limb value.
    const BigUint prf_max = BigUint::Sub(Pow2(256), BigUint(1));
    std::vector<BigUint> reduce_inputs = {BigUint(0), prf_max, max};
    if (p.BitLength() <= 256) {
      reduce_inputs.push_back(p);
      reduce_inputs.push_back(BigUint::Add(p, BigUint(1)));
    }
    for (const BigUint& x : reduce_inputs) {
      EXPECT_EQ(fp.Reduce(FromBig<L>(x)).ToBigUint(),
                BigUint::Mod(x, p).value())
          << x.ToHexString();
    }
    uint64_t wide[2 * L];
    for (uint64_t& limb : wide) limb = ~0ull;
    EXPECT_EQ(fp.ReduceWide(wide).ToBigUint(),
              BigUint::Mod(FromLimbs(wide, 2 * L), p).value());
  });
}

TEST_P(FpDifferentialTest, RandomizedAgainstBigUint) {
  WithFp([&](const auto& fp) {
    using Uint = typename std::decay_t<decltype(fp)>::Uint;
    constexpr size_t L = Uint::kLimbs;
    const BigUint& p = prime_;
    Xoshiro256 rng(991 + GetParam().bits);

    for (int i = 0; i < 10000; ++i) {
      BigUint a_big, b_big;
      switch (i % 5) {
        case 0:  // uniform below p
          a_big = BigUint::RandomBelow(p, rng);
          b_big = BigUint::RandomBelow(p, rng);
          break;
        case 1:  // just below p
          a_big = BigUint::Sub(p, BigUint(rng.Next() % 4 + 1));
          b_big = BigUint::Sub(p, BigUint(rng.Next() % 4 + 1));
          break;
        case 2:  // tiny operands
          a_big = BigUint(rng.Next() % 7);
          b_big = BigUint(rng.Next() % 7);
          break;
        case 3:  // mixed widths
          a_big = BigUint::Mod(
                      BigUint::RandomWithBits(1 + rng.Next() % (64 * L), rng),
                      p)
                      .value();
          b_big = BigUint::RandomBelow(p, rng);
          break;
        default:  // skewed small/large
          a_big = BigUint::RandomBelow(BigUint(1u << 20), rng);
          b_big = BigUint::Sub(p, BigUint(1 + rng.Next() % 1000));
          break;
      }
      const Uint a = FromBig<L>(a_big), b = FromBig<L>(b_big);

      EXPECT_EQ(fp.Add(a, b).ToBigUint(),
                BigUint::ModAdd(a_big, b_big, p).value());
      EXPECT_EQ(fp.Sub(a, b).ToBigUint(),
                BigUint::ModSub(a_big, b_big, p).value());
      EXPECT_EQ(fp.Mul(a, b).ToBigUint(),
                BigUint::ModMul(a_big, b_big, p).value());

      // Reduce of a 256-bit PRF output, including values >= p.
      const BigUint r_big = BigUint::RandomBelow(Pow2(256), rng);
      EXPECT_EQ(fp.Reduce(FromBig<L>(r_big)).ToBigUint(),
                BigUint::Mod(r_big, p).value());

      // ReduceWide of an arbitrary 2L-limb value.
      uint64_t wide[2 * L];
      for (uint64_t& limb : wide) limb = rng.Next();
      EXPECT_EQ(fp.ReduceWide(wide).ToBigUint(),
                BigUint::Mod(FromLimbs(wide, 2 * L), p).value());

      // The UInt<L> layer under random values: bytes, shifts, and the
      // full product.
      const BigUint x = BigUint::RandomWithBits(1 + rng.Next() % (64 * L), rng);
      const Uint ux = FromBig<L>(x);
      uint8_t be[8 * L];
      ux.ToBytesBE(be, sizeof(be));
      EXPECT_EQ(Bytes(be, be + sizeof(be)), x.ToBytes(8 * L).value());
      const Bytes minimal = x.ToBytes();
      EXPECT_EQ(Uint::FromBytesBE(minimal.data(), minimal.size()), ux);
      const size_t s = rng.Next() % (64 * L + 40);  // including >= 64L
      EXPECT_EQ(ux.Shl(s).ToBigUint(),
                BigUint::Mod(BigUint::Shl(x, s), Pow2(64 * L)).value())
          << "shl " << s;
      EXPECT_EQ(ux.Shr(s).ToBigUint(), BigUint::Shr(x, s)) << "shr " << s;
      uint64_t prod[2 * L];
      Uint::Mul(ux, a, prod);
      EXPECT_EQ(FromLimbs(prod, 2 * L), x * a_big);

      // Inverse is the cold path; sample it at 1/20 density.
      if (i % 20 == 0 && !a_big.IsZero()) {
        auto inv = fp.Inverse(a);
        ASSERT_TRUE(inv.ok());
        EXPECT_EQ(inv.value().ToBigUint(),
                  BigUint::ModInverse(a_big, p).value());
        EXPECT_EQ(fp.Mul(a, inv.value()).ToBigUint(), BigUint(1));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Widths, FpDifferentialTest,
    ::testing::Values(
        PrimeCase{193, nullptr}, PrimeCase{255, nullptr},
        PrimeCase{256, nullptr},
        // secp256k1 (2^256 - 2^32 - 977) and NIST P-256, whose long zero
        // runs exercise different limb patterns in the Barrett constant.
        PrimeCase{256, "ffffffffffffffffffffffffffffffffffffffff"
                       "fffffffffffffffefffffc2f"},
        PrimeCase{256, "ffffffff00000001000000000000000000000000"
                       "ffffffffffffffffffffffff"},
        PrimeCase{257, nullptr}, PrimeCase{320, nullptr},
        PrimeCase{321, nullptr}, PrimeCase{352, nullptr},
        PrimeCase{384, nullptr}, PrimeCase{448, nullptr},
        PrimeCase{512, nullptr}),
    [](const ::testing::TestParamInfo<PrimeCase>& info) {
      return std::to_string(info.param.bits) + "_" +
             std::to_string(info.index);
    });

TEST(PrimeFieldTest, WidthsOutsideTheFieldAreRejected) {
  Xoshiro256 rng(5);
  EXPECT_FALSE(MakePrimeField(BigUint(0)).ok());
  EXPECT_FALSE(MakePrimeField(BigUint(97)).ok());
  EXPECT_FALSE(MakePrimeField(GeneratePrime(192, rng)).ok());
  // 193 bits but a power of 2^64: its Barrett constant needs L + 2 limbs.
  EXPECT_FALSE(MakePrimeField(Pow2(192)).ok());
  EXPECT_FALSE(MakePrimeField(BigUint::Add(Pow2(512), BigUint(1))).ok());
  EXPECT_TRUE(MakePrimeField(BigUint::Sub(Pow2(512), BigUint(569))).ok());
}

}  // namespace
}  // namespace sies::crypto
