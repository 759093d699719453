#include "sies/message_format.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>

namespace sies::core {
namespace {

using U = crypto::UInt<4>;  // the reference 256-bit prime's width

U FromBig(const crypto::BigUint& x) { return U::FromBigUint(x).value(); }

// 2^bits - 1 as a U.
U Ones(size_t bits) {
  U one = U::FromUint64(1), out;
  U::Sub(one.Shl(bits), one, &out);
  return out;
}

class MessageFormatTest : public ::testing::Test {
 protected:
  MessageFormatTest()
      : params_(MakeParams(16, /*seed=*/1).value()),
        fp_(std::get<crypto::Fp<4>>(*params_.field)) {}
  Params params_;
  const crypto::Fp<4>& fp_;
};

TEST_F(MessageFormatTest, PackUnpackRoundTrip) {
  U share = FromBig(
      crypto::BigUint::FromHexString("0123456789abcdef0123456789abcdef01234567")
          .value());
  auto m = PackMessage(params_, 424242, share).value();
  auto unpacked = UnpackMessage(params_, m).value();
  EXPECT_EQ(unpacked.sum, 424242u);
  EXPECT_EQ(unpacked.share_sum, share);
}

TEST_F(MessageFormatTest, ZeroValueAndShare) {
  auto m = PackMessage(params_, 0, U()).value();
  EXPECT_TRUE(m.IsZero());
  auto unpacked = UnpackMessage(params_, m).value();
  EXPECT_EQ(unpacked.sum, 0u);
  EXPECT_TRUE(unpacked.share_sum.IsZero());
}

TEST_F(MessageFormatTest, ValueFieldBounds) {
  U share = U::FromUint64(1);
  EXPECT_TRUE(PackMessage(params_, 0xffffffffu, share).ok());
  EXPECT_FALSE(PackMessage(params_, 0x100000000ull, share).ok());
}

TEST_F(MessageFormatTest, ShareFieldBounds) {
  EXPECT_TRUE(PackMessage(params_, 1, Ones(160)).ok());
  EXPECT_FALSE(PackMessage(params_, 1, U::FromUint64(1).Shl(160)).ok());
}

TEST_F(MessageFormatTest, SummedSharesCarryIntoPad) {
  // N=16 shares of the maximal 160-bit value overflow into the 4 pad
  // bits but must NOT touch the value field (paper Figure 2/3).
  const U max_share = Ones(160);
  U total, share_total;
  for (int i = 0; i < 16; ++i) {
    U::Add(total, PackMessage(params_, 1000, max_share).value(), &total);
    U::Add(share_total, max_share, &share_total);
  }
  auto unpacked = UnpackMessage(params_, total).value();
  EXPECT_EQ(unpacked.sum, 16000u);
  EXPECT_EQ(unpacked.share_sum, share_total);
}

TEST_F(MessageFormatTest, ValueFieldOverflowDetected) {
  // A summed message whose value field exceeds 4 bytes must be reported.
  U huge = U::FromUint64(0x1ffffffffull).Shl(params_.ValueShiftBits());
  EXPECT_FALSE(UnpackMessage(params_, huge).ok());
}

TEST_F(MessageFormatTest, EncryptDecryptRoundTrip) {
  U kt = DeriveEpochGlobalKey(fp_, Bytes(20, 1), 7);
  U ki = DeriveEpochSourceKey(fp_, Bytes(20, 2), 7);
  auto m = PackMessage(params_, 1234,
                       DeriveEpochShare(fp_, SharePrf::kHmacSha1,
                                        Bytes(20, 2), 7))
               .value();
  auto c = Encrypt(fp_, m, kt, ki).value();
  EXPECT_NE(c, m);
  EXPECT_EQ(Decrypt(fp_, c, fp_.Inverse(kt).value(), ki), m);
}

TEST_F(MessageFormatTest, EncryptRejectsOversizedMessage) {
  EXPECT_FALSE(
      Encrypt(fp_, fp_.prime(), U::FromUint64(3), U::FromUint64(5)).ok());
}

TEST_F(MessageFormatTest, HomomorphicSumOfTwo) {
  U kt = DeriveEpochGlobalKey(fp_, Bytes(20, 1), 3);
  U k1 = DeriveEpochSourceKey(fp_, Bytes(20, 2), 3);
  U k2 = DeriveEpochSourceKey(fp_, Bytes(20, 3), 3);
  auto m1 = PackMessage(params_, 100, U::FromUint64(11)).value();
  auto m2 = PackMessage(params_, 250, U::FromUint64(22)).value();
  auto c1 = Encrypt(fp_, m1, kt, k1).value();
  auto c2 = Encrypt(fp_, m2, kt, k2).value();
  U m = Decrypt(fp_, fp_.Add(c1, c2), fp_.Inverse(kt).value(),
                fp_.Add(k1, k2));
  auto unpacked = UnpackMessage(params_, m).value();
  EXPECT_EQ(unpacked.sum, 350u);
  EXPECT_EQ(unpacked.share_sum, U::FromUint64(33));
}

TEST_F(MessageFormatTest, SerializePsrFixedWidth) {
  const U c = U::FromUint64(42);
  Bytes psr(params_.PsrBytes());
  SerializePsr(fp_, c, psr.data());
  EXPECT_EQ(psr, crypto::BigUint(42).ToBytes(params_.PsrBytes()).value());
  EXPECT_EQ(ParsePsr(fp_, psr.data(), psr.size()).value(), c);
}

TEST_F(MessageFormatTest, ParsePsrRejectsWrongWidth) {
  Bytes short_psr(params_.PsrBytes() - 1, 0);
  EXPECT_FALSE(ParsePsr(fp_, short_psr.data(), short_psr.size()).ok());
  Bytes long_psr(params_.PsrBytes() + 1, 0);
  EXPECT_FALSE(ParsePsr(fp_, long_psr.data(), long_psr.size()).ok());
}

TEST_F(MessageFormatTest, ParsePsrRejectsNonResidue) {
  auto over = params_.prime.ToBytes(params_.PsrBytes()).value();
  EXPECT_FALSE(ParsePsr(fp_, over.data(), over.size()).ok());
}

TEST_F(MessageFormatTest, CiphertextLooksUniform) {
  // Encrypting the same value under different epochs should give
  // ciphertexts with no obvious structure (confidentiality smoke test).
  Bytes key(20, 0x55);
  std::set<std::string> seen;
  for (uint64_t epoch = 0; epoch < 50; ++epoch) {
    U kt = DeriveEpochGlobalKey(fp_, Bytes(20, 1), epoch);
    U ki = DeriveEpochSourceKey(fp_, key, epoch);
    auto m = PackMessage(params_, 42,
                         DeriveEpochShare(fp_, SharePrf::kHmacSha1, key, epoch))
                 .value();
    auto c = Encrypt(fp_, m, kt, ki).value();
    EXPECT_TRUE(seen.insert(c.ToBigUint().ToHexString()).second)
        << "ciphertext repeated across epochs";
  }
}

class WirePayloadTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WirePayloadTest, SerializeParseRoundTrip) {
  uint32_t n = GetParam();
  auto params = MakeParams(n, /*seed=*/5).value();
  ContributorBitmap bitmap(n);
  ASSERT_TRUE(bitmap.Set(n / 2).ok());
  Bytes body(params.PsrBytes(), 0xAB);
  Bytes wire = SerializeWirePayload(params, bitmap, body).value();
  EXPECT_EQ(wire.size(), WirePsrBytes(params));
  EXPECT_EQ(wire.size(), WireBitmapBytes(params) + params.PsrBytes());
  auto parsed = ParseWirePayload(params, wire, params.PsrBytes()).value();
  EXPECT_EQ(parsed.bitmap, bitmap);
  EXPECT_EQ(parsed.body, body);
  // Truncated or padded payloads are rejected.
  Bytes trunc(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(ParseWirePayload(params, trunc, params.PsrBytes()).ok());
  wire.push_back(0);
  EXPECT_FALSE(ParseWirePayload(params, wire, params.PsrBytes()).ok());
  // A bitmap sized for another N is refused on the way out.
  EXPECT_FALSE(
      SerializeWirePayload(params, ContributorBitmap(n + 8), body).ok());
}

INSTANTIATE_TEST_SUITE_P(AwkwardWidths, WirePayloadTest,
                         ::testing::Values(1, 8, 9, 255));

// Exhaustive bijection check on a tiny prime: for fixed K != 0 and any k,
// m -> K*m + k mod p is a bijection, so a ciphertext reveals nothing
// about m without k (Theorem 1's information-theoretic core).
TEST(OneTimePadPropertyTest, EncryptionIsBijectionOverZp) {
  const uint64_t p = 257;
  for (uint64_t big_k : {1ull, 2ull, 100ull, 256ull}) {
    for (uint64_t k : {0ull, 1ull, 77ull, 200ull}) {
      std::set<uint64_t> images;
      for (uint64_t m = 0; m < p; ++m) {
        images.insert((big_k * m + k) % p);
      }
      EXPECT_EQ(images.size(), p) << "K=" << big_k << " k=" << k;
    }
  }
}

// For a FIXED ciphertext c and every candidate key k, there is exactly
// one plaintext: all plaintexts are equally consistent with c.
TEST(OneTimePadPropertyTest, EveryPlaintextEquallyLikelyGivenCiphertext) {
  const uint64_t p = 101;
  const uint64_t big_k = 37;
  const uint64_t c = 55;
  std::set<uint64_t> plaintexts;
  for (uint64_t k = 0; k < p; ++k) {
    // m = (c - k) * K^{-1} mod p
    auto inv = crypto::BigUint::ModInverse(crypto::BigUint(big_k),
                                           crypto::BigUint(p))
                   .value()
                   .Low64();
    uint64_t m = ((c + p - k) % p) * inv % p;
    plaintexts.insert(m);
  }
  EXPECT_EQ(plaintexts.size(), p);
}

}  // namespace
}  // namespace sies::core
