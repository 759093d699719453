#include "crypto/paillier.h"

#include <gtest/gtest.h>

namespace sies::crypto {
namespace {

class PaillierTest : public ::testing::Test {
 protected:
  // 256-bit modulus keeps the suite fast; the ablation bench uses 1024.
  PaillierTest()
      : rng_(55), kp_(PaillierKeyPair::Generate(256, rng_).value()) {}

  Xoshiro256 rng_;
  PaillierKeyPair kp_;
};

TEST_F(PaillierTest, KeyShape) {
  EXPECT_EQ(kp_.public_key().n().BitLength(), 256u);
  EXPECT_EQ(kp_.public_key().n_squared(),
            BigUint::Mul(kp_.public_key().n(), kp_.public_key().n()));
  EXPECT_EQ(kp_.public_key().CiphertextBytes(), 64u);  // 2|n|
}

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (uint64_t m : {0ull, 1ull, 42ull, 99999999ull}) {
    BigUint c = kp_.public_key().Encrypt(BigUint(m), rng_).value();
    EXPECT_EQ(kp_.Decrypt(c).value(), BigUint(m)) << m;
  }
}

TEST_F(PaillierTest, EncryptionIsRandomized) {
  BigUint c1 = kp_.public_key().Encrypt(BigUint(7), rng_).value();
  BigUint c2 = kp_.public_key().Encrypt(BigUint(7), rng_).value();
  EXPECT_NE(c1, c2) << "semantic security requires fresh randomness";
  EXPECT_EQ(kp_.Decrypt(c1).value(), kp_.Decrypt(c2).value());
}

TEST_F(PaillierTest, AdditiveHomomorphism) {
  BigUint c1 = kp_.public_key().Encrypt(BigUint(1234), rng_).value();
  BigUint c2 = kp_.public_key().Encrypt(BigUint(8766), rng_).value();
  BigUint sum_ct = kp_.public_key().AddCiphertexts(c1, c2).value();
  EXPECT_EQ(kp_.Decrypt(sum_ct).value(), BigUint(10000));
}

TEST_F(PaillierTest, ManyWayAggregation) {
  // The in-network SUM usage: fold 20 ciphertexts, decrypt once.
  BigUint acc = kp_.public_key().Encrypt(BigUint(0), rng_).value();
  uint64_t expected = 0;
  for (uint64_t i = 1; i <= 20; ++i) {
    uint64_t v = 100 * i;
    expected += v;
    BigUint c = kp_.public_key().Encrypt(BigUint(v), rng_).value();
    acc = kp_.public_key().AddCiphertexts(acc, c).value();
  }
  EXPECT_EQ(kp_.Decrypt(acc).value(), BigUint(expected));
}

TEST_F(PaillierTest, ScalarMultiplication) {
  BigUint c = kp_.public_key().Encrypt(BigUint(111), rng_).value();
  BigUint c3 = kp_.public_key().MulPlain(c, BigUint(3)).value();
  EXPECT_EQ(kp_.Decrypt(c3).value(), BigUint(333));
}

TEST_F(PaillierTest, PlaintextBounds) {
  EXPECT_FALSE(
      kp_.public_key().Encrypt(kp_.public_key().n(), rng_).ok());
  EXPECT_FALSE(kp_.Decrypt(kp_.public_key().n_squared()).ok());
}

TEST_F(PaillierTest, LargePlaintextNearModulus) {
  BigUint m = BigUint::Sub(kp_.public_key().n(), BigUint(1));
  BigUint c = kp_.public_key().Encrypt(m, rng_).value();
  EXPECT_EQ(kp_.Decrypt(c).value(), m);
}

TEST_F(PaillierTest, SumWrapsModuloN) {
  // (n-1) + 2 = 1 mod n: callers must size n above the max SUM.
  BigUint m = BigUint::Sub(kp_.public_key().n(), BigUint(1));
  BigUint c1 = kp_.public_key().Encrypt(m, rng_).value();
  BigUint c2 = kp_.public_key().Encrypt(BigUint(2), rng_).value();
  BigUint sum = kp_.public_key().AddCiphertexts(c1, c2).value();
  EXPECT_EQ(kp_.Decrypt(sum).value(), BigUint(1));
}

class PaillierHomomorphismSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PaillierHomomorphismSweep, SumOfManyDecryptsCorrectly) {
  size_t bits = GetParam();
  Xoshiro256 rng(bits);
  auto kp = PaillierKeyPair::Generate(bits, rng).value();
  BigUint acc(1);  // multiplicative identity of the ciphertext group...
  // ...is not a valid Enc(0); start from an actual encryption of 0.
  acc = kp.public_key().Encrypt(BigUint(0), rng).value();
  uint64_t expected = 0;
  for (int i = 0; i < 10; ++i) {
    uint64_t v = 1800 + 320 * i;
    expected += v;
    BigUint c = kp.public_key().Encrypt(BigUint(v), rng).value();
    acc = kp.public_key().AddCiphertexts(acc, c).value();
  }
  EXPECT_EQ(kp.Decrypt(acc).value(), BigUint(expected));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PaillierHomomorphismSweep,
                         ::testing::Values(128, 256, 512));

TEST(PaillierKeyGenTest, RejectsBadSizes) {
  Xoshiro256 rng(1);
  EXPECT_FALSE(PaillierKeyPair::Generate(32, rng).ok());
  EXPECT_FALSE(PaillierKeyPair::Generate(129, rng).ok());
}

TEST(PaillierKeyGenTest, DistinctKeysPerSeed) {
  Xoshiro256 rng1(2), rng2(3);
  auto k1 = PaillierKeyPair::Generate(128, rng1).value();
  auto k2 = PaillierKeyPair::Generate(128, rng2).value();
  EXPECT_NE(k1.public_key().n(), k2.public_key().n());
}

TEST(PaillierKeyGenTest, CiphertextsOfOtherKeysDoNotDecrypt) {
  Xoshiro256 rng(4);
  auto k1 = PaillierKeyPair::Generate(128, rng).value();
  auto k2 = PaillierKeyPair::Generate(128, rng).value();
  BigUint c = k1.public_key().Encrypt(BigUint(777), rng).value();
  auto wrong = k2.Decrypt(BigUint::Mod(c, k2.public_key().n_squared())
                              .value());
  if (wrong.ok()) {
    EXPECT_NE(wrong.value(), BigUint(777));
  }
}

}  // namespace
}  // namespace sies::crypto
