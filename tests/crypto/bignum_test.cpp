#include "crypto/bignum.hpp"

#include <gtest/gtest.h>

namespace iotls::crypto {
namespace {

TEST(BigUint, ZeroProperties) {
  BigUint z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_FALSE(z.is_odd());
}

TEST(BigUint, FromU64) {
  BigUint v(0x1122334455667788ULL);
  EXPECT_EQ(v.to_hex(), "1122334455667788");
  EXPECT_EQ(v.low_u64(), 0x1122334455667788ULL);
  EXPECT_EQ(v.bit_length(), 61u);
}

TEST(BigUint, HexRoundTrip) {
  const std::string hex = "deadbeefcafebabe0123456789abcdef";
  EXPECT_EQ(BigUint::from_hex(hex).to_hex(), hex);
}

TEST(BigUint, FromBytesLeadingZeros) {
  const common::Bytes b = {0x00, 0x00, 0x01, 0x02};
  EXPECT_EQ(BigUint::from_bytes(b).to_hex(), "102");
}

TEST(BigUint, ToBytesWidth) {
  BigUint v(0x1234);
  const auto b = v.to_bytes(4);
  const common::Bytes expected = {0x00, 0x00, 0x12, 0x34};
  EXPECT_EQ(b, expected);
  EXPECT_THROW(v.to_bytes(1), common::CryptoError);
}

TEST(BigUint, AddCarries) {
  BigUint a = BigUint::from_hex("ffffffffffffffff");
  BigUint sum = a.add(BigUint(1));
  EXPECT_EQ(sum.to_hex(), "10000000000000000");
}

TEST(BigUint, SubBorrows) {
  BigUint a = BigUint::from_hex("10000000000000000");
  EXPECT_EQ(a.sub(BigUint(1)).to_hex(), "ffffffffffffffff");
}

TEST(BigUint, SubUnderflowThrows) {
  EXPECT_THROW(BigUint(1).sub(BigUint(2)), common::CryptoError);
}

TEST(BigUint, MulKnownProduct) {
  BigUint a = BigUint::from_hex("ffffffff");
  BigUint b = BigUint::from_hex("ffffffff");
  EXPECT_EQ(a.mul(b).to_hex(), "fffffffe00000001");
}

TEST(BigUint, MulByZero) {
  BigUint a = BigUint::from_hex("123456");
  EXPECT_TRUE(a.mul(BigUint()).is_zero());
}

TEST(BigUint, DivModKnown) {
  BigUint a = BigUint::from_hex("deadbeef");
  auto [q, r] = a.divmod(BigUint(1000));
  EXPECT_EQ(q.low_u64(), 0xDEADBEEFULL / 1000);
  EXPECT_EQ(r.low_u64(), 0xDEADBEEFULL % 1000);
}

TEST(BigUint, DivModIdentity) {
  common::Rng rng(77);
  for (int i = 0; i < 30; ++i) {
    const BigUint a = BigUint::random_bits(rng, 200);
    const BigUint b = BigUint::random_bits(rng, 90);
    auto [q, r] = a.divmod(b);
    EXPECT_TRUE(r < b);
    EXPECT_EQ(q.mul(b).add(r), a);
  }
}

TEST(BigUint, DivideByZeroThrows) {
  EXPECT_THROW(BigUint(5).divmod(BigUint()), common::CryptoError);
}

TEST(BigUint, Shifts) {
  BigUint a = BigUint::from_hex("1");
  EXPECT_EQ(a.shift_left(100).bit_length(), 101u);
  EXPECT_EQ(a.shift_left(100).shift_right(100), a);
  EXPECT_TRUE(a.shift_right(1).is_zero());
}

TEST(BigUint, ShiftRoundTripRandom) {
  common::Rng rng(5);
  const BigUint v = BigUint::random_bits(rng, 130);
  for (std::size_t s : {1u, 31u, 32u, 33u, 64u, 127u}) {
    EXPECT_EQ(v.shift_left(s).shift_right(s), v) << s;
  }
}

TEST(BigUint, Compare) {
  EXPECT_LT(BigUint(1), BigUint(2));
  EXPECT_GT(BigUint::from_hex("100000000"), BigUint::from_hex("ffffffff"));
  EXPECT_EQ(BigUint(7), BigUint(7));
}

TEST(BigUint, ModexpSmallKnown) {
  // 4^13 mod 497 = 445.
  EXPECT_EQ(BigUint(4).modexp(BigUint(13), BigUint(497)).low_u64(), 445u);
}

TEST(BigUint, ModexpFermat) {
  // a^(p-1) = 1 mod p for prime p not dividing a.
  const BigUint p(1000003);
  EXPECT_EQ(BigUint(12345).modexp(p.sub(BigUint(1)), p), BigUint(1));
}

TEST(BigUint, ModexpZeroExponent) {
  EXPECT_EQ(BigUint(9).modexp(BigUint(), BigUint(7)), BigUint(1));
}

TEST(BigUint, Gcd) {
  EXPECT_EQ(BigUint::gcd(BigUint(48), BigUint(36)), BigUint(12));
  EXPECT_EQ(BigUint::gcd(BigUint(17), BigUint(5)), BigUint(1));
  EXPECT_EQ(BigUint::gcd(BigUint(0), BigUint(9)), BigUint(9));
}

TEST(BigUint, ModInv) {
  const BigUint m(1000003);
  common::Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    const BigUint a(rng.range(2, 999999));
    const BigUint inv = BigUint::modinv(a, m);
    EXPECT_EQ(a.mul(inv).mod(m), BigUint(1));
  }
}

TEST(BigUint, ModInvNotInvertibleThrows) {
  EXPECT_THROW(BigUint::modinv(BigUint(6), BigUint(9)), common::CryptoError);
}

TEST(BigUint, RandomBelowRespectsBound) {
  common::Rng rng(31);
  const BigUint bound = BigUint::from_hex("1000");
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(BigUint::random_below(rng, bound) < bound);
  }
}

TEST(BigUint, RandomBitsExactWidth) {
  common::Rng rng(37);
  for (std::size_t bits : {8u, 33u, 100u, 256u}) {
    EXPECT_EQ(BigUint::random_bits(rng, bits).bit_length(), bits);
  }
}

TEST(BigUint, PrimalityKnownPrimes) {
  common::Rng rng(41);
  EXPECT_TRUE(BigUint(2).is_probable_prime(rng));
  EXPECT_TRUE(BigUint(97).is_probable_prime(rng));
  EXPECT_TRUE(BigUint(1000003).is_probable_prime(rng));
  // 2^61 - 1 is a Mersenne prime.
  EXPECT_TRUE(BigUint((1ULL << 61) - 1).is_probable_prime(rng));
}

TEST(BigUint, PrimalityKnownComposites) {
  common::Rng rng(43);
  EXPECT_FALSE(BigUint(1).is_probable_prime(rng));
  EXPECT_FALSE(BigUint(100).is_probable_prime(rng));
  EXPECT_FALSE(BigUint(1000001).is_probable_prime(rng));  // 101 * 9901
  // Carmichael number 561 must be rejected.
  EXPECT_FALSE(BigUint(561).is_probable_prime(rng));
}

TEST(BigUint, GeneratePrimeHasRequestedBits) {
  common::Rng rng(47);
  const BigUint p = BigUint::generate_prime(rng, 96);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_probable_prime(rng));
}

TEST(BigUint, FromBytesToBytesRoundTripsFixedWidthWithLeadingZeros) {
  // Signature buffers are fixed-width (k = modulus bytes) and may start
  // with zero bytes; from_bytes ∘ to_bytes(k) must reproduce the buffer
  // exactly — rsa_verify's acceptance of zero-leading signatures rides
  // on this.
  common::Rng rng(61);
  for (int zeros = 0; zeros < 4; ++zeros) {
    for (int trial = 0; trial < 25; ++trial) {
      const std::size_t k = 8 + static_cast<std::size_t>(rng.next_u64() % 25);
      common::Bytes buf(k, 0);
      for (std::size_t i = static_cast<std::size_t>(zeros); i < k; ++i) {
        buf[i] = static_cast<std::uint8_t>(rng.next_u64());
      }
      if (static_cast<std::size_t>(zeros) < k && buf[zeros] == 0) {
        buf[zeros] = 1;  // keep the zero-prefix length exact
      }
      const BigUint v = BigUint::from_bytes(buf);
      ASSERT_EQ(v.to_bytes(k), buf) << "k=" << k << " zeros=" << zeros;
    }
  }
  // All-zero buffer: the integer 0 padded back out.
  const common::Bytes zero(12, 0);
  EXPECT_EQ(BigUint::from_bytes(zero).to_bytes(12), zero);
}

TEST(BigUint, MulCommutesAndAssociates) {
  common::Rng rng(53);
  const BigUint a = BigUint::random_bits(rng, 70);
  const BigUint b = BigUint::random_bits(rng, 90);
  const BigUint c = BigUint::random_bits(rng, 50);
  EXPECT_EQ(a.mul(b), b.mul(a));
  EXPECT_EQ(a.mul(b).mul(c), a.mul(b.mul(c)));
}

TEST(BigUint, DistributiveLaw) {
  common::Rng rng(59);
  const BigUint a = BigUint::random_bits(rng, 64);
  const BigUint b = BigUint::random_bits(rng, 64);
  const BigUint c = BigUint::random_bits(rng, 64);
  EXPECT_EQ(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
}

}  // namespace
}  // namespace iotls::crypto
