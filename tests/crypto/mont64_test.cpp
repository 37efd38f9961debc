// Differential coverage for the modexp kernel (crypto/mont64.hpp): every
// result must match the schoolbook `modexp_plain` oracle bit-for-bit,
// across modulus sizes, exponent shapes and the kernel's edge cases, and
// one context shared by pool threads must give the serial answers.
#include "crypto/mont64.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/pool.hpp"
#include "common/rng.hpp"

namespace iotls::crypto {
namespace {

using common::Rng;

BigUint random_odd(Rng& rng, std::size_t bits) {
  BigUint m = BigUint::random_bits(rng, bits);
  if (!m.is_odd()) m = m.add(BigUint(1));
  return m;
}

TEST(Mont64Test, MatchesSchoolbookOracleAcrossSizes) {
  // 64 to 2048 bits: one to 32 limbs, the whole stack-scratch range.
  Rng rng(0x6464);
  for (const std::size_t bits :
       {64UL, 96UL, 256UL, 512UL, 521UL, 1024UL, 1536UL, 2048UL}) {
    const BigUint m = random_odd(rng, bits);
    const Mont64 mont(m);
    const int cases = bits > 1024 ? 2 : 4;
    for (int i = 0; i < cases; ++i) {
      const BigUint base = BigUint::random_bits(rng, bits + 17);
      const BigUint exp = BigUint::random_bits(rng, bits / 2 + 1);
      EXPECT_EQ(mont.pow(base, exp), base.modexp_plain(exp, m))
          << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(Mont64Test, ManyRandomCasesMatchOracle) {
  // Random exponent lengths cover both the short-exponent
  // square-and-multiply path and the windowed path.
  Rng rng(0x305);
  std::size_t cases = 0;
  for (const std::size_t bits : {16UL, 48UL, 96UL, 192UL}) {
    for (int i = 0; i < 150; ++i) {
      const BigUint m = random_odd(rng, bits);
      if (m <= BigUint(1)) continue;
      const BigUint base = BigUint::random_bits(rng, bits + 8);
      const BigUint exp = BigUint::random_bits(
          rng, 1 + (static_cast<std::size_t>(rng.next_u64()) % bits));
      ASSERT_EQ(Mont64(m).pow(base, exp), base.modexp_plain(exp, m))
          << "bits=" << bits << " case=" << i;
      ++cases;
    }
  }
  EXPECT_GE(cases, 500u);
}

TEST(Mont64Test, SquareAndIdentityMatchOracle) {
  // a^1 is a round trip into and out of the kernel's domain; a^2 is one
  // squaring: the two building blocks of every ladder step.
  Rng rng(0x304);
  for (const std::size_t bits : {17UL, 33UL, 64UL, 96UL, 160UL, 256UL}) {
    for (int i = 0; i < 100; ++i) {
      const BigUint m = random_odd(rng, bits);
      if (m <= BigUint(1)) continue;
      const Mont64 mont(m);
      const BigUint a = BigUint::random_bits(rng, bits + 16).mod(m);
      ASSERT_EQ(mont.pow(a, BigUint(1)), a) << "bits=" << bits;
      ASSERT_EQ(mont.pow(a, BigUint(2)), a.mul(a).mod(m)) << "bits=" << bits;
    }
  }
}

TEST(Mont64Test, RsaShapedInputsMatchOracle) {
  Rng rng(0xC1A0);
  const BigUint p = BigUint::generate_prime(rng, 256);
  const BigUint q = BigUint::generate_prime(rng, 256);
  const BigUint n = p.mul(q);
  const Mont64 mont(n);
  for (int i = 0; i < 4; ++i) {
    const BigUint base = BigUint::random_below(rng, n);
    const BigUint exp = BigUint::random_bits(rng, 512);
    EXPECT_EQ(mont.pow(base, exp), base.modexp_plain(exp, n)) << "i=" << i;
  }
  // The public exponent takes the short-exponent path.
  const BigUint msg = BigUint::random_below(rng, n);
  EXPECT_EQ(mont.pow(msg, BigUint(65537)),
            msg.modexp_plain(BigUint(65537), n));
}

TEST(Mont64Test, EdgeExponentsAndBases) {
  Rng rng(0xED6E);
  const BigUint m = random_odd(rng, 192);
  const Mont64 mont(m);
  const BigUint base = BigUint::random_bits(rng, 200);  // base >= m
  EXPECT_EQ(mont.pow(base, BigUint()), BigUint(1));        // base^0 = 1
  EXPECT_EQ(mont.pow(base, BigUint(1)), base.mod(m));      // base^1
  EXPECT_EQ(mont.pow(BigUint(), BigUint(5)), BigUint());   // 0^5 = 0
  EXPECT_EQ(mont.pow(m, BigUint(3)), BigUint());           // (m mod m)^3
  EXPECT_EQ(mont.pow(m.add(BigUint(7)), BigUint(2)),
            BigUint(49).mod(m));  // base >= m is reduced first
  const BigUint long_exp = BigUint::random_bits(rng, 300);
  EXPECT_EQ(mont.pow(base, long_exp), base.modexp_plain(long_exp, m));

  const BigUint word(0xFFFFFFFB);  // one limb
  EXPECT_EQ(Mont64(word).pow(BigUint(12345), BigUint()), BigUint(1));
  EXPECT_EQ(Mont64(word).pow(BigUint(0), BigUint(977)), BigUint(0));
}

TEST(Mont64Test, TinyModuli) {
  // m = 1: everything is 0 mod 1, including x^0 and 2^x.
  const Mont64 unit(BigUint(1));
  EXPECT_EQ(unit.pow(BigUint(5), BigUint(0)), BigUint(0));
  EXPECT_EQ(unit.pow(BigUint(5), BigUint(3)), BigUint(0));
  EXPECT_EQ(unit.pow(BigUint(2), BigUint(9)), BigUint(0));
  // m = 3 against the oracle, for every small base and exponent.
  const Mont64 three(BigUint(3));
  for (std::uint64_t b = 0; b < 8; ++b) {
    for (std::uint64_t e = 0; e < 70; ++e) {
      ASSERT_EQ(three.pow(BigUint(b), BigUint(e)),
                BigUint(b).modexp_plain(BigUint(e), BigUint(3)))
          << "b=" << b << " e=" << e;
    }
  }
}

TEST(Mont64Test, AllOnesLimbsCarryHeavy) {
  // m = 2^k - 1 with every limb all-ones, base = m - 1 and an all-ones
  // exponent: every product and reduction carries through every limb.
  for (const std::size_t bits : {64UL, 128UL, 256UL, 1024UL}) {
    const BigUint m = BigUint(1).shift_left(bits).sub(BigUint(1));
    const Mont64 mont(m);
    const BigUint all_ones_exp = BigUint(1).shift_left(bits / 2).sub(BigUint(1));
    for (const BigUint& base :
         {m.sub(BigUint(1)), m.sub(BigUint(2)), m.shift_right(1)}) {
      EXPECT_EQ(mont.pow(base, all_ones_exp),
                base.modexp_plain(all_ones_exp, m))
          << "bits=" << bits;
      EXPECT_EQ(mont.pow(base, BigUint(0xFFFF)),
                base.modexp_plain(BigUint(0xFFFF), m))
          << "bits=" << bits;
    }
  }
}

TEST(Mont64Test, PowTwoFastPathMatchesOracle) {
  // The DH generator is the fixed base 2 (crypto/dh.cpp); pow dispatches
  // it to the square-and-double ladder, which must stay bit-identical.
  Rng rng(0x2222);
  for (const std::size_t bits : {64UL, 255UL, 256UL, 512UL}) {
    const BigUint m = random_odd(rng, bits);
    const Mont64 mont(m);
    for (int i = 0; i < 3; ++i) {
      const BigUint exp = BigUint::random_bits(rng, bits - 3);
      EXPECT_EQ(mont.pow(BigUint(2), exp), BigUint(2).modexp_plain(exp, m))
          << "bits=" << bits << " i=" << i;
    }
    EXPECT_EQ(mont.pow(BigUint(2), BigUint()), BigUint(1).mod(m));
    EXPECT_EQ(mont.pow(BigUint(2), BigUint(1)), BigUint(2).mod(m));
  }
  // Tiny odd moduli exercise the reduction edge of the doubling step.
  for (const std::uint64_t small : {3u, 5u, 7u, 9u}) {
    const Mont64 mont((BigUint(small)));
    for (std::uint64_t e = 0; e < 12; ++e) {
      EXPECT_EQ(mont.pow(BigUint(2), BigUint(e)),
                BigUint(2).modexp_plain(BigUint(e), BigUint(small)))
          << "m=" << small << " e=" << e;
    }
  }
}

TEST(Mont64Test, WideModulusUsesSameKernel) {
  // Past kStackLimbs the scratch moves to the heap; values must not change.
  Rng rng(0x3434);
  const BigUint m = random_odd(rng, 64 * (Mont64::kStackLimbs + 2));
  const Mont64 mont(m);
  const BigUint base = BigUint::random_below(rng, m);
  for (const BigUint& exp : {BigUint(65537), BigUint::random_bits(rng, 96)}) {
    EXPECT_EQ(mont.pow(base, exp), base.modexp_plain(exp, m));
  }
  EXPECT_EQ(mont.pow(BigUint(2), BigUint(1000)),
            BigUint(2).modexp_plain(BigUint(1000), m));
}

TEST(Mont64Test, RejectsEvenModulus) {
  EXPECT_THROW(Mont64 m(BigUint(42)), common::CryptoError);
  EXPECT_THROW(Mont64 z((BigUint())), common::CryptoError);
}

TEST(Mont64Test, ContextIsReusableAcrossCalls) {
  // No state may carry between exponentiations on one context.
  Rng rng(0x5C8A);
  const BigUint m = random_odd(rng, 320);
  const Mont64 mont(m);
  const BigUint base = BigUint::random_bits(rng, 300);
  const BigUint exp = BigUint::random_bits(rng, 160);
  const BigUint first = mont.pow(base, exp);
  (void)mont.pow(BigUint::random_bits(rng, 500), BigUint::random_bits(rng, 64));
  (void)mont.pow(BigUint(2), BigUint::random_bits(rng, 64));
  EXPECT_EQ(mont.pow(base, exp), first);
}

TEST(Mont64Test, SharedContextAcrossPoolThreads) {
  // One immutable context serves every pool worker at once (the TSan job
  // runs this suite): results must equal the serial ones.
  Rng rng(0x7EAD);
  const BigUint m = random_odd(rng, 512);
  const Mont64 mont(m);
  std::vector<std::pair<BigUint, BigUint>> inputs;
  for (int i = 0; i < 64; ++i) {
    const BigUint base = i % 4 == 0 ? BigUint(2) : BigUint::random_below(rng, m);
    inputs.emplace_back(base, BigUint::random_bits(rng, 16 + 31 * (i % 16)));
  }
  std::vector<BigUint> serial;
  for (const auto& [base, exp] : inputs) serial.push_back(mont.pow(base, exp));
  const auto parallel = common::parallel_map(
      4, inputs, [&](const std::pair<BigUint, BigUint>& in) {
        return mont.pow(in.first, in.second);
      });
  EXPECT_EQ(parallel, serial);
}

TEST(Mont64Test, ModexpRunsKernelForOddAndOracleForEven) {
  Rng rng(0x306);
  for (int i = 0; i < 200; ++i) {
    const BigUint base = BigUint::random_bits(rng, 80);
    const BigUint exp = BigUint::random_bits(rng, 40);
    const BigUint odd = random_odd(rng, 72);
    ASSERT_EQ(base.modexp(exp, odd), base.modexp_plain(exp, odd));
    // Even moduli take the schoolbook path; results must still agree.
    BigUint even = BigUint::random_bits(rng, 72);
    if (even.is_odd()) even = even.add(BigUint(1));
    if (even.is_zero()) even = BigUint(2);
    ASSERT_EQ(base.modexp(exp, even), base.modexp_plain(exp, even));
  }
  EXPECT_THROW(BigUint(3).modexp(BigUint(4), BigUint(0)), common::CryptoError);
}

}  // namespace
}  // namespace iotls::crypto
