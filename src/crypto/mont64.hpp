// The modexp kernel: 64-bit-limb REDC arithmetic for odd moduli.
//
// Every odd-modulus exponentiation in the tree runs here: RSA n, p and q,
// the DH group primes and the Miller-Rabin candidates of key generation.
// The schoolbook `BigUint::modexp_plain` performs a full Algorithm-D
// division after every multiply; REDC works on values scaled by
// R = 2^(64n) and replaces each division with a second multiply-accumulate
// pass over the limbs.
//
//   - 64-bit limbs with an `unsigned __int128` accumulator;
//   - CIOS multiply-reduce, and a squaring path (half the off-diagonal
//     products, then a separated reduction) for the ladder's squares;
//   - fixed 4-bit windows, or plain square-and-multiply for short
//     exponents such as e = 65537; base 2 (the DH generator) takes a
//     square-and-double ladder with no window table at all.
//
// A context is immutable once built, so one context may be shared by any
// number of threads. Construction computes -m^-1 mod 2^64, R mod m and
// R^2 mod m once; pow() keeps its scratch (accumulators, window table) on
// its own stack. kStackLimbs covers every modulus the tree generates;
// a wider one, which only a parsed key can carry, gets one heap scratch
// buffer per call and runs through the same code.
//
// Owners of a long-lived modulus keep its context next to it:
// `RsaPrivateKey` for p and q (n on keys without CRT factors), `DhParams`
// for the group prime, and Miller-Rabin for one candidate across its
// rounds. `BigUint::modexp` builds a fresh context per call for everything
// else (public-key operations).
//
// The kernel computes exactly base^exp mod m, bit-identical to the
// schoolbook oracle, so no table, trace or store byte depends on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/bignum.hpp"

namespace iotls::crypto {

/// Reduction context for one odd modulus. Immutable after construction.
class Mont64 {
 public:
  /// Moduli of up to this many 64-bit limbs (2048 bits) run with stack
  /// scratch; wider ones allocate one scratch buffer per pow() call.
  static constexpr std::size_t kStackLimbs = 32;

  /// Throws CryptoError unless `modulus` is odd (and therefore nonzero).
  explicit Mont64(const BigUint& modulus);

  [[nodiscard]] const BigUint& modulus() const { return m_; }

  /// base^exp mod m (plain-domain in and out).
  [[nodiscard]] BigUint pow(const BigUint& base, const BigUint& exp) const;

 private:
  using Limb = std::uint64_t;

  [[nodiscard]] const Limb* m() const { return k_.data(); }
  [[nodiscard]] const Limb* r2() const { return k_.data() + n_; }
  [[nodiscard]] const Limb* one() const { return k_.data() + 2 * n_; }

  /// out = a (< m) as n zero-padded limbs.
  void load(const BigUint& a, Limb* out) const;
  [[nodiscard]] BigUint store(const Limb* a) const;

  /// out = a*b*R^-1 mod m (CIOS). `t` is n+1 limbs of scratch; `out` may
  /// alias `a` or `b`.
  void mul(const Limb* a, const Limb* b, Limb* out, Limb* t) const;
  /// out = a*a*R^-1 mod m. `t` is 2n limbs of scratch; `out` may alias
  /// `a`.
  void sqr(const Limb* a, Limb* out, Limb* t) const;
  /// out = t*R^-1 mod m for a double-width t < m*R held in 2n limbs;
  /// clobbers t.
  void reduce(Limb* t, Limb* out) const;
  /// x = 2x mod m, in place.
  void dbl(Limb* x) const;
  /// out = (hi:t) mod m for a value below 2m; `out` may alias `t`.
  void subtract_if_ge(const Limb* t, Limb hi, Limb* out) const;

  BigUint m_;
  std::size_t n_ = 0;  // limb count of m
  Limb n0_ = 0;        // -m^-1 mod 2^64
  std::vector<Limb> k_;  // m | R^2 mod m | R mod m, n limbs each
};

}  // namespace iotls::crypto
