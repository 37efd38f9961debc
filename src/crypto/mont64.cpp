#include "crypto/mont64.hpp"

#include <algorithm>
#include <array>

#include "obs/profile.hpp"

namespace iotls::crypto {

namespace {

using u128 = unsigned __int128;

// Fixed window width for long exponents: a 16-entry table.
constexpr std::size_t kWindowBits = 4;
// Below this many exponent bits the table costs more multiplies than it
// saves (e = 65537 needs 16 squares and one multiply), so pow() runs plain
// square-and-multiply instead.
constexpr std::size_t kShortExponentBits = 48;

// pow() scratch for an n-limb modulus: the 2n-limb double-width buffer,
// the accumulator, and window-table entries 1..15 (entry 0 is never read).
constexpr std::size_t scratch_limbs(std::size_t n) {
  return 2 * n + n + (std::size_t{1} << kWindowBits) * n;
}

}  // namespace

Mont64::Mont64(const BigUint& modulus)
    : m_(modulus), n_((modulus.limbs_.size() + 1) / 2) {
  if (!m_.is_odd()) {
    throw common::CryptoError("Mont64: modulus must be odd");
  }
  k_.resize(3 * n_);
  load(m_, k_.data());

  // n0 = -m^-1 mod 2^64 by Newton iteration. x = m is correct mod 2^3 for
  // odd m; six doublings of precision reach >= 64 bits.
  const Limb m0 = k_[0];
  Limb inv = m0;
  for (int i = 0; i < 6; ++i) inv *= 2u - m0 * inv;
  n0_ = ~inv + 1u;  // == -inv mod 2^64

  // R^2 mod m and R mod m with R = 2^(64n): two Algorithm-D divisions,
  // once per context.
  load(BigUint(1).shift_left(128 * n_).mod(m_), k_.data() + n_);
  load(BigUint(1).shift_left(64 * n_).mod(m_), k_.data() + 2 * n_);
}

void Mont64::load(const BigUint& a, Limb* out) const {
  std::fill_n(out, n_, 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    out[i / 2] |= static_cast<Limb>(a.limbs_[i]) << (32 * (i % 2));
  }
}

BigUint Mont64::store(const Limb* a) const {
  BigUint out;
  out.limbs_.resize(2 * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out.limbs_[2 * i] = static_cast<std::uint32_t>(a[i]);
    out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(a[i] >> 32);
  }
  out.trim();
  return out;
}

void Mont64::subtract_if_ge(const Limb* t, Limb hi, Limb* out) const {
  const Limb* mod = m();
  bool ge = hi != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = n_; i-- > 0;) {
      if (t[i] != mod[i]) {
        ge = t[i] > mod[i];
        break;
      }
    }
  }
  if (ge) {
    Limb borrow = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      const Limb ti = t[i];
      const Limb mi = mod[i];
      out[i] = ti - mi - borrow;
      borrow = (ti < mi || (borrow && ti == mi)) ? 1 : 0;
    }
  } else if (out != t) {
    std::copy_n(t, n_, out);
  }
}

void Mont64::mul(const Limb* a, const Limb* b, Limb* out, Limb* t) const {
  // CIOS with the multiply and reduce passes fused: one sweep over t per
  // limb of a, with two independent carry chains. t stays below 2m, so
  // n+1 limbs hold it.
  const std::size_t n = n_;
  const Limb* mod = m();
  std::fill_n(t, n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Limb ai = a[i];
    u128 c1 = static_cast<u128>(t[0]) + static_cast<u128>(ai) * b[0];
    Limb lo = static_cast<Limb>(c1);
    c1 >>= 64;
    const Limb u = lo * n0_;
    u128 c2 = (static_cast<u128>(lo) + static_cast<u128>(u) * mod[0]) >> 64;
    for (std::size_t j = 1; j < n; ++j) {
      c1 += static_cast<u128>(t[j]) + static_cast<u128>(ai) * b[j];
      lo = static_cast<Limb>(c1);
      c1 >>= 64;
      c2 += static_cast<u128>(lo) + static_cast<u128>(u) * mod[j];
      t[j - 1] = static_cast<Limb>(c2);
      c2 >>= 64;
    }
    const u128 top = static_cast<u128>(t[n]) + c1 + c2;
    t[n - 1] = static_cast<Limb>(top);
    t[n] = static_cast<Limb>(top >> 64);
  }
  // t[0..n] < 2m.
  subtract_if_ge(t, t[n], out);
}

void Mont64::sqr(const Limb* a, Limb* out, Limb* t) const {
  // Full double-width square: each off-diagonal product once, doubled,
  // then the diagonal. ~1.5n^2 limb products against mul's 2n^2.
  const std::size_t n = n_;
  std::fill_n(t, 2 * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Limb ai = a[i];
    u128 carry = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const u128 cur =
          static_cast<u128>(t[i + j]) + static_cast<u128>(ai) * a[j] + carry;
      t[i + j] = static_cast<Limb>(cur);
      carry = cur >> 64;
    }
    t[i + n] = static_cast<Limb>(carry);  // row i is the first to reach it
  }
  Limb bit = 0;
  for (std::size_t k = 0; k < 2 * n; ++k) {
    const Limb cur = t[k];
    t[k] = (cur << 1) | bit;
    bit = cur >> 63;
  }
  // a^2 < R^2, so the diagonal pass never carries out of 2n limbs.
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 prod = static_cast<u128>(a[i]) * a[i];
    const u128 lo =
        static_cast<u128>(t[2 * i]) + static_cast<Limb>(prod) + carry;
    t[2 * i] = static_cast<Limb>(lo);
    const u128 hi = static_cast<u128>(t[2 * i + 1]) +
                    static_cast<Limb>(prod >> 64) +
                    static_cast<Limb>(lo >> 64);
    t[2 * i + 1] = static_cast<Limb>(hi);
    carry = static_cast<Limb>(hi >> 64);
  }
  reduce(t, out);
}

void Mont64::reduce(Limb* t, Limb* out) const {
  // Separated REDC: clear one low limb per pass. Each pass's carry out of
  // t[i+n] rides into the next pass as `top`; t + U*m < 2*m*R, so after
  // the last pass (top:t[n..2n-1]) is below 2m.
  const std::size_t n = n_;
  const Limb* mod = m();
  Limb top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb u = t[i] * n0_;
    u128 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur =
          static_cast<u128>(t[i + j]) + static_cast<u128>(u) * mod[j] + carry;
      t[i + j] = static_cast<Limb>(cur);
      carry = cur >> 64;
    }
    const u128 cur = static_cast<u128>(t[i + n]) + carry + top;
    t[i + n] = static_cast<Limb>(cur);
    top = static_cast<Limb>(cur >> 64);
  }
  subtract_if_ge(t + n, top, out);
}

void Mont64::dbl(Limb* x) const {
  // x < m, so 2x < 2m: shift up one bit, then at most one subtraction.
  Limb bit = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const Limb cur = x[i];
    x[i] = (cur << 1) | bit;
    bit = cur >> 63;
  }
  subtract_if_ge(x, bit, x);
}

BigUint Mont64::pow(const BigUint& base, const BigUint& exp) const {
  const obs::ProfileZone zone("crypto/modexp");
  const std::size_t nbits = exp.bit_length();
  if (nbits == 0) return BigUint(1).mod(m_);  // base^0 = 1 mod m

  const std::size_t n = n_;
  std::array<Limb, scratch_limbs(kStackLimbs)> stack{};
  std::vector<Limb> heap;
  Limb* t = stack.data();
  if (n > kStackLimbs) {
    heap.resize(scratch_limbs(n));
    t = heap.data();
  }
  Limb* acc = t + 2 * n;
  Limb* table = acc + n;  // entry w at table + w*n

  if (base.limbs_.size() == 1 && base.limbs_[0] == 2) {
    // 2^exp (the DH generator): square-and-double from 2R mod m, so a set
    // bit costs a shift instead of a multiply and no table is built.
    std::copy_n(one(), n, acc);
    dbl(acc);
    for (std::size_t i = nbits - 1; i-- > 0;) {
      sqr(acc, acc, t);
      if (exp.bit(i)) dbl(acc);
    }
  } else {
    const std::size_t window = nbits < kShortExponentBits ? 1 : kWindowBits;
    // table[w] = base^w * R mod m.
    Limb* base_m = table + n;
    if (base < m_) {
      load(base, base_m);
    } else {
      load(base.mod(m_), base_m);
    }
    mul(base_m, r2(), base_m, t);
    for (std::size_t w = 2; w < (std::size_t{1} << window); ++w) {
      mul(table + (w - 1) * n, base_m, table + w * n, t);
    }
    const auto window_at = [&](std::size_t w) {
      std::size_t value = 0;
      for (std::size_t k = window; k-- > 0;) {
        value = (value << 1) | static_cast<std::size_t>(exp.bit(window * w + k));
      }
      return value;
    };
    // The top window holds exp's top bit, so it is nonzero: start there.
    std::size_t w = (nbits + window - 1) / window - 1;
    std::copy_n(table + window_at(w) * n, n, acc);
    while (w-- > 0) {
      for (std::size_t s = 0; s < window; ++s) sqr(acc, acc, t);
      const std::size_t value = window_at(w);
      if (value != 0) mul(acc, table + value * n, acc, t);
    }
  }

  // Leave the R-scaled domain: acc * R^-1 mod m.
  std::copy_n(acc, n, t);
  std::fill(t + n, t + 2 * n, 0);
  reduce(t, acc);
  return store(acc);
}

}  // namespace iotls::crypto
