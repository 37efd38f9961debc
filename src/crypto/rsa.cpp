#include "crypto/rsa.hpp"

#include <array>
#include <atomic>
#include <mutex>
#include <unordered_map>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace iotls::crypto {

namespace {

// A context for an odd modulus; even ones (reachable only from parsed
// bytes) stay on BigUint::modexp's schoolbook path.
std::shared_ptr<const Mont64> context_for(const BigUint& m) {
  return m.is_odd() ? std::make_shared<const Mont64>(m) : nullptr;
}

void build_contexts(RsaPrivateKey& key) {
  key.mont_p = key.has_crt() ? context_for(key.p) : nullptr;
  key.mont_q = key.has_crt() ? context_for(key.q) : nullptr;
  key.mont_n = key.has_crt() ? nullptr : context_for(key.n);
}

// c^e mod m on the cached context when it still belongs to m.
BigUint cached_modexp(const BigUint& c, const BigUint& e, const BigUint& m,
                      const std::shared_ptr<const Mont64>& context) {
  if (context != nullptr && context->modulus() == m) return context->pow(c, e);
  return c.modexp(e, m);
}

}  // namespace

common::Bytes RsaPublicKey::serialize() const {
  common::ByteWriter w;
  w.vec(n.to_bytes(), 2);
  w.vec(e.to_bytes(), 2);
  return w.take();
}

RsaPublicKey RsaPublicKey::parse(common::BytesView data) {
  common::ByteReader r(data);
  RsaPublicKey key;
  key.n = BigUint::from_bytes(r.vec(2));
  key.e = BigUint::from_bytes(r.vec(2));
  r.expect_end("RsaPublicKey");
  return key;
}

common::Bytes RsaPrivateKey::serialize() const {
  common::ByteWriter w;
  w.vec(n.to_bytes(), 2);
  w.vec(e.to_bytes(), 2);
  w.vec(d.to_bytes(), 2);
  if (has_crt()) {
    w.vec(p.to_bytes(), 2);
    w.vec(q.to_bytes(), 2);
    w.vec(dp.to_bytes(), 2);
    w.vec(dq.to_bytes(), 2);
    w.vec(qinv.to_bytes(), 2);
  }
  return w.take();
}

RsaPrivateKey RsaPrivateKey::parse(common::BytesView data) {
  common::ByteReader r(data);
  RsaPrivateKey key;
  key.n = BigUint::from_bytes(r.vec(2));
  key.e = BigUint::from_bytes(r.vec(2));
  key.d = BigUint::from_bytes(r.vec(2));
  if (!r.empty()) {  // CRT extension; absent in legacy fixtures
    key.p = BigUint::from_bytes(r.vec(2));
    key.q = BigUint::from_bytes(r.vec(2));
    key.dp = BigUint::from_bytes(r.vec(2));
    key.dq = BigUint::from_bytes(r.vec(2));
    key.qinv = BigUint::from_bytes(r.vec(2));
  }
  r.expect_end("RsaPrivateKey");
  build_contexts(key);
  return key;
}

bool RsaPrivateKey::operator==(const RsaPrivateKey& other) const {
  return n == other.n && e == other.e && d == other.d && p == other.p &&
         q == other.q && dp == other.dp && dq == other.dq &&
         qinv == other.qinv;
}

namespace {

RsaKeyPair rsa_generate_impl(common::Rng& rng, std::size_t bits) {
  const obs::ProfileZone zone("pki/keygen");
  const BigUint e(65537);
  const BigUint one(1);
  while (true) {
    const BigUint p = BigUint::generate_prime(rng, bits / 2);
    const BigUint q = BigUint::generate_prime(rng, bits - bits / 2);
    if (p == q) continue;
    const BigUint n = p.mul(q);
    const BigUint p1 = p.sub(one);
    const BigUint q1 = q.sub(one);
    const BigUint phi = p1.mul(q1);
    if (BigUint::gcd(e, phi) != one) continue;
    const BigUint d = BigUint::modinv(e, phi);
    RsaKeyPair pair;
    RsaPrivateKey& priv = pair.priv;
    priv.n = n;
    priv.e = e;
    priv.d = d;
    priv.p = p;
    priv.q = q;
    priv.dp = d.mod(p1);
    priv.dq = d.mod(q1);
    priv.qinv = BigUint::modinv(q, p);
    build_contexts(priv);
    pair.pub = RsaPublicKey{n, e};
    return pair;
  }
}

// ---- keypair memo ----
//
// Keyed by (generator state, modulus bits): the generation is a pure
// function of those, so a hit can return the memoised pair and fast-forward
// the generator to the memoised post-generation state — downstream draws
// (serial prefixes, later CAs on the same stream) are byte-identical either
// way. Sharded + mutex-guarded: sandboxes generate concurrently.

std::atomic<bool> g_cache_enabled{true};

struct KeypairKey {
  common::Rng::State state;
  std::size_t bits;

  bool operator==(const KeypairKey& other) const = default;
};

struct KeypairKeyHash {
  std::size_t operator()(const KeypairKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t word : k.state) {
      h = (h ^ word) * 0x100000001b3ULL;
    }
    h = (h ^ k.bits) * 0x100000001b3ULL;
    return static_cast<std::size_t>(h);
  }
};

struct KeypairEntry {
  RsaKeyPair pair;
  common::Rng::State post_state;
};

struct KeypairShard {
  std::mutex mutex;
  std::unordered_map<KeypairKey, KeypairEntry, KeypairKeyHash> map;
};

constexpr std::size_t kKeypairShards = 16;
constexpr std::size_t kKeypairMaxPerShard = 1 << 14;

std::array<KeypairShard, kKeypairShards>& keypair_shards() {
  static std::array<KeypairShard, kKeypairShards> shards;
  return shards;
}

KeypairShard& keypair_shard(const KeypairKey& key) {
  return keypair_shards()[KeypairKeyHash{}(key) % kKeypairShards];
}

// No-op while obs::metrics_enabled() is off, like the other
// instrumentation sites.
void count_keypair_lookup(bool hit) {
  if (!obs::metrics_enabled()) return;
  obs::MetricsRegistry::global()
      .counter(hit ? "iotls_crypto_cache_hits_total"
                   : "iotls_crypto_cache_misses_total",
               hit ? "Crypto memoisation hits by cache"
                   : "Crypto memoisation misses by cache",
               "cache", "keypair")
      .inc();
}

}  // namespace

bool crypto_cache_enabled() {
  return g_cache_enabled.load(std::memory_order_relaxed);
}

void set_crypto_cache_enabled(bool enabled) {
  g_cache_enabled.store(enabled, std::memory_order_relaxed);
}

void crypto_cache_clear() {
  for (KeypairShard& shard : keypair_shards()) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
}

RsaKeyPair rsa_generate(common::Rng& rng, std::size_t bits) {
  if (bits < 128) throw common::CryptoError("rsa_generate: modulus too small");
  if (!crypto_cache_enabled()) return rsa_generate_impl(rng, bits);

  const KeypairKey key{rng.state(), bits};
  KeypairShard& shard = keypair_shard(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      rng.set_state(it->second.post_state);
      count_keypair_lookup(true);
      return it->second.pair;
    }
  }
  count_keypair_lookup(false);
  RsaKeyPair pair = rsa_generate_impl(rng, bits);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.size() >= kKeypairMaxPerShard) shard.map.clear();
    shard.map.emplace(key, KeypairEntry{pair, rng.state()});
  }
  return pair;
}

BigUint rsa_private_op(const RsaPrivateKey& key, const BigUint& c) {
  const obs::ProfileZone zone("crypto/rsa_private_op");
  if (!key.has_crt()) return cached_modexp(c, key.d, key.n, key.mont_n);
  // Garner: m1 = c^dp mod p, m2 = c^dq mod q,
  //         m  = m2 + q * (qinv * (m1 - m2) mod p).
  const BigUint m1 = cached_modexp(c, key.dp, key.p, key.mont_p);
  const BigUint m2 = cached_modexp(c, key.dq, key.q, key.mont_q);
  const BigUint m2p = m2.mod(key.p);
  const BigUint diff =
      m1 >= m2p ? m1.sub(m2p) : m1.add(key.p).sub(m2p);
  const BigUint h = key.qinv.mul(diff).mod(key.p);
  return m2.add(h.mul(key.q));
}

namespace {

// EMSA-PKCS1-v1_5-style encoding: 0x00 0x01 FF..FF 0x00 || sha256-label || digest
common::Bytes emsa_encode(common::BytesView message, std::size_t em_len) {
  static constexpr std::uint8_t kDigestLabel[] = {'s', 'h', 'a', '2', '5', '6'};
  const Sha256Digest digest = Sha256::digest(message);
  const std::size_t t_len = sizeof(kDigestLabel) + digest.size();
  if (em_len < t_len + 11) {
    throw common::CryptoError("rsa: modulus too small for digest encoding");
  }
  common::Bytes em(em_len, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(std::begin(kDigestLabel), std::end(kDigestLabel),
            em.end() - static_cast<std::ptrdiff_t>(t_len));
  std::copy(digest.begin(), digest.end(),
            em.end() - static_cast<std::ptrdiff_t>(digest.size()));
  return em;
}

}  // namespace

common::Bytes rsa_sign(const RsaPrivateKey& key, common::BytesView message) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  const common::Bytes em = emsa_encode(message, k);
  const BigUint m = BigUint::from_bytes(em);
  const BigUint s = rsa_private_op(key, m);
  return s.to_bytes(k);
}

bool rsa_verify(const RsaPublicKey& key, common::BytesView message,
                common::BytesView signature) {
  // Signatures are exactly k bytes (rsa_sign zero-pads to the modulus
  // width, so a leading zero byte is legitimate); any other length —
  // including a non-minimal k+1-byte encoding with an extra leading zero —
  // is rejected before touching the bignum layer.
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  if (signature.size() != k) return false;
  const BigUint s = BigUint::from_bytes(signature);
  if (s >= key.n) return false;
  const BigUint m = s.modexp(key.e, key.n);
  common::Bytes em;
  try {
    em = m.to_bytes(k);
  } catch (const common::CryptoError&) {
    return false;
  }
  const common::Bytes expected = emsa_encode(message, k);
  return common::constant_time_equal(em, expected);
}

common::Bytes rsa_encrypt(const RsaPublicKey& key, common::Rng& rng,
                          common::BytesView plaintext) {
  const std::size_t k = key.modulus_bytes();
  if (plaintext.size() + 11 > k) {
    throw common::CryptoError("rsa_encrypt: message too long");
  }
  common::Bytes em(k, 0);
  em[0] = 0x00;
  em[1] = 0x02;
  const std::size_t pad_len = k - 3 - plaintext.size();
  for (std::size_t i = 0; i < pad_len; ++i) {
    std::uint8_t b = 0;
    while (b == 0) b = static_cast<std::uint8_t>(rng.range(1, 255));
    em[2 + i] = b;
  }
  em[2 + pad_len] = 0x00;
  std::copy(plaintext.begin(), plaintext.end(),
            em.begin() + static_cast<std::ptrdiff_t>(3 + pad_len));
  const BigUint m = BigUint::from_bytes(em);
  return m.modexp(key.e, key.n).to_bytes(k);
}

std::optional<common::Bytes> rsa_decrypt(const RsaPrivateKey& key,
                                         common::BytesView ciphertext) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  if (ciphertext.size() != k) return std::nullopt;
  const BigUint c = BigUint::from_bytes(ciphertext);
  if (c >= key.n) return std::nullopt;
  common::Bytes em;
  try {
    em = rsa_private_op(key, c).to_bytes(k);
  } catch (const common::CryptoError&) {
    return std::nullopt;
  }
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) return std::nullopt;
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep == em.size() || sep < 10) return std::nullopt;
  return common::Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1),
                       em.end());
}

}  // namespace iotls::crypto
