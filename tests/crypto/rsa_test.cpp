#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"

namespace iotls::crypto {
namespace {

using common::to_bytes;

class RsaTest : public ::testing::Test {
 protected:
  static const RsaKeyPair& keypair() {
    static const RsaKeyPair kp = [] {
      common::Rng rng(1001);
      return rsa_generate(rng, 512);
    }();
    return kp;
  }
};

TEST_F(RsaTest, SignVerifyRoundTrip) {
  const auto msg = to_bytes("to-be-signed certificate bytes");
  const auto sig = rsa_sign(keypair().priv, msg);
  EXPECT_EQ(sig.size(), keypair().pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify(keypair().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedMessage) {
  const auto msg = to_bytes("original");
  const auto sig = rsa_sign(keypair().priv, msg);
  EXPECT_FALSE(rsa_verify(keypair().pub, to_bytes("originaX"), sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  const auto msg = to_bytes("original");
  auto sig = rsa_sign(keypair().priv, msg);
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(rsa_verify(keypair().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  // This is the exact mechanism behind the spoofed-CA probe: same message,
  // signature from a different key must fail verification.
  common::Rng rng(1002);
  const RsaKeyPair other = rsa_generate(rng, 512);
  const auto msg = to_bytes("tbs-certificate");
  const auto sig = rsa_sign(other.priv, msg);
  EXPECT_FALSE(rsa_verify(keypair().pub, msg, sig));
  EXPECT_TRUE(rsa_verify(other.pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongLength) {
  const auto msg = to_bytes("m");
  auto sig = rsa_sign(keypair().priv, msg);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify(keypair().pub, msg, sig));
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  common::Rng rng(1003);
  const auto secret = to_bytes("48-byte premaster secret simulation here!!!");
  const auto ct = rsa_encrypt(keypair().pub, rng, secret);
  const auto pt = rsa_decrypt(keypair().priv, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, secret);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  common::Rng rng(1004);
  const auto secret = to_bytes("same secret");
  const auto c1 = rsa_encrypt(keypair().pub, rng, secret);
  const auto c2 = rsa_encrypt(keypair().pub, rng, secret);
  EXPECT_NE(c1, c2);
}

TEST_F(RsaTest, DecryptRejectsGarbage) {
  const common::Bytes garbage(keypair().pub.modulus_bytes(), 0xFF);
  EXPECT_FALSE(rsa_decrypt(keypair().priv, garbage).has_value());
}

TEST_F(RsaTest, DecryptRejectsWrongLength) {
  EXPECT_FALSE(rsa_decrypt(keypair().priv, to_bytes("short")).has_value());
}

TEST_F(RsaTest, EncryptTooLongThrows) {
  common::Rng rng(1005);
  const common::Bytes long_msg(keypair().pub.modulus_bytes(), 0x01);
  EXPECT_THROW(rsa_encrypt(keypair().pub, rng, long_msg),
               common::CryptoError);
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  const auto bytes = keypair().pub.serialize();
  const RsaPublicKey parsed = RsaPublicKey::parse(bytes);
  EXPECT_EQ(parsed, keypair().pub);
}

TEST_F(RsaTest, VerifyRejectsNonMinimalEncoding) {
  // A k+1-byte encoding with an extra leading zero names the same integer
  // but is not the canonical signature; it must be rejected on width alone.
  const auto msg = to_bytes("canonical widths only");
  auto sig = rsa_sign(keypair().priv, msg);
  ASSERT_TRUE(rsa_verify(keypair().pub, msg, sig));
  common::Bytes padded;
  padded.push_back(0x00);
  padded.insert(padded.end(), sig.begin(), sig.end());
  EXPECT_FALSE(rsa_verify(keypair().pub, msg, padded));
}

TEST_F(RsaTest, ZeroLeadingSignatureIsAccepted) {
  // rsa_sign pads to the modulus width, so ~1 in 256 signatures begin with
  // a zero byte. Those are canonical and must verify — the historical trap
  // is a from_bytes/to_bytes round trip that strips the leading zero.
  const std::size_t k = keypair().pub.modulus_bytes();
  common::Bytes sig;
  std::uint64_t nonce = 0;
  std::string text;
  do {
    text = "find a zero-leading signature #" + std::to_string(nonce++);
    sig = rsa_sign(keypair().priv, to_bytes(text));
    ASSERT_LT(nonce, 5000u) << "no zero-leading signature found";
  } while (sig[0] != 0x00);
  EXPECT_EQ(sig.size(), k);
  EXPECT_TRUE(rsa_verify(keypair().pub, to_bytes(text), sig));
}

TEST_F(RsaTest, PrivateKeySerializationRoundTripsCrtFields) {
  const RsaPrivateKey& priv = keypair().priv;
  ASSERT_TRUE(priv.has_crt());
  const RsaPrivateKey parsed = RsaPrivateKey::parse(priv.serialize());
  EXPECT_EQ(parsed, priv);
  EXPECT_TRUE(parsed.has_crt());
}

TEST_F(RsaTest, LegacyPrivateKeySerializationStillParses) {
  // Pre-CRT fixtures carried only n || e || d; they must keep parsing and
  // fall back to the non-CRT private op.
  const RsaPrivateKey& priv = keypair().priv;
  common::ByteWriter w;
  w.vec(priv.n.to_bytes(), 2);
  w.vec(priv.e.to_bytes(), 2);
  w.vec(priv.d.to_bytes(), 2);
  const RsaPrivateKey parsed = RsaPrivateKey::parse(w.take());
  EXPECT_FALSE(parsed.has_crt());
  EXPECT_EQ(parsed.n, priv.n);
  EXPECT_EQ(parsed.d, priv.d);
  // Without CRT factors the private op runs modulo n, so parse caches a
  // context for n and none for p or q.
  ASSERT_NE(parsed.mont_n, nullptr);
  EXPECT_EQ(parsed.mont_n->modulus(), priv.n);
  EXPECT_EQ(parsed.mont_p, nullptr);
  EXPECT_EQ(parsed.mont_q, nullptr);
  const auto msg = to_bytes("legacy key, same signature");
  EXPECT_EQ(rsa_sign(parsed, msg), rsa_sign(priv, msg));
  common::Rng rng(1007);
  const auto secret = to_bytes("legacy premaster");
  EXPECT_EQ(rsa_decrypt(parsed, rsa_encrypt(keypair().pub, rng, secret)),
            secret);
}

TEST_F(RsaTest, CachedContextsAreNotPartOfTheKey) {
  // rsa_generate caches kernel contexts for p and q; they must not change
  // the key's value or bytes. The digest pins the serialization of the key
  // seed 1001 generates, so it also proves the key stream itself is
  // unchanged by how modexp runs.
  const RsaPrivateKey& priv = keypair().priv;
  ASSERT_NE(priv.mont_p, nullptr);
  ASSERT_NE(priv.mont_q, nullptr);
  EXPECT_EQ(priv.mont_p->modulus(), priv.p);
  EXPECT_EQ(priv.mont_q->modulus(), priv.q);
  EXPECT_EQ(priv.mont_n, nullptr);

  const common::Bytes bytes = priv.serialize();
  const Sha256Digest digest = Sha256::digest(bytes);
  EXPECT_EQ(common::hex_encode(digest),
            "80955cf2cf165ea9b228b79c0c4b405fc0cf7fe2ab4a2f7dd321bc314f127e43");

  const RsaPrivateKey parsed = RsaPrivateKey::parse(bytes);
  EXPECT_NE(parsed.mont_p, priv.mont_p);  // its own contexts ...
  EXPECT_EQ(parsed, priv);                // ... and still the same key
  EXPECT_EQ(parsed.serialize(), bytes);

  RsaPrivateKey bare = priv;  // no contexts: private ops build fresh ones
  bare.mont_p = nullptr;
  bare.mont_q = nullptr;
  EXPECT_EQ(bare, priv);
  EXPECT_EQ(bare.serialize(), bytes);
  const auto msg = to_bytes("same key, same signature");
  EXPECT_EQ(rsa_sign(bare, msg), rsa_sign(priv, msg));

  RsaPrivateKey stale = priv;  // a context left behind by an edited field
  stale.mont_p = priv.mont_q;
  EXPECT_EQ(rsa_sign(stale, msg), rsa_sign(priv, msg));
}

TEST_F(RsaTest, CrtSignatureEqualsPlainSignature) {
  // Strip the CRT fields: rsa_private_op then runs the single full-width
  // modexp the seed implementation used. Signatures must match exactly.
  const RsaPrivateKey& priv = keypair().priv;
  RsaPrivateKey stripped;
  stripped.n = priv.n;
  stripped.e = priv.e;
  stripped.d = priv.d;
  ASSERT_FALSE(stripped.has_crt());
  for (int i = 0; i < 8; ++i) {
    const auto msg = to_bytes("crt-vs-plain message " + std::to_string(i));
    EXPECT_EQ(rsa_sign(priv, msg), rsa_sign(stripped, msg));
  }
}

TEST_F(RsaTest, CrtDecryptEqualsPlainDecrypt) {
  RsaPrivateKey stripped;
  stripped.n = keypair().priv.n;
  stripped.e = keypair().priv.e;
  stripped.d = keypair().priv.d;
  common::Rng rng(1006);
  const auto secret = to_bytes("premaster");
  const auto ct = rsa_encrypt(keypair().pub, rng, secret);
  const auto a = rsa_decrypt(keypair().priv, ct);
  const auto b = rsa_decrypt(stripped, ct);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, secret);
}

TEST(Rsa, GeneratePopulatesConsistentCrtFields) {
  common::Rng rng(2024);
  const RsaKeyPair kp = rsa_generate(rng, 384);
  const RsaPrivateKey& priv = kp.priv;
  ASSERT_TRUE(priv.has_crt());
  EXPECT_EQ(priv.p.mul(priv.q), priv.n);
  const BigUint one(1);
  EXPECT_EQ(priv.dp, priv.d.mod(priv.p.sub(one)));
  EXPECT_EQ(priv.dq, priv.d.mod(priv.q.sub(one)));
  EXPECT_EQ(priv.qinv.mul(priv.q).mod(priv.p), one);
}

TEST(Rsa, GenerateIsDeterministicPerSeed) {
  common::Rng a(7);
  common::Rng b(7);
  const auto ka = rsa_generate(a, 256);
  const auto kb = rsa_generate(b, 256);
  EXPECT_EQ(ka.pub.n, kb.pub.n);
}

TEST(Rsa, TooSmallModulusThrows) {
  common::Rng rng(7);
  EXPECT_THROW(rsa_generate(rng, 64), common::CryptoError);
}

TEST(Rsa, SmallerKeysStillSignVerify) {
  common::Rng rng(9);
  const auto kp = rsa_generate(rng, 448);
  const auto msg = to_bytes("msg");
  EXPECT_TRUE(rsa_verify(kp.pub, msg, rsa_sign(kp.priv, msg)));
}

}  // namespace
}  // namespace iotls::crypto
