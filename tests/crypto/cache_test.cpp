// The keypair memo's contract: it may only change *when* key generation
// happens, never *what* comes out. Every test here compares memoised
// against uncached results, including the Rng-stream transparency that the
// deterministic PKI depends on.
#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "crypto/rsa.hpp"

namespace iotls::crypto {
namespace {

/// Every test leaves the switch the way it found it and the memo empty.
class CryptoCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = crypto_cache_enabled();
    set_crypto_cache_enabled(true);
    crypto_cache_clear();
  }
  void TearDown() override {
    set_crypto_cache_enabled(was_enabled_);
    crypto_cache_clear();
  }

  bool was_enabled_ = true;
};

TEST_F(CryptoCacheTest, KeygenHitRestoresRngStreamExactly) {
  // The property the PKI depends on: after a cache hit, the generator must
  // sit exactly where a real generation would have left it, so the *next*
  // draw (a CA's serial prefix, the next CA on the stream) is identical.
  common::Rng cold(4242);
  const RsaKeyPair first = rsa_generate(cold, 256);
  const std::uint64_t cold_next = cold.next_u64();

  common::Rng warm(4242);
  const RsaKeyPair second = rsa_generate(warm, 256);  // cache hit
  const std::uint64_t warm_next = warm.next_u64();

  EXPECT_EQ(first.priv, second.priv);
  EXPECT_EQ(cold_next, warm_next);
}

TEST_F(CryptoCacheTest, KeygenMatchesUncachedGeneration) {
  common::Rng cached_rng(555);
  const RsaKeyPair cached = rsa_generate(cached_rng, 256);

  set_crypto_cache_enabled(false);
  common::Rng plain_rng(555);
  const RsaKeyPair plain = rsa_generate(plain_rng, 256);

  EXPECT_EQ(cached.priv, plain.priv);
  EXPECT_EQ(cached.pub, plain.pub);
  EXPECT_EQ(cached_rng.next_u64(), plain_rng.next_u64());
}

TEST_F(CryptoCacheTest, ClearForcesRederivationWithSameResult) {
  common::Rng first(707);
  const RsaKeyPair memoised = rsa_generate(first, 512);
  crypto_cache_clear();
  common::Rng second(707);
  const RsaKeyPair regenerated = rsa_generate(second, 512);  // a miss again
  EXPECT_EQ(regenerated.priv, memoised.priv);
  EXPECT_EQ(regenerated.pub, memoised.pub);
  // A fresh generation builds fresh kernel contexts; a hit would share them.
  EXPECT_NE(regenerated.priv.mont_p, memoised.priv.mont_p);
  EXPECT_EQ(second.state(), first.state());
}

TEST_F(CryptoCacheTest, KeypairHitRestoresPostGenerationState) {
  // A hit must leave the generator exactly where a real generation does,
  // and hand back the same key with the cached pair's kernel contexts.
  // The pinned draw is the first one after generating from seed 4242.
  common::Rng cold(4242);
  const RsaKeyPair generated = rsa_generate(cold, 512);  // miss
  common::Rng warm(4242);
  const RsaKeyPair hit = rsa_generate(warm, 512);
  EXPECT_EQ(hit.priv, generated.priv);
  EXPECT_EQ(hit.priv.mont_p, generated.priv.mont_p);
  EXPECT_EQ(warm.state(), cold.state());

  set_crypto_cache_enabled(false);
  common::Rng uncached(4242);
  EXPECT_EQ(rsa_generate(uncached, 512).priv, generated.priv);
  EXPECT_EQ(uncached.state(), cold.state());
  EXPECT_EQ(cold.next_u64(), 5582020276692227141ULL);
}

TEST_F(CryptoCacheTest, SwitchToggleTakesEffect) {
  EXPECT_TRUE(crypto_cache_enabled());
  set_crypto_cache_enabled(false);
  EXPECT_FALSE(crypto_cache_enabled());
  set_crypto_cache_enabled(true);
  EXPECT_TRUE(crypto_cache_enabled());
}

TEST_F(CryptoCacheTest, ConcurrentHammeringIsSafeAndConsistent) {
  // Eight threads re-generating colliding keys and clearing the memo:
  // exercises every keypair shard mutex (run under TSan in CI). Each
  // thread's pairs must match the uncached reference for its seed.
  set_crypto_cache_enabled(false);
  std::array<RsaKeyPair, 4> reference;
  for (std::size_t s = 0; s < reference.size(); ++s) {
    common::Rng rng(9000 + s);
    reference[s] = rsa_generate(rng, 256);
  }
  set_crypto_cache_enabled(true);

  std::vector<std::thread> threads;
  std::array<bool, 8> ok{};
  for (std::size_t t = 0; t < ok.size(); ++t) {
    threads.emplace_back([&, t] {
      bool all = true;
      for (int i = 0; i < 50; ++i) {
        common::Rng worker(9000 + t % 4);  // collide across threads
        const RsaKeyPair pair = rsa_generate(worker, 256);
        all = all && pair.priv == reference[t % 4].priv;
        if (i % 16 == 0) crypto_cache_clear();
      }
      ok[t] = all;
    });
  }
  for (auto& th : threads) th.join();
  for (const bool t_ok : ok) EXPECT_TRUE(t_ok);
}

}  // namespace
}  // namespace iotls::crypto
