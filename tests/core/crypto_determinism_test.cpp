// The keypair memo's determinism contract: it must be a pure accelerator —
// reduced-universe study tables byte-identical with the memo on vs off,
// and across thread counts with it on. Mirrors obs_determinism_test, which
// makes the same promise for tracing.
#include <gtest/gtest.h>

#include <string>

#include "core/study.hpp"
#include "crypto/rsa.hpp"

namespace iotls::core {
namespace {

pki::CaUniverse small_universe() {
  pki::CaUniverse::Options opts;
  opts.common_count = 30;
  opts.deprecated_count = 58;
  return pki::CaUniverse(opts);
}

/// Universe + study + render under the CURRENT memo switch. The universe
/// is built inside so key generation itself goes through (or around) the
/// keypair memo — the comparison covers the whole pipeline.
std::string render_tables(std::size_t threads) {
  const pki::CaUniverse universe = small_universe();
  IotlsStudy::Options opts;
  opts.seed = 42;
  opts.threads = threads;
  opts.universe = &universe;
  opts.passive_scale = 0.01;
  opts.passive_first = common::Month{2019, 10};
  opts.passive_last = common::Month{2020, 3};
  IotlsStudy study(opts);
  std::string out;
  out += study.render_table7();
  out += study.render_table9();
  return out;
}

class CryptoDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = crypto::crypto_cache_enabled();
    crypto::crypto_cache_clear();
  }
  void TearDown() override {
    crypto::set_crypto_cache_enabled(was_enabled_);
    crypto::crypto_cache_clear();
  }

  bool was_enabled_ = true;
};

TEST_F(CryptoDeterminismTest, TablesIdenticalWithCachesOnVsOff) {
  crypto::set_crypto_cache_enabled(true);
  const std::string cached = render_tables(1);
  // The memo is warm now; the second run replays its keypairs from it.
  const std::string warm = render_tables(1);

  crypto::set_crypto_cache_enabled(false);
  crypto::crypto_cache_clear();
  const std::string plain = render_tables(1);

  EXPECT_FALSE(plain.empty());
  ASSERT_EQ(cached, plain);
  ASSERT_EQ(warm, plain);
}

TEST_F(CryptoDeterminismTest, TablesIdenticalAcrossThreadCountsWithCaches) {
  crypto::set_crypto_cache_enabled(true);
  const std::string serial = render_tables(1);
  const std::string parallel = render_tables(8);
  EXPECT_FALSE(serial.empty());
  ASSERT_EQ(serial, parallel);
}

}  // namespace
}  // namespace iotls::core
