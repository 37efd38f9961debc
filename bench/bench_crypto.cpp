// Crypto benchmark lane: times the primitives the modexp kernel
// accelerates (crypto/mont64.hpp: modexp per modulus size, key generation,
// RSA-CRT private ops, signature verification, SHA-256 streaming) plus a
// reduced full-study wall clock with the keypair memo off vs on, and
// writes the results as machine-readable JSON for CI trending. The
// `*_montgomery` lane names predate the one-kernel tree and are kept so
// the trajectory stays comparable; they time the same kernel as every
// other lane.
//
// Knobs:
//   IOTLS_BENCH_ITERS        inner-loop repetitions (default 20; CI uses a
//                            smaller value for the smoke run)
//   IOTLS_BENCH_MIN_SPEEDUP  if > 0, exit non-zero unless the CRT 2048-bit
//                            private op beats the seed path (plain
//                            square-and-multiply on d) by at least this
//                            factor — the CI regression gate
//
// Usage: bench_crypto [output.json]   (default ./BENCH_crypto.json)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/study.hpp"
#include "crypto/bignum.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "pki/universe.hpp"

namespace {

using iotls::common::Rng;
using iotls::crypto::BigUint;

/// Median-free, deliberately simple: total wall time over `iters` calls.
/// The quantities we gate on are 5x-scale ratios; run-to-run noise of a
/// few percent does not matter.
template <typename Fn>
double time_ms(std::size_t iters, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn(i);
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / static_cast<double>(iters);
}

/// Reduced-universe study (same shape as the determinism tests): enough
/// devices and months to exercise the keypair memo, small enough to run
/// in CI.
double reduced_study_wall_ms(const iotls::pki::CaUniverse& universe) {
  iotls::core::IotlsStudy::Options opts;
  opts.seed = 42;
  opts.threads = 1;
  opts.universe = &universe;
  opts.passive_scale = 0.01;
  opts.passive_first = iotls::common::Month{2019, 10};
  opts.passive_last = iotls::common::Month{2020, 3};
  iotls::core::IotlsStudy study(opts);
  const auto start = std::chrono::steady_clock::now();
  volatile std::size_t sink = study.render_table7().size();
  sink = sink + study.render_table9().size();
  (void)sink;
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_crypto.json";
  const auto iters = static_cast<std::size_t>(
      iotls::common::strict_env_long("IOTLS_BENCH_ITERS", 20));
  const long min_speedup =
      iotls::common::strict_env_long("IOTLS_BENCH_MIN_SPEEDUP", 0);
  const bool profiling = iotls::bench::profile_from_env();
  const iotls::obs::WallTimer total;

  std::vector<iotls::bench::Measurement> results;
  const auto record = [&](const std::string& name, double value,
                          const char* unit) {
    results.push_back({name, value, unit});
    std::printf("%-34s %12.4f %s\n", name.c_str(), value, unit);
  };

  std::printf("==== bench_crypto (iters=%zu) ====\n", iters);

  Rng rng = Rng::derive(0xBE7C4, "bench-crypto");
  iotls::crypto::set_crypto_cache_enabled(false);  // time real work only

  // --- The kernel per modulus size: one BigUint::modexp (a fresh context
  // per call, as public-key operations run) with a full-width exponent,
  // and, where the oracle is cheap enough, the speedup over it. Own
  // generator, so the lanes below keep their keys. ---
  Rng kernel_rng = Rng::derive(0xBE7C4, "bench-kernel");
  for (const std::size_t bits : {256UL, 1024UL, 2048UL}) {
    BigUint modulus = BigUint::random_bits(kernel_rng, bits);
    if (!modulus.is_odd()) modulus = modulus.add(BigUint(1));
    const BigUint base = BigUint::random_below(kernel_rng, modulus);
    const BigUint exponent = BigUint::random_bits(kernel_rng, bits);
    const std::size_t reps = iters * (bits == 256 ? 20 : bits == 1024 ? 2 : 1);
    const double kernel_ms = time_ms(reps, [&](std::size_t) {
      volatile std::size_t sink = base.modexp(exponent, modulus).bit_length();
      (void)sink;
    });
    const std::string lane = "modexp_" + std::to_string(bits);
    record(lane + "_ns", kernel_ms * 1e6, "ns/op");
    if (bits > 1024) continue;  // 2048: montgomery_speedup_2048 below
    const double plain_ms =
        time_ms(std::max<std::size_t>(reps / 4, 2), [&](std::size_t) {
          volatile std::size_t sink =
              base.modexp_plain(exponent, modulus).bit_length();
          (void)sink;
        });
    record(lane + "_speedup", plain_ms / kernel_ms, "x");
  }

  // --- Key generation: Miller-Rabin on every candidate that survives
  // trial division, one kernel context per candidate. A distinct
  // generator state per key, so each one is a real generation. ---
  record("keygen_512_ms",
         time_ms(std::max<std::size_t>(iters, 4),
                 [&](std::size_t i) {
                   Rng key_rng = Rng::derive(
                       0xBE7C4, "bench-keygen-" + std::to_string(i));
                   volatile std::size_t sink =
                       iotls::crypto::rsa_generate(key_rng, 512)
                           .pub.n.bit_length();
                   (void)sink;
                 }),
         "ms/key");

  // --- 2048-bit private-op kernel: the acceptance-gated comparison. ---
  // Seed path = plain square-and-multiply on the full exponent d (what the
  // repo shipped before the kernel and CRT). New path = rsa_private_op
  // with CRT factors, the kernel inside each half-size modexp.
  const iotls::crypto::RsaKeyPair key2048 =
      iotls::crypto::rsa_generate(rng, 2048);
  const BigUint msg2048 =
      BigUint::random_bits(rng, 2040).mod(key2048.priv.n);

  const double plain_ms = time_ms(std::max<std::size_t>(iters / 4, 2), [&](std::size_t) {
    volatile std::size_t sink =
        msg2048.modexp_plain(key2048.priv.d, key2048.priv.n).bit_length();
    (void)sink;
  });
  record("private_op_2048_seed_path", plain_ms, "ms/op");

  const double mont_ms = time_ms(iters, [&](std::size_t) {
    volatile std::size_t sink =
        msg2048.modexp(key2048.priv.d, key2048.priv.n).bit_length();
    (void)sink;
  });
  record("private_op_2048_montgomery", mont_ms, "ms/op");

  const double crt_ms = time_ms(iters, [&](std::size_t) {
    volatile std::size_t sink =
        iotls::crypto::rsa_private_op(key2048.priv, msg2048).bit_length();
    (void)sink;
  });
  record("private_op_2048_crt", crt_ms, "ms/op");

  const double montgomery_speedup = plain_ms / mont_ms;
  const double crt_speedup = plain_ms / crt_ms;
  record("montgomery_speedup_2048", montgomery_speedup, "x");
  record("crt_speedup_2048", crt_speedup, "x");

  // --- 512-bit sign/verify: the study's working key size. ---
  const iotls::crypto::RsaKeyPair key512 =
      iotls::crypto::rsa_generate(rng, 512);
  const iotls::common::Bytes message = iotls::common::to_bytes(
      "bench-crypto: the quick brown fox signs the lazy dog");
  const iotls::common::Bytes signature =
      iotls::crypto::rsa_sign(key512.priv, message);

  record("sign_512", time_ms(iters * 4, [&](std::size_t) {
           volatile std::size_t sink =
               iotls::crypto::rsa_sign(key512.priv, message).size();
           (void)sink;
         }),
         "ms/op");
  record("verify_512_uncached", time_ms(iters * 4, [&](std::size_t) {
           volatile bool sink =
               iotls::crypto::rsa_verify(key512.pub, message, signature);
           (void)sink;
         }),
         "ms/op");

  // --- SHA-256 streaming throughput. ---
  const iotls::common::Bytes blob(1 << 20, 0xA5);
  const double sha_ms = time_ms(std::max<std::size_t>(iters, 8), [&](std::size_t) {
    volatile std::uint8_t sink = iotls::crypto::Sha256::digest(blob)[0];
    (void)sink;
  });
  record("sha256_1mib", sha_ms, "ms/op");
  record("sha256_throughput", 1000.0 / sha_ms, "MiB/s");

  // --- Reduced full-study wall clock, keypair memo off vs on. ---
  // One shared universe built outside the timed region (memo-off study
  // construction would otherwise dominate with key generation).
  iotls::crypto::set_crypto_cache_enabled(true);
  iotls::crypto::crypto_cache_clear();
  iotls::pki::CaUniverse::Options uopts;
  uopts.common_count = 30;
  uopts.deprecated_count = 58;
  const iotls::pki::CaUniverse universe(uopts);

  iotls::crypto::set_crypto_cache_enabled(false);
  record("study_wall_cache_off", reduced_study_wall_ms(universe), "ms");
  iotls::crypto::set_crypto_cache_enabled(true);
  iotls::crypto::crypto_cache_clear();
  record("study_wall_cache_on", reduced_study_wall_ms(universe), "ms");

  // --- Emit JSON + observability artifacts. ---
  if (!iotls::bench::write_bench_json(out_path, "crypto", iters,
                                      total.elapsed_ms(), results)) {
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  iotls::bench::print_profile();
  iotls::bench::maybe_write_run_report(
      "bench_crypto",
      {{"IOTLS_BENCH_ITERS", std::to_string(iters)},
       {"IOTLS_BENCH_MIN_SPEEDUP", std::to_string(min_speedup)},
       {"IOTLS_PROFILE", profiling ? "1" : "0"},
       {"output", out_path}});

  if (min_speedup > 0 && crt_speedup < static_cast<double>(min_speedup)) {
    std::fprintf(stderr,
                 "error: crt_speedup_2048 = %.2fx is below the required "
                 "%ldx (IOTLS_BENCH_MIN_SPEEDUP)\n",
                 crt_speedup, min_speedup);
    return 1;
  }
  return 0;
}
