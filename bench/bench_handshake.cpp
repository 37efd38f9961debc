// Handshake lane: full and ticket-resumed (RFC 5077) TLS handshakes over
// the in-memory Transport, one connection at a time. Results land in
// BENCH_handshake.json for CI trending.
//
// Knobs:
//   IOTLS_BENCH_CONNS              connections per lane (default 512)
//   IOTLS_BENCH_MIN_RESUMED_RATIO  if > 0, exit non-zero unless resumed
//                                  handshakes beat full ones by this factor
//                                  (the CI gate; target: 3x)
//
// Usage: bench_handshake [output.json]   (default ./BENCH_handshake.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "crypto/rsa.hpp"
#include "pki/ca.hpp"
#include "tls/client.hpp"
#include "tls/server.hpp"
#include "tls/transport.hpp"
#include "x509/certificate.hpp"

namespace {

using iotls::common::Rng;

constexpr iotls::common::SimDate kNow{2021, 3, 1};
constexpr const char* kHost = "handshake.bench.example";

/// Shared handshake material: one CA, one 1024-bit server identity (the
/// study's upper working key size), ticket-capable client config.
struct BenchContext {
  Rng rng{0xE41E};
  iotls::pki::CertificateAuthority ca{
      iotls::x509::DistinguishedName::cn("Bench Handshake Root"), rng};
  iotls::crypto::RsaKeyPair keys = iotls::crypto::rsa_generate(rng, 1024);
  iotls::pki::RootStore roots;
  iotls::tls::ServerConfig server_cfg;
  iotls::tls::ClientConfig client_cfg;

  BenchContext() {
    roots.add(ca.root());
    server_cfg.chain = {ca.issue_server_cert(kHost, keys.pub)};
    server_cfg.keys = keys;
    server_cfg.seed = 11;
    client_cfg.session_ticket = true;
  }

  [[nodiscard]] iotls::tls::ClientResult connect(
      std::uint64_t seed, const iotls::tls::ResumptionState* resume) const {
    iotls::tls::TlsClient client(client_cfg, &roots, Rng(seed), kNow);
    iotls::tls::Transport transport(
        std::make_shared<iotls::tls::TlsServer>(server_cfg));
    return client.connect(transport, kHost, {}, resume);
  }
};

/// Handshakes/sec for `conns` sequential connections; exits on any failure
/// (or, with `resume`, any connection that fell back to a full handshake).
double handshake_rate(const BenchContext& ctx, std::size_t conns,
                      const iotls::tls::ResumptionState* resume) {
  std::size_t completed = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < conns; ++i) {
    const auto result = ctx.connect(1000 + i, resume);
    if (result.success() && result.resumed == (resume != nullptr)) {
      ++completed;
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (completed != conns) {
    std::fprintf(stderr, "error: %zu/%zu %s handshakes completed\n",
                 completed, conns, resume != nullptr ? "resumed" : "full");
    std::exit(1);
  }
  return static_cast<double>(conns) / elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_handshake.json";
  const auto conns = static_cast<std::size_t>(
      iotls::common::strict_env_long("IOTLS_BENCH_CONNS", 512));
  const long min_resumed_ratio =
      iotls::common::strict_env_long("IOTLS_BENCH_MIN_RESUMED_RATIO", 0);
  const bool profiling = iotls::bench::profile_from_env();
  const iotls::obs::WallTimer total;

  std::vector<iotls::bench::Measurement> results;
  const auto record = [&](const std::string& name, double value,
                          const char* unit) {
    results.push_back({name, value, unit});
    std::printf("%-34s %12.2f %s\n", name.c_str(), value, unit);
  };

  std::printf("==== bench_handshake (conns=%zu) ====\n", conns);

  const BenchContext ctx;
  const double full = handshake_rate(ctx, conns, nullptr);
  record("full_handshakes_per_sec", full, "hs/s");

  const auto seeded = ctx.connect(7, nullptr);
  if (!seeded.success() || !seeded.resumption.has_value()) {
    std::fprintf(stderr, "error: could not seed a resumption ticket\n");
    return 1;
  }
  const double resumed = handshake_rate(ctx, conns, &*seeded.resumption);
  record("resumed_handshakes_per_sec", resumed, "hs/s");
  const double resumed_ratio = resumed / full;
  record("resumed_vs_full", resumed_ratio, "x");

  if (!iotls::bench::write_bench_json(out_path, "handshake", conns,
                                      total.elapsed_ms(), results)) {
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  iotls::bench::print_profile();
  iotls::bench::maybe_write_run_report(
      "bench_handshake",
      {{"IOTLS_BENCH_CONNS", std::to_string(conns)},
       {"IOTLS_BENCH_MIN_RESUMED_RATIO", std::to_string(min_resumed_ratio)},
       {"IOTLS_PROFILE", profiling ? "1" : "0"},
       {"output", out_path}});

  if (min_resumed_ratio > 0 &&
      resumed_ratio < static_cast<double>(min_resumed_ratio)) {
    std::fprintf(stderr,
                 "error: resumed_vs_full = %.2fx is below the required "
                 "%ldx (IOTLS_BENCH_MIN_RESUMED_RATIO)\n",
                 resumed_ratio, min_resumed_ratio);
    return 1;
  }
  return 0;
}
