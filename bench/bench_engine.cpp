// Session-engine benchmark lane: thousands of interleaved handshakes on
// one thread versus the synchronous one-at-a-time path, plus the
// determinism gate — a reduced study must render byte-identical tables
// through the engine. Results land in BENCH_engine.json for CI trending.
//
// Both paths run the same crypto: kernel contexts are cached on the keys
// and DH groups (crypto/mont64.hpp), not per engine tick. The network is
// in memory, so there is no I/O for interleaving to overlap, and the
// engine-to-sync ratio measures scheduling overhead alone.
//
// Knobs:
//   IOTLS_BENCH_CONNS               interleaved connections per engine run
//                                   (default 4096)
//   IOTLS_BENCH_SYNC_CONNS          synchronous-baseline connections
//                                   (default 512 — enough for a stable
//                                   per-handshake cost at ~1 ms each)
//   IOTLS_BENCH_MIN_ENGINE_SPEEDUP  if > 0, exit non-zero unless
//                                   engine_speedup_full reaches this factor
//                                   — the CI regression gate. The paper
//                                   target on dedicated hardware is 5x;
//                                   shared CI runners gate lower.
//   IOTLS_BENCH_MIN_RESUMED_RATIO   if > 0, exit non-zero unless resumed
//                                   handshakes beat full ones by this
//                                   factor through the engine (target: 3x)
//
// The table-parity gate always runs: any byte difference between the
// engine-driven and synchronous reduced study is a non-zero exit.
//
// Usage: bench_engine [output.json]   (default ./BENCH_engine.json)
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/task.hpp"
#include "core/study.hpp"
#include "crypto/rsa.hpp"
#include "engine/engine.hpp"
#include "pki/ca.hpp"
#include "pki/universe.hpp"
#include "tls/client.hpp"
#include "tls/server.hpp"
#include "tls/transport.hpp"
#include "x509/certificate.hpp"

namespace {

using iotls::common::Rng;
using iotls::common::Task;
using iotls::engine::Engine;

constexpr iotls::common::SimDate kNow{2021, 3, 1};

/// Shared handshake material: one CA, one 1024-bit server identity (the
/// study's upper working key size), ticket-capable client config.
struct BenchContext {
  Rng rng{0xE41E};
  iotls::pki::CertificateAuthority ca{
      iotls::x509::DistinguishedName::cn("Bench Engine Root"), rng};
  iotls::crypto::RsaKeyPair keys = iotls::crypto::rsa_generate(rng, 1024);
  iotls::pki::RootStore roots;
  iotls::tls::ServerConfig server_cfg;
  iotls::tls::ClientConfig client_cfg;

  BenchContext() {
    roots.add(ca.root());
    server_cfg.chain = {
        ca.issue_server_cert("engine.bench.example", keys.pub)};
    server_cfg.keys = keys;
    server_cfg.seed = 11;
    client_cfg.session_ticket = true;
  }

  [[nodiscard]] std::shared_ptr<iotls::tls::TlsServer> make_server() const {
    return std::make_shared<iotls::tls::TlsServer>(server_cfg);
  }

  [[nodiscard]] iotls::tls::TlsClient make_client(std::uint64_t seed) const {
    return iotls::tls::TlsClient(client_cfg, &roots, Rng(seed), kNow);
  }
};

Task<void> handshake_chain(const BenchContext& ctx, Engine& engine,
                           std::uint64_t seed,
                           const iotls::tls::ResumptionState* resume,
                           std::size_t& successes) {
  auto client = ctx.make_client(seed);
  iotls::engine::Conduit& conduit = engine.open_conduit(ctx.make_server());
  const auto result =
      co_await client.connect_task(conduit, "engine.bench.example", {},
                                   resume);
  if (result.success()) ++successes;
}

/// Handshakes/sec for `conns` connections interleaved on one engine.
double engine_rate(const BenchContext& ctx, std::size_t conns,
                   const iotls::tls::ResumptionState* resume) {
  Engine engine;
  std::size_t successes = 0;
  for (std::size_t i = 0; i < conns; ++i) {
    engine.add_chain(
        handshake_chain(ctx, engine, 1000 + i, resume, successes));
  }
  const auto start = std::chrono::steady_clock::now();
  engine.run();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (successes != conns) {
    std::fprintf(stderr, "error: %zu/%zu engine handshakes succeeded\n",
                 successes, conns);
    std::exit(1);
  }
  return static_cast<double>(conns) / elapsed.count();
}

/// Handshakes/sec for `conns` synchronous one-at-a-time connections.
double sync_rate(const BenchContext& ctx, std::size_t conns,
                 const iotls::tls::ResumptionState* resume) {
  std::size_t successes = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < conns; ++i) {
    auto client = ctx.make_client(1000 + i);
    iotls::tls::Transport transport(ctx.make_server());
    if (client.connect(transport, "engine.bench.example", {}, resume)
            .success()) {
      ++successes;
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (successes != conns) {
    std::fprintf(stderr, "error: %zu/%zu sync handshakes succeeded\n",
                 successes, conns);
    std::exit(1);
  }
  return static_cast<double>(conns) / elapsed.count();
}

/// Reduced-universe study (the bench_crypto shape): Table 7 + Table 9
/// renderings as the parity fingerprint.
std::string reduced_study_tables(const iotls::pki::CaUniverse& universe,
                                 bool engine) {
  iotls::core::IotlsStudy::Options opts;
  opts.seed = 42;
  opts.threads = 1;
  opts.engine = engine;
  opts.universe = &universe;
  opts.passive_scale = 0.01;
  opts.passive_first = iotls::common::Month{2019, 10};
  opts.passive_last = iotls::common::Month{2020, 3};
  iotls::core::IotlsStudy study(opts);
  return study.render_table7() + study.render_table9();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  const auto conns = static_cast<std::size_t>(
      iotls::common::strict_env_long("IOTLS_BENCH_CONNS", 4096));
  const auto sync_conns = static_cast<std::size_t>(
      iotls::common::strict_env_long("IOTLS_BENCH_SYNC_CONNS", 512));
  const long min_speedup =
      iotls::common::strict_env_long("IOTLS_BENCH_MIN_ENGINE_SPEEDUP", 0);
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

  std::printf("==== bench_engine (conns=%zu, sync_conns=%zu) ====\n", conns,
              sync_conns);

  BenchContext ctx;

  // --- Full handshakes: synchronous baseline vs interleaved engine. ---
  const double sync_full = sync_rate(ctx, sync_conns, nullptr);
  record("sync_full_handshakes_per_sec", sync_full, "hs/s");

  // Tick/arena telemetry wants the engine object itself; run once through
  // a scoped engine to read them, using the same chain shape.
  Engine telemetry;
  std::size_t successes = 0;
  for (std::size_t i = 0; i < conns; ++i) {
    telemetry.add_chain(
        handshake_chain(ctx, telemetry, 1000 + i, nullptr, successes));
  }
  const auto engine_start = std::chrono::steady_clock::now();
  telemetry.run();
  const std::chrono::duration<double> engine_elapsed =
      std::chrono::steady_clock::now() - engine_start;
  if (successes != conns) {
    std::fprintf(stderr, "error: %zu/%zu engine handshakes succeeded\n",
                 successes, conns);
    return 1;
  }
  const double engine_full =
      static_cast<double>(conns) / engine_elapsed.count();
  record("engine_full_handshakes_per_sec", engine_full, "hs/s");
  const double engine_speedup = engine_full / sync_full;
  record("engine_speedup_full", engine_speedup, "x");
  record("engine_ticks", static_cast<double>(telemetry.ticks()), "ticks");
  record("engine_arena_peak", static_cast<double>(telemetry.arena_peak()),
         "records");

  // --- Resumed handshakes through the engine (RFC 5077 tickets). ---
  auto seed_client = ctx.make_client(7);
  iotls::tls::Transport seed_transport(ctx.make_server());
  const auto seeded =
      seed_client.connect(seed_transport, "engine.bench.example");
  if (!seeded.success() || !seeded.resumption.has_value()) {
    std::fprintf(stderr, "error: could not seed a resumption ticket\n");
    return 1;
  }
  const double engine_resumed =
      engine_rate(ctx, conns, &*seeded.resumption);
  record("engine_resumed_handshakes_per_sec", engine_resumed, "hs/s");
  const double resumed_ratio = engine_resumed / engine_full;
  record("resumed_vs_full", resumed_ratio, "x");

  // --- Determinism gate: engine-driven study is byte-identical. ---
  iotls::pki::CaUniverse::Options uopts;
  uopts.common_count = 30;
  uopts.deprecated_count = 58;
  const iotls::pki::CaUniverse universe(uopts);
  const std::string sync_tables = reduced_study_tables(universe, false);
  const std::string engine_tables = reduced_study_tables(universe, true);
  const bool parity = sync_tables == engine_tables;
  record("study_table_parity", parity ? 1.0 : 0.0, "bool");

  // --- Emit JSON + observability artifacts. ---
  if (!iotls::bench::write_bench_json(out_path, "engine", conns,
                                      total.elapsed_ms(), results)) {
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  iotls::bench::print_profile();
  iotls::bench::maybe_write_run_report(
      "bench_engine",
      {{"IOTLS_BENCH_CONNS", std::to_string(conns)},
       {"IOTLS_BENCH_SYNC_CONNS", std::to_string(sync_conns)},
       {"IOTLS_BENCH_MIN_ENGINE_SPEEDUP", std::to_string(min_speedup)},
       {"IOTLS_BENCH_MIN_RESUMED_RATIO", std::to_string(min_resumed_ratio)},
       {"IOTLS_PROFILE", profiling ? "1" : "0"},
       {"output", out_path}});

  if (!parity) {
    std::fprintf(stderr,
                 "error: engine-driven study tables differ from the "
                 "synchronous rendering\n");
    return 1;
  }
  if (min_speedup > 0 && engine_speedup < static_cast<double>(min_speedup)) {
    std::fprintf(stderr,
                 "error: engine_speedup_full = %.2fx is below the required "
                 "%ldx (IOTLS_BENCH_MIN_ENGINE_SPEEDUP)\n",
                 engine_speedup, min_speedup);
    return 1;
  }
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
