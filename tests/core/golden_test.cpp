// Absolute golden lock: SHA-256 digests of outputs that must not move.
//
// Each case renders one deterministic output — handshake wire logs and
// ClientResult fields, a reduced study's Table 7 + Table 9, a passive
// dataset release and the store shards written from it, a root-store
// probe — and compares its digest against a committed value. Comparing two
// runs of the same code catches scheduling leaks; only an absolute digest
// catches a change that moves both runs together (a reordered Rng draw, a
// different record, a new alert).
//
// A digest change is a behaviour change. Re-bless a digest only in a
// change that means to alter that output, and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "core/study.hpp"
#include "crypto/sha256.hpp"
#include "pki/ca.hpp"
#include "probe/prober.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "testbed/longitudinal.hpp"
#include "testbed/testbed.hpp"
#include "tls/client.hpp"
#include "tls/server.hpp"
#include "tls/transport.hpp"
#include "x509/verify.hpp"

namespace iotls {
namespace {

// Recorded before the session engine was removed, with the build whose
// engine and synchronous paths were last compared against each other.
constexpr const char* kFullHandshakes =
    "3052ea3e4704efc0d72fd12bb18942958d13fbf6020fa5779efd4852f72e45d0";
constexpr const char* kResumedHandshakes =
    "0c60aa8a28d7f8558f20e22b0f53484a5761effd9a220d07a9bcadec91d67e44";
constexpr const char* kStudyTables7And9 =
    "3723e0e04bfbf20eced5e1d59e11f0b5855f57aa17a84458f93ad2fc6c83f2c8";
constexpr const char* kPassiveDatasetTsv =
    "7dc290c621c03fcd698da721834aa7233b5bb15b61a46222625664b8bf2e687c";
// Recorded with the bytewise-table CRC-32 kernel, before the frame
// checksum moved to slicing-by-16: every frame CRC is covered, so the
// digest pins the checksum in absolute terms, not only writer vs reader.
constexpr const char* kReducedStoreShards =
    "8f9c049a99da36c0c8deb135a06683f6efec2b98c8d21f218c911c54fb637599";
constexpr const char* kProbeVerdict =
    "present fatal/unknown_ca fatal/decrypt_error";

std::string sha256_hex(const std::string& text) {
  return common::hex_encode(crypto::Sha256::digest(common::to_bytes(text)));
}

std::string hex_of(const common::Bytes& bytes) {
  return common::hex_encode(bytes);
}

std::string alert_text(const std::optional<tls::Alert>& alert) {
  if (!alert) return "none";
  return tls::alert_level_name(alert->level) + "/" +
         tls::alert_name(alert->description);
}

/// Every ClientResult field, one per line.
std::string result_text(const tls::ClientResult& r) {
  std::string out;
  out += "outcome=" + tls::outcome_name(r.outcome) + "\n";
  out += "hello=" + hex_of(r.hello.serialize()) + "\n";
  out += "server_hello=" +
         (r.server_hello ? hex_of(r.server_hello->serialize()) : "none") +
         "\n";
  out += "version=" +
         (r.negotiated_version ? tls::version_name(*r.negotiated_version)
                               : "none") +
         "\n";
  out += "suite=" +
         (r.negotiated_suite ? std::to_string(*r.negotiated_suite) : "none") +
         "\n";
  for (const auto& cert : r.server_chain) {
    out += "cert=" + hex_of(cert.serialize()) + "\n";
  }
  out += "verify=" + x509::verify_error_name(r.verify_error) + "@" +
         std::to_string(r.verify_failed_depth) + "\n";
  out += "alert_sent=" + alert_text(r.alert_sent) + "\n";
  out += "alert_received=" + alert_text(r.alert_received) + "\n";
  out += "staple=" + std::to_string(r.staple_received) + "\n";
  out += "resumed=" + std::to_string(r.resumed) + "\n";
  if (r.resumption) {
    out += "ticket=" + hex_of(r.resumption->ticket) + "\n";
    out += "master=" + hex_of(r.resumption->master_secret) + "\n";
    out += "ticket_suite=" + std::to_string(r.resumption->cipher_suite) +
           "\n";
  }
  out += "app_data=" + std::to_string(r.app_data_exchanged) + "\n";
  out += "app_response=" + hex_of(r.app_response_plaintext) + "\n";
  return out;
}

/// One CA, one 512-bit server identity, a ticket-capable client. The
/// names are part of the certificates the digests cover.
struct HandshakeFixture {
  common::Rng rng{12};
  pki::CertificateAuthority ca{
      x509::DistinguishedName::cn("Engine Test Root"), rng};
  crypto::RsaKeyPair keys = crypto::rsa_generate(rng, 512);
  pki::RootStore roots;
  tls::ServerConfig server_cfg;
  tls::ClientConfig client_cfg;

  HandshakeFixture() {
    roots.add(ca.root());
    server_cfg.chain = {ca.issue_server_cert("engine.example.com", keys.pub)};
    server_cfg.keys = keys;
    server_cfg.seed = 3;
    client_cfg.session_ticket = true;
  }

  /// One connection: the wire log (direction, type, payload per record)
  /// followed by the result's fields.
  std::string connect(std::uint64_t seed, const tls::ResumptionState* resume,
                      tls::ClientResult* result_out = nullptr) const {
    tls::TlsClient client(client_cfg, &roots, common::Rng(seed),
                          common::SimDate{2021, 3, 1});
    tls::Transport transport(std::make_shared<tls::TlsServer>(server_cfg));
    std::string wire;
    transport.add_tap([&wire](bool c2s, const tls::TlsRecord& record) {
      wire += (c2s ? "C " : "S ") +
              std::to_string(static_cast<int>(record.type)) + " " +
              hex_of(record.payload) + "\n";
    });
    const tls::ClientResult result =
        client.connect(transport, "engine.example.com",
                       common::to_bytes("GET / HTTP/1.1\r\n\r\n"), resume);
    if (result_out != nullptr) *result_out = result;
    return wire + result_text(result);
  }
};

TEST(Golden, FullHandshakes) {
  const HandshakeFixture fx;
  std::string all;
  for (std::uint64_t seed = 500; seed < 506; ++seed) {
    all += fx.connect(seed, nullptr);
  }
  EXPECT_EQ(sha256_hex(all), kFullHandshakes);
}

TEST(Golden, TicketResumedHandshakes) {
  const HandshakeFixture fx;
  tls::ClientResult first;
  (void)fx.connect(900, nullptr, &first);
  ASSERT_TRUE(first.resumption.has_value());
  std::string all;
  for (std::uint64_t seed = 901; seed < 905; ++seed) {
    tls::ClientResult resumed;
    all += fx.connect(seed, &*first.resumption, &resumed);
    EXPECT_TRUE(resumed.resumed);
  }
  EXPECT_EQ(sha256_hex(all), kResumedHandshakes);
}

TEST(Golden, ReducedStudyTables7And9) {
  pki::CaUniverse::Options uopts;
  uopts.common_count = 30;
  uopts.deprecated_count = 58;
  const pki::CaUniverse universe(uopts);
  core::IotlsStudy::Options opts;
  opts.seed = 42;
  opts.threads = 1;
  opts.universe = &universe;
  opts.passive_scale = 0.01;
  opts.passive_first = common::Month{2019, 10};
  opts.passive_last = common::Month{2020, 3};
  core::IotlsStudy study(opts);
  EXPECT_EQ(sha256_hex(study.render_table7() + study.render_table9()),
            kStudyTables7And9);
}

/// A three-device, three-month passive dataset at 1% of paper scale.
testbed::GeneratorOptions reduced_passive_options(std::size_t threads) {
  testbed::GeneratorOptions gen;
  gen.seed = 31337;
  gen.count_scale = 0.01;
  gen.first = common::Month{2019, 1};
  gen.last = common::Month{2019, 3};
  gen.devices = {"Wemo Plug", "Nest Thermostat", "Yi Camera"};
  gen.threads = threads;
  return gen;
}

TEST(Golden, PassiveDatasetTsv) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_EQ(sha256_hex(testbed::dataset_to_tsv(
                  testbed::generate_passive_dataset(
                      reduced_passive_options(threads)))),
              kPassiveDatasetTsv)
        << "threads " << threads;
  }
}

TEST(Golden, ReducedStoreShards) {
  namespace fs = std::filesystem;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    const std::string dir =
        (fs::temp_directory_path() /
         ("iotls_golden_store_t" + std::to_string(threads)))
            .string();
    fs::remove_all(dir);
    // One shard per device and small blocks: several frames per shard.
    store::StoreOptions options;
    options.layout = store::ShardLayout::PerDevice;
    options.block_bytes = 4096;
    options.threads = threads;
    options.seed = 31337;
    (void)store::write_store(
        testbed::generate_passive_dataset(reduced_passive_options(threads)),
        dir, options);
    std::string files;
    for (const std::string& path : store::list_shards(dir)) {
      std::ifstream in(path, std::ios::binary);
      files += fs::path(path).filename().string() + "\n";
      files.append(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    fs::remove_all(dir);
    EXPECT_EQ(sha256_hex(files), kReducedStoreShards) << "threads " << threads;
  }
}

TEST(Golden, RootStoreProbeVerdict) {
  testbed::Testbed::Options options;
  options.devices = {"LG TV"};
  testbed::Testbed bed(options);
  probe::RootStoreProber prober(bed);
  EXPECT_TRUE(prober.device_amenable("LG TV"));
  const probe::ProbeOutcome outcome =
      prober.probe_certificate("LG TV", "WoSign CA Free SSL");
  EXPECT_EQ(probe::verdict_name(outcome.verdict) + " " +
                alert_text(outcome.alert_unknown) + " " +
                alert_text(outcome.alert_spoofed),
            kProbeVerdict);
}

}  // namespace
}  // namespace iotls
