// Internet-scale scan campaign over the synthetic fleet.
//
// The scan-campaign analogue of the paper's active experiments: instead of
// 40 lab devices, a sampled cross-section of the whole fleet is actively
// probed at one scan month — TLS support and negotiated posture (a plain
// handshake with the device's own endpoint), interception acceptance (the
// Table 2 NoValidation forgery), and deprecated-CA trust (the §4.2
// alert-differencing probe, fleet-wide). Like synthesis, probing runs once
// per distinct behaviour key (model x firmware epoch x region x drift) and
// fans out over the worker pool; per-instance work is a table lookup.
// Results aggregate into per-vendor / per-region / per-firmware-age
// posture tables, and optionally a scan-record store that iotls-query can
// slice like any other capture store.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "net/capture.hpp"
#include "pki/universe.hpp"
#include "store/writer.hpp"
#include "tls/version.hpp"

namespace iotls::fleet {

struct CampaignOptions {
  FleetOptions fleet;
  /// Defaults to CaUniverse::standard().
  const pki::CaUniverse* universe = nullptr;
  /// Worker threads (0 = hardware concurrency). Tables and the scan store
  /// are byte-identical for every value.
  std::size_t threads = 0;
  /// The month the scan runs in (instances dead by then are skipped).
  common::Month scan_month = common::kStudyEnd;
  /// Sampling plan: per-region strata fractions. Each alive instance is
  /// selected by an instance-keyed Bernoulli draw, so the sample — like
  /// everything else — is order- and thread-independent.
  std::array<double, kRegionCount> sample_fraction = {0.02, 0.02, 0.02,
                                                      0.02, 0.02};
  /// Instances per tally range (the fold granularity).
  std::uint64_t range_instances = 65536;
  /// Write sampled scan records here as a capture store (empty = don't).
  std::string scan_store_dir;
  std::size_t store_groups_per_shard = 4096;
};

/// Probe-bank key: instances sharing one are behaviorally identical under
/// active probing, so the campaign runs real handshakes once per key. The
/// region is part of the key (unlike passive synthesis) because regional
/// root-store variants change what the device trusts.
struct ProbeKey {
  std::uint32_t model = 0;
  int epoch = 0;
  Region region = Region::NorthAmerica;
  int drift_bucket = 0;

  auto operator<=>(const ProbeKey&) const = default;
};

/// What one behaviour key's active probes observed.
struct ProbeResult {
  bool tls_support = false;        ///< plain handshake completed
  bool validation_failed = false;  ///< plain handshake failed validation
  bool accepts_interception = false;  ///< NoValidation forgery compromised
  bool trusts_deprecated = false;  ///< deprecated CA present (alert diff)
  std::optional<tls::ProtocolVersion> established_version;
  std::optional<std::uint16_t> established_suite;
  /// Capture records of the plain scan connection (fallback retry
  /// included) — the rows the scan store is stamped from.
  std::vector<net::HandshakeRecord> scan_records;
  /// Real handshakes this key's probes put on the wire.
  std::uint64_t handshakes = 0;
};

/// Commutative posture tally for one stratum (merge = pointwise sum).
struct PostureCounts {
  std::uint64_t scanned = 0;
  std::uint64_t tls_support = 0;
  std::uint64_t tls13 = 0;
  std::uint64_t legacy_version = 0;  ///< established ≤ TLS 1.1
  std::uint64_t pfs = 0;
  std::uint64_t validation_failed = 0;
  std::uint64_t accepts_interception = 0;
  std::uint64_t trusts_deprecated = 0;

  void add(const ProbeResult& probe);
  void merge(const PostureCounts& other);
};

/// The campaign's figure analogues: posture by vendor, region and
/// firmware-age stratum.
struct CampaignTables {
  std::map<std::string, PostureCounts> by_vendor;
  std::map<std::string, PostureCounts> by_region;
  std::map<std::string, PostureCounts> by_age;
  std::uint64_t instances = 0;  ///< fleet size
  std::uint64_t alive = 0;      ///< alive at the scan month
  std::uint64_t scanned = 0;    ///< sampled into the scan

  void merge(const CampaignTables& other);

  /// Rendered tables (deterministic; the campaign determinism suite
  /// compares these byte-for-byte across thread counts).
  [[nodiscard]] std::string render() const;
};

struct CampaignReport {
  CampaignTables tables;
  std::uint64_t probe_keys = 0;        ///< distinct behaviour keys probed
  std::uint64_t probe_handshakes = 0;  ///< real handshakes across probes
  /// Scan-record store totals (empty when no store dir was given).
  store::StoreWriteReport store;
};

/// "scan-0007.iotshard"
std::string scan_shard_name(std::uint32_t index);

/// Run the campaign. Deterministic in (options); byte-identical tables and
/// scan store at any thread count.
CampaignReport run_campaign(const CampaignOptions& options);

}  // namespace iotls::fleet
