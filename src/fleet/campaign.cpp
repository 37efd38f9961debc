#include "fleet/campaign.hpp"

#include <algorithm>
#include <cstdio>  // snprintf for shard names / percent cells (not file I/O)
#include <numeric>

#include "common/pool.hpp"
#include "common/table.hpp"
#include "mitm/interceptor.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "testbed/testbed.hpp"
#include "tls/ciphersuite.hpp"

namespace iotls::fleet {

namespace {

struct CampaignMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  obs::Counter& keys = reg.counter(
      "iotls_fleet_probe_keys_total",
      "Distinct behaviour keys actively probed by fleet campaigns");

  obs::Counter& scanned = reg.counter(
      "iotls_fleet_instances_scanned_total",
      "Fleet instances sampled into scan campaigns");

  static CampaignMetrics& get() {
    static CampaignMetrics metrics;
    return metrics;
  }
};

/// The campaign's one targeted connection per instance — the device's
/// boot-time first endpoint, like the §4.2 prober.
const devices::DestinationSpec* scan_destination(
    const devices::DeviceProfile& profile) {
  for (const auto& dest : profile.destinations) {
    if (!dest.intermittent) return &dest;
  }
  return profile.destinations.empty() ? nullptr
                                      : &profile.destinations.front();
}

/// One interceptor-mediated connection; returns the alert the device sent
/// (the probe side channel), resetting failure state afterwards.
std::optional<tls::Alert> run_alert_probe(
    testbed::Testbed& testbed, testbed::DeviceRuntime& runtime,
    mitm::Interceptor& interceptor, const devices::DestinationSpec& dest,
    common::SimDate now, mitm::InterceptMode mode) {
  interceptor.set_mode(std::move(mode));
  interceptor.install(testbed.network());
  (void)runtime.connect_to(dest, now);
  const auto interceptions = interceptor.drain();
  interceptor.uninstall(testbed.network());
  runtime.reset_failure_state();
  if (interceptions.empty()) return std::nullopt;
  return interceptions.front().alert_received;
}

/// Probe one behaviour key in its own single-model sandbox: plain scan,
/// Table 2 NoValidation forgery, then the §4.2 alert-differencing
/// deprecated-CA probe.
ProbeResult probe_key(const FleetModel& fleet,
                      const pki::CaUniverse& universe,
                      const CampaignOptions& options, ProbeKey key) {
  const devices::DeviceProfile& model = *fleet.models()[key.model];
  // Regional root-store variant: the profile seed is re-keyed per region,
  // so the runtime assembles a different (deterministic) trust bundle for
  // each market the vendor ships to.
  const devices::DeviceProfile frozen = fleet.frozen_profile(
      key.model, key.epoch, common::fnv1a64(region_name(key.region)));

  testbed::Testbed::Options tb_options;
  tb_options.seed = fleet.options().seed;
  tb_options.universe = &universe;
  tb_options.active_only = false;
  tb_options.devices = {model.name};
  testbed::Testbed testbed(tb_options);
  const common::SimDate scan_date =
      common::SimDate::start_of(options.scan_month).plus_days(14);
  testbed.set_date(scan_date);
  // The scanner and the farm keep true time; the *device* validates
  // against its drifted clock.
  const common::SimDate device_clock = scan_date.plus_days(
      kDriftDays[static_cast<std::size_t>(key.drift_bucket)]);

  testbed::DeviceRuntime runtime(frozen, universe, testbed.network());

  ProbeResult result;
  const devices::DestinationSpec* dest = scan_destination(frozen);
  if (dest == nullptr) return result;

  // Plain scan connection: TLS support + negotiated posture.
  const std::size_t before = testbed.network().capture().size();
  const testbed::ConnectionOutcome outcome =
      runtime.connect_to(*dest, device_clock);
  const auto& records = testbed.network().capture().records();
  for (std::size_t i = before; i < records.size(); ++i) {
    net::HandshakeRecord record = records[i];
    record.month = options.scan_month;
    result.scan_records.push_back(std::move(record));
  }
  const tls::ClientResult& scan = outcome.final_result();
  result.tls_support = scan.success();
  result.validation_failed =
      scan.outcome == tls::HandshakeOutcome::ValidationFailed;
  result.established_version = scan.negotiated_version;
  result.established_suite = scan.negotiated_suite;
  runtime.reset_failure_state();

  // Table 2 forgery: does the instance accept an on-path interceptor?
  mitm::Interceptor interceptor(
      universe, testbed.cloud(),
      common::split_seed(fleet.options().seed, "campaign-mitm"));
  interceptor.set_mode(
      mitm::InterceptMode::make_attack(mitm::AttackKind::NoValidation));
  interceptor.install(testbed.network());
  (void)runtime.connect_to(*dest, device_clock);
  for (const auto& interception : interceptor.drain()) {
    if (interception.compromised()) result.accepts_interception = true;
  }
  interceptor.uninstall(testbed.network());
  runtime.reset_failure_state();

  // Deprecated-CA trust via alert differencing: a deprecated root is
  // present iff the spoofed-CA chain draws a *different* alert than the
  // unknown-CA baseline. The candidate root is region-keyed — each
  // regional bundle gets checked against a deprecated CA it could
  // plausibly still carry.
  const auto& deprecated = universe.deprecated_ca_names();
  if (!deprecated.empty()) {
    const std::string& ca_name = deprecated[static_cast<std::size_t>(
        common::split_seed(fleet.options().seed, region_name(key.region)) %
        deprecated.size())];
    const auto alert_unknown = run_alert_probe(
        testbed, runtime, interceptor, *dest, device_clock,
        mitm::InterceptMode::unknown_ca());
    const auto alert_spoofed = run_alert_probe(
        testbed, runtime, interceptor, *dest, device_clock,
        mitm::InterceptMode::spoofed_ca(universe.authority(ca_name).root()));
    result.trusts_deprecated = alert_unknown.has_value() &&
                               alert_spoofed.has_value() &&
                               *alert_unknown != *alert_spoofed;
  }

  result.handshakes = testbed.network().capture().size();
  return result;
}

std::string percent_cell(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  char cell[16];
  std::snprintf(cell, sizeof(cell), "%.1f%%",
                100.0 * static_cast<double>(part) /
                    static_cast<double>(whole));
  return cell;
}

void render_stratum_table(std::string* out, const std::string& title,
                          const std::map<std::string, PostureCounts>& rows) {
  common::TextTable table({title, "scanned", "tls", "tls1.3", "legacy",
                           "pfs", "val-fail", "mitm", "depr-ca"});
  for (const auto& [name, counts] : rows) {
    table.add_row({name, std::to_string(counts.scanned),
                   percent_cell(counts.tls_support, counts.scanned),
                   percent_cell(counts.tls13, counts.scanned),
                   percent_cell(counts.legacy_version, counts.scanned),
                   percent_cell(counts.pfs, counts.scanned),
                   percent_cell(counts.validation_failed, counts.scanned),
                   percent_cell(counts.accepts_interception, counts.scanned),
                   percent_cell(counts.trusts_deprecated, counts.scanned)});
  }
  *out += table.render();
  *out += '\n';
}

}  // namespace

void PostureCounts::add(const ProbeResult& probe) {
  ++scanned;
  if (probe.tls_support) ++tls_support;
  if (probe.established_version.has_value()) {
    if (*probe.established_version == tls::ProtocolVersion::Tls1_3) ++tls13;
    if (tls::is_deprecated(*probe.established_version)) ++legacy_version;
  }
  if (probe.established_suite.has_value()) {
    const tls::CipherSuiteInfo* info =
        tls::suite_info(*probe.established_suite);
    if (info != nullptr && info->is_strong()) ++pfs;
  }
  if (probe.validation_failed) ++validation_failed;
  if (probe.accepts_interception) ++accepts_interception;
  if (probe.trusts_deprecated) ++trusts_deprecated;
}

void PostureCounts::merge(const PostureCounts& other) {
  scanned += other.scanned;
  tls_support += other.tls_support;
  tls13 += other.tls13;
  legacy_version += other.legacy_version;
  pfs += other.pfs;
  validation_failed += other.validation_failed;
  accepts_interception += other.accepts_interception;
  trusts_deprecated += other.trusts_deprecated;
}

void CampaignTables::merge(const CampaignTables& other) {
  for (const auto& [name, counts] : other.by_vendor) {
    by_vendor[name].merge(counts);
  }
  for (const auto& [name, counts] : other.by_region) {
    by_region[name].merge(counts);
  }
  for (const auto& [name, counts] : other.by_age) {
    by_age[name].merge(counts);
  }
  instances += other.instances;
  alive += other.alive;
  scanned += other.scanned;
}

std::string CampaignTables::render() const {
  std::string out;
  out += "fleet instances " + std::to_string(instances) + ", alive at scan " +
         std::to_string(alive) + ", scanned " + std::to_string(scanned) +
         "\n\n";
  render_stratum_table(&out, "vendor", by_vendor);
  render_stratum_table(&out, "region", by_region);
  render_stratum_table(&out, "fw-age", by_age);
  return out;
}

std::string scan_shard_name(std::uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "scan-%04u%s", index,
                store::kShardSuffix);
  return name;
}

CampaignReport run_campaign(const CampaignOptions& options) {
  const pki::CaUniverse& universe =
      options.universe != nullptr ? *options.universe
                                  : pki::CaUniverse::standard();
  const FleetModel fleet(options.fleet);

  const std::uint64_t count = options.fleet.instances;
  const std::uint64_t per =
      std::max<std::uint64_t>(options.range_instances, 1);
  const std::size_t range_count =
      count == 0 ? 0 : static_cast<std::size_t>((count + per - 1) / per);
  std::vector<std::size_t> ranges(range_count);
  std::iota(ranges.begin(), ranges.end(), std::size_t{0});

  const int scan_offset =
      options.scan_month.diff(common::kStudyStart);
  // The sampling stream is keyed by (campaign salt, instance uid), so a
  // given instance's inclusion never depends on scan order or threads.
  const std::uint64_t sample_key =
      common::split_seed(options.fleet.seed, "campaign-sample");
  const auto sampled = [&](const InstanceSpec& spec) {
    common::Rng rng(common::split_seed(sample_key, spec.uid));
    return rng.chance(
        options.sample_fraction[static_cast<std::size_t>(spec.region)]);
  };

  // Phase 1 — discover the behaviour keys the sampled fleet spans.
  auto range_keys = common::parallel_map(
      options.threads, ranges, [&](const std::size_t range) {
        const obs::ProfileZone zone("fleet/campaign_discover");
        std::vector<ProbeKey> keys;
        const std::uint64_t begin = static_cast<std::uint64_t>(range) * per;
        const std::uint64_t end = std::min(count, begin + per);
        for (std::uint64_t id = begin; id < end; ++id) {
          const InstanceSpec spec = fleet.instance(id);
          if (!FleetModel::alive_at(spec, scan_offset)) continue;
          if (!sampled(spec)) continue;
          keys.push_back({spec.model, fleet.epoch_at(spec, options.scan_month),
                          spec.region, spec.drift_bucket});
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        return keys;
      });
  std::vector<ProbeKey> keys;
  for (const auto& partial : range_keys) {
    keys.insert(keys.end(), partial.begin(), partial.end());
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  // Phase 2 — probe each key once.
  auto probe_results = [&] {
    const obs::ProfileZone zone("fleet/campaign_probe");
    return common::parallel_map(
        options.threads, keys, [&](const ProbeKey& key) {
          return probe_key(fleet, universe, options, key);
        });
  }();
  std::map<ProbeKey, const ProbeResult*> probes;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    probes.emplace(keys[i], &probe_results[i]);
  }

  // Phase 3 — tally every sampled instance against its key's probe, and
  // collect its scan-store rows, in parallel ranges merged in input order.
  struct TallyRange {
    CampaignTables tables;
    std::vector<testbed::PassiveConnectionGroup> groups;
  };
  const bool want_store = !options.scan_store_dir.empty();
  auto tallies = common::parallel_map(
      options.threads, ranges, [&](const std::size_t range) {
        const obs::ProfileZone zone("fleet/campaign_tally");
        TallyRange tally;
        const std::uint64_t begin = static_cast<std::uint64_t>(range) * per;
        const std::uint64_t end = std::min(count, begin + per);
        for (std::uint64_t id = begin; id < end; ++id) {
          const InstanceSpec spec = fleet.instance(id);
          if (!FleetModel::alive_at(spec, scan_offset)) continue;
          ++tally.tables.alive;
          if (!sampled(spec)) continue;
          const ProbeKey key{spec.model,
                             fleet.epoch_at(spec, options.scan_month),
                             spec.region, spec.drift_bucket};
          const ProbeResult& probe = *probes.at(key);
          ++tally.tables.scanned;
          tally.tables.by_vendor[fleet.vendor(spec.model)].add(probe);
          tally.tables.by_region[region_name(spec.region)].add(probe);
          tally.tables.by_age[age_bucket_name(spec.skew_months)].add(probe);
          if (want_store) {
            const std::string device = fleet.label(spec, options.scan_month);
            for (const auto& record : probe.scan_records) {
              testbed::PassiveConnectionGroup group;
              group.record = record;
              group.record.device = device;
              tally.groups.push_back(std::move(group));
            }
          }
        }
        return tally;
      });

  CampaignReport report;
  for (const auto& tally : tallies) {
    report.tables.merge(tally.tables);
  }
  report.tables.instances = count;
  report.probe_keys = keys.size();
  for (const auto& probe : probe_results) {
    report.probe_handshakes += probe.handshakes;
  }
  if (obs::metrics_enabled()) {
    CampaignMetrics::get().keys.inc(report.probe_keys);
    CampaignMetrics::get().scanned.inc(report.tables.scanned);
  }

  if (want_store) {
    testbed::PassiveDataset dataset;
    for (auto& tally : tallies) {
      for (auto& group : tally.groups) dataset.add(std::move(group));
    }
    store::StoreOptions store_options;
    store_options.layout = store::ShardLayout::FixedSize;
    store_options.groups_per_shard = options.store_groups_per_shard;
    store_options.threads = options.threads;
    store_options.seed = options.fleet.seed;
    store_options.first = options.fleet.first;
    store_options.last = options.fleet.last;
    store_options.shard_namer = scan_shard_name;
    report.store =
        store::write_store(dataset, options.scan_store_dir, store_options);
  }
  return report;
}

}  // namespace iotls::fleet
