#include "testbed/longitudinal.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/pool.hpp"
#include "common/strings.hpp"
#include "testbed/testbed.hpp"

namespace iotls::testbed {

void PassiveDataset::add(PassiveConnectionGroup group) {
  DeviceEntry& entry = by_device_[group.record.device];
  entry.group_indices.push_back(groups_.size());
  entry.connections += group.count;
  total_ += group.count;
  groups_.push_back(std::move(group));
}

std::uint64_t PassiveDataset::device_connections(
    const std::string& device) const {
  const auto it = by_device_.find(device);
  return it == by_device_.end() ? 0 : it->second.connections;
}

std::vector<std::string> PassiveDataset::devices() const {
  std::vector<std::string> names;
  names.reserve(by_device_.size());
  for (const auto& [name, entry] : by_device_) names.push_back(name);
  return names;
}

std::vector<const PassiveConnectionGroup*> PassiveDataset::for_device(
    const std::string& device) const {
  std::vector<const PassiveConnectionGroup*> out;
  const auto it = by_device_.find(device);
  if (it == by_device_.end()) return out;
  out.reserve(it->second.group_indices.size());
  for (const std::size_t i : it->second.group_indices) {
    out.push_back(&groups_[i]);
  }
  return out;
}

namespace {

std::string join_u16(const std::vector<std::uint16_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

std::vector<std::uint16_t> split_u16(const std::string& text) {
  std::vector<std::uint16_t> out;
  if (text.empty()) return out;
  for (const auto& part : common::split(text, ',')) {
    out.push_back(static_cast<std::uint16_t>(std::stoul(part)));
  }
  return out;
}

std::string join_versions(const std::vector<tls::ProtocolVersion>& versions) {
  std::vector<std::uint16_t> raw;
  for (const auto v : versions) raw.push_back(static_cast<std::uint16_t>(v));
  return join_u16(raw);
}

std::vector<tls::ProtocolVersion> split_versions(const std::string& text) {
  std::vector<tls::ProtocolVersion> out;
  for (const auto raw : split_u16(text)) {
    out.push_back(tls::version_from_wire(raw));
  }
  return out;
}

std::string alert_field(const std::optional<tls::Alert>& alert) {
  if (!alert) return "-";
  return std::to_string(static_cast<int>(alert->level)) + ":" +
         std::to_string(static_cast<int>(alert->description));
}

std::optional<tls::Alert> parse_alert_field(const std::string& field) {
  if (field == "-") return std::nullopt;
  const auto parts = common::split(field, ':');
  if (parts.size() != 2) throw common::ParseError("bad alert field");
  tls::Alert alert;
  alert.level = static_cast<tls::AlertLevel>(std::stoi(parts[0]));
  alert.description =
      static_cast<tls::AlertDescription>(std::stoi(parts[1]));
  return alert;
}

constexpr const char* kDatasetHeader =
    "device\tdestination\tmonth\tcount\tadvertised_versions\t"
    "advertised_suites\textension_types\tgroups\tsigalgs\tocsp_staple\t"
    "sni\testablished_version\testablished_suite\tcomplete\tapp_data\t"
    "client_alert\tserver_alert";

}  // namespace

const std::string& dataset_tsv_header() {
  static const std::string header(kDatasetHeader);
  return header;
}

std::string group_to_tsv_row(const PassiveConnectionGroup& g) {
  const auto& r = g.record;
  return r.device + '\t' + r.destination + '\t' + r.month.str() + '\t' +
         std::to_string(g.count) + '\t' +
         join_versions(r.advertised_versions) + '\t' +
         join_u16(r.advertised_suites) + '\t' +
         join_u16(r.extension_types) + '\t' +
         join_u16(r.advertised_groups) + '\t' +
         join_u16(r.advertised_sigalgs) + '\t' +
         (r.requested_ocsp_staple ? "1" : "0") + '\t' +
         (r.sent_sni ? "1" : "0") + '\t' +
         (r.established_version
              ? std::to_string(
                    static_cast<std::uint16_t>(*r.established_version))
              : "-") +
         '\t' +
         (r.established_suite ? std::to_string(*r.established_suite) : "-") +
         '\t' + (r.handshake_complete ? "1" : "0") + '\t' +
         (r.application_data_seen ? "1" : "0") + '\t' +
         alert_field(r.client_alert) + '\t' + alert_field(r.server_alert) +
         '\n';
}

std::string dataset_to_tsv(const PassiveDataset& dataset) {
  std::string out = dataset_tsv_header() + "\n";
  for (const auto& g : dataset.groups()) out += group_to_tsv_row(g);
  return out;
}

PassiveDataset dataset_from_tsv(const std::string& tsv) {
  PassiveDataset dataset;
  std::istringstream stream(tsv);
  std::string line;
  if (!std::getline(stream, line) || line != kDatasetHeader) {
    throw common::ParseError("unrecognized dataset header");
  }
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    const auto fields = common::split(line, '\t');
    if (fields.size() != 17) {
      throw common::ParseError("dataset row has wrong field count");
    }
    PassiveConnectionGroup group;
    auto& r = group.record;
    r.device = fields[0];
    r.destination = fields[1];
    const auto ym = common::split(fields[2], '-');
    if (ym.size() != 2) throw common::ParseError("bad month field");
    r.month = common::Month{std::stoi(ym[0]), std::stoi(ym[1])};
    group.count = std::stoull(fields[3]);
    r.advertised_versions = split_versions(fields[4]);
    r.advertised_suites = split_u16(fields[5]);
    r.extension_types = split_u16(fields[6]);
    r.advertised_groups = split_u16(fields[7]);
    r.advertised_sigalgs = split_u16(fields[8]);
    r.requested_ocsp_staple = fields[9] == "1";
    r.sent_sni = fields[10] == "1";
    if (fields[11] != "-") {
      r.established_version = tls::version_from_wire(
          static_cast<std::uint16_t>(std::stoul(fields[11])));
    }
    if (fields[12] != "-") {
      r.established_suite =
          static_cast<std::uint16_t>(std::stoul(fields[12]));
    }
    r.handshake_complete = fields[13] == "1";
    r.application_data_seen = fields[14] == "1";
    r.client_alert = parse_alert_field(fields[15]);
    r.server_alert = parse_alert_field(fields[16]);
    dataset.add(std::move(group));
  }
  return dataset;
}

void save_dataset(const PassiveDataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw common::ProtocolError("cannot open " + path);
  out << dataset_to_tsv(dataset);
}

PassiveDataset load_dataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw common::ProtocolError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return dataset_from_tsv(buf.str());
}

PassiveDataset generate_passive_dataset(const GeneratorOptions& options) {
  const auto wanted = [&](const devices::DeviceProfile& profile) {
    return options.devices.empty() ||
           std::find(options.devices.begin(), options.devices.end(),
                     profile.name) != options.devices.end();
  };
  std::vector<const devices::DeviceProfile*> profiles;
  for (const auto& profile : devices::device_catalog()) {
    if (wanted(profile)) profiles.push_back(&profile);
  }
  const auto months = common::month_range(options.first, options.last);

  // Connection counts are drawn serially, up front, in the exact
  // device→month→destination order the serial generator consumed its
  // stream — the fan-out below must not touch the shared RNG.
  common::Rng count_rng = common::Rng::derive(options.seed, "passive-counts");
  std::vector<std::vector<std::uint64_t>> counts(profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const auto& profile = *profiles[p];
    for (const auto& month : months) {
      if (!profile.generates_traffic_in(month)) continue;
      for (const auto& dest : profile.destinations) {
        // Month-to-month activity jitter: destinations are contacted more
        // or less often (this is what drives the Insteon Hub's varying
        // old-version fraction in Fig 1).
        const double jitter = 0.35 + 1.3 * count_rng.uniform01();
        counts[p].push_back(static_cast<std::uint64_t>(std::max(
            1.0, profile.monthly_connections_per_destination * jitter *
                     options.count_scale * dest.traffic_weight *
                     (dest.first_party ? 1.0 : 0.4))));
      }
    }
  }

  // Each device replays its two-year capture inside its own sandbox
  // testbed; the per-device group lists concatenate in catalog order, so
  // the dataset (and its TSV) is byte-identical to the serial one.
  std::vector<std::size_t> indices(profiles.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  auto per_device = common::parallel_map(
      options.threads, indices,
      [&](std::size_t p) {
        const auto& profile = *profiles[p];
        Testbed::Options tb_options;
        tb_options.seed = options.seed;
        tb_options.universe = options.universe;
        tb_options.active_only = false;
        tb_options.devices = {profile.name};
        Testbed testbed(tb_options);
        DeviceRuntime& runtime = testbed.runtime(profile.name);

        std::vector<PassiveConnectionGroup> groups;
        std::size_t draw = 0;
        for (const auto& month : months) {
          if (!profile.generates_traffic_in(month)) continue;
          // Mid-month sampling date.
          testbed.set_date(common::SimDate::start_of(month).plus_days(14));

          for (const auto& dest : profile.destinations) {
            const std::uint64_t count = counts[p][draw++];
            const std::size_t before = testbed.network().capture().size();
            (void)runtime.connect_to(dest, testbed.date());
            const auto& records = testbed.network().capture().records();

            // connect_to may have produced two captures (fallback retry);
            // fold them all into the month's groups.
            for (std::size_t i = before; i < records.size(); ++i) {
              PassiveConnectionGroup group;
              group.record = records[i];
              group.record.month = month;
              group.count = count;
              groups.push_back(std::move(group));
            }
          }
        }
        return groups;
      });

  PassiveDataset dataset;
  for (auto& groups : per_device) {
    for (auto& group : groups) dataset.add(std::move(group));
  }
  return dataset;
}

}  // namespace iotls::testbed
