#include "pki/universe.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace iotls::pki {

namespace {

/// Per-year counts of removed CAs, shaped to reproduce Fig 4's staleness
/// histogram (bulk removed 2018-2019, a tail back to 2013). The named
/// real-world distrust events are drawn from these allocations.
struct RemovalPlanEntry {
  int year;
  int count;
  std::vector<std::string> named;  // real incidents absorbed into the count
};

const std::vector<RemovalPlanEntry>& removal_plan() {
  static const std::vector<RemovalPlanEntry> kPlan = {
      {2013, 4, {"TurkTrust Elektronik Sertifika"}},
      {2014, 3, {}},
      {2015, 6, {"CNNIC Root"}},
      {2016, 8, {"WoSign CA Free SSL", "StartCom Certification Authority"}},
      {2017, 10, {}},
      {2018, 26, {"Visa eCommerce Root"}},
      {2019, 25, {"Certinomis - Root CA"}},
      {2020, 5, {}},
  };
  return kPlan;
}

std::string legacy_name(int year, int index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "Legacy Root CA %d-%02d", year, index);
  return buf;
}

std::string common_name(std::size_t index) {
  // A handful of recognizable flavour names, then generic ones.
  static const char* kFlavour[] = {
      "GlobalSign Root CA",      "DigiCert Global Root",
      "Baltimore CyberTrust Root", "ISRG Root X1",
      "AddTrust External Root",  "VeriSign Class 3 Root",
      "Amazon Root CA 1",        "GeoTrust Global CA",
  };
  if (index < std::size(kFlavour)) return kFlavour[index];
  char buf[64];
  std::snprintf(buf, sizeof(buf), "Trusted Root CA %03zu", index);
  return buf;
}

}  // namespace

void CaUniverse::add_ca(const std::string& name, common::Rng& rng,
                        x509::Validity validity) {
  auto dn = x509::DistinguishedName{name, name + " Trust Services", "US"};
  authorities_[name] = std::make_unique<CertificateAuthority>(
      dn, rng, validity, opts_.key_bits);
  creation_order_.push_back(name);
}

CaUniverse::CaUniverse(Options opts) : opts_(opts) {
  // All CAs draw from one sequential stream. That still caches well:
  // rsa_generate's state-keyed keypair memo (crypto/rsa.hpp) replays each
  // generation from the exact stream position it was first seen at, so a
  // rebuilt universe with the same seed hits on every CA in order.
  common::Rng rng = common::Rng::derive(opts_.seed, "ca-universe");

  // --- 1. Common CAs: unexpired, in every platform's latest store. ---
  std::vector<std::string> common_names;
  for (std::size_t i = 0; i < opts_.common_count; ++i) {
    const std::string name = common_name(i);
    add_ca(name, rng, x509::Validity{{2010, 1, 1}, {2035, 1, 1}});
    common_names.push_back(name);
  }

  // --- 2. Deprecated CAs: removed per the plan, unexpired. ---
  std::vector<std::pair<std::string, int>> removed;  // name -> removal year
  std::size_t budget = opts_.deprecated_count;
  for (const auto& entry : removal_plan()) {
    int remaining = entry.count;
    for (const auto& named : entry.named) {
      if (budget == 0 || remaining == 0) break;
      removed.emplace_back(named, entry.year);
      --remaining;
      --budget;
    }
    for (int i = 0; i < remaining && budget > 0; ++i, --budget) {
      removed.emplace_back(legacy_name(entry.year, i), entry.year);
    }
  }
  // If the requested count exceeds the plan, pad with 2019 removals.
  for (int i = 100; budget > 0; ++i, --budget) {
    removed.emplace_back(legacy_name(2019, i), 2019);
  }
  for (const auto& [name, year] : removed) {
    add_ca(name, rng, x509::Validity{{2005, 1, 1}, {2030, 1, 1}});
    removal_years_[name] = year;
  }

  // --- 3. Removed CAs that are *expired* by the reference date: these are
  // filtered out of the deprecated probe set (the paper probes only
  // unexpired certificates). ---
  std::vector<std::pair<std::string, int>> expired_removed;
  for (std::size_t i = 0; i < opts_.expired_removed_count; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "Expired Legacy Root CA %02zu", i);
    const int year = 2015 + static_cast<int>(i % 4);
    expired_removed.emplace_back(buf, year);
    add_ca(buf, rng, x509::Validity{{2004, 1, 1}, {2019, 6, 1}});
    removal_years_[buf] = year;
  }

  // --- 4. Platform-exclusive CAs (latest stores differ across platforms,
  // so "common" is a strict intersection). ---
  const std::vector<std::pair<std::string, std::pair<int, int>>> platforms = {
      // name, {version count, earliest year}  (paper Table 3)
      {"Ubuntu", {9, 2012}},
      {"Android", {10, 2010}},
      {"Mozilla", {47, 2013}},
      {"Microsoft", {15, 2017}},
  };
  std::map<std::string, std::vector<std::string>> exclusives;
  for (const auto& [platform, shape] : platforms) {
    (void)shape;
    for (std::size_t i = 0; i < opts_.platform_exclusive_count; ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s Exclusive Root %02zu",
                    platform.c_str(), i);
      add_ca(buf, rng, x509::Validity{{2012, 1, 1}, {2035, 1, 1}});
      exclusives[platform].push_back(buf);
    }
  }

  // --- 5. Build the versioned histories. ---
  const std::map<std::string, std::string> comments = {
      {"Ubuntu",
       "ca-certificates package, /etc/ssl/certs/ca-certificates.crt from "
       "official Docker images"},
      {"Android",
       "version-tagged commits of /platform/system/ca-certificates"},
      {"Mozilla",
       "NSS security/nss/lib/ckfw/builtins/certdata.txt commit history"},
      {"Microsoft",
       "published historical trusted root store participant lists"},
  };
  const int kFinalYear = 2020;
  for (const auto& [platform, shape] : platforms) {
    const auto [version_count, earliest_year] = shape;
    PlatformStoreHistory history;
    history.platform = platform;
    history.source_comment = comments.at(platform);
    for (int v = 0; v < version_count; ++v) {
      StoreVersion version;
      // Linear year spread from earliest to kFinalYear inclusive.
      version.year =
          earliest_year +
          (v * (kFinalYear - earliest_year)) / std::max(1, version_count - 1);
      char tag[32];
      std::snprintf(tag, sizeof(tag), "%s-v%02d", platform.c_str(), v + 1);
      version.tag = tag;

      for (const auto& name : common_names) version.ca_names.insert(name);
      for (const auto& name : exclusives[platform]) {
        version.ca_names.insert(name);
      }
      auto maybe_insert_removed = [&](const std::string& name,
                                      int removal_year) {
        // Present while the version predates the removal year, provided the
        // platform's history started before the removal.
        if (earliest_year < removal_year && version.year < removal_year) {
          version.ca_names.insert(name);
        }
      };
      for (const auto& [name, year] : removed) maybe_insert_removed(name, year);
      for (const auto& [name, year] : expired_removed) {
        maybe_insert_removed(name, year);
      }
      history.versions.push_back(std::move(version));
    }
    histories_.push_back(std::move(history));
  }

  // --- 6. Distrust records (the incidents §5.2 names). ---
  distrust_ = {
      {"TurkTrust Elektronik Sertifika", 2013, "Mozilla",
       "unauthorized certificate issued for google.com"},
      {"CNNIC Root", 2015, "Google",
       "unconstrained intermediate issued to MCS Holdings"},
      {"WoSign CA Free SSL", 2016, "Google",
       "backdated SHA-1 certificates; undisclosed StartCom acquisition"},
      {"StartCom Certification Authority", 2016, "Google",
       "undisclosed acquisition by WoSign"},
      {"Certinomis - Root CA", 2019, "Mozilla",
       "repeated failure to comply with CA guidelines"},
  };

  // --- 7. Derive the probe sets (§4.2 algorithm + expiry filter). ---
  const std::set<std::string> common_set = derive_common(histories_);
  const std::set<std::string> deprecated_set = derive_deprecated(histories_);
  const common::SimDate now = reference_date();
  for (const auto& name : creation_order_) {
    const auto& cert = authorities_.at(name)->root();
    if (!cert.tbs.validity.contains(now)) continue;  // expired → excluded
    if (common_set.count(name)) common_.push_back(name);
    if (deprecated_set.count(name)) deprecated_.push_back(name);
  }
}

const CaUniverse& CaUniverse::standard() {
  static const CaUniverse kUniverse{};
  return kUniverse;
}

std::vector<std::string> CaUniverse::all_ca_names() const {
  return creation_order_;
}

const CertificateAuthority& CaUniverse::authority(
    const std::string& ca_name) const {
  const CertificateAuthority* ca = find(ca_name);
  if (ca == nullptr) {
    throw std::out_of_range("unknown CA: " + ca_name);
  }
  return *ca;
}

const CertificateAuthority* CaUniverse::find(
    const std::string& ca_name) const {
  const auto it = authorities_.find(ca_name);
  return it == authorities_.end() ? nullptr : it->second.get();
}

bool CaUniverse::is_distrusted(const std::string& ca_name) const {
  return std::any_of(
      distrust_.begin(), distrust_.end(),
      [&](const DistrustRecord& r) { return r.ca_name == ca_name; });
}

std::optional<int> CaUniverse::removal_year(const std::string& ca_name) const {
  const auto it = removal_years_.find(ca_name);
  if (it == removal_years_.end()) return std::nullopt;
  return it->second;
}

RootStore CaUniverse::platform_latest_store(const std::string& platform) const {
  for (const auto& h : histories_) {
    if (h.platform != platform) continue;
    RootStore store;
    for (const auto& name : h.latest().ca_names) {
      store.add(authority(name).root());
    }
    return store;
  }
  throw std::out_of_range("unknown platform: " + platform);
}

}  // namespace iotls::pki
