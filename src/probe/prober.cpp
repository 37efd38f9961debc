#include "probe/prober.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "tls/alert.hpp"

namespace iotls::probe {

namespace {

constexpr common::SimDate kProbeDate{2021, 3, 20};  // §4.1 snapshot

struct ProbeMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  obs::Counter& pairs = reg.counter(
      "iotls_probe_pairs_total",
      "Spoofed/unknown probe pairs run against devices");

  obs::Counter& verdicts(const std::string& verdict) {
    return reg.counter("iotls_probe_verdicts_total",
                       "Root-store probe verdicts", "verdict", verdict);
  }

  static ProbeMetrics& get() {
    static ProbeMetrics metrics;
    return metrics;
  }
};

/// Trace annotation for a probe's alert observation: the Table-4 display
/// form plus the classification axis the verdict logic keys on.
std::string alert_class_attr(const std::optional<tls::Alert>& alert) {
  if (!alert.has_value()) return "none";
  return tls::alert_class_name(tls::alert_classify(alert->description));
}

/// The probe targets the device's boot-time first connection — the same
/// TLS instance every reboot (§4.2's determinism requirement).
const devices::DestinationSpec& probe_destination(
    const devices::DeviceProfile& profile) {
  for (const auto& dest : profile.destinations) {
    if (!dest.intermittent) return dest;
  }
  throw common::ProtocolError(profile.name + " has no probe destination");
}

}  // namespace

std::string verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::Present: return "present";
    case Verdict::Absent: return "absent";
    case Verdict::Inconclusive: return "inconclusive";
  }
  return "unknown";
}

RootStoreProber::RootStoreProber(testbed::Testbed& testbed,
                                 std::uint64_t seed)
    : testbed_(&testbed),
      interceptor_(testbed.universe(), testbed.cloud(), seed ^ 0x9999),
      rng_(common::Rng::derive(seed, "root-store-prober")) {
  testbed_->set_date(kProbeDate);
}

std::vector<std::string> RootStoreProber::eligible_devices() const {
  std::vector<std::string> out;
  for (const auto* profile : devices::active_devices()) {
    if (!profile->reboot_safe) continue;  // §5.2: no repeated reboots
    const auto& dest = probe_destination(*profile);
    const auto& instance = profile->instance_for_destination(dest);
    if (!instance.config.verify_policy.validate) continue;  // §5.2
    out.push_back(profile->name);
  }
  return out;
}

std::optional<tls::Alert> RootStoreProber::run_probe(
    const std::string& device_name, mitm::InterceptMode mode) {
  auto& runtime = testbed_->runtime(device_name);
  const auto& dest = probe_destination(runtime.profile());

  interceptor_.set_mode(std::move(mode));
  interceptor_.install(testbed_->network());
  (void)runtime.connect_to(dest, kProbeDate);
  const auto interceptions = interceptor_.drain();
  interceptor_.uninstall(testbed_->network());
  runtime.reset_failure_state();

  if (interceptions.empty()) return std::nullopt;
  return interceptions.front().alert_received;
}

bool RootStoreProber::device_amenable(const std::string& device_name) {
  auto& runtime = testbed_->runtime(device_name);
  if (runtime.root_store().empty()) return false;
  // Calibrate with a certificate we know the device trusts.
  const x509::Certificate known_root = runtime.root_store().roots().front();

  const auto alert_unknown =
      run_probe(device_name, mitm::InterceptMode::unknown_ca());
  const auto alert_spoofed =
      run_probe(device_name, mitm::InterceptMode::spoofed_ca(known_root));
  const bool amenable = alert_unknown.has_value() &&
                        alert_spoofed.has_value() &&
                        *alert_unknown != *alert_spoofed;
  obs::TraceLog* trace = testbed_->trace();
  if (trace != nullptr && trace->enabled()) {
    obs::Span span = trace->start_span("amenability:" + device_name);
    span.set_attr("device", device_name);
    span.event("probe_unknown", {{"alert", tls::alert_display(alert_unknown)},
                                 {"class", alert_class_attr(alert_unknown)}});
    span.event("probe_spoofed", {{"alert", tls::alert_display(alert_spoofed)},
                                 {"class", alert_class_attr(alert_spoofed)}});
    span.event("verdict", {{"amenable", amenable ? "true" : "false"}});
    trace->add(std::move(span));
  }
  return amenable;
}

std::vector<std::string> RootStoreProber::amenable_devices() {
  std::vector<std::string> out;
  for (const auto& name : eligible_devices()) {
    if (device_amenable(name)) out.push_back(name);
  }
  return out;
}

ProbeOutcome RootStoreProber::probe_certificate(
    const std::string& device_name, const std::string& ca_name) {
  const auto& universe = testbed_->universe();
  const x509::Certificate& candidate = universe.authority(ca_name).root();

  ProbeOutcome outcome;
  outcome.alert_unknown =
      run_probe(device_name, mitm::InterceptMode::unknown_ca());
  outcome.alert_spoofed =
      run_probe(device_name, mitm::InterceptMode::spoofed_ca(candidate));

  if (!outcome.alert_unknown.has_value() ||
      !outcome.alert_spoofed.has_value()) {
    outcome.verdict = Verdict::Inconclusive;
  } else {
    outcome.verdict = (*outcome.alert_spoofed != *outcome.alert_unknown)
                          ? Verdict::Present
                          : Verdict::Absent;
  }

  if (obs::metrics_enabled()) {
    auto& metrics = ProbeMetrics::get();
    metrics.pairs.inc();
    metrics.verdicts(verdict_name(outcome.verdict)).inc();
  }
  obs::TraceLog* trace = testbed_->trace();
  if (trace != nullptr && trace->enabled()) {
    // One span per probe pair: both alerts, and which signal decided it.
    obs::Span span = trace->start_span("probe:" + device_name + ":" + ca_name);
    span.set_attr("device", device_name);
    span.set_attr("ca", ca_name);
    span.event("probe_unknown",
               {{"alert", tls::alert_display(outcome.alert_unknown)},
                {"class", alert_class_attr(outcome.alert_unknown)}});
    span.event("probe_spoofed",
               {{"alert", tls::alert_display(outcome.alert_spoofed)},
                {"class", alert_class_attr(outcome.alert_spoofed)}});
    std::string signal;
    if (outcome.verdict == Verdict::Inconclusive) {
      signal = "missing_alert";
    } else if (outcome.verdict == Verdict::Present) {
      signal = "alerts_differ";
    } else {
      signal = "alerts_match";
    }
    span.event("verdict", {{"verdict", verdict_name(outcome.verdict)},
                           {"signal", signal}});
    trace->add(std::move(span));
  }
  return outcome;
}

ExplorationResult RootStoreProber::explore(
    const std::string& device_name, const std::vector<std::string>& ca_names,
    double inconclusive_rate) {
  // Pre-draw the inconclusive mask, then delegate; the rng_ stream is
  // consumed exactly as if each probe drew on demand, and the mask form
  // lets callers pre-derive draws before fanning out over a thread pool.
  std::vector<bool> mask(ca_names.size());
  for (std::size_t i = 0; i < ca_names.size(); ++i) {
    mask[i] = rng_.chance(inconclusive_rate);
  }
  return explore(device_name, ca_names, mask);
}

ExplorationResult RootStoreProber::explore(
    const std::string& device_name, const std::vector<std::string>& ca_names,
    const std::vector<bool>& inconclusive_mask) {
  ExplorationResult result;
  for (std::size_t i = 0; i < ca_names.size(); ++i) {
    const auto& ca_name = ca_names[i];
    // Some probe attempts yield no traffic at all (the reboot produced no
    // connection to the targeted instance) — Table 9's denominators.
    if (i < inconclusive_mask.size() && inconclusive_mask[i]) {
      ++result.inconclusive;
      result.verdicts[ca_name] = Verdict::Inconclusive;
      continue;
    }
    const ProbeOutcome outcome = probe_certificate(device_name, ca_name);
    result.verdicts[ca_name] = outcome.verdict;
    if (outcome.verdict == Verdict::Inconclusive) {
      ++result.inconclusive;
      continue;
    }
    ++result.checked;
    if (outcome.verdict == Verdict::Present) ++result.present;
  }
  return result;
}

}  // namespace iotls::probe
