// Testbed assembly: the simulated smart home of §4.1 — all 40 devices, a
// smart plug per active device, the cloud farm, and the capture gateway.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "testbed/cloud.hpp"
#include "testbed/plug.hpp"
#include "testbed/runtime.hpp"

namespace iotls::testbed {

class Testbed {
 public:
  struct Options {
    std::uint64_t seed = 42;
    /// Defaults to CaUniverse::standard().
    const pki::CaUniverse* universe = nullptr;
    /// Only instantiate runtimes for active devices (cheaper for the
    /// active experiments; the passive generator sets this false).
    bool active_only = true;
    /// Restrict the testbed to these devices (empty = whole catalog).
    /// Only their runtimes and cloud destinations are built — this is what
    /// makes per-device experiment sandboxes cheap.
    std::vector<std::string> devices;
    /// Revocation list the runtimes consult (nullptr = the testbed's own).
    /// Sandboxes point this at their parent's list so CRL/OCSP behaviour
    /// carries over; the list must be const while sandboxes are live.
    const pki::RevocationList* revocations = nullptr;
    /// Trace log per-connection spans are committed to (non-owning, may be
    /// null). Deliberately NOT propagated by sandbox_options(): pool-fanned
    /// sandboxes each use their own local log, merged in catalog order by
    /// the coordinator, so traces stay byte-identical across thread counts.
    obs::TraceLog* trace = nullptr;
  };

  Testbed() : Testbed(Options{}) {}
  explicit Testbed(Options options);

  /// Options for an isolated single-device replica of this testbed: same
  /// seed, shared (const) CA universe and revocation list, own network /
  /// cloud endpoints / runtime. The experiment engine builds one per task
  /// so device fan-outs share no mutable state.
  [[nodiscard]] Options sandbox_options(const std::string& device_name) const;

  [[nodiscard]] const Options& options() const { return options_; }

  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] CloudFarm& cloud() { return *cloud_; }
  [[nodiscard]] const pki::CaUniverse& universe() const { return *universe_; }

  [[nodiscard]] DeviceRuntime& runtime(const std::string& device_name);
  [[nodiscard]] SmartPlug& plug(const std::string& device_name);
  [[nodiscard]] std::vector<std::string> device_names() const;

  /// Set the wall-clock for the whole testbed (cloud evolution +
  /// certificate validity).
  void set_date(common::SimDate date) { cloud_->set_current_date(date); }
  [[nodiscard]] common::SimDate date() const {
    return cloud_->current_date();
  }

  /// The ecosystem CRL consulted by the Table 8 CRL/OCSP devices.
  [[nodiscard]] pki::RevocationList& revocations() { return revocations_; }

  /// Re-point connection tracing (forwards to the network).
  void set_trace(obs::TraceLog* trace) { network_.set_trace(trace); }
  [[nodiscard]] obs::TraceLog* trace() const { return network_.trace(); }

 private:
  Options options_;
  const pki::CaUniverse* universe_;
  net::Network network_;
  pki::RevocationList revocations_;
  std::unique_ptr<CloudFarm> cloud_;
  std::map<std::string, std::unique_ptr<DeviceRuntime>> runtimes_;
  std::map<std::string, std::unique_ptr<SmartPlug>> plugs_;
};

}  // namespace iotls::testbed
