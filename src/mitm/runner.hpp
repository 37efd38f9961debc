// Active experiment drivers reproducing Tables 5, 6 and 7.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mitm/interceptor.hpp"
#include "testbed/testbed.hpp"

namespace iotls::mitm {

/// Per-device interception results (Table 7 rows).
struct InterceptionRow {
  std::string device;
  bool no_validation = false;
  bool invalid_basic_constraints = false;
  bool wrong_hostname = false;
  int vulnerable_destinations = 0;
  int total_destinations = 0;
  /// Sensitive plaintext recovered from compromised connections (§5.2).
  std::vector<std::string> leaked_samples;

  [[nodiscard]] bool vulnerable() const {
    return no_validation || invalid_basic_constraints || wrong_hostname;
  }
};

struct InterceptionReport {
  std::vector<InterceptionRow> rows;  // vulnerable devices only
  int devices_tested = 0;
  int devices_without_any_validation = 0;  // §5.2: "seven devices"
  int devices_with_sensitive_leaks = 0;    // §5.2: 7/11
};

/// Run all three Table 2 attacks against every active device.
/// `boots_per_attack` models the repeated reboots of §4.1 (the Yi Camera
/// needs ≥4 to expose its disable-after-3-failures behaviour).
/// `threads` fans the devices out over a worker pool (0 = hardware
/// concurrency, 1 = serial); results are identical for any value.
InterceptionReport run_interception_experiments(testbed::Testbed& testbed,
                                                int boots_per_attack = 4,
                                                std::size_t threads = 0);

/// Per-device downgrade results (Table 5 rows).
struct DowngradeRow {
  std::string device;
  bool on_failed_handshake = false;
  bool on_incomplete_handshake = false;
  std::string behavior;
  int downgraded_destinations = 0;
  int total_destinations = 0;
};

struct DowngradeReport {
  std::vector<DowngradeRow> rows;  // downgrading devices only
  int devices_tested = 0;
};

DowngradeReport run_downgrade_experiments(testbed::Testbed& testbed,
                                          std::size_t threads = 0);

/// Per-device old-version acceptance (Table 6 rows).
struct OldVersionRow {
  std::string device;
  bool tls10 = false;
  bool tls11 = false;
};

struct OldVersionReport {
  std::vector<OldVersionRow> rows;  // devices accepting any old version
  int devices_tested = 0;
};

OldVersionReport run_old_version_experiments(testbed::Testbed& testbed,
                                             std::size_t threads = 0);

/// §4.2 TrafficPassthrough validation: repeat the attacks while passing
/// through connections that previously failed; report the extra
/// destinations observed and whether any new validation failure appeared.
struct PassthroughReport {
  double extra_destination_fraction = 0.0;  // paper: ≈20.4%
  bool new_failures_found = false;          // paper: none
  int devices_tested = 0;
};

PassthroughReport run_passthrough_experiments(testbed::Testbed& testbed,
                                              std::size_t threads = 0);

/// A ClientHello is a downgrade of another if it advertises a lower
/// maximum version, or a strictly weaker ciphersuite set, or weaker
/// signature algorithms (exposed for tests).
bool is_downgraded_hello(const tls::ClientHello& original,
                         const tls::ClientHello& retry);

}  // namespace iotls::mitm
