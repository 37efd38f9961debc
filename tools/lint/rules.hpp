// iotls-lint rule engine: token rules plus CFG/dataflow rules over the
// scoped parser (parse.hpp, cfg.hpp, dataflow.hpp).
//
// Ten named rules enforce the project invariants review keeps
// re-checking by hand (DESIGN.md §9):
//
//   determinism      no wall-clock / ambient randomness / getenv / pointer
//                    hashing in code that feeds study tables
//   alert-exhaustive every AlertDescription enumerator is handled by each
//                    registered classification/rendering switch
//   banned-api       strcpy/sprintf/atoi-family calls
//   include-hygiene  relative "../" includes, `using namespace` in headers
//   raw-io           no raw fopen/fwrite/fstream file I/O in capture-store
//                    code outside the CheckedFile chokepoint
//   timing-hygiene   no raw std::chrono clock reads outside the obs timing
//                    chokepoint and the bench harness
//   lock-across-suspension
//                    no std::mutex / lock_guard / unique_lock region that
//                    spans a co_await/co_yield suspension edge in coroutine
//                    code — a parked coroutine resumes later with the mutex
//                    still held, deadlocking its peers
//   thread-local-across-suspension
//                    no thread_local state (or RAII types over it: the
//                    ProfileZone cursor) live on both
//                    sides of a suspension point — the resume may run on a
//                    different thread's state
//   secret-taint     values derived from key/ticket/premaster material must
//                    not reach trace/log/metrics/format sinks except via an
//                    allowlisted digest wrapper; taint propagates through
//                    locals and (interprocedural-lite) through returns
//   unchecked-result calls returning status/error/optional types whose
//                    result is silently discarded
//
// Suppression: an allow comment (the iotls-lint tag followed by a
// parenthesized rule list) silences those rules on its own line and on the
// following line. Allows that no longer suppress anything are reported by
// `--stale-allows`.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace iotls::lint {

struct Finding {
  std::string file;  // repo-relative path, forward slashes
  int line = 0;
  std::string rule;
  std::string message;
  std::string severity = "error";
};

/// One lexed source file, path-normalized relative to the lint root.
struct SourceFile {
  std::string path;
  LexResult lex;
  [[nodiscard]] bool is_header() const {
    return path.size() >= 4 && (path.rfind(".hpp") == path.size() - 4 ||
                                path.rfind(".h") == path.size() - 2);
  }
};

struct RuleConfig {
  /// Files where `getenv` is legitimate (the one strict parsing chokepoint).
  std::vector<std::string> getenv_allowed_files = {"src/common/env.hpp"};

  /// Where the AlertDescription enum definition lives.
  std::string alert_enum_file = "src/tls/alert.hpp";

  /// Switches that MUST carry an alert-exhaustive marker comment somewhere
  /// in the tree. Deleting a registered switch (or its marker) is itself a
  /// violation — the invariant cannot silently vanish.
  std::vector<std::string> required_alert_markers = {
      "alert_name", "alert_display", "alert_classify"};

  /// Scope of the `raw-io` rule: files whose repo-relative path contains
  /// one of these fragments must route all file I/O through the capture
  /// store's checked chokepoint (store::CheckedFile). The query layer
  /// reads shards, so it inherits the store's discipline.
  std::vector<std::string> raw_io_scope_fragments = {
      "src/store/", "tools/store/", "src/query/", "tools/query/",
      "src/fleet/", "tools/fleet/"};
  /// The chokepoint implementation itself — the one file in scope allowed
  /// to touch raw stdio.
  std::vector<std::string> raw_io_allowed_files = {"src/store/io.cpp"};

  /// Scope of the `timing-hygiene` rule: files whose repo-relative path
  /// contains one of these fragments may read std::chrono clocks directly.
  /// Everything else measures time through obs::WallTimer /
  /// obs::profile_now_ns so clock access stays auditable in one place.
  std::vector<std::string> timing_allowed_fragments = {"src/obs/", "bench/"};

  // ---- coroutine-safety rules (lock/thread-local across suspension) ----

  /// RAII lock types whose lifetime may not span a suspension edge.
  std::vector<std::string> lock_types = {"lock_guard", "unique_lock",
                                         "scoped_lock", "shared_lock"};
  /// RAII types whose constructor/destructor touch thread_local state
  /// (the ProfileZone cursor): constructing one before a suspension and
  /// destroying it after is a cross-thread hazard once a scheduler resumes
  /// the coroutine elsewhere.
  std::vector<std::string> thread_local_raii_types = {"ProfileZone"};

  // ---------------------------- secret-taint ----------------------------

  /// Identifier fragments that SEED taint: any identifier containing one
  /// of these names key/ticket/premaster material.
  std::vector<std::string> secret_name_fragments = {
      "premaster", "master_secret", "ticket_key", "private_key",
      "shared_secret"};
  /// Calls through which taint does NOT propagate — the allowlisted
  /// digest/metadata wrappers (log a fingerprint, never the secret).
  std::vector<std::string> taint_sanitizers = {
      "secret_digest", "digest_hex", "fingerprint_hex", "modulus_bits",
      "size", "bits"};

  // -------------------------- unchecked-result --------------------------

  /// Return-type spellings (matched against the normalized declaration,
  /// its last ::-component, or its template head) whose values must not
  /// be silently discarded at a call site. `[[nodiscard]]` declarations
  /// are skipped — the compiler already enforces those.
  std::vector<std::string> status_types = {
      "StoreIoError", "StoreFormatError", "StoreCorruptionError",
      "ErrorCode",    "Status",           "optional"};
};

/// Names of every rule, for --list-rules and suppression validation.
const std::vector<std::string>& rule_names();

/// One allow-directive site, usage-marked after a run.
struct AllowSite {
  std::string file;
  int line = 0;
  std::string rule;
  bool used = false;
  bool known_rule = true;  // rule name exists in the v2 catalogue
};

struct RuleTiming {
  std::string rule;  // rule name, or "parse" for the shared parse pass
  double ms = 0.0;
};

struct RunResult {
  std::vector<Finding> findings;        // sorted by (file, line, rule)
  std::vector<AllowSite> allows;        // every allow() directive seen
};

/// Run all rules over a set of lexed files. Cross-file rules
/// (alert-exhaustive, secret-taint summaries, unchecked-result
/// declarations) see the whole set; suppression comments are applied
/// before findings are returned. Output is sorted by (file, line, rule).
std::vector<Finding> run_rules(const std::vector<SourceFile>& files,
                               const RuleConfig& config);

/// Full-fat entry point: additionally reports every allow() site with its
/// usage bit (for --stale-allows), and — when `now_ms` is provided —
/// per-rule wall time. The clock is INJECTED so tools/lint itself never
/// reads std::chrono (the timing-hygiene rule applies to the linter too);
/// bench/bench_lint.cpp passes one in.
RunResult run_rules_full(const std::vector<SourceFile>& files,
                         const RuleConfig& config,
                         const std::function<double()>& now_ms = nullptr,
                         std::vector<RuleTiming>* timings = nullptr);

}  // namespace iotls::lint
