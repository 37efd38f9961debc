// Benchmark driver: runs one unit of a benchmark workload in this process
// and writes what it measured as one JSON document. perfbench/run.py builds
// this binary, starts one fresh process per unit, checks the outputs and
// aggregates the numbers (see perfbench/README.md).
//
// Workloads (the default configuration throughout: engine off, crypto
// caches on, profiler off, metrics off unless --trace), with every fan-out
// serial unless --threads says otherwise (0 = hardware concurrency):
//   repro   CaUniverse + IotlsStudy (setup), then every table, figure and
//           the §5.1 summary (work).
//   fleet   CaUniverse (setup), then synthesize_fleet + run_campaign (work).
//   query   CaUniverse, IotlsStudy, passive-store export, fleet store and
//           in-memory oracle renders (setup); then a closed loop of queries
//           and streamed analysis passes drawn from a seeded fixed set.
//   probes  layer micro-probes: modexp, RSA, keygen, SHA-256, handshakes.
//
// Usage:
//   perfbench_driver --workload W --seed N --out FILE [--run-id ID]
//                    [--work-dir DIR] [--budget-s S] [--min-rounds R]
//                    [--threads N] [--trace] [--spans FILE] [--oracle]
//                    [--flip K]
//
// --trace records spans around every call into a layer (kept in memory,
// written to --spans once at exit) and switches the metrics registry on.
// --oracle (query only) skips the timed loop and instead answers every
// distinct query once through run_query_naive: the digests the measured
// processes' results are checked against. --flip K flips one byte of the
// K-th checked output before it is checked (the benchmark's own corruption
// test).
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/fold.hpp"
#include "analysis/longitudinal.hpp"
#include "analysis/revocation.hpp"
#include "analysis/summary.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "core/study.hpp"
#include "crypto/bignum.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "fleet/campaign.hpp"
#include "fleet/synth.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "pki/ca.hpp"
#include "pki/universe.hpp"
#include "query/scan.hpp"
#include "store/io.hpp"
#include "store/reader.hpp"
#include "tls/client.hpp"
#include "tls/server.hpp"

namespace {

namespace fs = std::filesystem;
using iotls::obs::profile_now_ns;

// Workload sizes. The fleet is large enough that per-instance stamping and
// store encoding dominate the fixed template-bank handshakes; the query
// store is sized so that a serial round of its queries takes about two
// seconds on a 4-core Xeon VM, and a run holds several rounds.
constexpr std::uint64_t kFleetInstances = 500'000;
constexpr std::uint64_t kQueryFleetInstances = 100'000;

/// The 8-model vendor mix bench_fleet uses.
std::vector<std::string> fleet_mix() {
  return {"Amazon Echo Dot", "Fire TV",         "Apple TV",
          "Google Home Mini", "Yi Camera",      "Ring Doorbell",
          "Smartthings Hub",  "Philips Hub"};
}

// ---------------------------------------------------------------------------
// Span recorder: one flat in-memory list, written once at exit. Spans are
// opened only on the main thread, around calls into a layer's public API.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
};

class Tracer {
 public:
  void enable() { on_ = true; }
  [[nodiscard]] bool on() const { return on_; }

  std::size_t open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    span.start_ns = profile_now_ns();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    spans_[id].end_ns = profile_now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

/// RAII span; a no-op (no clock read) when tracing is off.
class SpanScope {
 public:
  explicit SpanScope(std::string name) {
    if (tracer().on()) id_ = tracer().open(std::move(name));
  }
  ~SpanScope() {
    if (id_) tracer().close(*id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::optional<std::size_t> id_;
};

// ---------------------------------------------------------------------------
// Small helpers: clocks, JSON, digests.
// ---------------------------------------------------------------------------

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(profile_now_ns() - start_ns) / 1e9;
}

/// Process CPU time (user + system, all threads) in seconds.
double process_cpu_s() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Insertion-ordered JSON object builder.
class JsonObject {
 public:
  void num(const std::string& key, double value) {
    fields_.emplace_back(key, json_number(value));
  }
  void str(const std::string& key, std::string_view value) {
    fields_.emplace_back(key, json_quote(value));
  }
  void raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }
  [[nodiscard]] std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

iotls::common::BytesView as_bytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

std::string sha256_hex(std::string_view text) {
  return iotls::common::hex_encode(
      iotls::crypto::Sha256::digest(as_bytes(text)));
}

/// A checked output: its digest, and — when this process could check it
/// itself — the verdict. Digest-only outputs are checked by run.py against
/// committed digests or across processes.
struct Output {
  std::string name;
  std::string digest;
  std::optional<bool> ok;
};

/// Output corruption for the benchmark's own test: flips one byte of the
/// K-th output that passes through here.
class Flipper {
 public:
  explicit Flipper(long target) : target_(target) {}
  void apply(std::string* bytes) {
    if (seen_++ == target_ && !bytes->empty()) {
      (*bytes)[bytes->size() / 2] ^= 0x01;
    }
  }

 private:
  long target_;
  long seen_ = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  std::string out;
  std::string run_id = "run";
  std::string work_dir = ".";
  std::string spans;
  double budget_s = 10.0;
  std::uint64_t min_rounds = 1;
  std::size_t threads = 1;
  bool trace = false;
  bool oracle = false;
  long flip = -1;
};

template <typename T>
bool parse_number(std::string_view text, T* value) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *value);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--trace") {
      args.trace = true;
      continue;
    }
    if (flag == "--oracle") {
      args.oracle = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string_view value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      ok = parse_number(value, &args.seed);
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--run-id") {
      args.run_id = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--budget-s") {
      ok = parse_number(value, &args.budget_s) &&
           std::isfinite(args.budget_s);
    } else if (flag == "--min-rounds") {
      ok = parse_number(value, &args.min_rounds);
    } else if (flag == "--threads") {
      ok = parse_number(value, &args.threads);
    } else if (flag == "--flip") {
      ok = parse_number(value, &args.flip);
    } else {
      ok = false;
    }
    if (!ok) return std::nullopt;
  }
  if (args.out.empty() || args.workload.empty()) return std::nullopt;
  return args;
}

/// What one unit reports besides its checked outputs.
struct Report {
  JsonObject values;  ///< named numbers (e2e inputs and layer values)
  std::vector<std::string> ops;  ///< query loop: one JSON object per op
};

// ---------------------------------------------------------------------------
// repro: the full paper reproduction.
// ---------------------------------------------------------------------------

void run_repro(const Args& args, Flipper& flip, Report& report,
               std::vector<Output>& outputs) {
  const std::uint64_t setup_start = profile_now_ns();
  {
    const SpanScope span("pki.universe");
    (void)iotls::pki::CaUniverse::standard();
  }
  iotls::core::IotlsStudy::Options options;
  options.seed = args.seed;
  options.metrics_enabled = args.trace;
  options.threads = args.threads;
  std::unique_ptr<iotls::core::IotlsStudy> study;
  {
    const SpanScope span("testbed.construct");
    study = std::make_unique<iotls::core::IotlsStudy>(options);
  }
  report.values.num("setup_s", seconds_since(setup_start));

  const double cpu_start = process_cpu_s();
  const std::uint64_t work_start = profile_now_ns();
  {
    const SpanScope span("testbed.passive");
    (void)study->passive_dataset();
  }
  {
    const SpanScope span("core.table4");
    (void)study->library_probe_rows();
  }
  {
    const SpanScope span("mitm.downgrade");
    (void)study->downgrade_report();
  }
  {
    const SpanScope span("mitm.old_version");
    (void)study->old_version_report();
  }
  {
    const SpanScope span("mitm.interception");
    (void)study->interception_report();
  }
  {
    const SpanScope span("probe.root_store");
    (void)study->root_store_results();
  }
  {
    const SpanScope span("fingerprint.study");
    (void)study->fingerprint_study();
  }
  std::vector<std::pair<std::string, std::string>> artifacts;
  {
    const SpanScope span("analysis.render");
    artifacts = {
        {"table1", study->render_table1()},
        {"table2", study->render_table2()},
        {"table3", study->render_table3()},
        {"table4", study->render_table4()},
        {"table5", study->render_table5()},
        {"table6", study->render_table6()},
        {"table7", study->render_table7()},
        {"table8", study->render_table8()},
        {"table9", study->render_table9()},
        {"fig1", study->render_fig1()},
        {"fig2", study->render_fig2()},
        {"fig3", study->render_fig3()},
        {"fig4", study->render_fig4()},
        {"fig5", study->render_fig5()},
        {"summary", iotls::analysis::render_summary(study->summary())},
    };
  }
  report.values.num("work_s", seconds_since(work_start));
  report.values.num("work_cpu_s", process_cpu_s() - cpu_start);

  for (auto& [name, text] : artifacts) {
    flip.apply(&text);
    outputs.push_back({name, sha256_hex(text), std::nullopt});
  }
}

// ---------------------------------------------------------------------------
// fleet: synthesis + scan campaign.
// ---------------------------------------------------------------------------

/// SHA-256 over every shard of a store, concatenated in shard order.
std::string store_digest(const std::string& dir, Flipper& flip) {
  iotls::crypto::Sha256 hash;
  bool first = true;
  std::string buffer(1 << 16, '\0');
  for (const auto& path : iotls::store::list_shards(dir)) {
    iotls::store::CheckedFile file = iotls::store::CheckedFile::open_read(path);
    for (;;) {
      const std::size_t n = file.read(buffer.data(), buffer.size());
      if (n == 0) break;
      std::string_view chunk(buffer.data(), n);
      std::string flipped;
      if (first) {
        flipped = chunk;
        flip.apply(&flipped);
        chunk = flipped;
        first = false;
      }
      hash.update(as_bytes(chunk));
    }
  }
  return iotls::common::hex_encode(hash.finish());
}

/// Store read-side layer probes: full validation and shard indexing.
void store_read_layers(const std::string& dir, std::size_t threads,
                       Report& report) {
  iotls::store::ValidateReport validated;
  const std::uint64_t validate_start = profile_now_ns();
  {
    const SpanScope span("store.validate");
    validated = iotls::store::validate_store(dir, threads);
  }
  const double validate_s = seconds_since(validate_start);
  report.values.num("store.validate_mib_per_s",
                    static_cast<double>(validated.bytes) / (1 << 20) /
                        validate_s);
  const SpanScope span("store.index");
  for (const auto& path : iotls::store::list_shards(dir)) {
    (void)iotls::store::read_shard_index(path);
  }
}

iotls::fleet::SynthOptions fleet_synth_options(std::uint64_t seed,
                                               std::uint64_t instances,
                                               std::size_t threads) {
  iotls::fleet::SynthOptions options;
  options.threads = threads;
  options.fleet.seed = seed;
  options.fleet.instances = instances;
  options.fleet.devices = fleet_mix();
  return options;
}

void run_fleet(const Args& args, Flipper& flip, Report& report,
               std::vector<Output>& outputs) {
  const std::uint64_t setup_start = profile_now_ns();
  const iotls::pki::CaUniverse* universe = nullptr;
  {
    const SpanScope span("pki.universe");
    universe = &iotls::pki::CaUniverse::standard();
  }
  report.values.num("setup_s", seconds_since(setup_start));

  const std::string dir = (fs::path(args.work_dir) / "fleet-store").string();
  fs::remove_all(dir);
  const auto synth_options =
      fleet_synth_options(args.seed, kFleetInstances, args.threads);
  iotls::fleet::CampaignOptions campaign_options;
  campaign_options.fleet = synth_options.fleet;
  campaign_options.threads = args.threads;

  const double cpu_start = process_cpu_s();
  const std::uint64_t work_start = profile_now_ns();
  iotls::fleet::SynthReport synth;
  const std::uint64_t synth_start = profile_now_ns();
  {
    const SpanScope span("fleet.synth");
    synth = iotls::fleet::synthesize_fleet(synth_options, dir);
  }
  const double synth_s = seconds_since(synth_start);
  iotls::fleet::CampaignReport campaign;
  {
    const SpanScope span("fleet.campaign");
    campaign = iotls::fleet::run_campaign(campaign_options);
  }
  report.values.num("work_s", seconds_since(work_start));
  report.values.num("work_cpu_s", process_cpu_s() - cpu_start);

  report.values.num("store.bytes_written", static_cast<double>(synth.bytes));
  report.values.num("store.write_mib_per_s",
                    static_cast<double>(synth.bytes) / (1 << 20) / synth_s);
  report.values.num("fleet.template_handshakes",
                    static_cast<double>(synth.template_handshakes));
  report.values.num("fleet.probe_keys",
                    static_cast<double>(campaign.probe_keys));

  outputs.push_back({"shards", store_digest(dir, flip), std::nullopt});
  std::string tables = campaign.tables.render();
  flip.apply(&tables);
  outputs.push_back({"campaign_tables", sha256_hex(tables), std::nullopt});

  if (args.trace) {
    // A fresh template bank filled over every (model, epoch, drift) key
    // the fleet can reach: the synthesis handshakes without the stamping.
    const iotls::fleet::FleetModel model(synth_options.fleet);
    iotls::fleet::TemplateBank bank(model, *universe);
    const SpanScope span("fleet.template_bank");
    for (std::uint32_t m = 0; m < model.models().size(); ++m) {
      const int epochs = static_cast<int>(model.epochs(m).size());
      for (int epoch = 0; epoch <= epochs; ++epoch) {
        for (int drift = 0;
             drift < static_cast<int>(iotls::fleet::kDriftDays.size());
             ++drift) {
          (void)bank.get({m, epoch, drift});
        }
      }
    }
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// query: the read side of the store.
// ---------------------------------------------------------------------------

struct QuerySpec {
  std::string cls;  ///< pushdown / full_scan / projected / contains / group_by
  iotls::query::QueryOptions options;
};

iotls::query::QueryOptions make_query(std::string filter,
                                      std::vector<std::string> columns = {},
                                      std::vector<std::string> group_by = {}) {
  iotls::query::QueryOptions options;
  options.filter = std::move(filter);
  options.columns = std::move(columns);
  options.group_by = std::move(group_by);
  return options;
}

/// The fixed query set over the fleet store. Filters name only catalog
/// models, months and protocol values, so every seed's fleet answers them.
std::vector<QuerySpec> query_set() {
  const std::vector<std::string> wide = {
      "device",  "dest",      "month",     "count",     "version",
      "cipher",  "adv_version", "adv_suite", "extension", "group",
      "sigalg",  "alert"};
  return {
      // Pushdown-pruned: block summaries rule every block out.
      {"pushdown", make_query("count > 24")},
      {"pushdown", make_query("alert != none")},
      {"pushdown", make_query("month > \"2020-03\" and count >= 3")},
      {"pushdown", make_query("device >= \"Zz\"", wide)},
      // Full-column scans: every block read, every list column decoded.
      {"full_scan", make_query("count == 7", wide)},
      {"full_scan", make_query("version == tls1.2 and count >= 23", wide)},
      {"full_scan", make_query("vendor == \"Ring\" and month <= \"2019-06\"",
                               wide)},
      // Projected scans: scalar columns only.
      {"projected", make_query("count >= 22", {"device", "month", "count"})},
      {"projected", make_query("vendor == \"Amazon\" and count == 3",
                               {"device", "dest", "version"})},
      // contains on list columns.
      {"contains",
       make_query("adv_suite contains TLS_RSA_WITH_RC4_128_SHA and count == 5",
                  {"device", "month", "count"})},
      {"contains", make_query("adv_version contains tls1.0 and count == 11",
                              {"device", "version", "cipher"})},
      // Group-by aggregations.
      {"group_by", make_query("", {}, {"vendor", "version"})},
      {"group_by", make_query("count > 12", {}, {"month"})},
      {"group_by", make_query("", {}, {"cipher", "complete"})},
  };
}

/// FNV-1a over a result's columns and cells, with separators.
std::uint64_t result_fingerprint(const iotls::query::QueryResult& result) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::string_view text) {
    for (const char c : text) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    hash = (hash ^ 0x1f) * 1099511628211ull;
  };
  for (const auto& column : result.columns) mix(column);
  for (const auto& row : result.rows) {
    for (const auto& cell : row) mix(cell);
    hash = (hash ^ 0x1e) * 1099511628211ull;
  }
  return hash;
}

/// The streamed analysis pass: fold the passive store on the scan path,
/// then render Figs 1-3, Table 8 and the §5.1 summary from the fold.
std::string fold_pass(const iotls::store::DatasetCursor& cursor,
                      const std::vector<iotls::common::Month>& months,
                      const iotls::analysis::FoldOptions& options) {
  iotls::analysis::DatasetFold fold;
  {
    const SpanScope span("analysis.fold_store_scan");
    fold = iotls::analysis::fold_store_scan(cursor, months, options);
  }
  const auto versions = iotls::analysis::all_version_series(fold);
  const auto ciphers = iotls::analysis::all_cipher_series(fold);
  return iotls::analysis::render_fig1(versions, months) +
         iotls::analysis::render_fig2(ciphers) +
         iotls::analysis::render_fig3(ciphers) +
         iotls::analysis::render_table8(
             iotls::analysis::analyze_revocation(fold), 40) +
         iotls::analysis::render_summary(iotls::analysis::summarize(fold));
}

void run_query(const Args& args, Flipper& flip, Report& report,
               std::vector<Output>& outputs) {
  const std::string fleet_dir =
      (fs::path(args.work_dir) / "query-fleet").string();
  const std::string passive_dir =
      (fs::path(args.work_dir) / "query-passive").string();
  fs::remove_all(fleet_dir);
  fs::remove_all(passive_dir);

  // Setup: universe, study, store writes, in-memory oracle renders.
  const std::uint64_t setup_start = profile_now_ns();
  {
    const SpanScope span("pki.universe");
    (void)iotls::pki::CaUniverse::standard();
  }
  iotls::core::IotlsStudy::Options options;
  options.seed = args.seed;
  options.metrics_enabled = args.trace;
  options.threads = args.threads;
  std::unique_ptr<iotls::core::IotlsStudy> study;
  {
    const SpanScope span("testbed.construct");
    study = std::make_unique<iotls::core::IotlsStudy>(options);
  }
  {
    const SpanScope span("testbed.passive");
    (void)study->passive_dataset();
  }
  {
    const SpanScope span("store.export_passive");
    (void)study->export_passive_store(passive_dir);
  }
  {
    const SpanScope span("fleet.synth");
    (void)iotls::fleet::synthesize_fleet(
        fleet_synth_options(args.seed, kQueryFleetInstances, args.threads),
        fleet_dir);
  }
  const std::string fold_oracle =
      study->render_fig1() + study->render_fig2() + study->render_fig3() +
      study->render_table8() +
      iotls::analysis::render_summary(study->summary());
  report.values.num("setup_s", seconds_since(setup_start));

  auto queries = query_set();
  for (auto& query : queries) query.options.threads = args.threads;
  iotls::analysis::FoldOptions fold_options;
  fold_options.threads = args.threads;
  const auto months = iotls::analysis::study_months();
  const auto cursor = iotls::store::DatasetCursor::open(passive_dir);

  // Oracle mode: every distinct query once through run_query_naive; the
  // digests are what the measured processes' scan results must match.
  if (args.oracle) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto naive =
          iotls::query::run_query_naive(fleet_dir, queries[q].options);
      outputs.push_back({"q" + std::to_string(q),
                         sha256_hex(iotls::query::render_tsv(naive)),
                         std::nullopt});
    }
    outputs.push_back({"fold", sha256_hex(fold_oracle), std::nullopt});
    fs::remove_all(fleet_dir);
    fs::remove_all(passive_dir);
    return;
  }

  // The timed loop runs rounds: each round is every query and one fold
  // pass, one at a time, in an order the seeded stream shuffles. Rounds
  // repeat until the budget is spent and at least --min-rounds ran; the
  // last one always completes.
  const std::size_t fold_op = queries.size();
  std::vector<std::size_t> deck;
  for (std::size_t op = 0; op <= fold_op; ++op) deck.push_back(op);
  iotls::common::Rng draw = iotls::common::Rng::derive(args.seed, "perfbench");

  // Per distinct query: the digest of its first result as TSV, and a cheap
  // fingerprint every later execution must repeat. Results are dropped
  // after each op, so they do not inflate peak RSS.
  std::vector<std::optional<std::string>> digest(queries.size());
  std::vector<std::uint64_t> fingerprint(queries.size(), 0);
  std::vector<bool> repeat_ok(queries.size() + 1, true);
  std::optional<std::string> first_fold;
  const std::uint64_t loop_start = profile_now_ns();
  std::vector<std::size_t> round;
  for (std::uint64_t rounds = 0;
       !round.empty() || rounds < args.min_rounds ||
       seconds_since(loop_start) < args.budget_s;) {
    if (round.empty()) {
      round = deck;
      draw.shuffle(round);
      ++rounds;
    }
    const std::size_t op = round.back();
    round.pop_back();
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = profile_now_ns();
    JsonObject entry;
    if (op == fold_op) {
      std::string rendered;
      {
        const SpanScope span("analysis.fold_pass");
        rendered = fold_pass(cursor, months, fold_options);
      }
      const double ms = seconds_since(t0) * 1e3;
      entry.str("op", "fold");
      entry.str("class", "fold");
      entry.num("ms", ms);
      entry.num("cpu_ms", (process_cpu_s() - cpu0) * 1e3);
      if (!first_fold) {
        first_fold = std::move(rendered);
      } else if (rendered != *first_fold) {
        repeat_ok[fold_op] = false;
      }
    } else {
      iotls::query::QueryResult result;
      {
        const SpanScope span("query." + queries[op].cls);
        result = iotls::query::run_query(fleet_dir, queries[op].options);
      }
      const double ms = seconds_since(t0) * 1e3;
      entry.str("op", "q" + std::to_string(op));
      entry.str("class", queries[op].cls);
      entry.num("ms", ms);
      entry.num("cpu_ms", (process_cpu_s() - cpu0) * 1e3);
      entry.num("blocks_total", static_cast<double>(result.stats.blocks_total));
      entry.num("blocks_scanned",
                static_cast<double>(result.stats.blocks_scanned));
      entry.num("rows_scanned", static_cast<double>(result.stats.rows_scanned));
      entry.num("rows_matched", static_cast<double>(result.stats.rows_matched));
      if (!digest[op]) {
        std::string tsv = iotls::query::render_tsv(result);
        flip.apply(&tsv);
        digest[op] = sha256_hex(tsv);
        fingerprint[op] = result_fingerprint(result);
      } else if (result_fingerprint(result) != fingerprint[op]) {
        repeat_ok[op] = false;
      }
    }
    report.ops.push_back(entry.render());
  }

  // Outputs: every distinct query (run.py compares the digest with the
  // oracle process's; repeat executions must equal the first) and the fold
  // pass (against the in-memory renders, which is its oracle).
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (!digest[q]) continue;
    outputs.push_back({"q" + std::to_string(q), *digest[q],
                       repeat_ok[q] ? std::nullopt : std::optional(false)});
  }
  if (first_fold) {
    std::string fold_text = *first_fold;
    flip.apply(&fold_text);
    outputs.push_back({"fold", sha256_hex(fold_text),
                       fold_text == fold_oracle && repeat_ok[fold_op]});
  }

  if (args.trace) {
    {
      const SpanScope span("analysis.fold_store");
      (void)iotls::analysis::fold_store(cursor, months, fold_options);
    }
    {
      const SpanScope span("analysis.fold_dataset");
      (void)iotls::analysis::fold_dataset(study->passive_dataset(), months,
                                          fold_options);
    }
    store_read_layers(fleet_dir, args.threads, report);
  }
  fs::remove_all(fleet_dir);
  fs::remove_all(passive_dir);
}

// ---------------------------------------------------------------------------
// probes: the public crypto and TLS calls on workload-shaped inputs.
// ---------------------------------------------------------------------------

/// An odd modulus of exactly `bits` bits and a base below it.
std::pair<iotls::crypto::BigUint, iotls::crypto::BigUint> modexp_inputs(
    iotls::common::Rng& rng, std::size_t bits) {
  using iotls::crypto::BigUint;
  BigUint modulus =
      BigUint(1).shift_left(bits - 1).add(BigUint::random_bits(rng, bits - 1));
  if (!modulus.is_odd()) modulus = modulus.add(BigUint(1));
  return {modulus, BigUint::random_below(rng, modulus)};
}

void run_probes(const Args& args, Report& report) {
  using iotls::crypto::BigUint;
  iotls::common::Rng rng = iotls::common::Rng::derive(args.seed, "probes");

  for (const auto& [bits, reps] :
       std::vector<std::pair<std::size_t, int>>{{256, 400}, {1024, 60},
                                                {2048, 16}}) {
    const auto [modulus, base] = modexp_inputs(rng, bits);
    const BigUint exponent = BigUint::random_bits(rng, bits);
    const std::string name = "crypto.modexp_" + std::to_string(bits);
    for (int i = 0; i < reps; ++i) {
      const SpanScope span(name);
      (void)base.modexp(exponent, modulus);
    }
  }

  const auto key1024 = iotls::crypto::rsa_generate(rng, 1024);
  const BigUint message = BigUint::random_below(rng, key1024.priv.n);
  for (int i = 0; i < 60; ++i) {
    const SpanScope span("crypto.rsa_private_op_1024");
    (void)iotls::crypto::rsa_private_op(key1024.priv, message);
  }

  // Distinct generator states, so the keypair cache never answers.
  for (int i = 0; i < 12; ++i) {
    iotls::common::Rng key_rng = iotls::common::Rng::derive(
        args.seed, "keygen-" + std::to_string(i));
    const SpanScope span("crypto.keygen_512");
    (void)iotls::crypto::rsa_generate(key_rng, 512);
  }

  const std::string blob(1 << 20, '\xA5');
  for (int i = 0; i < 24; ++i) {
    const SpanScope span("crypto.sha256_1mib");
    (void)iotls::crypto::Sha256::digest(as_bytes(blob));
  }

  // Handshakes over the in-memory Transport, shaped like the study's: a
  // 512-bit server key under one root, ECDHE, session tickets on.
  iotls::pki::CertificateAuthority ca(
      iotls::x509::DistinguishedName::cn("perfbench root"), rng);
  const auto server_keys = iotls::crypto::rsa_generate(rng);
  iotls::pki::RootStore roots;
  roots.add(ca.root());
  iotls::tls::ServerConfig server_config;
  server_config.chain = {ca.issue_server_cert("bench.example.com",
                                              server_keys.pub)};
  server_config.keys = server_keys;
  server_config.seed = args.seed;
  iotls::tls::ClientConfig client_config;
  client_config.session_ticket = true;
  const auto connect = [&](const iotls::tls::ResumptionState* resume,
                           std::uint64_t i) {
    auto server = std::make_shared<iotls::tls::TlsServer>(server_config);
    iotls::tls::Transport transport(server);
    iotls::tls::TlsClient client(client_config, &roots,
                                 iotls::common::Rng(args.seed + i),
                                 iotls::common::SimDate{2021, 3, 1});
    return client.connect(transport, "bench.example.com", {}, resume);
  };
  std::optional<iotls::tls::ResumptionState> ticket;
  std::uint64_t failures = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    iotls::tls::ClientResult result;
    {
      const SpanScope span("tls.full_handshake");
      result = connect(nullptr, i);
    }
    if (!result.success() || !result.resumption) ++failures;
    if (!ticket) ticket = result.resumption;
  }
  for (std::uint64_t i = 0; ticket && i < 200; ++i) {
    iotls::tls::ClientResult result;
    {
      const SpanScope span("tls.resumed_handshake");
      result = connect(&*ticket, 1000 + i);
    }
    if (!result.resumed) ++failures;
  }
  if (!ticket) ++failures;
  report.values.num("probes.failures", static_cast<double>(failures));
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

void write_spans(const std::string& path, const std::string& run_id) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < tracer().spans().size(); ++i) {
    const Span& span = tracer().spans()[i];
    JsonObject line;
    line.num("id", static_cast<double>(i));
    line.str("name", span.name);
    line.num("start_ns", static_cast<double>(span.start_ns));
    line.num("end_ns", static_cast<double>(span.end_ns));
    line.num("parent", static_cast<double>(span.parent));
    line.str("run", run_id);
    out << line.render() << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload repro|fleet|query|probes "
                 "--seed N --out FILE [--run-id ID] [--work-dir DIR] "
                 "[--budget-s S] [--min-rounds R] [--threads N] [--trace] "
                 "[--spans FILE] [--oracle] [--flip K]\n");
    return 2;
  }
  const Args& args = *parsed;
  if (args.trace) tracer().enable();
  iotls::obs::set_metrics_enabled(args.trace);

  const std::uint64_t process_start = profile_now_ns();
  Flipper flip(args.flip);
  Report report;
  std::vector<Output> outputs;
  try {
    if (args.workload == "repro") {
      run_repro(args, flip, report, outputs);
    } else if (args.workload == "fleet") {
      run_fleet(args, flip, report, outputs);
    } else if (args.workload == "query") {
      run_query(args, flip, report, outputs);
    } else if (args.workload == "probes") {
      run_probes(args, report);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s failed: %s\n",
                 args.workload.c_str(), error.what());
    return 1;
  }

  report.values.num("process_s", seconds_since(process_start));
  report.values.num("process_cpu_s", process_cpu_s());
  report.values.num("peak_rss_mb",
                    static_cast<double>(iotls::obs::peak_rss_bytes()) /
                        (1 << 20));

  JsonObject doc;
  doc.str("workload", args.workload);
  doc.str("run_id", args.run_id);
  doc.num("seed", static_cast<double>(args.seed));
  doc.raw("values", report.values.render());
  std::string ops = "[";
  for (std::size_t i = 0; i < report.ops.size(); ++i) {
    ops += (i > 0 ? ", " : "") + report.ops[i];
  }
  doc.raw("ops", ops + "]");
  std::string checks = "[";
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    JsonObject check;
    check.str("name", outputs[i].name);
    check.str("digest", outputs[i].digest);
    check.raw("ok", outputs[i].ok ? (*outputs[i].ok ? "true" : "false")
                                  : "null");
    checks += (i > 0 ? ", " : "") + check.render();
  }
  doc.raw("outputs", checks + "]");
  if (args.trace) {
    doc.raw("metrics", iotls::obs::MetricsRegistry::global().render_json());
    if (!args.spans.empty()) write_spans(args.spans, args.run_id);
  }
  std::ofstream out(args.out);
  out << doc.render() << '\n';
  return out.good() ? 0 : 1;
}
