#include "obs/report.hpp"

#include <cstdio>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

// Build identity defaults: the obs CMakeLists passes the real values; the
// fallbacks keep non-CMake tooling (clangd, single-file builds) compiling.
#ifndef IOTLS_VERSION_STRING
#define IOTLS_VERSION_STRING "0.0.0"
#endif
#ifndef IOTLS_BUILD_TYPE
#define IOTLS_BUILD_TYPE "unknown"
#endif
#ifndef IOTLS_SANITIZERS
#define IOTLS_SANITIZERS "none"
#endif

namespace iotls::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
  }
  return out;
}

std::string quoted(const std::string& s) {
  const std::string escaped = json_escape(s);
  std::string out;
  out.reserve(escaped.size() + 2);
  out.push_back('"');
  out.append(escaped);
  out.push_back('"');
  return out;
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info{IOTLS_VERSION_STRING, __VERSION__,
                              IOTLS_BUILD_TYPE, IOTLS_SANITIZERS};
  return info;
}

std::string build_info_label() {
  const BuildInfo& info = build_info();
  return "version=" + info.version + ";compiler=" + info.compiler +
         ";build=" + info.build_type + ";san=" + info.sanitizers;
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

std::string render_run_report_json(const RunReport& report) {
  const BuildInfo& info = build_info();
  std::string out = "{\n";
  out += "  \"schema\": \"iotls-run-report/1\",\n";
  out += "  \"tool\": " + quoted(report.tool) + ",\n";
  out += "  \"build\": {\"version\": " + quoted(info.version) +
         ", \"compiler\": " + quoted(info.compiler) +
         ", \"build_type\": " + quoted(info.build_type) +
         ", \"sanitizers\": " + quoted(info.sanitizers) + "},\n";
  out += "  \"knobs\": {";
  for (std::size_t i = 0; i < report.knobs.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(report.knobs[i].first) + ": " +
           quoted(report.knobs[i].second);
  }
  out += "},\n";
  if (report.include_profile) {
    const ProfileSnapshot snapshot = profile_snapshot();
    out += "  \"profile\": {\"enabled\": ";
    out += profile_enabled() ? "true" : "false";
    out += ", \"threads\": " + std::to_string(snapshot.threads);
    out += ", \"events_dropped\": " +
           std::to_string(snapshot.events_dropped);
    out += ", \"tree\": " + profile_tree_to_json(snapshot.root) + "},\n";
  }
  if (report.include_metrics) {
    out += "  \"metrics\": " + MetricsRegistry::global().render_json() +
           ",\n";
  }
  out += "  \"peak_rss_bytes\": " + std::to_string(peak_rss_bytes()) + "\n";
  out += "}\n";
  return out;
}

bool write_run_report(const RunReport& report, const std::string& path) {
  const std::string body = render_run_report_json(report);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write run report %s\n",
                 path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), out) ==
                  body.size();
  std::fclose(out);
  if (!ok) {
    std::fprintf(stderr, "error: short write on run report %s\n",
                 path.c_str());
  }
  return ok;
}

}  // namespace iotls::obs
