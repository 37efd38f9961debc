#include "track.hpp"

#include <cmath>
#include <cstdio>

#include "common/json.hpp"

namespace iotls::bench_track {

namespace {

using common::Json;
using common::JsonError;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Doubles round-trip through the trajectory as %.6g — enough for bench
/// numbers, and stable under parse/render cycles.
std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

Lane lane_from_json(const Json& doc) {
  Lane lane;
  lane.bench = doc.at("bench").as_string();
  lane.iters = static_cast<std::uint64_t>(doc.at("iters").as_number());
  lane.wall_ms = doc.at("wall_ms").as_number();
  for (const auto& entry : doc.at("results").as_array()) {
    Measurement m;
    m.name = entry.at("name").as_string();
    m.value = entry.at("value").as_number();
    m.unit = entry.at("unit").as_string();
    lane.results.push_back(std::move(m));
  }
  return lane;
}

void render_lane(const Lane& lane, std::string* out) {
  *out += "{\"bench\": \"" + json_escape(lane.bench) + "\", \"iters\": " +
          std::to_string(lane.iters) + ", \"wall_ms\": " +
          number(lane.wall_ms) + ", \"results\": [";
  for (const auto& m : lane.results) {
    if (&m != &lane.results.front()) *out += ", ";
    *out += "{\"name\": \"" + json_escape(m.name) + "\", \"value\": " +
            number(m.value) + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  *out += "]}";
}

}  // namespace

Direction direction_for_unit(const std::string& unit) {
  if (unit == "bool") return Direction::BoolGate;
  if (unit.rfind("ms", 0) == 0 || unit.rfind("ns", 0) == 0) {
    return Direction::LowerBetter;
  }
  if (unit == "x" || unit.rfind("x_", 0) == 0) return Direction::HigherBetter;
  if (unit.size() >= 2 && unit.compare(unit.size() - 2, 2, "/s") == 0) {
    return Direction::HigherBetter;
  }
  return Direction::Info;
}

bool unit_is_relative(const std::string& unit) {
  return unit == "bool" || unit == "x" || unit.rfind("x_", 0) == 0;
}

Lane parse_bench_json(const std::string& text) {
  return lane_from_json(Json::parse(text));
}

ReportSummary parse_run_report(const std::string& text) {
  const Json doc = Json::parse(text);
  const std::string schema = doc.at("schema").as_string();
  if (schema != "iotls-run-report/1") {
    throw JsonError("unexpected run-report schema: " + schema, 0);
  }
  ReportSummary summary;
  summary.tool = doc.at("tool").as_string();
  if (const Json* rss = doc.find("peak_rss_bytes")) {
    summary.peak_rss_bytes = static_cast<std::uint64_t>(rss->as_number());
  }
  return summary;
}

TrajectoryEntry parse_trajectory_line(const std::string& line) {
  const Json doc = Json::parse(line);
  TrajectoryEntry entry;
  entry.label = doc.at("label").as_string();
  for (const auto& lane : doc.at("lanes").as_array()) {
    entry.lanes.push_back(lane_from_json(lane));
  }
  if (const Json* reports = doc.find("reports")) {
    for (const auto& report : reports->as_array()) {
      ReportSummary summary;
      summary.tool = report.at("tool").as_string();
      summary.peak_rss_bytes = static_cast<std::uint64_t>(
          report.at("peak_rss_bytes").as_number());
      entry.reports.push_back(std::move(summary));
    }
  }
  return entry;
}

std::string render_trajectory_line(const TrajectoryEntry& entry) {
  std::string out = "{\"schema\": \"iotls-bench-trajectory/1\", "
                    "\"label\": \"" + json_escape(entry.label) +
                    "\", \"lanes\": [";
  for (const auto& lane : entry.lanes) {
    if (&lane != &entry.lanes.front()) out += ", ";
    render_lane(lane, &out);
  }
  out += "], \"reports\": [";
  for (const auto& report : entry.reports) {
    if (&report != &entry.reports.front()) out += ", ";
    out += "{\"tool\": \"" + json_escape(report.tool) +
           "\", \"peak_rss_bytes\": " +
           std::to_string(report.peak_rss_bytes) + "}";
  }
  out += "]}";
  return out;
}

std::vector<Delta> compare(const TrajectoryEntry& prev,
                           const TrajectoryEntry& cur,
                           const CompareOptions& options) {
  const auto find_prev = [&prev](const std::string& bench,
                                 const std::string& name,
                                 const Measurement** out) {
    for (const auto& lane : prev.lanes) {
      if (lane.bench != bench) continue;
      for (const auto& m : lane.results) {
        if (m.name == name) {
          *out = &m;
          return true;
        }
      }
    }
    return false;
  };

  std::vector<Delta> deltas;
  for (const auto& lane : cur.lanes) {
    for (const auto& m : lane.results) {
      Delta d;
      d.bench = lane.bench;
      d.name = m.name;
      d.unit = m.unit;
      d.cur = m.value;
      d.direction = direction_for_unit(m.unit);
      d.gated = d.direction != Direction::Info &&
                (!options.relative_only || unit_is_relative(m.unit));

      const Measurement* previous = nullptr;
      if (!find_prev(lane.bench, m.name, &previous)) {
        d.fresh = true;
        deltas.push_back(std::move(d));
        continue;
      }
      d.prev = previous->value;
      switch (d.direction) {
        case Direction::BoolGate:
          // Parity gates regress on any drop, threshold notwithstanding.
          d.regression = d.gated && d.prev >= 0.5 && d.cur < 0.5;
          break;
        case Direction::LowerBetter:
        case Direction::HigherBetter: {
          // Percent change in the improvement direction against the
          // previous value: for lower-better, shrinking is positive; for
          // higher-better, growing is positive. A zero baseline yields no
          // percentage (tracked, not gated this round).
          if (std::abs(d.prev) > 0.0) {
            const double sign =
                d.direction == Direction::LowerBetter ? -1.0 : 1.0;
            d.change_pct = sign * 100.0 * (d.cur - d.prev) / d.prev;
          }
          d.regression = d.gated && d.change_pct < -options.max_regress_pct;
          break;
        }
        case Direction::Info:
          break;
      }
      deltas.push_back(std::move(d));
    }
  }
  return deltas;
}

std::string render_deltas(const std::vector<Delta>& deltas) {
  std::string out;
  char line[256];
  for (const auto& d : deltas) {
    const std::string metric = d.bench + "/" + d.name;
    const char* tag = d.regression                          ? "REGRESSION"
                      : d.fresh                             ? "new"
                      : d.direction == Direction::Info      ? "info"
                      : d.gated                             ? "ok"
                                                            : "info";
    if (d.fresh) {
      std::snprintf(line, sizeof(line), "%-36s %14.4g %-10s %10s %s\n",
                    metric.c_str(), d.cur, d.unit.c_str(), "-", tag);
    } else {
      std::snprintf(line, sizeof(line), "%-36s %14.4g %-10s %+9.2f%% %s\n",
                    metric.c_str(), d.cur, d.unit.c_str(), d.change_pct, tag);
    }
    out += line;
  }
  return out;
}

}  // namespace iotls::bench_track
