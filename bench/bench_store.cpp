// Capture-store lane: shard write/read throughput, the frame checksum's
// CRC-32 throughput, compression ratio vs the TSV release format, and the
// streamed-vs-in-memory parity gate (Figs 1-3, Table 8, the §5.1 summary),
// emitted as BENCH_store.json.
//
// Knobs:
//   IOTLS_THREADS       fan-out width for write/fold (0 = hardware)
//   IOTLS_BENCH_LAYOUT  0 = single shard (default), 1 = per-device shards
//
// Usage: bench_store [output.json]   (default ./BENCH_store.json)
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis/longitudinal.hpp"
#include "analysis/revocation.hpp"
#include "analysis/summary.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "store/format.hpp"
#include "store/io.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "testbed/longitudinal.hpp"

namespace {

namespace fs = std::filesystem;

/// The five release artifacts the parity gate compares byte-for-byte.
struct Artifacts {
  std::string fig1, fig2, fig3, table8, summary;

  bool operator==(const Artifacts&) const = default;
};

/// Best of `passes` CRC-32 passes over a fixed, seeded 1 MiB buffer: the
/// checksum every shard frame pays on write and on read.
iotls::bench::Throughput crc32_throughput(int passes) {
  const iotls::common::Bytes input =
      iotls::common::Rng(0xC3C32).bytes(std::size_t{1} << 20);
  iotls::bench::Throughput best;
  for (int pass = 0; pass < passes; ++pass) {
    const auto tp = iotls::bench::timed_throughput([&] {
      volatile std::uint32_t sink = iotls::store::crc32(input);
      (void)sink;
      return std::make_pair(std::uint64_t{0},
                            static_cast<std::uint64_t>(input.size()));
    });
    if (pass == 0 || tp.wall_ms < best.wall_ms) best = tp;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_store.json";
  auto options = iotls::bench::reproduction_options();
  const bool per_device =
      iotls::common::strict_env_long("IOTLS_BENCH_LAYOUT", 0) != 0;
  const iotls::obs::WallTimer total;

  const iotls::bench::Throughput crc_tp = crc32_throughput(32);

  iotls::core::IotlsStudy study(options);
  const auto& dataset = study.passive_dataset();
  const std::uint64_t tsv_bytes =
      iotls::testbed::dataset_to_tsv(dataset).size();

  const std::string dir = "BENCH_store_data.tmp";
  fs::remove_all(dir);

  iotls::store::StoreOptions store_options;
  store_options.layout = per_device ? iotls::store::ShardLayout::PerDevice
                                    : iotls::store::ShardLayout::Single;

  // Write lane: dataset -> shards.
  iotls::store::StoreWriteReport report;
  const auto write_tp = iotls::bench::timed_throughput([&] {
    report = study.export_passive_store(dir, store_options);
    return std::make_pair(
        static_cast<std::uint64_t>(dataset.groups().size()),
        report.total_bytes());
  });

  // Read lane: stream every group back through the cursor.
  const auto cursor = iotls::store::DatasetCursor::open(dir);
  const auto read_tp = iotls::bench::timed_throughput([&] {
    std::uint64_t groups = 0;
    std::uint64_t bytes = 0;
    for (const auto& path : cursor.shard_paths()) {
      bytes += iotls::store::file_size(path);
    }
    cursor.for_each(
        [&](const iotls::testbed::PassiveConnectionGroup&) { ++groups; });
    return std::make_pair(groups, bytes);
  });

  // Parity gate: the streamed pipeline must reproduce the in-memory
  // artifacts byte-for-byte at count_scale = 1.0.
  const auto months = iotls::analysis::study_months();
  Artifacts in_memory;
  double in_memory_ms = 0.0;
  {
    const auto tp = iotls::bench::timed_throughput([&] {
      in_memory.fig1 = study.render_fig1();
      in_memory.fig2 = study.render_fig2();
      in_memory.fig3 = study.render_fig3();
      in_memory.table8 = study.render_table8();
      in_memory.summary = iotls::analysis::render_summary(study.summary());
      return std::make_pair(std::uint64_t{0}, std::uint64_t{0});
    });
    in_memory_ms = tp.wall_ms;
  }
  Artifacts streamed;
  double streamed_ms = 0.0;
  {
    const std::size_t threads = options.threads;
    const auto tp = iotls::bench::timed_throughput([&] {
      streamed.fig1 = iotls::analysis::render_fig1(
          iotls::analysis::all_version_series(cursor, months, threads),
          months);
      streamed.fig2 = iotls::analysis::render_fig2(
          iotls::analysis::all_cipher_series(cursor, months, threads));
      streamed.fig3 = iotls::analysis::render_fig3(
          iotls::analysis::all_cipher_series(cursor, months, threads));
      streamed.table8 = iotls::analysis::render_table8(
          iotls::analysis::analyze_revocation(cursor, threads), 40);
      streamed.summary = iotls::analysis::render_summary(
          iotls::analysis::summarize(cursor, threads));
      return std::make_pair(std::uint64_t{0}, std::uint64_t{0});
    });
    streamed_ms = tp.wall_ms;
  }
  const bool parity = streamed == in_memory;

  const double ratio =
      report.total_bytes() > 0
          ? static_cast<double>(tsv_bytes) /
                static_cast<double>(report.total_bytes())
          : 0.0;

  std::printf("==== bench_store (layout=%s, shards=%zu) ====\n",
              per_device ? "per-device" : "single", report.shards.size());
  iotls::bench::print_throughput("write", write_tp);
  iotls::bench::print_throughput("read", read_tp);
  iotls::bench::print_throughput("crc32", crc_tp);
  std::printf("%-24s %12llu bytes (TSV %llu, ratio %.2fx)\n", "store_size",
              static_cast<unsigned long long>(report.total_bytes()),
              static_cast<unsigned long long>(tsv_bytes), ratio);
  std::printf("%-24s %10.3f ms (in-memory %.3f ms)\n", "streamed_analysis",
              streamed_ms, in_memory_ms);
  std::printf("%-24s %s\n", "parity", parity ? "ok" : "FAIL");
  if (!parity) {
    std::printf("parity FAILURE: streamed artifacts differ from in-memory "
                "(fig1=%d fig2=%d fig3=%d table8=%d summary=%d)\n",
                streamed.fig1 == in_memory.fig1,
                streamed.fig2 == in_memory.fig2,
                streamed.fig3 == in_memory.fig3,
                streamed.table8 == in_memory.table8,
                streamed.summary == in_memory.summary);
  }

  const std::vector<iotls::bench::Measurement> results = {
      {"write_records", write_tp.records_per_sec(), "records/s"},
      {"write_bytes", write_tp.mib_per_sec(), "MiB/s"},
      {"read_records", read_tp.records_per_sec(), "records/s"},
      {"read_bytes", read_tp.mib_per_sec(), "MiB/s"},
      {"crc32_mib_per_s", crc_tp.mib_per_sec(), "MiB/s"},
      {"store_bytes", static_cast<double>(report.total_bytes()), "bytes"},
      {"tsv_bytes", static_cast<double>(tsv_bytes), "bytes"},
      {"compression_ratio", ratio, "x_vs_tsv"},
      {"streamed_analysis", streamed_ms, "ms"},
      {"in_memory_analysis", in_memory_ms, "ms"},
      {"parity", parity ? 1.0 : 0.0, "bool"},
  };
  if (!iotls::bench::write_bench_json(
          out_path, "store", 1, total.elapsed_ms(), results,
          {{"layout", per_device ? "per-device" : "single"}})) {
    fs::remove_all(dir);
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  iotls::bench::print_profile();
  auto knobs = iotls::bench::reproduction_knobs(options);
  knobs.emplace_back("IOTLS_BENCH_LAYOUT", per_device ? "1" : "0");
  knobs.emplace_back("output", out_path);
  iotls::bench::maybe_write_run_report("bench_store", std::move(knobs));

  fs::remove_all(dir);
  return parity ? 0 : 1;
}
