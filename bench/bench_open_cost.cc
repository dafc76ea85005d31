// Open-path cost: how much time and resident memory it takes to bring
// a saved compact artifact into service, heap copy vs zero-copy mmap,
// across growing artifact sizes. The numbers that matter:
//
//   - heap open is O(artifact): one read into a heap buffer, then the
//     same checksum and parse as a verified mmap open, and the buffer
//     stays resident as anonymous (unevictable) memory;
//   - mmap open pays only the checksum pass (file-backed, evictable
//     pages), and mmap-noverify is ~constant — a map + header parse —
//     regardless of artifact size;
//   - first-query latency after open shows the lazy-fault cost the
//     mmap path defers.
//
// Writes BENCH_open_cost.json.
//
//   $ ./bench/bench_open_cost

#include <malloc.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/json_report.h"
#include "bench_util/table.h"
#include "common/check.h"
#include "common/timer.h"
#include "compact/compact_spine.h"
#include "compact/serializer.h"
#include "core/index.h"
#include "core/query.h"
#include "core/registry.h"
#include "seq/datasets.h"
#include "seq/generator.h"

namespace spine::bench {
namespace {

// Resident set size right now, in KiB, from /proc/self/statm. We use
// the current RSS (not getrusage's peak) so a released heap copy stops
// counting once freed + trimmed; deltas around an open are what the
// table reports.
uint64_t ResidentKib() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long total = 0, resident = 0;
  const int fields = std::fscanf(statm, "%llu %llu", &total, &resident);
  std::fclose(statm);
  if (fields != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return resident * static_cast<uint64_t>(page > 0 ? page : 4096) / 1024;
}

struct OpenCost {
  double open_ms = 0;
  double first_query_ms = 0;
  uint64_t rss_delta_kib = 0;  // resident growth across open+first query
};

OpenCost MeasureOpen(const std::string& path, const core::OpenOptions& options,
                     const std::string& probe) {
  OpenCost cost;
  ::malloc_trim(0);
  const uint64_t rss_before = ResidentKib();
  WallTimer timer;
  auto index = core::BackendRegistry::Default().Open(path, options);
  cost.open_ms = timer.ElapsedMillis();
  SPINE_CHECK(index.ok());
  timer.Reset();
  const QueryResult result = (*index)->Execute(Query::FindAll(probe));
  cost.first_query_ms = timer.ElapsedMillis();
  SPINE_CHECK(result.ok());
  const uint64_t rss_after = ResidentKib();
  cost.rss_delta_kib = rss_after > rss_before ? rss_after - rss_before : 0;
  return cost;
}

void Run() {
  const double scale = seq::BenchScaleFromEnv();
  PrintBanner("OpenCost", "artifact open time and RSS, heap vs mmap", scale);

  const std::vector<uint64_t> base_sizes = {1'000'000, 4'000'000, 16'000'000};
  const char* specs[] = {"heap", "mmap", "mmap-noverify"};

  BenchReport report("open_cost", scale);
  report.AddMetric("sizes", static_cast<uint64_t>(base_sizes.size()));

  TablePrinter table({"corpus chars", "artifact KiB", "open path", "open ms",
                      "1st query ms", "rss delta KiB"});
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("spine_open_cost_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);

  for (size_t si = 0; si < base_sizes.size(); ++si) {
    seq::GeneratorOptions gen;
    gen.length = static_cast<uint64_t>(base_sizes[si] * scale);
    gen.seed = 29 + si;
    const std::string corpus = seq::GenerateSequence(Alphabet::Dna(), gen);
    const std::string probe = corpus.substr(corpus.size() / 3, 12);

    const std::string path = dir + "/open_cost_" + std::to_string(si) +
                             ".spine";
    {
      CompactSpineIndex built(Alphabet::Dna());
      SPINE_CHECK(built.AppendString(corpus).ok());
      SPINE_CHECK(SaveCompactSpine(built, path).ok());
    }
    const uint64_t artifact_kib = std::filesystem::file_size(path) / 1024;

    for (const char* spec : specs) {
      Result<core::OpenOptions> options = core::ParseOpenSpec(spec);
      SPINE_CHECK(options.ok());
      const OpenCost cost = MeasureOpen(path, *options, probe);
      table.AddRow({FormatCount(corpus.size()), FormatCount(artifact_kib),
                    spec, FormatDouble(cost.open_ms, 3),
                    FormatDouble(cost.first_query_ms, 3),
                    FormatCount(cost.rss_delta_kib)});
      const std::string key =
          "s" + std::to_string(si) + "_" + std::string(spec);
      report.AddMetric(key + "_artifact_kib", artifact_kib);
      report.AddMetric(key + "_open_ms", cost.open_ms);
      report.AddMetric(key + "_first_query_ms", cost.first_query_ms);
      report.AddMetric(key + "_rss_delta_kib", cost.rss_delta_kib);
    }
  }
  table.Print();

  std::printf("\ntarget: mmap-noverify open stays ~flat as the artifact "
              "grows; heap RSS delta tracks artifact size.\n");
  std::filesystem::remove_all(dir);
  SPINE_CHECK(report.Write().ok());
}

}  // namespace
}  // namespace spine::bench

int main() {
  spine::bench::Run();
  return 0;
}
