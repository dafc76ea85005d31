// Dynamic index lifecycle costs: what a mutable SPINE family pays for
// each phase of the memtable -> frozen shard -> compacted shard path,
// and what queries feel while a compaction runs next to them. The
// numbers that matter:
//
//   - insert throughput into the live memtable (docs/s and chars/s) —
//     every insert republishes the generation pointer, so this bounds
//     the sustained write rate;
//   - flush cost: freezing the memtable into a compact shard image and
//     committing the manifest, as a function of memtable size;
//   - compaction pause: merging K frozen shards into one (the
//     exclusive-writer section; readers keep serving off the pinned
//     generation throughout), for K equal shards and for one large
//     compacted base plus four small flushed shards (compact_base_ms);
//   - query latency while a compaction runs concurrently, against the
//     quiescent baseline — the paper's promise is that readers never
//     block on the merge.
//
// Writes BENCH_lifecycle.json.
//
//   $ ./bench/bench_lifecycle

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/json_report.h"
#include "bench_util/table.h"
#include "common/check.h"
#include "common/timer.h"
#include "core/query.h"
#include "seq/datasets.h"
#include "seq/generator.h"
#include "shard/dynamic_family.h"

namespace spine::bench {
namespace {

using spine::shard::DynamicFamily;

std::string BenchDir() {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("spine_bench_lifecycle_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

// Fresh empty family (foreground-only: no background thread, so the
// measured sections are exactly the operations we time).
std::unique_ptr<DynamicFamily> FreshFamily(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  auto family =
      DynamicFamily::Create(path, Alphabet::Dna(), DynamicFamily::Options{});
  SPINE_CHECK(family.ok());
  return std::move(*family);
}

// Cuts `corpus` into `count` documents of roughly equal length.
std::vector<std::string> MakeDocs(const std::string& corpus, size_t count) {
  std::vector<std::string> docs;
  const size_t stride = std::max<size_t>(1, corpus.size() / count);
  for (size_t i = 0; i < count && i * stride < corpus.size(); ++i) {
    docs.push_back(corpus.substr(i * stride, stride));
  }
  return docs;
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t at = std::min(values.size() - 1,
                             static_cast<size_t>(q * values.size()));
  return values[at];
}

void Run() {
  const double scale = seq::BenchScaleFromEnv();
  PrintBanner("Lifecycle", "memtable insert, flush, compaction costs", scale);

  BenchReport report("lifecycle", scale);
  const std::string dir = BenchDir();

  seq::GeneratorOptions gen;
  gen.length = static_cast<uint64_t>(2'000'000 * scale);
  gen.seed = 97;
  const std::string corpus = seq::GenerateSequence(Alphabet::Dna(), gen);
  const std::string probe = corpus.substr(corpus.size() / 3, 12);

  // --- 1. insert throughput into the memtable ------------------------------
  {
    TablePrinter table({"docs", "doc chars", "total ms", "docs/s", "Mchars/s"});
    const std::vector<size_t> doc_counts = {64, 256, 1024};
    for (const size_t count : doc_counts) {
      const std::vector<std::string> docs = MakeDocs(
          corpus.substr(0, std::min<size_t>(corpus.size(), count * 512)),
          count);
      auto family =
          FreshFamily(dir + "/insert_" + std::to_string(count) + ".spinefam");
      uint64_t chars = 0;
      WallTimer timer;
      for (const std::string& doc : docs) {
        SPINE_CHECK(family->InsertDocument(doc).ok());
        chars += doc.size();
      }
      const double ms = timer.ElapsedMillis();
      const double docs_per_s = ms > 0 ? docs.size() / ms * 1e3 : 0;
      const double mchars_per_s = ms > 0 ? chars / ms / 1e3 : 0;
      table.AddRow({FormatCount(docs.size()), FormatCount(chars),
                    FormatDouble(ms, 2), FormatDouble(docs_per_s, 0),
                    FormatDouble(mchars_per_s, 2)});
      const std::string key = "insert_" + std::to_string(count);
      report.AddMetric(key + "_ms", ms);
      report.AddMetric(key + "_docs_per_s", docs_per_s);
    }
    table.Print();
  }

  // --- 2. flush cost vs memtable size ---------------------------------------
  {
    TablePrinter table({"memtable chars", "docs", "flush ms"});
    const std::vector<size_t> memtable_chars = {65'536, 262'144, 1'048'576};
    for (size_t si = 0; si < memtable_chars.size(); ++si) {
      const size_t chars =
          std::min<size_t>(corpus.size(),
                           static_cast<size_t>(memtable_chars[si] * scale));
      const std::vector<std::string> docs =
          MakeDocs(corpus.substr(0, chars), 32);
      auto family =
          FreshFamily(dir + "/flush_" + std::to_string(si) + ".spinefam");
      for (const std::string& doc : docs) {
        SPINE_CHECK(family->InsertDocument(doc).ok());
      }
      WallTimer timer;
      SPINE_CHECK(family->Flush().ok());
      const double ms = timer.ElapsedMillis();
      table.AddRow({FormatCount(chars), FormatCount(docs.size()),
                    FormatDouble(ms, 2)});
      report.AddMetric("flush_s" + std::to_string(si) + "_chars",
                       static_cast<uint64_t>(chars));
      report.AddMetric("flush_s" + std::to_string(si) + "_ms", ms);
    }
    table.Print();
  }

  // --- 3. compaction pause vs shard fanout ----------------------------------
  {
    TablePrinter table({"shards", "total chars", "compact ms"});
    const std::vector<uint32_t> fanouts = {2, 4, 8};
    for (const uint32_t fanout : fanouts) {
      auto family =
          FreshFamily(dir + "/compact_" + std::to_string(fanout) + ".spinefam");
      const size_t per_shard =
          std::min<size_t>(corpus.size() / fanout,
                           static_cast<size_t>(131'072 * scale));
      uint64_t chars = 0;
      for (uint32_t s = 0; s < fanout; ++s) {
        for (const std::string& doc : MakeDocs(
                 corpus.substr(s * per_shard, per_shard), 8)) {
          SPINE_CHECK(family->InsertDocument(doc).ok());
          chars += doc.size();
        }
        SPINE_CHECK(family->Flush().ok());
      }
      SPINE_CHECK(family->frozen_shard_count() == fanout);
      WallTimer timer;
      SPINE_CHECK(family->Compact().ok());
      const double ms = timer.ElapsedMillis();
      SPINE_CHECK(family->frozen_shard_count() == 1);
      table.AddRow({FormatCount(fanout), FormatCount(chars),
                    FormatDouble(ms, 2)});
      report.AddMetric("compact_f" + std::to_string(fanout) + "_ms", ms);
    }
    // The steady shape of a growing family: one compacted base of
    // 4 x per_shard characters, then four flushed shards of per_shard / 4.
    // Compaction by extension copies the base and appends only the rest.
    {
      auto family = FreshFamily(dir + "/compact_base.spinefam");
      const size_t per_shard = std::min<size_t>(
          corpus.size() / 5, static_cast<size_t>(131'072 * scale));
      uint64_t chars = 0;
      for (const std::string& doc :
           MakeDocs(corpus.substr(0, 4 * per_shard), 32)) {
        SPINE_CHECK(family->InsertDocument(doc).ok());
        chars += doc.size();
      }
      SPINE_CHECK(family->Compact().ok());
      for (uint32_t s = 0; s < 4; ++s) {
        for (const std::string& doc : MakeDocs(
                 corpus.substr(4 * per_shard + s * (per_shard / 4),
                               per_shard / 4),
                 2)) {
          SPINE_CHECK(family->InsertDocument(doc).ok());
          chars += doc.size();
        }
        SPINE_CHECK(family->Flush().ok());
      }
      SPINE_CHECK(family->frozen_shard_count() == 5);
      WallTimer timer;
      SPINE_CHECK(family->Compact().ok());
      const double ms = timer.ElapsedMillis();
      SPINE_CHECK(family->frozen_shard_count() == 1);
      table.AddRow({"base + 4", FormatCount(chars), FormatDouble(ms, 2)});
      report.AddMetric("compact_base_ms", ms);
    }
    table.Print();
  }

  // --- 4. query latency during compaction -----------------------------------
  {
    auto family = FreshFamily(dir + "/race.spinefam");
    const size_t per_shard =
        std::min<size_t>(corpus.size() / 6,
                         static_cast<size_t>(131'072 * scale));
    for (uint32_t s = 0; s < 6; ++s) {
      for (const std::string& doc :
           MakeDocs(corpus.substr(s * per_shard, per_shard), 8)) {
        SPINE_CHECK(family->InsertDocument(doc).ok());
      }
      SPINE_CHECK(family->Flush().ok());
    }
    const Query query = Query::FindAll(probe);

    auto measure = [&](size_t iterations) {
      std::vector<double> lat_ms;
      lat_ms.reserve(iterations);
      for (size_t i = 0; i < iterations; ++i) {
        WallTimer timer;
        const QueryResult result = family->Execute(query);
        lat_ms.push_back(timer.ElapsedMillis());
        SPINE_CHECK(result.ok());
      }
      return lat_ms;
    };

    // Quiescent baseline.
    std::vector<double> quiet = measure(200);

    // Same measurement with a compaction running on another thread.
    std::thread compactor([&] { SPINE_CHECK(family->Compact().ok()); });
    std::vector<double> racing = measure(200);
    compactor.join();

    const double quiet_p50 = Quantile(quiet, 0.50);
    const double quiet_p99 = Quantile(quiet, 0.99);
    const double racing_p50 = Quantile(racing, 0.50);
    const double racing_p99 = Quantile(racing, 0.99);
    TablePrinter table({"phase", "p50 ms", "p99 ms"});
    table.AddRow({"quiescent", FormatDouble(quiet_p50, 3),
                  FormatDouble(quiet_p99, 3)});
    table.AddRow({"during compaction", FormatDouble(racing_p50, 3),
                  FormatDouble(racing_p99, 3)});
    table.Print();
    report.AddMetric("query_quiescent_p50_ms", quiet_p50);
    report.AddMetric("query_quiescent_p99_ms", quiet_p99);
    report.AddMetric("query_during_compaction_p50_ms", racing_p50);
    report.AddMetric("query_during_compaction_p99_ms", racing_p99);
  }

  std::printf("\ntarget: query p99 during compaction stays within a small "
              "factor of quiescent p99 (readers never block on the merge).\n");
  std::filesystem::remove_all(dir);
  SPINE_CHECK(report.Write().ok());
}

}  // namespace
}  // namespace spine::bench

int main() {
  spine::bench::Run();
  return 0;
}
