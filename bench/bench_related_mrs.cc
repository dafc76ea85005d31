// Related-work bench (Section 7): SPINE vs the MRS-style filter index
// on approximate queries. The paper: MRS keeps a very small approximate
// index and filters first, "while MRS gives only approximate answers,
// both SPINE and ST provide exact answers. Further, the performance
// improvement through complete indexes is typically substantially more,
// albeit at the cost of increased resource consumption."

#include <cstdio>
#include <string>

#include "bench_util/table.h"
#include "common/check.h"
#include "common/timer.h"
#include "compact/compact_spine.h"
#include "core/query.h"
#include "mrs/frequency_filter.h"
#include "seq/datasets.h"
#include "seq/generator.h"

namespace spine::bench {
namespace {

constexpr uint32_t kQueries = 30;
constexpr uint32_t kPatternLen = 40;

void Run() {
  double scale = seq::BenchScaleFromEnv();
  PrintBanner("Section 7", "SPINE vs MRS-style filter on approximate queries",
              scale);

  std::string text = seq::MakeDataset(seq::DatasetByName("ECO"), scale);

  CompactSpineIndex spine(Alphabet::Dna());
  SPINE_CHECK(spine.AppendString(text).ok());
  auto filter = mrs::FrequencyFilterIndex::Build(Alphabet::Dna(), text);
  SPINE_CHECK(filter.ok());

  std::printf("index sizes: SPINE %s (self-contained) vs MRS sketch %s + "
              "retained text %s\n\n",
              FormatBytes(spine.LogicalBytes().Total()).c_str(),
              FormatBytes(filter->SketchBytes()).c_str(),
              FormatBytes(text.size()).c_str());

  TablePrinter table({"max edits", "SPINE s/query", "MRS s/query",
                      "MRS/SPINE", "frames pruned", "starts verified",
                      "hits (sanity)"});
  for (uint32_t k : {0u, 1u, 2u}) {
    // Queries: pattern slices with k planted substitutions.
    std::vector<std::string> patterns;
    for (uint32_t q = 0; q < kQueries; ++q) {
      size_t offset = (q * 9973) % (text.size() - kPatternLen);
      std::string pattern = text.substr(offset, kPatternLen);
      for (uint32_t e = 0; e < k; ++e) {
        pattern[(e * 13 + 3) % kPatternLen] = "ACGT"[(q + e) % 4];
      }
      patterns.push_back(std::move(pattern));
    }

    WallTimer spine_timer;
    uint64_t spine_hits = 0;
    for (const std::string& pattern : patterns) {
      spine_hits +=
          ExecuteQuery(spine, Query::EditDistance(pattern, k)).hits.size();
    }
    double spine_secs = spine_timer.ElapsedSeconds();

    WallTimer mrs_timer;
    uint64_t mrs_hits = 0, pruned_total = 0, verified_total = 0;
    for (const std::string& pattern : patterns) {
      uint64_t pruned = 0, verified = 0;
      mrs_hits += filter->FindApproximate(pattern, k, &pruned, &verified)
                      .size();
      pruned_total += pruned;
      verified_total += verified;
    }
    double mrs_secs = mrs_timer.ElapsedSeconds();

    SPINE_CHECK(spine_hits == mrs_hits);  // both are exact on this task
    table.AddRow({std::to_string(k),
                  FormatDouble(spine_secs / kQueries, 5),
                  FormatDouble(mrs_secs / kQueries, 5),
                  FormatDouble(mrs_secs / spine_secs, 1) + "x",
                  FormatCount(pruned_total / kQueries),
                  FormatCount(verified_total / kQueries),
                  FormatCount(spine_hits)});
  }
  table.Print();
  std::printf("\npaper's point ✓ when the complete index wins by a large "
              "factor: the filter prunes\nwhole frames but still verifies "
              "every surviving start position against the text,\nwhile "
              "SPINE's exact seeds jump straight to candidate positions. "
              "The filter's\nsketch is ~100x smaller — the resource/speed "
              "trade-off of Section 7.\n");
}

}  // namespace
}  // namespace spine::bench

int main() {
  spine::bench::Run();
  return 0;
}
