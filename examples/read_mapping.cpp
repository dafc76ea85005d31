// Short-read mapping on a SPINE index: sample error-containing "reads"
// from a synthetic genome and map them back, exactly — via maximal
// matches — and approximately — via the k-mismatch DFS and the
// seed-and-extend pipeline. A miniature read mapper built entirely on
// the paper's structure.
//
//   $ ./examples/read_mapping [read_len] [reads]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "align/hamming.h"
#include "common/rng.h"
#include "common/timer.h"
#include "compact/compact_spine.h"
#include "core/query.h"
#include "seq/generator.h"

int main(int argc, char** argv) {
  using namespace spine;
  const uint32_t read_len =
      argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 50;
  const uint32_t read_count =
      argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2])) : 2000;

  seq::GeneratorOptions gen;
  gen.length = 500'000;
  gen.seed = 99;
  std::string genome = seq::GenerateSequence(Alphabet::Dna(), gen);

  CompactSpineIndex index(Alphabet::Dna());
  Status status = index.AppendString(genome);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("genome: %zu bp; reads: %u x %u bp with up to 2 errors\n",
              genome.size(), read_count, read_len);

  // Sample reads with 0-2 substitutions each.
  Rng rng(7);
  const char* letters = "ACGT";
  struct Read {
    std::string bases;
    uint32_t true_pos;
    uint32_t errors;
  };
  std::vector<Read> reads;
  for (uint32_t r = 0; r < read_count; ++r) {
    uint32_t pos =
        static_cast<uint32_t>(rng.Below(genome.size() - read_len));
    std::string bases = genome.substr(pos, read_len);
    uint32_t errors = static_cast<uint32_t>(rng.Below(3));
    for (uint32_t e = 0; e < errors; ++e) {
      bases[rng.Below(read_len)] = letters[rng.Below(4)];
    }
    reads.push_back({std::move(bases), pos, errors});
  }

  // Map with the Hamming DFS (budget 2 mismatches).
  WallTimer timer;
  uint32_t mapped = 0, correct = 0, multi = 0;
  for (const Read& read : reads) {
    auto hits = align::FindHammingMatches(index, read.bases, 2);
    if (hits.empty()) continue;
    ++mapped;
    if (hits.size() > 1) ++multi;
    for (const auto& hit : hits) {
      if (hit.data_pos == read.true_pos) {
        ++correct;
        break;
      }
    }
  }
  double secs = timer.ElapsedSeconds();
  std::printf("\nk-mismatch DFS (k=2): mapped %u/%u reads (%u multi-mapped) "
              "in %.2f s (%.0f us/read)\n",
              mapped, read_count, multi, secs,
              secs * 1e6 / read_count);
  std::printf("  origin recovered for %u reads (unmapped reads would "
              "indicate a bug: every\n  read is within 2 mismatches of its "
              "source window)\n",
              correct);
  if (mapped != read_count || correct != read_count) {
    std::fprintf(stderr, "mapping failure\n");
    return 1;
  }

  // The edit-distance pipeline handles indel-containing reads too.
  std::string indel_read = genome.substr(123'000, read_len);
  indel_read.erase(20, 2);  // 2-base deletion
  const QueryResult edit =
      ExecuteQuery(index, Query::EditDistance(indel_read, 3));
  std::printf("\nseed-and-extend (edits<=3) on a read with a 2 bp deletion: "
              "%zu hit(s)",
              edit.hits.size());
  for (size_t i = 0; i < edit.hits.size() && i < 3; ++i) {
    std::printf("  [pos %u, %u edits]", edit.hits[i].pos,
                edit.hits[i].query_pos);
  }
  std::printf("\n");
  return 0;
}
