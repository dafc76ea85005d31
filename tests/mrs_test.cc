// Tests for the MRS-style frequency filter index (the paper's
// Section 7 filter+verify comparator).

#include "mrs/frequency_filter.h"

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compact/compact_spine.h"
#include "core/query.h"
#include "seq/generator.h"

namespace spine::mrs {
namespace {

TEST(FrequencyFilterTest, BuildRejectsBadInput) {
  EXPECT_FALSE(
      FrequencyFilterIndex::Build(Alphabet::Dna(), "ACGX").ok());
  FrequencyFilterIndex::Options options;
  options.frame_size = 2;
  EXPECT_FALSE(
      FrequencyFilterIndex::Build(Alphabet::Dna(), "ACGT", options).ok());
}

TEST(FrequencyFilterTest, ExactHitsFound) {
  FrequencyFilterIndex::Options options;
  options.frame_size = 4;
  auto index =
      FrequencyFilterIndex::Build(Alphabet::Dna(), "ACGTACGTACGT", options);
  ASSERT_TRUE(index.ok());
  auto hits = index->FindApproximate("GTAC", 0);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].data_pos, 2u);
  EXPECT_EQ(hits[1].data_pos, 6u);
  EXPECT_EQ(hits[0].edits, 0u);
}

TEST(FrequencyFilterTest, FilterActuallyPrunes) {
  // Long A-run with one embedded GGGGCCCC block: queries about the
  // block must prune the A-frames wholesale.
  std::string text(4096, 'A');
  text.replace(2048, 8, "GGGGCCCC");
  FrequencyFilterIndex::Options options;
  options.frame_size = 64;
  auto index = FrequencyFilterIndex::Build(Alphabet::Dna(), text, options);
  ASSERT_TRUE(index.ok());
  uint64_t pruned = 0, verified = 0;
  auto hits = index->FindApproximate("GGGGCCCC", 1, &pruned, &verified);
  ASSERT_FALSE(hits.empty());
  bool exact_found = false;
  for (const auto& hit : hits) {
    if (hit.data_pos == 2048 && hit.edits == 0) exact_found = true;
  }
  EXPECT_TRUE(exact_found);
  // Almost every frame is pure A and gets pruned.
  EXPECT_GT(pruned, 55u);
  EXPECT_LT(verified, 512u);  // only frames near the block verify
}

TEST(FrequencyFilterTest, AgreesWithSpineSeedAndExtend) {
  Rng rng(88);
  const char* letters = "ACGT";
  for (int round = 0; round < 15; ++round) {
    uint32_t n = 200 + static_cast<uint32_t>(rng.Below(800));
    std::string text;
    for (uint32_t i = 0; i < n; ++i) text.push_back(letters[rng.Below(3)]);

    FrequencyFilterIndex::Options options;
    options.frame_size = 16;
    auto filter = FrequencyFilterIndex::Build(Alphabet::Dna(), text, options);
    ASSERT_TRUE(filter.ok());
    CompactSpineIndex spine(Alphabet::Dna());
    ASSERT_TRUE(spine.AppendString(text).ok());

    for (int trial = 0; trial < 6; ++trial) {
      uint32_t m = 6 + static_cast<uint32_t>(rng.Below(10));
      std::string pattern;
      if (trial % 2 == 0 && m < n) {
        pattern = text.substr(rng.Below(n - m), m);
      } else {
        for (uint32_t i = 0; i < m; ++i) {
          pattern.push_back(letters[rng.Below(3)]);
        }
      }
      uint32_t k = static_cast<uint32_t>(rng.Below(3));
      if (k >= pattern.size()) continue;
      auto filter_hits = filter->FindApproximate(pattern, k);
      const std::vector<Hit> spine_hits =
          ExecuteQuery(spine, Query::EditDistance(pattern, k)).hits;
      ASSERT_EQ(filter_hits.size(), spine_hits.size())
          << "text=" << text << " pattern=" << pattern << " k=" << k;
      for (size_t i = 0; i < spine_hits.size(); ++i) {
        ASSERT_EQ(filter_hits[i].data_pos, spine_hits[i].pos);
        ASSERT_EQ(filter_hits[i].edits, spine_hits[i].query_pos);
      }
    }
  }
}

TEST(FrequencyFilterTest, SketchIsTiny) {
  seq::GeneratorOptions gen;
  gen.length = 100'000;
  gen.seed = 4;
  std::string text = seq::GenerateSequence(Alphabet::Dna(), gen);
  auto index = FrequencyFilterIndex::Build(Alphabet::Dna(), text);
  ASSERT_TRUE(index.ok());
  // sigma^2 2-gram counters x 2 bytes per 64-char frame = 0.5 B/char
  // for DNA — ~24x smaller than the complete SPINE index.
  EXPECT_LT(static_cast<double>(index->SketchBytes()) / text.size(), 0.6);
  // ...but the text must be retained (not self-contained like SPINE).
  EXPECT_GT(index->MemoryBytes(), text.size());
}

}  // namespace
}  // namespace spine::mrs
