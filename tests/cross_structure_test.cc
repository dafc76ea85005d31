// Cross-structure agreement on the protein alphabet and other
// configurations that earlier suites cover only for DNA: every index
// family must report identical occurrence sets on identical inputs.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "align/chainer.h"
#include "compact/compact_spine.h"
#include "core/query.h"
#include "core/spine_index.h"
#include "dawg/compact_dawg.h"
#include "dawg/suffix_automaton.h"
#include "mrs/frequency_filter.h"
#include "naive/naive_index.h"
#include "seq/generator.h"
#include "suffix_array/suffix_array.h"
#include "suffix_tree/packed_suffix_tree.h"
#include "suffix_tree/suffix_tree.h"

namespace spine {
namespace {

struct CrossCase {
  bool protein;
  uint32_t length;
  uint64_t seed;
};

class CrossStructureTest : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossStructureTest, AllStructuresAgreeOnOccurrences) {
  const CrossCase param = GetParam();
  Alphabet alphabet =
      param.protein ? Alphabet::Protein() : Alphabet::Dna();
  Rng rng(param.seed);
  const std::string letters =
      param.protein ? "ACDEFGHIKLMNPQRSTVWY" : "ACGT";
  uint32_t sigma = param.protein ? 6 : 3;  // subset: denser repeats
  std::string s;
  for (uint32_t i = 0; i < param.length; ++i) {
    s.push_back(letters[rng.Below(sigma)]);
  }

  SpineIndex reference(alphabet);
  CompactSpineIndex compact(alphabet);
  SuffixTree tree(alphabet);
  PackedSuffixTree packed(alphabet);
  SuffixAutomaton dawg(alphabet);
  ASSERT_TRUE(reference.AppendString(s).ok());
  ASSERT_TRUE(compact.AppendString(s).ok());
  ASSERT_TRUE(tree.AppendString(s).ok());
  ASSERT_TRUE(packed.AppendString(s).ok());
  ASSERT_TRUE(dawg.AppendString(s).ok());
  Result<SuffixArray> sa = SuffixArray::Build(alphabet, s);
  ASSERT_TRUE(sa.ok());
  Result<CompactDawg> cdawg = CompactDawg::Build(alphabet, s);
  ASSERT_TRUE(cdawg.ok());

  for (int trial = 0; trial < 120; ++trial) {
    std::string pattern;
    if (trial % 2 == 0) {
      uint32_t start = static_cast<uint32_t>(rng.Below(param.length));
      pattern = s.substr(start, 1 + rng.Below(12));
    } else {
      for (uint32_t i = 0; i < 1 + rng.Below(8); ++i) {
        pattern.push_back(letters[rng.Below(sigma)]);
      }
    }
    auto expected = naive::FindAllOccurrences(s, pattern);
    ASSERT_EQ(reference.FindAll(pattern), expected) << pattern;
    ASSERT_EQ(compact.FindAll(pattern), expected) << pattern;
    ASSERT_EQ(tree.FindAll(pattern), expected) << pattern;
    ASSERT_EQ(packed.FindAll(pattern), expected) << pattern;
    ASSERT_EQ(dawg.FindAll(pattern), expected) << pattern;
    ASSERT_EQ(sa->FindAll(pattern), expected) << pattern;
    ASSERT_EQ(cdawg->Contains(pattern), !expected.empty()) << pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, CrossStructureTest,
    ::testing::Values(CrossCase{false, 120, 1}, CrossCase{false, 500, 2},
                      CrossCase{false, 1500, 3}, CrossCase{true, 200, 4},
                      CrossCase{true, 800, 5}),
    [](const ::testing::TestParamInfo<CrossCase>& info) {
      return std::string(info.param.protein ? "protein" : "dna") + "_len" +
             std::to_string(info.param.length);
    });

TEST(CrossStructureTest, MrsAgreesOnProtein) {
  Rng rng(9);
  const std::string letters = "ACDEFGHIKLMNPQRSTVWY";
  std::string s;
  for (int i = 0; i < 400; ++i) s.push_back(letters[rng.Below(8)]);
  // Protein sigma^2 = 400 dims still fits the filter's clamp.
  auto filter = mrs::FrequencyFilterIndex::Build(Alphabet::Protein(), s);
  ASSERT_TRUE(filter.ok());
  CompactSpineIndex spine(Alphabet::Protein());
  ASSERT_TRUE(spine.AppendString(s).ok());
  for (int trial = 0; trial < 10; ++trial) {
    std::string pattern = s.substr(rng.Below(s.size() - 12), 8 + rng.Below(4));
    auto filter_hits = filter->FindApproximate(pattern, 1);
    const QueryResult spine_result =
        ExecuteQuery(spine, Query::EditDistance(pattern, 1));
    ASSERT_EQ(filter_hits.size(), spine_result.hits.size()) << pattern;
  }
}

TEST(CrossStructureTest, ChainerScalesToManyAnchors) {
  // 20k random anchors: the O(k log k) DP must both terminate quickly
  // and produce a valid chain.
  Rng rng(31);
  std::vector<align::Anchor> anchors;
  for (int i = 0; i < 20000; ++i) {
    anchors.push_back({static_cast<uint32_t>(rng.Below(1'000'000)),
                       static_cast<uint32_t>(rng.Below(1'000'000)),
                       10 + static_cast<uint32_t>(rng.Below(90))});
  }
  align::Chain chain = align::BestChain(anchors, 16);
  EXPECT_GT(chain.anchors.size(), 100u);
  uint64_t total = 0;
  for (size_t i = 0; i < chain.anchors.size(); ++i) {
    total += chain.anchors[i].length;
    if (i > 0) {
      ASSERT_LE(chain.anchors[i - 1].query_pos + chain.anchors[i - 1].length,
                chain.anchors[i].query_pos);
      ASSERT_LE(chain.anchors[i - 1].data_pos + chain.anchors[i - 1].length,
                chain.anchors[i].data_pos);
    }
  }
  EXPECT_EQ(total, chain.score);
  EXPECT_GE(chain.raw_score, chain.score);
}

}  // namespace
}  // namespace spine
