// Tests for the alignment module: edit distance, anchor chaining,
// the SPINE-anchored aligner, and approximate matching — the core
// kEditDistance query kind checked against a brute-force oracle, with
// the approx.* / core.* registry counters moving exactly with the
// SearchStats the queries report.

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "align/aligner.h"
#include "align/chainer.h"
#include "align/edit_distance.h"
#include "common/rng.h"
#include "compact/compact_spine.h"
#include "core/query.h"
#include "seq/generator.h"
#include "test_util.h"

namespace spine::align {
namespace {

using spine::test::RandomString;
using spine::test::RegistryDelta;
using spine::test::TestCorpus;

// ---------------------------------------------------------------------
// Edit distance.
// ---------------------------------------------------------------------

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("ACGT", "ACGT"), 0u);
  EXPECT_EQ(EditDistance("ACGT", "AGT"), 1u);
  EXPECT_EQ(EditDistance("ACGT", "TGCA"), 4u);
}

TEST(EditDistanceTest, BandedAgreesWithFullWithinBudget) {
  Rng rng(42);
  for (int round = 0; round < 300; ++round) {
    uint32_t la = static_cast<uint32_t>(rng.Below(30));
    uint32_t lb = static_cast<uint32_t>(rng.Below(30));
    const std::string a = RandomString(rng, la, 3);
    const std::string b = RandomString(rng, lb, 3);
    uint32_t truth = EditDistance(a, b);
    for (uint32_t budget : {0u, 1u, 2u, 5u, 30u}) {
      auto banded = BandedEditDistance(a, b, budget);
      if (truth <= budget) {
        ASSERT_TRUE(banded.has_value()) << a << " vs " << b << " @" << budget;
        ASSERT_EQ(*banded, truth) << a << " vs " << b << " @" << budget;
      } else {
        ASSERT_FALSE(banded.has_value()) << a << " vs " << b << " @" << budget;
      }
    }
  }
}

// The last row of the full (m + 1) x (|window| + 1) edit-distance
// table, no band and no cap: row[j] = distance(pattern, window[0..j)).
std::vector<uint32_t> FullLastRow(std::string_view pattern,
                                  std::string_view window) {
  std::vector<uint32_t> row(window.size() + 1);
  for (size_t j = 0; j <= window.size(); ++j) {
    row[j] = static_cast<uint32_t>(j);
  }
  for (size_t i = 1; i <= pattern.size(); ++i) {
    uint32_t diagonal = row[0];
    row[0] = static_cast<uint32_t>(i);
    for (size_t j = 1; j <= window.size(); ++j) {
      const uint32_t up = row[j];
      const uint32_t substitute =
          diagonal + (pattern[i - 1] == window[j - 1] ? 0u : 1u);
      row[j] = std::min({up + 1, row[j - 1] + 1, substitute});
      diagonal = up;
    }
  }
  return row;
}

// Holds both banded routines to the full table for one case.
void ExpectBandMatchesFullTable(const std::string& pattern,
                                const std::string& window, uint32_t d) {
  const std::vector<uint32_t> row = FullLastRow(pattern, window);
  const auto best = std::min_element(row.begin(), row.end());
  std::optional<std::pair<uint32_t, uint32_t>> expected;
  if (*best <= d) {
    expected =
        std::make_pair(*best, static_cast<uint32_t>(best - row.begin()));
  }
  ASSERT_EQ(BestPrefixEditDistance(pattern, window, d), expected)
      << pattern << " in " << window << " @" << d;
  std::optional<uint32_t> whole;
  if (row.back() <= d) whole = row.back();
  ASSERT_EQ(BandedEditDistance(pattern, window, d), whole)
      << pattern << " vs " << window << " @" << d;
}

TEST(EditDistanceTest, BandEdgesMatchTheFullTable) {
  const std::string pattern = "ACGTACGT";  // m = 8
  // The best prefix ends at j = m - d: the read lost its last two bases.
  EXPECT_EQ(BestPrefixEditDistance(pattern, "ACGTACAA", 2),
            std::make_pair(2u, 6u));
  // ... and at j = m + d: two bases were inserted.
  EXPECT_EQ(BestPrefixEditDistance(pattern, "ACGTAAACGT", 2),
            std::make_pair(2u, 10u));
  // A separator or the end of the text clips the window below m + d.
  EXPECT_EQ(BestPrefixEditDistance(pattern, "ACGTACG", 2),
            std::make_pair(1u, 7u));
  EXPECT_EQ(BestPrefixEditDistance(pattern, "ACGTAC", 2),
            std::make_pair(2u, 6u));
  EXPECT_EQ(BestPrefixEditDistance(pattern, "ACGTA", 2), std::nullopt);
  EXPECT_EQ(BestPrefixEditDistance(pattern, "", 2), std::nullopt);
  // d = 0 is an exact prefix test.
  EXPECT_EQ(BestPrefixEditDistance(pattern, "ACGTACGTA", 0),
            std::make_pair(0u, 8u));
  EXPECT_EQ(BestPrefixEditDistance(pattern, "ACGTACGA", 0), std::nullopt);
  EXPECT_EQ(BestPrefixEditDistance(pattern, "ACGTACG", 0), std::nullopt);
  EXPECT_EQ(BandedEditDistance(pattern, pattern, 0), 0u);
  EXPECT_EQ(BandedEditDistance(pattern, "ACGTACGA", 0), std::nullopt);
  // A budget far past both lengths is the plain distance.
  EXPECT_EQ(BandedEditDistance("ACGT", "TTTTTTTT", 1'000'000'000), 7u);
  for (const char* window :
       {"ACGTACAA", "ACGTAAACGT", "ACGTACG", "ACGTAC", "ACGTA", "",
        "ACGTACGTA", "ACGTACGA"}) {
    for (uint32_t d = 0; d < pattern.size(); ++d) {
      ASSERT_NO_FATAL_FAILURE(ExpectBandMatchesFullTable(pattern, window, d));
    }
  }

  // Through the index: the text ends 7 characters into the read, and a
  // hit there is reported with the clipped window.
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString("TTTTTTTTACGTACG").ok());
  const QueryResult result =
      ExecuteQuery(index, Query::EditDistance(pattern, 2));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_NE(std::find(result.hits.begin(), result.hits.end(), Hit{8, 7, 1}),
            result.hits.end());
}

TEST(EditDistanceTest, BandSweepMatchesTheFullTable) {
  Rng rng(2024);
  for (int round = 0; round < 50'000; ++round) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng.Below(40));
    const uint32_t d = static_cast<uint32_t>(rng.Below(m));
    const uint32_t w = static_cast<uint32_t>(rng.Below(m + d + 2));
    const uint32_t sigma = 1 + static_cast<uint32_t>(rng.Below(4));
    const std::string pattern = RandomString(rng, m, sigma);
    std::string window;
    if (round % 2 == 0) {
      window = RandomString(rng, w, sigma);
    } else {
      // A near-copy: the pattern with up to d + 1 random edits, then
      // cut or padded to the window length.
      window = pattern;
      const uint64_t edits = rng.Below(d + 2);
      for (uint64_t e = 0; e < edits; ++e) {
        const size_t at = rng.Below(window.size() + 1);
        const char c = RandomString(rng, 1, sigma)[0];
        switch (rng.Below(3)) {
          case 0:
            if (at < window.size()) window[at] = c;
            break;
          case 1:
            window.insert(at, 1, c);
            break;
          default:
            if (at < window.size()) window.erase(at, 1);
            break;
        }
      }
      if (window.size() > w) window.resize(w);
      window += RandomString(rng, w - static_cast<uint32_t>(window.size()),
                             sigma);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectBandMatchesFullTable(pattern, window, d));
  }
}

// ---------------------------------------------------------------------
// Chaining.
// ---------------------------------------------------------------------

TEST(ChainerTest, EmptyAndSingle) {
  EXPECT_EQ(BestChain({}).score, 0u);
  Chain single = BestChain({{5, 9, 7}});
  EXPECT_EQ(single.score, 7u);
  ASSERT_EQ(single.anchors.size(), 1u);
  EXPECT_EQ(single.anchors[0], (Anchor{5, 9, 7}));
}

TEST(ChainerTest, PicksCollinearSubset) {
  // Two collinear anchors plus one crossing anchor that would break
  // monotonicity; the chain takes the collinear pair.
  std::vector<Anchor> anchors = {
      {0, 0, 10},    // collinear
      {20, 20, 10},  // collinear
      {12, 2, 11},   // crossing (data runs backwards relative to query)
  };
  Chain chain = BestChain(anchors);
  EXPECT_EQ(chain.score, 20u);
  ASSERT_EQ(chain.anchors.size(), 2u);
  EXPECT_EQ(chain.anchors[0].query_pos, 0u);
  EXPECT_EQ(chain.anchors[1].query_pos, 20u);
}

TEST(ChainerTest, RejectsOverlaps) {
  // Overlapping anchors cannot both be used.
  std::vector<Anchor> anchors = {{0, 0, 10}, {5, 5, 10}};
  Chain chain = BestChain(anchors);
  EXPECT_EQ(chain.score, 10u);
  EXPECT_EQ(chain.anchors.size(), 1u);
}

// Brute-force best chain over all subsets (small k only).
uint64_t BruteBestChain(const std::vector<Anchor>& anchors) {
  const size_t k = anchors.size();
  uint64_t best = 0;
  for (uint32_t mask = 0; mask < (1u << k); ++mask) {
    std::vector<Anchor> subset;
    for (size_t i = 0; i < k; ++i) {
      if (mask & (1u << i)) subset.push_back(anchors[i]);
    }
    std::sort(subset.begin(), subset.end(),
              [](const Anchor& a, const Anchor& b) {
                return a.query_pos < b.query_pos;
              });
    bool valid = true;
    uint64_t score = 0;
    for (size_t i = 0; i < subset.size(); ++i) {
      score += subset[i].length;
      if (i > 0) {
        const Anchor& p = subset[i - 1];
        const Anchor& c = subset[i];
        if (p.query_pos + p.length > c.query_pos ||
            p.data_pos + p.length > c.data_pos) {
          valid = false;
          break;
        }
      }
    }
    if (valid) best = std::max(best, score);
  }
  return best;
}

TEST(ChainerTest, BoundedOverlapChainsAndTrims) {
  // Two long anchors overlapping by one character: strict chaining must
  // pick one; with max_overlap they chain and the later one is trimmed.
  std::vector<Anchor> anchors = {{0, 0, 101}, {300, 100, 100}};
  Chain strict = BestChain(anchors);
  EXPECT_EQ(strict.score, 101u);
  Chain relaxed = BestChain(anchors, /*max_overlap=*/8);
  ASSERT_EQ(relaxed.anchors.size(), 2u);
  EXPECT_EQ(relaxed.raw_score, 201u);
  EXPECT_EQ(relaxed.score, 200u);  // one base trimmed off the second
  EXPECT_EQ(relaxed.anchors[1].data_pos, 101u);
  EXPECT_EQ(relaxed.anchors[1].length, 99u);
  // Trimmed chains are strictly non-overlapping.
  EXPECT_LE(relaxed.anchors[0].data_pos + relaxed.anchors[0].length,
            relaxed.anchors[1].data_pos);
  // Overlap beyond the bound still refuses to chain.
  std::vector<Anchor> heavy = {{0, 0, 120}, {300, 100, 100}};
  Chain refused = BestChain(heavy, /*max_overlap=*/8);
  EXPECT_EQ(refused.score, 120u);
}

TEST(ChainerTest, TrimDropsFullyConsumedAnchors) {
  // A tiny anchor entirely inside the first one's span gets dropped.
  std::vector<Anchor> anchors = {{0, 0, 50}, {100, 45, 5}, {200, 200, 40}};
  Chain chain = BestChain(anchors, /*max_overlap=*/8);
  // Whatever the DP picks, the emission is valid and covers the two
  // big anchors' material.
  EXPECT_GE(chain.score, 90u);
  for (size_t i = 1; i < chain.anchors.size(); ++i) {
    EXPECT_LE(chain.anchors[i - 1].data_pos + chain.anchors[i - 1].length,
              chain.anchors[i].data_pos);
  }
}

TEST(ChainerTest, OptimalAgainstBruteForce) {
  Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    uint32_t k = 1 + static_cast<uint32_t>(rng.Below(10));
    std::vector<Anchor> anchors;
    for (uint32_t i = 0; i < k; ++i) {
      anchors.push_back({static_cast<uint32_t>(rng.Below(60)),
                         static_cast<uint32_t>(rng.Below(60)),
                         1 + static_cast<uint32_t>(rng.Below(12))});
    }
    Chain chain = BestChain(anchors);
    ASSERT_EQ(chain.score, BruteBestChain(anchors)) << "round " << round;
    // Score equals the sum of chosen lengths.
    uint64_t total = 0;
    for (const Anchor& a : chain.anchors) total += a.length;
    ASSERT_EQ(total, chain.score);
  }
}

// ---------------------------------------------------------------------
// Aligner.
// ---------------------------------------------------------------------

TEST(AlignerTest, PerfectCopyAlignsCompletely) {
  const std::string genome = TestCorpus(20000, 9);
  Result<AlignmentResult> result = AlignSequences(genome, genome);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->anchored_bases, genome.size());
  EXPECT_EQ(result->gap_edits, 0u);
  EXPECT_DOUBLE_EQ(result->Identity(), 1.0);
  EXPECT_DOUBLE_EQ(result->QueryCoverage(genome.size()), 1.0);
}

TEST(AlignerTest, DivergentStrainAlignsWithHighIdentity) {
  const std::string genome = TestCorpus(40000, 10);
  seq::MutateOptions mut;
  mut.seed = 11;
  mut.substitution_rate = 0.01;
  std::string strain = seq::MutateCopy(Alphabet::Dna(), genome, mut);

  Result<AlignmentResult> result = AlignSequences(genome, strain);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->QueryCoverage(strain.size()), 0.9);
  EXPECT_GT(result->Identity(), 0.90);
  EXPECT_GT(result->chain.anchors.size(), 10u);
}

TEST(AlignerTest, UnrelatedSequencesBarelyAlign) {
  const std::string a = TestCorpus(20000, 12);
  const std::string b = TestCorpus(20000, 13);
  AlignOptions options;
  options.min_anchor_len = 24;  // random 24-mers almost never collide
  Result<AlignmentResult> result = AlignSequences(a, b, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->QueryCoverage(b.size()), 0.1);
}

TEST(AlignerTest, UniqueAnchorModeDropsRepeatedAnchors) {
  const std::string data = "AAACCCGGGTTTAAACCC";
  AlignOptions options;
  options.min_anchor_len = 6;
  options.unique_anchors_only = true;
  // "AAACCC" occurs twice in the data: not a MUM, dropped.
  Result<AlignmentResult> repeated = AlignSequences(data, "AAACCC", options);
  ASSERT_TRUE(repeated.ok());
  EXPECT_EQ(repeated->anchored_bases, 0u);
  // "GGGTTT" occurs once: kept.
  Result<AlignmentResult> unique = AlignSequences(data, "GGGTTT", options);
  ASSERT_TRUE(unique.ok());
  EXPECT_EQ(unique->anchored_bases, 6u);
}

// ---------------------------------------------------------------------
// Approximate matching.
// ---------------------------------------------------------------------

// Every start whose best window (fewest edits, then shortest) is
// within max_edits, as the kEditDistance kind reports it: {start,
// window length, edits}.
std::vector<Hit> BruteApproximate(const std::string& text,
                                  const std::string& pattern,
                                  uint32_t max_edits) {
  std::vector<Hit> hits;
  const uint32_t m = static_cast<uint32_t>(pattern.size());
  for (uint32_t s = 0; s < text.size(); ++s) {
    uint32_t best_edits = max_edits + 1;
    uint32_t best_len = 0;
    uint32_t max_len =
        std::min<uint32_t>(m + max_edits, static_cast<uint32_t>(text.size()) - s);
    for (uint32_t len = 0; len <= max_len; ++len) {
      uint32_t d = EditDistance(pattern, std::string_view(text).substr(s, len));
      if (d < best_edits) {
        best_edits = d;
        best_len = len;
      }
    }
    if (best_edits <= max_edits) hits.push_back({s, best_len, best_edits});
  }
  return hits;
}

std::vector<Hit> EditHits(const CompactSpineIndex& index,
                          const std::string& pattern, uint32_t max_edits) {
  const QueryResult result =
      ExecuteQuery(index, Query::EditDistance(pattern, max_edits));
  EXPECT_TRUE(result.ok()) << result.error;
  return result.hits;
}

TEST(ApproximateTest, ExactMatchesAreZeroEditHits) {
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString("ACGTACGTACGT").ok());
  const std::vector<Hit> hits = EditHits(index, "GTAC", 0);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], (Hit{2, 4, 0}));
  EXPECT_EQ(hits[1], (Hit{6, 4, 0}));
}

TEST(ApproximateTest, FindsSubstitutedOccurrences) {
  //                 0123456789
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString("AAAATCGAAAA").ok());
  // "TAGA" matches "TCGA" at position 4 with 1 substitution.
  bool found = false;
  for (const Hit& hit : EditHits(index, "TAGA", 1)) {
    if (hit.pos == 4 && hit.query_pos == 1) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(EditHits(index, "TAGA", 0).empty());
}

TEST(ApproximateTest, DegenerateInputs) {
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString("ACGT").ok());
  EXPECT_TRUE(EditHits(index, "", 1).empty());
  EXPECT_TRUE(EditHits(index, "AC", 2).empty());  // k >= |pattern|
  CompactSpineIndex empty(Alphabet::Dna());
  EXPECT_TRUE(EditHits(empty, "ACG", 1).empty());
}

TEST(ApproximateTest, MatchesBruteForceOracle) {
  Rng rng(23);
  for (int round = 0; round < 40; ++round) {
    uint32_t n = 30 + static_cast<uint32_t>(rng.Below(120));
    const std::string text = RandomString(rng, n, 3);
    CompactSpineIndex index(Alphabet::Dna());
    ASSERT_TRUE(index.AppendString(text).ok());
    for (int trial = 0; trial < 8; ++trial) {
      uint32_t m = 5 + static_cast<uint32_t>(rng.Below(10));
      std::string pattern;
      if (trial % 2 == 0 && m < n) {
        pattern = text.substr(rng.Below(n - m), m);
      } else {
        pattern = RandomString(rng, m, 3);
      }
      uint32_t k = static_cast<uint32_t>(rng.Below(3));
      if (k >= pattern.size()) continue;
      ASSERT_EQ(EditHits(index, pattern, k),
                BruteApproximate(text, pattern, k))
          << "text=" << text << " pattern=" << pattern << " k=" << k;
    }
  }
}

// The core kEditDistance kind (through ExecuteQuery) keeps the
// best-per-start contract (fewest edits, then shortest window) on a
// larger corpus, triple for triple against the brute-force oracle —
// and leaves an exact trail in the metrics registry: one routing
// decision per query, one approx.verified per hit, and Table-6 work
// counters equal to the summed SearchStats.
TEST(ApproximateTest, AgreesWithCoreEditKindAndRecordsMetrics) {
  Rng rng(777);
  const std::string corpus = TestCorpus(6000, 19);
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(corpus).ok());

  RegistryDelta delta;
  SearchStats expected;
  uint64_t queries = 0;
  uint64_t total_hits = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t m = 10 + static_cast<uint32_t>(rng.Below(10));
    const uint32_t start =
        static_cast<uint32_t>(rng.Below(corpus.size() - m - 4));
    std::string pattern = corpus.substr(start, m);
    const uint32_t d = static_cast<uint32_t>(rng.Below(3));
    // Perturb up to d characters (substitute / insert / erase) so
    // inexact hits actually occur.
    for (uint32_t e = 0; e < d; ++e) {
      const uint32_t at = static_cast<uint32_t>(rng.Below(pattern.size()));
      switch (rng.Below(3)) {
        case 0: pattern[at] = "ACGT"[rng.Below(4)]; break;
        case 1: pattern.insert(at, 1, "ACGT"[rng.Below(4)]); break;
        default: pattern.erase(at, 1); break;
      }
    }

    QueryResult result = ExecuteQuery(index, Query::EditDistance(pattern, d));
    ASSERT_TRUE(result.ok()) << result.error;
    expected.Add(result.stats);
    ++queries;
    total_hits += result.hits.size();

    EXPECT_EQ(result.hits, BruteApproximate(corpus, pattern, d))
        << "d=" << d;
  }
  EXPECT_GT(total_hits, 0u);

  SPINE_SKIP_IF_OBS_DISABLED();
  EXPECT_EQ(delta.Counter("core.queries.editdist"), queries);
  EXPECT_EQ(delta.Counter("approx.seeded") + delta.Counter("approx.scanned"),
            queries);
  EXPECT_EQ(delta.Counter("approx.verified"), total_hits);
  EXPECT_GE(delta.Counter("approx.candidates"),
            delta.Counter("approx.verified"));
  EXPECT_EQ(delta.Counter("core.vertebra_steps"), expected.nodes_checked);
  EXPECT_GT(expected.nodes_checked, 0u);
}

}  // namespace
}  // namespace spine::align
