// Regression and cross-implementation fuzz tests.
#include <fstream>
#include <sstream>
//
// Contains the exact counterexample that exposed the paper's extrib
// parent-identification ambiguity (DESIGN.md §5), plus randomized
// sweeps asserting that the reference, compact and disk-resident
// implementations stay in lock-step with each other and with the
// brute-force oracle, including under interleaved append/query usage.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/rng.h"
#include "compact/compact_spine.h"
#include "compact/serializer.h"
#include "core/matcher.h"
#include "core/search.h"
#include "core/spine_index.h"
#include "naive/naive_index.h"
#include "seq/generator.h"
#include "storage/disk_spine.h"
#include "suffix_tree/st_matcher.h"
#include "suffix_tree/suffix_tree.h"

namespace spine {
namespace {

// The string where PRT-only extrib identification first went wrong:
// after appending the final 'A', ribs at nodes 7 and 12 (both CL 'A',
// both PT 4) share the extrib chain through node 16, and the paper's
// matching rule binds node 28's extrib to the wrong rib, yielding
// LEL(35) = 6 instead of the true 5 (a false positive for "CCCACA").
TEST(RegressionTest, PrtCollisionCounterexample) {
  const std::string s = "AAACCCCCCCACCACACACACAAAAACACCCCACA";
  SpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(s).ok());

  // The colliding ribs exist exactly as the analysis says.
  const SpineIndex::Rib* rib7 = index.FindRib(7, index.alphabet().Encode('A'));
  const SpineIndex::Rib* rib12 =
      index.FindRib(12, index.alphabet().Encode('A'));
  ASSERT_NE(rib7, nullptr);
  ASSERT_NE(rib12, nullptr);
  EXPECT_EQ(rib7->pt, rib12->pt) << "the PT collision must exist";
  EXPECT_NE(rib7->dest, rib12->dest);

  // With the (parent_dest, PRT) fix, LEL(35) is correct: "CCCACA" (the
  // length-6 suffix) does NOT occur ending before position 35, so the
  // longest early suffix is "CCACA" (length 5). The broken rule made
  // FindAll report a phantom second occurrence.
  EXPECT_EQ(index.LinkLel(35), naive::LongestEarlierSuffix(s, 35));
  EXPECT_EQ(index.LinkLel(35), 5u);
  EXPECT_EQ(index.FindAll("CCCACA"), naive::FindAllOccurrences(s, "CCCACA"));
  EXPECT_EQ(index.FindAll("CCCACA").size(), 1u);

  // The compact layout inherits the fix.
  CompactSpineIndex compact(Alphabet::Dna());
  ASSERT_TRUE(compact.AppendString(s).ok());
  EXPECT_EQ(compact.LinkLel(35), 5u);
  EXPECT_EQ(compact.FindAll("CCCACA").size(), 1u);
}

// Interleaved appends and queries: SPINE is online, so searching
// between appends must reflect exactly the current prefix.
TEST(RegressionTest, OnlineInterleavedAppendsAndQueries) {
  Rng rng(606);
  const char* letters = "ACGT";
  for (int round = 0; round < 30; ++round) {
    uint32_t sigma = 2 + static_cast<uint32_t>(rng.Below(3));
    uint32_t total = 20 + static_cast<uint32_t>(rng.Below(120));
    std::string s;
    SpineIndex reference(Alphabet::Dna());
    CompactSpineIndex compact(Alphabet::Dna());
    for (uint32_t i = 0; i < total; ++i) {
      char c = letters[rng.Below(sigma)];
      s.push_back(c);
      ASSERT_TRUE(reference.Append(c).ok());
      ASSERT_TRUE(compact.Append(c).ok());
      if (i % 7 == 3) {
        // Query the current prefix.
        uint32_t start = static_cast<uint32_t>(rng.Below(s.size()));
        uint32_t len = 1 + static_cast<uint32_t>(
                               rng.Below(std::min<size_t>(8, s.size() - start)));
        std::string pattern = s.substr(start, len);
        auto want = naive::FindAllOccurrences(s, pattern);
        ASSERT_EQ(reference.FindAll(pattern), want)
            << "prefix " << s << " pattern " << pattern;
        ASSERT_EQ(compact.FindAll(pattern), want)
            << "prefix " << s << " pattern " << pattern;
      }
    }
  }
}

// Three-way sweep: reference == compact == disk on random strings over
// all three alphabets, via the shared generic search templates. The
// reference and compact backbones take the label-filtered backbone
// scan, the disk backbone the per-node link test; both must match the
// oracle for patterns longer than the 64-bit label window, for
// occurrences ending at the last node, and in multi-pattern calls.
TEST(RegressionTest, ThreeImplementationSweep) {
  Rng rng(1234);
  const std::string letters = "ACGTWYKLMN hgt.";
  for (int round = 0; round < 10; ++round) {
    Alphabet alphabet = round % 3 == 0
                            ? Alphabet::Dna()
                            : (round % 3 == 1 ? Alphabet::Protein()
                                              : Alphabet::Ascii());
    uint32_t len = 200 + static_cast<uint32_t>(rng.Below(2000));
    std::string s;
    for (uint32_t i = 0; i < len; ++i) {
      // Draw until the character is in the alphabet, then canonicalize
      // (DNA/protein alphabets fold case, the byte-exact oracle does
      // not).
      while (true) {
        char c = letters[rng.Below(letters.size())];
        Code code = alphabet.Encode(c);
        if (code != kInvalidCode) {
          s.push_back(alphabet.Decode(code));
          break;
        }
      }
    }
    // Copies of earlier stretches make long patterns recur; the last
    // copy makes the text's suffixes recur, so occurrences end at node n.
    for (int copy = 0; copy < 4; ++copy) {
      const uint32_t copy_len = 64 + static_cast<uint32_t>(rng.Below(64));
      s += s.substr(rng.Below(s.size() - copy_len), copy_len);
    }
    SpineIndex reference(alphabet);
    CompactSpineIndex compact(alphabet);
    ASSERT_TRUE(reference.AppendString(s).ok());
    ASSERT_TRUE(compact.AppendString(s).ok());
    storage::DiskSpine::Options options;
    options.pool_frames = 8;
    auto disk = storage::DiskSpine::Create(
        alphabet, ::testing::TempDir() + "/sweep.idx", options);
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE((*disk)->AppendString(s).ok());

    for (int trial = 0; trial < 30; ++trial) {
      uint32_t start = static_cast<uint32_t>(rng.Below(len - 10));
      std::string pattern = s.substr(start, 1 + rng.Below(9));
      auto want = naive::FindAllOccurrences(s, pattern);
      ASSERT_EQ(GenericFindAll(reference, pattern), want);
      ASSERT_EQ(GenericFindAll(compact, pattern), want);
      ASSERT_EQ(GenericFindAll(**disk, pattern), want);
    }
    // Patterns longer than the label window (32 DNA, 12 protein, 9 ASCII
    // codes), then suffixes of the text, which end at node n.
    const uint32_t window = 64 / alphabet.bits_per_code();
    std::vector<std::string> patterns;
    for (int trial = 0; trial < 20; ++trial) {
      const uint32_t m = window + 1 + static_cast<uint32_t>(rng.Below(40));
      patterns.push_back(s.substr(rng.Below(s.size() - m), m));
    }
    for (const uint32_t m : {1u, 3u, window, window + 1, window + 17}) {
      patterns.push_back(s.substr(s.size() - m));
    }
    for (const std::string& pattern : patterns) {
      const auto want = naive::FindAllOccurrences(s, pattern);
      ASSERT_EQ(GenericFindAll(reference, pattern), want) << pattern;
      ASSERT_EQ(GenericFindAll(compact, pattern), want) << pattern;
      ASSERT_EQ(GenericFindAll(**disk, pattern), want) << pattern;
    }
    for (size_t p = patterns.size() - 5; p < patterns.size(); ++p) {
      const auto want = naive::FindAllOccurrences(s, patterns[p]);
      ASSERT_GE(want.size(), 2u) << patterns[p];
      ASSERT_EQ(want.back() + patterns[p].size(), s.size());
    }
    // One multi-pattern scan answers exactly like one scan per pattern,
    // with a duplicate, an absent, an out-of-alphabet and an empty
    // pattern mixed in; a fired token gets one empty list per pattern.
    std::string absent;
    do {
      absent.clear();
      for (uint32_t i = 0; i < window + 5; ++i) {
        absent.push_back(s[rng.Below(s.size())]);
      }
    } while (!naive::FindAllOccurrences(s, absent).empty());
    std::string foreign = s.substr(0, 4) + '\x01';
    while (alphabet.Encode(foreign.back()) != kInvalidCode) ++foreign.back();
    std::vector<std::string_view> batch(patterns.begin(), patterns.end());
    batch.push_back(patterns.front());
    batch.push_back(absent);
    batch.push_back(foreign);
    batch.push_back("");
    CancelToken fired;
    fired.Cancel();
    const auto check_multi = [&](const auto& index) {
      const std::vector<std::vector<uint32_t>> got =
          GenericFindAllMulti(index, batch);
      ASSERT_EQ(got.size(), batch.size());
      for (size_t p = 0; p < batch.size(); ++p) {
        ASSERT_EQ(got[p], GenericFindAll(index, batch[p])) << batch[p];
      }
      const std::vector<std::vector<uint32_t>> cut =
          GenericFindAllMulti(index, batch, nullptr, &fired);
      ASSERT_EQ(cut.size(), batch.size());
      for (const std::vector<uint32_t>& starts : cut) {
        ASSERT_TRUE(starts.empty());
      }
    };
    check_multi(reference);
    check_multi(compact);
    check_multi(**disk);

    // Matching statistics agree across implementations.
    std::string query = s.substr(len / 3, std::min<size_t>(300, len / 2));
    auto ref_matches = GenericFindMaximalMatches(reference, query, 3);
    auto compact_matches = GenericFindMaximalMatches(compact, query, 3);
    auto disk_matches = GenericFindMaximalMatches(**disk, query, 3);
    ASSERT_EQ(ref_matches.size(), compact_matches.size());
    ASSERT_EQ(ref_matches.size(), disk_matches.size());
    for (size_t k = 0; k < ref_matches.size(); ++k) {
      ASSERT_EQ(ref_matches[k], compact_matches[k]);
      ASSERT_EQ(ref_matches[k], disk_matches[k]);
    }
  }
}

// Serializer robustness: random single-byte corruptions of a valid
// image must never crash the loader — they either fail cleanly or load
// a structurally valid index.
TEST(RegressionTest, SerializerBitFlipFuzz) {
  Rng rng(31415);
  const char* letters = "ACGT";
  std::string s;
  for (int i = 0; i < 3000; ++i) s.push_back(letters[rng.Below(4)]);
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(s).ok());
  const std::string path = ::testing::TempDir() + "/flip.idx";
  ASSERT_TRUE(SaveCompactSpine(index, path).ok());

  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    image = buf.str();
  }
  int loaded_ok = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = image;
    size_t pos = rng.Below(corrupted.size());
    corrupted[pos] = static_cast<char>(corrupted[pos] ^
                                       (1 << rng.Below(8)));
    const std::string bad_path = ::testing::TempDir() + "/flip_bad.idx";
    {
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out << corrupted;
    }
    Result<CompactSpineIndex> loaded = LoadCompactSpine(bad_path);
    if (loaded.ok()) {
      ++loaded_ok;  // flip hit a non-structural byte (e.g. a CL bit)
      EXPECT_TRUE(loaded->Validate().ok());
    }
  }
  // Most flips land in table payloads and may load; the point of the
  // test is the absence of crashes and of invalid loaded structures.
  SUCCEED() << loaded_ok << " of 60 corrupted images still loaded";
}

// The paper's Table 6 claim as an invariant: on realistic matching
// workloads SPINE's set-based link shrinking checks fewer nodes than
// the suffix tree's one-suffix-per-hop walk.
TEST(RegressionTest, SpineChecksFewerNodesThanSuffixTree) {
  seq::GeneratorOptions gen;
  gen.length = 60000;
  for (uint64_t seed : {1u, 2u, 3u}) {
    gen.seed = seed;
    std::string data = seq::GenerateSequence(Alphabet::Dna(), gen);
    gen.seed = seed + 100;
    std::string query = seq::GenerateSequence(Alphabet::Dna(), gen);

    CompactSpineIndex index(Alphabet::Dna());
    ASSERT_TRUE(index.AppendString(data).ok());
    SuffixTree tree(Alphabet::Dna());
    ASSERT_TRUE(tree.AppendString(data).ok());

    SearchStats spine_stats, st_stats;
    GenericFindMaximalMatches(index, query, 20, &spine_stats);
    GenericStFindMaximalMatches(tree, query, 20, &st_stats);
    uint64_t spine_checked = spine_stats.nodes_checked +
                             spine_stats.link_traversals +
                             spine_stats.chain_hops;
    uint64_t st_checked = st_stats.nodes_checked + st_stats.link_traversals +
                          st_stats.chain_hops;
    EXPECT_LT(spine_checked, st_checked) << "seed " << seed;
  }
}

// The byte alphabet exceeds the compact layout's 7-bit character
// labels, but the reference implementation covers it fully.
TEST(RegressionTest, ByteAlphabetOnReferenceImplementation) {
  Rng rng(777);
  std::string s;
  for (int i = 0; i < 1500; ++i) {
    s.push_back(static_cast<char>(rng.Below(255)));  // 0xFF is reserved
  }
  SpineIndex index(Alphabet::Byte());
  ASSERT_TRUE(index.AppendString(s).ok());
  ASSERT_TRUE(index.Validate().ok());
  for (int trial = 0; trial < 60; ++trial) {
    uint32_t start = static_cast<uint32_t>(rng.Below(s.size() - 8));
    std::string pattern = s.substr(start, 1 + rng.Below(7));
    ASSERT_EQ(index.FindAll(pattern), naive::FindAllOccurrences(s, pattern));
  }
}

}  // namespace
}  // namespace spine
