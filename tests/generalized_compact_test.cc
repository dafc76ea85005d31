// Tests for the compact multi-string index and its persistence.

#include "compact/generalized_compact.h"

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/generalized_spine.h"
#include "naive/naive_index.h"

namespace spine {
namespace {

using Hit = GeneralizedCompactSpine::Hit;

TEST(GeneralizedCompactTest, BasicsAndBoundaries) {
  GeneralizedCompactSpine index(Alphabet::Dna());
  ASSERT_TRUE(index.AddString("ACGTACGT", "chrA").ok());
  ASSERT_TRUE(index.AddString("TTACGTT", "chrB").ok());
  EXPECT_EQ(index.string_count(), 2u);
  EXPECT_EQ(index.StringLength(0), 8u);
  EXPECT_EQ(index.StringLength(1), 7u);
  EXPECT_EQ(index.StringName(0), "chrA");

  EXPECT_EQ(index.FindAll("ACGT"), (std::vector<Hit>{{0, 0}, {0, 4}, {1, 2}}));
  EXPECT_TRUE(index.Contains("tta"));   // case folded via the DNA alphabet
  EXPECT_FALSE(index.Contains("GTTT"));  // would cross the boundary
  EXPECT_FALSE(index.Contains(std::string(1, '\n')));
  EXPECT_FALSE(index.AddString("AC\nGT").ok());
  EXPECT_FALSE(index.AddString("ACGX").ok());
}

TEST(GeneralizedCompactTest, AgreesWithReferenceGeneralizedIndex) {
  Rng rng(4242);
  const char* letters = "ACGT";
  for (int round = 0; round < 15; ++round) {
    GeneralizedCompactSpine compact(Alphabet::Dna());
    GeneralizedSpineIndex reference(Alphabet::Dna());
    uint32_t count = 2 + static_cast<uint32_t>(rng.Below(5));
    for (uint32_t k = 0; k < count; ++k) {
      std::string s;
      uint32_t len = 4 + static_cast<uint32_t>(rng.Below(80));
      for (uint32_t i = 0; i < len; ++i) s.push_back(letters[rng.Below(4)]);
      ASSERT_TRUE(compact.AddString(s).ok());
      ASSERT_TRUE(reference.AddString(s).ok());
    }
    for (int trial = 0; trial < 40; ++trial) {
      std::string pattern;
      for (uint32_t i = 0; i < 1 + rng.Below(6); ++i) {
        pattern.push_back(letters[rng.Below(4)]);
      }
      auto compact_hits = compact.FindAll(pattern);
      auto reference_hits = reference.FindAll(pattern);
      ASSERT_EQ(compact_hits.size(), reference_hits.size()) << pattern;
      for (size_t i = 0; i < compact_hits.size(); ++i) {
        ASSERT_EQ(compact_hits[i].string_id, reference_hits[i].string_id);
        ASSERT_EQ(compact_hits[i].offset, reference_hits[i].offset);
      }
    }
  }
}

TEST(GeneralizedCompactTest, MatchAgainstCollection) {
  GeneralizedCompactSpine index(Alphabet::Protein());
  ASSERT_TRUE(index.AddString("MKVLAWGHMKVLA", "p0").ok());
  ASSERT_TRUE(index.AddString("GGGMKVLAGG", "p1").ok());
  auto matches = index.MatchAgainst("HMKVLAH", 4);
  ASSERT_FALSE(matches.empty());
  bool found = false;
  for (const auto& match : matches) {
    if (match.length >= 5) {
      found = true;
      // "MKVLA" occurrences: p0 @ 0 and 8, p1 @ 3 (plus the H-extended
      // one at p0 @ 7 for the longer match).
      EXPECT_GE(match.hits.size(), 1u);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(index.MatchAgainst("MKVLA", 0).empty());
}

TEST(GeneralizedCompactTest, SaveLoadRoundTrip) {
  GeneralizedCompactSpine index(Alphabet::Dna());
  ASSERT_TRUE(index.AddString("ACGTACGTCC", "alpha").ok());
  ASSERT_TRUE(index.AddString("GGACGTGG", "beta").ok());
  const std::string path = ::testing::TempDir() + "/generalized.spineg";
  Status save = index.Save(path);
  ASSERT_TRUE(save.ok()) << save.ToString();

  Result<GeneralizedCompactSpine> loaded = GeneralizedCompactSpine::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->string_count(), 2u);
  EXPECT_EQ(loaded->StringName(1), "beta");
  EXPECT_EQ(loaded->FindAll("ACGT"),
            (std::vector<Hit>{{0, 0}, {0, 4}, {1, 2}}));
  EXPECT_FALSE(loaded->Contains("CCGG"));
}

TEST(GeneralizedCompactTest, LoadRejectsCorruptFiles) {
  const std::string path = ::testing::TempDir() + "/generalized_bad.spineg";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "junk";
  }
  Result<GeneralizedCompactSpine> loaded = GeneralizedCompactSpine::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(GeneralizedCompactSpine::Load("/nonexistent.spineg").ok());
}

TEST(GeneralizedCompactTest, AsciiCollection) {
  GeneralizedCompactSpine index(Alphabet::Ascii());
  ASSERT_TRUE(index.AddString("the quick brown fox", "doc0").ok());
  ASSERT_TRUE(index.AddString("the lazy dog", "doc1").ok());
  EXPECT_EQ(index.FindAll("the "),
            (std::vector<Hit>{{0, 0}, {1, 0}}));
  EXPECT_TRUE(index.Contains("quick"));
  EXPECT_FALSE(index.Contains("fox the"));  // crosses the boundary
}

// A clone extended by more strings saves the bytes of a collection
// built from scratch over all of them, whether its source was built in
// memory, loaded from a stream or borrowed from a buffer (the loaders
// fill the side hash maps in file order, which Clone() undoes), and the
// source is left as it was.
TEST(GeneralizedCompactTest, ExtendedCloneSavesTheBytesOfARebuild) {
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  };
  const auto save = [&](const GeneralizedCompactSpine& index) {
    const std::string path = ::testing::TempDir() + "/clone_probe.spineg";
    EXPECT_TRUE(index.Save(path).ok());
    return slurp(path);
  };
  Rng rng(606);
  for (const Alphabet& alphabet : {Alphabet::Dna(), Alphabet::Protein()}) {
    SCOPED_TRACE(alphabet.name());
    const std::string letters = alphabet.kind() == Alphabet::Kind::kDna
                                    ? "ACGT"
                                    : "ACDEFGHIKLMNPQRSTVWY";
    std::vector<std::string> docs;
    for (int d = 0; d < 24; ++d) {
      std::string doc;
      for (int i = 0; i < 600; ++i) {
        doc.push_back(letters[rng.Below(letters.size())]);
      }
      docs.push_back(doc);
    }
    const auto build = [&](size_t begin, size_t end,
                           GeneralizedCompactSpine* index) {
      for (size_t d = begin; d < end; ++d) {
        ASSERT_TRUE(index->AddString(docs[d], "doc-" + std::to_string(d)).ok());
      }
    };
    GeneralizedCompactSpine full(alphabet);
    build(0, docs.size(), &full);
    const std::string want = save(full);
    if (alphabet.kind() == Alphabet::Kind::kProtein) {
      EXPECT_GT(full.underlying().FanoutCounts()[4], 0u);  // big entries
    }
    EXPECT_GT(full.underlying().extrib_count(), 0u);

    for (const size_t base_docs : {size_t{1}, size_t{9}}) {
      GeneralizedCompactSpine base(alphabet);
      build(0, base_docs, &base);
      const std::string base_bytes = save(base);
      const std::string path = ::testing::TempDir() + "/clone_base.spineg";
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << base_bytes;
      }
      Result<GeneralizedCompactSpine> loaded =
          GeneralizedCompactSpine::Load(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      std::shared_ptr<uint64_t[]> buffer(
          new uint64_t[base_bytes.size() / 8 + 1]);
      std::memcpy(buffer.get(), base_bytes.data(), base_bytes.size());
      Result<GeneralizedCompactSpine> borrowed =
          GeneralizedCompactSpine::LoadFromMemory(
              reinterpret_cast<const uint8_t*>(buffer.get()),
              base_bytes.size(), /*verify=*/true, buffer);
      ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();

      for (const GeneralizedCompactSpine* source :
           {&base, &*loaded, &*borrowed}) {
        GeneralizedCompactSpine clone = source->Clone();
        build(base_docs, docs.size(), &clone);
        EXPECT_EQ(save(clone), want) << "base of " << base_docs;
        EXPECT_EQ(source->string_count(), base_docs);
        EXPECT_TRUE(source->underlying().Validate().ok());
      }
      EXPECT_EQ(save(base), base_bytes);
    }
  }
}

}  // namespace
}  // namespace spine
