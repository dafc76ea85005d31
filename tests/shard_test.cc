// shard::ShardedIndex tests: exact equivalence with the monolithic
// compact index on randomized DNA/protein corpora for every query kind
// (boundary-straddling patterns included), loud pattern admission,
// .spinefam save/load round-trips, bit-flip corruption detection, and
// structural verification.

#include "shard/sharded_index.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/rng.h"
#include "common/serde.h"
#include "compact/compact_spine.h"
#include "core/query.h"
#include "shard/shard_file.h"
#include "test_util.h"

namespace spine::shard {
namespace {

using spine::test::RandomDna;
using spine::test::RandomProtein;
using spine::test::ScopedTempDir;

// Every query kind over `pattern`, including occurrence-expanded
// maximal matches.
std::vector<Query> AllKinds(const std::string& pattern, uint32_t min_len) {
  return {Query::Contains(pattern), Query::FindAll(pattern),
          Query::MatchingStats(pattern),
          Query::MaximalMatches(pattern, min_len),
          Query::MaximalMatches(pattern, min_len, /*expand=*/true)};
}

void ExpectFamilyMatchesMonolithic(const CompactSpineIndex& mono,
                                   const ShardedIndex& family,
                                   const std::string& pattern,
                                   const std::string& label) {
  for (const Query& query : AllKinds(pattern, 4)) {
    QueryResult expected = ExecuteQuery(mono, query);
    QueryResult got = family.Execute(query);
    ASSERT_TRUE(got.ok()) << label << ": " << got.error;
    EXPECT_TRUE(got.SameAnswer(expected))
        << label << ", kind " << QueryKindName(query.kind) << ", pattern \""
        << pattern << "\"";
  }
}

TEST(ShardedIndexTest, MatchesMonolithicOnRandomCorpora) {
  Rng rng(1234);
  const struct {
    Alphabet alphabet;
    bool protein;
    uint32_t length;
  } corpora[] = {
      {Alphabet::Dna(), false, 700},
      {Alphabet::Dna(), false, 5'000},
      {Alphabet::Protein(), true, 2'500},
  };
  for (const auto& corpus_spec : corpora) {
    const std::string text = corpus_spec.protein
                                 ? RandomProtein(rng, corpus_spec.length)
                                 : RandomDna(rng, corpus_spec.length);
    CompactSpineIndex mono(corpus_spec.alphabet);
    ASSERT_TRUE(mono.AppendString(text).ok());

    for (uint32_t shards : {1u, 2u, 3u, 7u}) {
      auto family = ShardedIndex::Build(corpus_spec.alphabet, text,
                                        {.shards = shards, .max_pattern = 32});
      ASSERT_TRUE(family.ok()) << family.status().ToString();
      const std::string label = "n=" + std::to_string(text.size()) +
                                " K=" + std::to_string(shards);
      EXPECT_TRUE((*family)->VerifyStructure().ok()) << label;

      // Random slices (hits) and perturbed slices (misses).
      for (int i = 0; i < 25; ++i) {
        const uint32_t len = 1 + rng.Below(32);
        const uint32_t offset =
            static_cast<uint32_t>(rng.Below(text.size() - len));
        std::string pattern = text.substr(offset, len);
        ExpectFamilyMatchesMonolithic(mono, **family, pattern, label);
        pattern[len / 2] = pattern[len / 2] == 'A' ? 'C' : 'A';
        ExpectFamilyMatchesMonolithic(mono, **family, pattern, label);
      }
      // Patterns centered on every shard boundary: these straddle the
      // core split and are only findable through the overlap margin.
      for (uint32_t s = 1; s < (*family)->shard_count(); ++s) {
        const uint64_t boundary = (*family)->info(s).core_start;
        for (uint32_t len : {2u, 9u, 31u}) {
          if (boundary < len || boundary + len > text.size()) continue;
          ExpectFamilyMatchesMonolithic(
              mono, **family, text.substr(boundary - len / 2, len),
              label + " boundary@" + std::to_string(boundary));
        }
      }
    }
  }
}

TEST(ShardedIndexTest, TinyTextsAndEdgePatterns) {
  Rng rng(9);
  for (const std::string& text : {std::string("A"), std::string("ACG"),
                                  RandomDna(rng, 17)}) {
    CompactSpineIndex mono(Alphabet::Dna());
    ASSERT_TRUE(mono.AppendString(text).ok());
    // More shards than characters: K clamps to the text length.
    auto family = ShardedIndex::Build(Alphabet::Dna(), text,
                                      {.shards = 8, .max_pattern = 32});
    ASSERT_TRUE(family.ok()) << family.status().ToString();
    EXPECT_LE((*family)->shard_count(), text.size());
    ExpectFamilyMatchesMonolithic(mono, **family, text, "whole-text");
    ExpectFamilyMatchesMonolithic(mono, **family, text.substr(0, 1), "first");
    ExpectFamilyMatchesMonolithic(mono, **family,
                                  text.substr(text.size() - 1), "last");
    ExpectFamilyMatchesMonolithic(mono, **family, "", "empty");
    ExpectFamilyMatchesMonolithic(mono, **family, "T", "maybe-missing");
  }
}

TEST(ShardedIndexTest, RejectsOverlongPatternsLoudly) {
  Rng rng(5);
  const std::string text = RandomDna(rng, 400);
  auto family = ShardedIndex::Build(Alphabet::Dna(), text,
                                    {.shards = 4, .max_pattern = 8});
  ASSERT_TRUE(family.ok());

  const std::string long_pattern = text.substr(10, 9);  // margin + 1
  for (const Query& query : AllKinds(long_pattern, 4)) {
    QueryResult result = (*family)->Execute(query);
    EXPECT_FALSE(result.ok()) << QueryKindName(query.kind);
    EXPECT_EQ(result.status_code, StatusCode::kInvalidArgument)
        << QueryKindName(query.kind);
    EXPECT_NE(result.error.find("max_pattern"), std::string::npos)
        << QueryKindName(query.kind);
    EXPECT_TRUE(result.hits.empty());
    EXPECT_TRUE(result.matching_stats.empty());
  }
  // Exactly the margin is admitted.
  QueryResult ok = (*family)->Execute(Query::FindAll(text.substr(10, 8)));
  EXPECT_TRUE(ok.ok()) << ok.error;
  EXPECT_TRUE(ok.found);
}

TEST(ShardedIndexTest, BuildValidatesOptions) {
  EXPECT_EQ(ShardedIndex::Build(Alphabet::Dna(), "ACGT", {.shards = 0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedIndex::Build(Alphabet::Dna(), "ACGT",
                                {.shards = 2, .max_pattern = 0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedIndexTest, ParallelBuildMatchesSingleThreaded) {
  Rng rng(77);
  const std::string text = RandomDna(rng, 6'000);
  auto serial = ShardedIndex::Build(
      Alphabet::Dna(), text,
      {.shards = 4, .max_pattern = 24, .build_threads = 1});
  auto parallel = ShardedIndex::Build(
      Alphabet::Dna(), text,
      {.shards = 4, .max_pattern = 24, .build_threads = 4});
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  for (int i = 0; i < 20; ++i) {
    const std::string pattern =
        text.substr(rng.Below(text.size() - 24), 1 + rng.Below(24));
    for (const Query& query : AllKinds(pattern, 4)) {
      EXPECT_TRUE((*serial)->Execute(query).SameAnswer(
          (*parallel)->Execute(query)))
          << QueryKindName(query.kind) << " \"" << pattern << "\"";
    }
  }
}

TEST(ShardedIndexTest, SaveLoadRoundTripIsExact) {
  ScopedTempDir dir("shard_roundtrip");
  Rng rng(31);
  const std::string text = RandomProtein(rng, 3'000);
  auto built = ShardedIndex::Build(Alphabet::Protein(), text,
                                   {.shards = 3, .max_pattern = 20});
  ASSERT_TRUE(built.ok());
  const std::string path = dir.File("family.spinefam");
  ASSERT_TRUE((*built)->Save(path).ok());

  auto loaded = ShardedIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->kind(), core::IndexKind::kSharded);
  EXPECT_EQ((*loaded)->size(), text.size());
  EXPECT_EQ((*loaded)->shard_count(), (*built)->shard_count());
  EXPECT_EQ((*loaded)->max_pattern(), (*built)->max_pattern());
  EXPECT_EQ((*loaded)->alphabet().kind(), Alphabet::Kind::kProtein);
  EXPECT_TRUE((*loaded)->VerifyStructure().ok());

  for (int i = 0; i < 25; ++i) {
    const std::string pattern =
        text.substr(rng.Below(text.size() - 20), 1 + rng.Below(20));
    for (const Query& query : AllKinds(pattern, 4)) {
      QueryResult before = (*built)->Execute(query);
      QueryResult after = (*loaded)->Execute(query);
      ASSERT_TRUE(after.ok()) << after.error;
      EXPECT_TRUE(after.SameAnswer(before))
          << QueryKindName(query.kind) << " \"" << pattern << "\"";
    }
  }
}

// One shard entry of a .spinefam manifest: the file it names and the
// size and CRC32C recorded for it.
struct ManifestEntry {
  std::string filename;
  uint64_t size = 0;
  uint32_t crc = 0;
};

// Parses the manifest ShardedIndex::Save writes at `path`.
std::vector<ManifestEntry> ReadManifestEntries(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  serde::Reader reader(in);
  uint32_t magic = 0, version = 0, alphabet = 0, shards = 0, margin = 0;
  uint64_t n = 0;
  EXPECT_TRUE(reader.Pod(&magic) && reader.Pod(&version) &&
              reader.Pod(&alphabet) && reader.Pod(&n) &&
              reader.Pod(&shards) && reader.Pod(&margin));
  EXPECT_EQ(magic, kShardManifestMagic);
  EXPECT_EQ(version, kShardManifestVersion);
  std::vector<ManifestEntry> entries(shards);
  for (ManifestEntry& entry : entries) {
    uint64_t core_start = 0, core_end = 0, slice_end = 0;
    std::vector<char> name;
    EXPECT_TRUE(reader.Pod(&core_start) && reader.Pod(&core_end) &&
                reader.Pod(&slice_end) && reader.Vec(&name) &&
                reader.Pod(&entry.size) && reader.Pod(&entry.crc));
    entry.filename.assign(name.begin(), name.end());
  }
  EXPECT_TRUE(reader.VerifyCrcFooter());
  return entries;
}

// Save records each shard file's size and CRC32C from the bytes it
// wrote; reading the files back must give the same values.
TEST(ShardedIndexTest, ManifestRecordsTheWrittenShardBytes) {
  ScopedTempDir dir("shard_manifest_crc");
  Rng rng(47);
  const std::string text = RandomDna(rng, 40'000);
  auto built = ShardedIndex::Build(Alphabet::Dna(), text,
                                   {.shards = 3, .max_pattern = 24});
  ASSERT_TRUE(built.ok());
  const std::string path = dir.File("family.spinefam");
  ASSERT_TRUE((*built)->Save(path).ok());

  const std::vector<ManifestEntry> entries = ReadManifestEntries(path);
  ASSERT_EQ(entries.size(), 3u);
  for (const ManifestEntry& entry : entries) {
    Result<std::string> bytes =
        ReadFileBytes(SiblingPath(path, entry.filename));
    ASSERT_TRUE(bytes.ok()) << entry.filename;
    EXPECT_EQ(bytes->size(), entry.size) << entry.filename;
    EXPECT_EQ(Crc32c(bytes->data(), bytes->size()), entry.crc)
        << entry.filename;
  }
}

// Flips one byte of `path` at `offset`, runs `fn`, restores the byte.
template <typename Fn>
void WithFlippedByte(const std::string& path, uint64_t offset, Fn fn) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  ASSERT_TRUE(f.good()) << path << " shorter than " << offset;
  const char flipped = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&flipped, 1);
  f.flush();
  ASSERT_TRUE(f.good());
  fn();
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
  f.flush();
}

TEST(ShardedIndexTest, DetectsAnySingleBitFlip) {
  ScopedTempDir dir("shard_bitflip");
  Rng rng(8);
  const std::string text = RandomDna(rng, 2'000);
  auto built = ShardedIndex::Build(Alphabet::Dna(), text,
                                   {.shards = 2, .max_pattern = 16});
  ASSERT_TRUE(built.ok());
  const std::string path = dir.File("family.spinefam");
  ASSERT_TRUE((*built)->Save(path).ok());
  ASSERT_TRUE(ShardedIndex::Load(path).ok());  // pristine baseline

  std::vector<std::string> files = {path, path + ".shard0", path + ".shard1"};
  for (const std::string& file : files) {
    std::ifstream probe(file, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(probe.good()) << file;
    const uint64_t size = static_cast<uint64_t>(probe.tellg());
    probe.close();
    // Sample offsets across the whole file, ends included.
    for (uint64_t offset :
         {uint64_t{4}, size / 4, size / 2, (3 * size) / 4, size - 1}) {
      WithFlippedByte(file, offset, [&] {
        auto corrupt = ShardedIndex::Load(path);
        EXPECT_FALSE(corrupt.ok())
            << file << " flipped at " << offset << " was not detected";
        if (!corrupt.ok()) {
          EXPECT_EQ(corrupt.status().code(), StatusCode::kCorruption)
              << file << " @ " << offset << ": "
              << corrupt.status().ToString();
        }
      });
    }
  }
  // Restored files load cleanly again.
  EXPECT_TRUE(ShardedIndex::Load(path).ok());

  // Truncation of the manifest and of a shard file are corruption too.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    spine::test::WriteFile(path, bytes.substr(0, bytes.size() / 2));
    auto truncated = ShardedIndex::Load(path);
    EXPECT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);
    spine::test::WriteFile(path, bytes);
  }
  {
    const std::string shard_file = path + ".shard1";
    std::ifstream in(shard_file, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    spine::test::WriteFile(shard_file, bytes.substr(0, bytes.size() - 7));
    auto truncated = ShardedIndex::Load(path);
    EXPECT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);
    spine::test::WriteFile(shard_file, bytes);
  }
  EXPECT_TRUE(ShardedIndex::Load(path).ok());

  // A missing shard file is an I/O error (the medium is absent, not
  // lying), still never a crash.
  ASSERT_EQ(std::remove((path + ".shard0").c_str()), 0);
  auto missing = ShardedIndex::Load(path);
  EXPECT_FALSE(missing.ok());
}

TEST(ShardedIndexTest, ManifestRejectsEscapingFilenames) {
  ScopedTempDir dir("shard_escape");
  Rng rng(4);
  const std::string text = RandomDna(rng, 500);
  auto built = ShardedIndex::Build(Alphabet::Dna(), text,
                                   {.shards = 2, .max_pattern = 8});
  ASSERT_TRUE(built.ok());
  const std::string path = dir.File("family.spinefam");
  ASSERT_TRUE((*built)->Save(path).ok());

  // Rewrite the manifest's first shard filename to point outside the
  // manifest's directory. The length stays equal so the layout (and
  // everything before the CRC footer) still parses; a correct loader
  // must reject it on the filename check or the checksum, never read
  // the traversal target.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::string original = "family.spinefam.shard0";
  const std::string escape = "../family.spinefam.sha";
  ASSERT_EQ(original.size(), escape.size());
  const size_t at = bytes.find(original);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, original.size(), escape);
  spine::test::WriteFile(path, bytes);

  auto tampered = ShardedIndex::Load(path);
  EXPECT_FALSE(tampered.ok());
  EXPECT_EQ(tampered.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace spine::shard
