// shard::DynamicFamily unit tests: lifecycle basics (create / open /
// insert / delete / flush / compact / reload), durability and volatile
// state, manifest-v2 registry routing, generation identity (cache_id /
// PinSnapshot), background triggers, and input validation. The
// exhaustive mutation-vs-oracle interleavings, fault schedules and
// concurrency races live in tests/lifecycle_differential_test.cc.

#include "shard/dynamic_family.h"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/rng.h"
#include "common/serde.h"
#include "compact/generalized_compact.h"
#include "core/generalized_spine.h"
#include "core/query.h"
#include "core/registry.h"
#include "shard/shard_file.h"
#include "shard/sharded_index.h"
#include "test_util.h"

namespace spine::shard {
namespace {

using spine::test::RandomDna;
using spine::test::ScopedTempDir;

std::vector<Query> AllKinds(const std::string& pattern, uint32_t min_len) {
  return {Query::Contains(pattern), Query::FindAll(pattern),
          Query::MatchingStats(pattern),
          Query::MaximalMatches(pattern, min_len),
          Query::MaximalMatches(pattern, min_len, /*expand=*/true)};
}

// The oracle from the class contract: a GeneralizedSpineIndex rebuilt
// from scratch over `docs` in order, answering through ExecuteQuery on
// its underlying index.
void ExpectAnswersMatchDocs(const DynamicFamily& family,
                            const std::vector<std::string>& docs,
                            const std::string& pattern,
                            const std::string& label) {
  GeneralizedSpineIndex oracle(family.alphabet());
  for (const std::string& doc : docs) ASSERT_TRUE(oracle.AddString(doc).ok());
  for (const Query& query : AllKinds(pattern, 3)) {
    QueryResult expected = ExecuteQuery(oracle.underlying(), query);
    QueryResult got = family.Execute(query);
    EXPECT_TRUE(got.SameAnswer(expected))
        << label << ", kind " << QueryKindName(query.kind) << ", pattern \""
        << pattern << "\": " << got.error;
  }
}

DynamicFamily::Options HeapOptions() { return DynamicFamily::Options{}; }

TEST(DynamicFamilyTest, CreateInsertQueryAccessors) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok()) << family.status().ToString();
  EXPECT_EQ((*family)->kind(), core::IndexKind::kDynamic);
  EXPECT_EQ((*family)->live_documents(), 0u);
  EXPECT_EQ((*family)->size(), 0u);

  auto id0 = (*family)->InsertDocument("ACGTACGT");
  auto id1 = (*family)->InsertDocument("TTTTGGGG");
  ASSERT_TRUE(id0.ok() && id1.ok());
  EXPECT_EQ(*id0, 0u);
  EXPECT_EQ(*id1, 1u);
  EXPECT_EQ((*family)->next_doc_id(), 2u);
  EXPECT_EQ((*family)->live_documents(), 2u);
  EXPECT_EQ((*family)->memtable_documents(), 2u);
  EXPECT_EQ((*family)->frozen_shard_count(), 0u);

  for (const char* pattern : {"ACGT", "TTTT", "GTAC", "CCCC", ""}) {
    ExpectAnswersMatchDocs(**family, {"ACGTACGT", "TTTTGGGG"}, pattern,
                           "memtable");
  }
  EXPECT_TRUE((*family)->VerifyStructure().ok());
}

TEST(DynamicFamilyTest, CreateFailsOnExistingPath) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  auto first = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(first.ok());
  auto second = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DynamicFamilyTest, RejectsInvalidDocumentsAndPatterns) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  ASSERT_TRUE((*family)->InsertDocument("ACGT").ok());

  // Reserved separator bytes and out-of-alphabet characters never
  // enter the collection.
  EXPECT_EQ((*family)->InsertDocument("AC\x1fGT").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*family)->InsertDocument("AC\nGT").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*family)->InsertDocument("ACXT").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*family)->live_documents(), 1u);

  // Patterns carrying a separator could match across document
  // boundaries; they are refused loudly, in every query kind.
  const std::vector<std::string> bad_patterns = {std::string("A\x1f") + "C",
                                                 std::string("A\nC")};
  for (const std::string& pattern : bad_patterns) {
    for (const Query& query : AllKinds(pattern, 1)) {
      QueryResult result = (*family)->Execute(query);
      EXPECT_EQ(result.status_code, StatusCode::kInvalidArgument)
          << QueryKindName(query.kind);
    }
  }
}

TEST(DynamicFamilyTest, DeleteMasksImmediatelyAndReportsNotFoundTwice) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  ASSERT_TRUE((*family)->InsertDocument("ACGTACGT").ok());
  ASSERT_TRUE((*family)->InsertDocument("GGGGCCCC").ok());
  ASSERT_TRUE((*family)->Flush().ok());       // both frozen
  ASSERT_TRUE((*family)->InsertDocument("TTTTAAAA").ok());  // memtable

  // Frozen delete.
  ASSERT_TRUE((*family)->DeleteDocument(0).ok());
  EXPECT_EQ((*family)->live_documents(), 2u);
  EXPECT_EQ((*family)->tombstone_count(), 1u);
  ExpectAnswersMatchDocs(**family, {"GGGGCCCC", "TTTTAAAA"}, "ACGT",
                         "frozen delete");
  // Memtable delete.
  ASSERT_TRUE((*family)->DeleteDocument(2).ok());
  ExpectAnswersMatchDocs(**family, {"GGGGCCCC"}, "TTTT", "memtable delete");

  EXPECT_EQ((*family)->DeleteDocument(0).code(), StatusCode::kNotFound);
  EXPECT_EQ((*family)->DeleteDocument(99).code(), StatusCode::kNotFound);
}

TEST(DynamicFamilyTest, FlushIsTheDurabilityPoint) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  {
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
    ASSERT_TRUE(family.ok());
    ASSERT_TRUE((*family)->InsertDocument("ACGTACGTAC").ok());
    ASSERT_TRUE((*family)->Flush().ok());
    ASSERT_TRUE((*family)->InsertDocument("GGGGGGGG").ok());  // volatile
  }
  auto reopened = DynamicFamily::Open(path, HeapOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_documents(), 1u);
  // The watermark reverts to the flushed manifest's value: the
  // discarded volatile document's id is free for reuse, since that
  // document never existed durably.
  EXPECT_EQ((*reopened)->next_doc_id(), 1u);
  ExpectAnswersMatchDocs(**reopened, {"ACGTACGTAC"}, "ACGT", "reopen");
  ExpectAnswersMatchDocs(**reopened, {"ACGTACGTAC"}, "GGGG", "reopen miss");
}

TEST(DynamicFamilyTest, DurableTombstoneSurvivesReopen) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  {
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
    ASSERT_TRUE(family.ok());
    ASSERT_TRUE((*family)->InsertDocument("ACGTACGT").ok());
    ASSERT_TRUE((*family)->InsertDocument("GGGGCCCC").ok());
    ASSERT_TRUE((*family)->Flush().ok());
    // Deleting a frozen document commits the manifest at delete time —
    // no flush needed for the tombstone to survive.
    ASSERT_TRUE((*family)->DeleteDocument(0).ok());
  }
  auto reopened = DynamicFamily::Open(path, HeapOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->live_documents(), 1u);
  EXPECT_EQ((*reopened)->tombstone_count(), 1u);
  ExpectAnswersMatchDocs(**reopened, {"GGGGCCCC"}, "ACGT", "tombstone");
}

TEST(DynamicFamilyTest, CompactMergesShardsDropsTombstonesAndDeadFiles) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  const std::vector<std::string> docs = {"ACGTACGTAC", "GGGGCCCCGG",
                                         "TTTTAAAATT"};
  for (const std::string& doc : docs) {
    ASSERT_TRUE((*family)->InsertDocument(doc).ok());
    ASSERT_TRUE((*family)->Flush().ok());  // one shard per document
  }
  ASSERT_EQ((*family)->frozen_shard_count(), 3u);
  ASSERT_TRUE((*family)->DeleteDocument(1).ok());
  ASSERT_EQ((*family)->tombstone_count(), 1u);

  ASSERT_TRUE((*family)->Compact().ok());
  EXPECT_EQ((*family)->frozen_shard_count(), 1u);
  EXPECT_EQ((*family)->tombstone_count(), 0u);
  EXPECT_EQ((*family)->live_documents(), 2u);
  ExpectAnswersMatchDocs(**family, {"ACGTACGTAC", "TTTTAAAATT"}, "ACGT",
                         "compacted");
  EXPECT_TRUE((*family)->VerifyStructure().ok());

  // Exactly the manifest and the one live image remain on disk.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    ++files;
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == "fam.spinefam" ||
                name == "fam.spinefam.g" +
                            std::to_string((*family)->generation_version()))
        << "stray file " << name;
  }
  EXPECT_EQ(files, 2u);
}

// One shard entry of a family manifest: the file it names and the size
// and CRC32C recorded for it.
struct ManifestEntry {
  std::string filename;
  uint64_t size = 0;
  uint32_t crc = 0;
};

// Parses the v2 manifest a DynamicFamily commits at `path`.
std::vector<ManifestEntry> ReadManifestEntries(const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::istringstream stream(bytes.ok() ? *bytes : std::string());
  serde::Reader reader(stream);
  uint32_t magic = 0, version = 0, alphabet = 0, next_doc_id = 0, shards = 0;
  uint64_t generation = 0;
  EXPECT_TRUE(reader.Pod(&magic) && reader.Pod(&version) &&
              reader.Pod(&alphabet) && reader.Pod(&generation) &&
              reader.Pod(&next_doc_id) && reader.Pod(&shards));
  EXPECT_EQ(magic, kShardManifestMagic);
  EXPECT_EQ(version, kDynamicManifestVersion);
  std::vector<ManifestEntry> entries(shards);
  for (ManifestEntry& entry : entries) {
    uint32_t name_size = 0;
    std::vector<uint32_t> doc_ids;
    EXPECT_TRUE(reader.Pod(&name_size));
    entry.filename.resize(name_size);
    EXPECT_TRUE(reader.Bytes(entry.filename.data(), name_size) &&
                reader.Pod(&entry.size) && reader.Pod(&entry.crc) &&
                reader.Vec(&doc_ids));
  }
  std::vector<uint32_t> tombstones;
  EXPECT_TRUE(reader.Vec(&tombstones) && reader.VerifyCrcFooter());
  return entries;
}

// Every shard file the manifest at `path` lists has the size and
// CRC32C the manifest records for it.
void ExpectManifestMatchesShardFiles(const std::string& path,
                                     size_t shards) {
  const std::vector<ManifestEntry> entries = ReadManifestEntries(path);
  ASSERT_EQ(entries.size(), shards);
  for (const ManifestEntry& entry : entries) {
    Result<std::string> bytes =
        ReadFileBytes(SiblingPath(path, entry.filename));
    ASSERT_TRUE(bytes.ok()) << entry.filename;
    EXPECT_EQ(bytes->size(), entry.size) << entry.filename;
    EXPECT_EQ(Crc32c(bytes->data(), bytes->size()), entry.crc)
        << entry.filename;
  }
}

// Flush and compaction record each new shard file's size and CRC32C
// from the bytes they wrote; reading the files back gives the same.
TEST(DynamicFamilyTest, ManifestRecordsTheWrittenShardBytes) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  Rng rng(23);
  for (size_t flush = 1; flush <= 3; ++flush) {
    for (int doc = 0; doc < 4; ++doc) {
      ASSERT_TRUE((*family)->InsertDocument(RandomDna(rng, 3'000)).ok());
    }
    ASSERT_TRUE((*family)->Flush().ok());
    ExpectManifestMatchesShardFiles(path, flush);
  }
  ASSERT_TRUE((*family)->DeleteDocument(5).ok());
  ASSERT_TRUE((*family)->Compact().ok());
  ExpectManifestMatchesShardFiles(path, 1);
  EXPECT_TRUE(DynamicFamily::Open(path, HeapOptions()).ok());
}

// A heap-opened frozen shard borrows its tables from the image buffer,
// so the family's memory figure must count that buffer.
TEST(DynamicFamilyTest, HeapReopenCountsTheShardImage) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  Rng rng(50);
  {
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
    ASSERT_TRUE(family.ok());
    ASSERT_TRUE((*family)->InsertDocument(RandomDna(rng, 50'000)).ok());
    ASSERT_TRUE((*family)->Flush().ok());
  }
  const std::vector<ManifestEntry> entries = ReadManifestEntries(path);
  ASSERT_EQ(entries.size(), 1u);
  auto reopened = DynamicFamily::Open(path, HeapOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE((*reopened)->MemoryBytes(), entries[0].size);
}

TEST(DynamicFamilyTest, ReloadDiscardsVolatileState) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  ASSERT_TRUE((*family)->InsertDocument("ACGTACGT").ok());
  ASSERT_TRUE((*family)->Flush().ok());
  ASSERT_TRUE((*family)->InsertDocument("GGGGCCCC").ok());  // volatile
  const uint64_t before = (*family)->generation_version();

  ASSERT_TRUE((*family)->Reload().ok());
  EXPECT_EQ((*family)->live_documents(), 1u);
  EXPECT_EQ((*family)->memtable_documents(), 0u);
  EXPECT_GT((*family)->generation_version(), before);  // stays monotone
  ExpectAnswersMatchDocs(**family, {"ACGTACGT"}, "GGGG", "post-reload");
}

TEST(DynamicFamilyTest, GenerationVersionAndCacheIdAdvanceOnEveryMutation) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  uint64_t version = (*family)->generation_version();
  uint64_t cache_id = (*family)->cache_id();
  const auto expect_advanced = [&](const char* what) {
    EXPECT_GT((*family)->generation_version(), version) << what;
    EXPECT_NE((*family)->cache_id(), cache_id) << what;
    version = (*family)->generation_version();
    cache_id = (*family)->cache_id();
  };
  ASSERT_TRUE((*family)->InsertDocument("ACGTACGT").ok());
  expect_advanced("insert");
  ASSERT_TRUE((*family)->Flush().ok());
  expect_advanced("flush");
  ASSERT_TRUE((*family)->DeleteDocument(0).ok());
  expect_advanced("delete");
}

TEST(DynamicFamilyTest, PinnedSnapshotIsImmuneToLaterMutations) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  ASSERT_TRUE((*family)->InsertDocument("ACGTACGT").ok());

  std::shared_ptr<const core::Index> snapshot = (*family)->PinSnapshot();
  ASSERT_NE(snapshot, nullptr);
  const uint64_t pinned_cache_id = snapshot->cache_id();
  const QueryResult before = snapshot->Execute(Query::FindAll("ACGT"));

  ASSERT_TRUE((*family)->DeleteDocument(0).ok());
  ASSERT_TRUE((*family)->InsertDocument("GGGGGGGG").ok());

  // The snapshot still answers from its generation, under its cache id.
  const QueryResult after = snapshot->Execute(Query::FindAll("ACGT"));
  EXPECT_TRUE(after.SameAnswer(before));
  EXPECT_EQ(after.hits.size(), 2u);
  EXPECT_EQ(snapshot->cache_id(), pinned_cache_id);
  EXPECT_NE((*family)->cache_id(), pinned_cache_id);
  // The family itself sees the new state.
  EXPECT_FALSE((*family)->Execute(Query::Contains("ACGT")).found);
}

TEST(DynamicFamilyTest, RegistrySniffsManifestV2ToDynamicBackend) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  {
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
    ASSERT_TRUE(family.ok());
    ASSERT_TRUE((*family)->InsertDocument("ACGTACGTAC").ok());
    ASSERT_TRUE((*family)->Flush().ok());
  }
  core::OpenOptions open;
  auto index = core::BackendRegistry::Default().Open(path, open);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->kind(), core::IndexKind::kDynamic);
  EXPECT_TRUE((*index)->Execute(Query::Contains("GTAC")).found);
  EXPECT_TRUE((*index)->VerifyStructure().ok());
}

TEST(DynamicFamilyTest, MmapOpenAgreesWithHeapOpen) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  Rng rng(99);
  std::vector<std::string> docs;
  {
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
    ASSERT_TRUE(family.ok());
    for (int i = 0; i < 3; ++i) {
      docs.push_back(RandomDna(rng, 200));
      ASSERT_TRUE((*family)->InsertDocument(docs.back()).ok());
      ASSERT_TRUE((*family)->Flush().ok());
    }
  }
  DynamicFamily::Options mmap_options;
  mmap_options.open.mode = core::OpenMode::kMmap;
  auto mapped = DynamicFamily::Open(path, mmap_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  for (int i = 0; i < 10; ++i) {
    const std::string& doc = docs[rng.Below(docs.size())];
    const std::string pattern = doc.substr(rng.Below(doc.size() - 8), 8);
    ExpectAnswersMatchDocs(**mapped, docs, pattern, "mmap open");
  }
  EXPECT_TRUE((*mapped)->VerifyStructure().ok());
}

TEST(DynamicFamilyTest, BackgroundTriggersFlushAndCompactOnTheirOwn) {
  ScopedTempDir dir;
  DynamicFamily::Options options;
  options.flush_threshold_bytes = 64;
  options.compact_fanout = 2;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), options);
  ASSERT_TRUE(family.ok());
  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*family)->InsertDocument(RandomDna(rng, 48)).ok());
  }
  // The background thread owes us at least one flush (8 * 48 bytes
  // against a 64-byte threshold); the tail of the memtable may stay
  // below the threshold and is legitimately still volatile. Poll with
  // a deadline, no sleep-based synchronization.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((*family)->frozen_shard_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE((*family)->frozen_shard_count(), 1u) << "background flush stuck";
  EXPECT_TRUE((*family)->TakeBackgroundError().ok());
  EXPECT_EQ((*family)->live_documents(), 8u);
  EXPECT_TRUE((*family)->VerifyStructure().ok());
}

// --- compaction by extension ------------------------------------------------

// The one image a single-shard manifest names, as bytes.
std::string OnlyShardBytes(const std::string& path) {
  const std::vector<ManifestEntry> entries = ReadManifestEntries(path);
  EXPECT_EQ(entries.size(), 1u);
  if (entries.size() != 1) return {};
  Result<std::string> bytes =
      ReadFileBytes(SiblingPath(path, entries[0].filename));
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

// The bytes a compaction that rebuilt from text would write: `live`
// (doc id -> text) added in doc-id order, each named doc-<id>.
std::string RebuiltImageBytes(const std::map<uint32_t, std::string>& live,
                              const std::string& scratch_path) {
  GeneralizedCompactSpine image(Alphabet::Dna());
  for (const auto& [id, text] : live) {
    EXPECT_TRUE(image.AddString(text, "doc-" + std::to_string(id)).ok());
  }
  EXPECT_TRUE(image.Save(scratch_path).ok());
  Result<std::string> bytes = ReadFileBytes(scratch_path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

std::vector<std::string> Texts(const std::map<uint32_t, std::string>& live) {
  std::vector<std::string> texts;
  for (const auto& [id, text] : live) texts.push_back(text);
  return texts;
}

// Index characters of `live`: each document and its separator.
uint64_t LiveChars(const std::map<uint32_t, std::string>& live) {
  uint64_t chars = 0;
  for (const auto& [id, text] : live) chars += text.size() + 1;
  return chars;
}

// A first shard of four documents, three more flushed shards of three
// (the middle one holding a tombstone), and a memtable of three with one
// dead. `dirty_first` also deletes a document of the first shard.
struct MergeFixture {
  std::unique_ptr<DynamicFamily> family;
  std::map<uint32_t, std::string> live;
  uint64_t first_shard_chars = 0;  // separators included
};

MergeFixture BuildMergeFixture(const std::string& path, bool dirty_first) {
  MergeFixture fixture;
  auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
  EXPECT_TRUE(family.ok()) << family.status().ToString();
  if (!family.ok()) return fixture;
  fixture.family = std::move(family).value();
  Rng rng(31);
  const auto insert = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      const std::string doc = RandomDna(rng, 300 + rng.Below(400));
      auto id = fixture.family->InsertDocument(doc);
      ASSERT_TRUE(id.ok());
      fixture.live.emplace(*id, doc);
    }
  };
  const auto remove = [&](uint32_t id) {
    ASSERT_TRUE(fixture.family->DeleteDocument(id).ok());
    fixture.live.erase(id);
  };
  insert(4);
  fixture.first_shard_chars = LiveChars(fixture.live);
  EXPECT_TRUE(fixture.family->Flush().ok());
  for (int shard = 0; shard < 3; ++shard) {
    insert(3);
    EXPECT_TRUE(fixture.family->Flush().ok());
  }
  remove(8);  // the middle one of the three later shards
  if (dirty_first) remove(1);
  insert(3);
  remove(fixture.family->next_doc_id() - 2);
  EXPECT_EQ(fixture.family->frozen_shard_count(), 4u);
  return fixture;
}

TEST(DynamicFamilyTest, CompactExtendsACleanFirstShardByteForByte) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  MergeFixture fixture = BuildMergeFixture(path, /*dirty_first=*/false);
  ASSERT_NE(fixture.family, nullptr);
  const uint64_t version = fixture.family->generation_version();
  spine::test::RegistryDelta delta;
  ASSERT_TRUE(fixture.family->Compact().ok());

  // One image, one manifest commit, the memtable folded in.
  EXPECT_EQ(fixture.family->generation_version(), version + 1);
  EXPECT_EQ(fixture.family->frozen_shard_count(), 1u);
  EXPECT_EQ(fixture.family->memtable_documents(), 0u);
  EXPECT_EQ(fixture.family->tombstone_count(), 0u);
  EXPECT_EQ(OnlyShardBytes(path),
            RebuiltImageBytes(fixture.live, dir.File("rebuilt.img")));
  ExpectAnswersMatchDocs(*fixture.family, Texts(fixture.live), "ACGTAC",
                         "extended");
  EXPECT_TRUE(fixture.family->VerifyStructure().ok());

#if !defined(SPINE_OBS_DISABLED)
  const uint64_t live_chars = LiveChars(fixture.live);
  EXPECT_EQ(delta.Counter("lifecycle.compactions"), 1u);
  EXPECT_EQ(delta.Counter("lifecycle.flushes"), 0u);
  EXPECT_EQ(delta.Counter("lifecycle.compact_reused_chars"),
            fixture.first_shard_chars);
  EXPECT_EQ(delta.Counter("lifecycle.compact_appended_chars"),
            live_chars - fixture.first_shard_chars);
#endif
}

TEST(DynamicFamilyTest, CompactRebuildsWhenTheFirstShardIsDirty) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  MergeFixture fixture = BuildMergeFixture(path, /*dirty_first=*/true);
  ASSERT_NE(fixture.family, nullptr);
  spine::test::RegistryDelta delta;
  ASSERT_TRUE(fixture.family->Compact().ok());

  EXPECT_EQ(fixture.family->frozen_shard_count(), 1u);
  EXPECT_EQ(fixture.family->tombstone_count(), 0u);
  EXPECT_EQ(OnlyShardBytes(path),
            RebuiltImageBytes(fixture.live, dir.File("rebuilt.img")));
  ExpectAnswersMatchDocs(*fixture.family, Texts(fixture.live), "ACGTAC",
                         "rebuilt");

#if !defined(SPINE_OBS_DISABLED)
  EXPECT_EQ(delta.Counter("lifecycle.compact_reused_chars"), 0u);
  EXPECT_EQ(delta.Counter("lifecycle.compact_appended_chars"),
            LiveChars(fixture.live));
#endif
}

// Answers of every query kind for a few patterns, in order.
std::vector<QueryResult> AnswerProbe(const core::Index& index) {
  std::vector<QueryResult> answers;
  for (const char* pattern : {"ACGTAC", "GGATC", "TTTT", "CAGT"}) {
    for (const Query& query : AllKinds(pattern, 3)) {
      answers.push_back(index.Execute(query));
    }
  }
  return answers;
}

void ExpectSameAnswers(const std::vector<QueryResult>& got,
                       const std::vector<QueryResult>& expected,
                       const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].SameAnswer(expected[i])) << label << ", probe " << i;
  }
}

// The clone appends into its own tables: a generation pinned before the
// compaction, whose first shard is the clone's base, answers as before.
TEST(DynamicFamilyTest, SnapshotPinnedBeforeCompactionKeepsItsAnswers) {
  ScopedTempDir dir;
  MergeFixture fixture =
      BuildMergeFixture(dir.File("fam.spinefam"), /*dirty_first=*/false);
  ASSERT_NE(fixture.family, nullptr);
  std::shared_ptr<const core::Index> pinned = fixture.family->PinSnapshot();
  const std::vector<QueryResult> before = AnswerProbe(*pinned);
  const uint64_t size = pinned->size();

  ASSERT_TRUE(fixture.family->Compact().ok());
  ExpectSameAnswers(AnswerProbe(*pinned), before, "pinned");
  EXPECT_EQ(pinned->size(), size);
  EXPECT_TRUE(pinned->VerifyStructure().ok());
  // Same documents, so the compacted family answers the same too.
  ExpectSameAnswers(AnswerProbe(*fixture.family), before, "compacted");
}

// A base opened from disk, borrowed from a heap buffer or a mapping,
// extends into owned tables and writes the image a rebuild would.
TEST(DynamicFamilyTest, CompactExtendsAnOpenedBaseOnEveryOpenPath) {
  for (const core::OpenMode mode :
       {core::OpenMode::kHeap, core::OpenMode::kMmap}) {
    SCOPED_TRACE(mode == core::OpenMode::kHeap ? "heap" : "mmap");
    ScopedTempDir dir;
    const std::string path = dir.File("fam.spinefam");
    std::map<uint32_t, std::string> live;
    {
      MergeFixture fixture = BuildMergeFixture(path, /*dirty_first=*/false);
      ASSERT_NE(fixture.family, nullptr);
      ASSERT_TRUE(fixture.family->Flush().ok());  // the memtable is volatile
      live = fixture.live;
    }
    DynamicFamily::Options options;
    options.open.mode = mode;
    auto family = DynamicFamily::Open(path, options);
    ASSERT_TRUE(family.ok()) << family.status().ToString();
    Rng rng(8);
    const std::string doc = RandomDna(rng, 500);
    auto id = (*family)->InsertDocument(doc);
    ASSERT_TRUE(id.ok());
    live.emplace(*id, doc);

    std::shared_ptr<const core::Index> pinned = (*family)->PinSnapshot();
    const std::vector<QueryResult> before = AnswerProbe(*pinned);
    ASSERT_TRUE((*family)->Compact().ok());
    ExpectSameAnswers(AnswerProbe(*pinned), before, "pinned");
    EXPECT_EQ(OnlyShardBytes(path),
              RebuiltImageBytes(live, dir.File("rebuilt.img")));
    family->reset();

    auto reopened = DynamicFamily::Open(path, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    for (const std::string& pattern :
         {std::string("ACGTAC"), std::string("GGATC"), doc.substr(100, 12)}) {
      ExpectAnswersMatchDocs(**reopened, Texts(live), pattern, "reopened");
    }
    EXPECT_TRUE((*reopened)->VerifyStructure().ok());
  }
}

// Offset of node `node`'s Link Table word in a saved generalized image:
// the embedded compact image starts with its magic ("SPNE" as a
// little-endian u32), then version, alphabet kind and size (20 bytes, an
// 8-aligning pad), the CL word vector (u64 count + words) and the Link
// Table word vector (u64 count + one u32 per node).
size_t LinkWordOffset(const std::string& image, uint32_t node) {
  const size_t inner = image.find("ENPS");
  EXPECT_NE(inner, std::string::npos);
  uint64_t cl_words = 0;
  std::memcpy(&cl_words, image.data() + inner + 24, sizeof(cl_words));
  return inner + 24 + 8 + cl_words * 8 + 8 + 4 * static_cast<size_t>(node);
}

TEST(DynamicFamilyTest, CompactRefusesACorruptUnverifiedBase) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  std::vector<std::string> docs;
  Rng rng(12);
  {
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
    ASSERT_TRUE(family.ok());
    for (int shard = 0; shard < 2; ++shard) {
      for (int i = 0; i < 3; ++i) {
        docs.push_back(RandomDna(rng, 400));
        ASSERT_TRUE((*family)->InsertDocument(docs.back()).ok());
      }
      ASSERT_TRUE((*family)->Flush().ok());
    }
  }
  // Point one class-0 Link Table word of the first shard downstream.
  const std::string first =
      SiblingPath(path, ReadManifestEntries(path)[0].filename);
  Result<std::string> bytes = ReadFileBytes(first);
  ASSERT_TRUE(bytes.ok());
  std::string image = *bytes;
  uint32_t node = 600;
  uint32_t word = 0;
  for (;; ++node) {
    ASSERT_LT(node, 1200u);
    std::memcpy(&word, image.data() + LinkWordOffset(image, node), 4);
    if ((word >> 29) == 0) break;  // the word is the link destination
  }
  word = (word & ~((1u << 27) - 1)) | (node + 1);
  std::memcpy(image.data() + LinkWordOffset(image, node), &word, 4);
  spine::test::WriteFile(first, image);

  DynamicFamily::Options noverify;
  noverify.open.mode = core::OpenMode::kMmap;
  noverify.open.verify = false;
  auto family = DynamicFamily::Open(path, noverify);
  ASSERT_TRUE(family.ok()) << family.status().ToString();
  docs.push_back(RandomDna(rng, 400));
  ASSERT_TRUE((*family)->InsertDocument(docs.back()).ok());
  const uint64_t version = (*family)->generation_version();

  const Status status = (*family)->Compact();
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  // The old generation keeps serving: same layout, same answers (an
  // existence query walks vertebras and ribs, never the broken link).
  EXPECT_EQ((*family)->generation_version(), version);
  EXPECT_EQ((*family)->frozen_shard_count(), 2u);
  EXPECT_EQ((*family)->memtable_documents(), 1u);
  EXPECT_EQ((*family)->live_documents(), 7u);
  GeneralizedSpineIndex oracle(Alphabet::Dna());
  for (const std::string& doc : docs) ASSERT_TRUE(oracle.AddString(doc).ok());
  for (const std::string& doc : docs) {
    const Query query = Query::Contains(doc.substr(50, 16));
    EXPECT_TRUE((*family)->Execute(query).SameAnswer(
        ExecuteQuery(oracle.underlying(), query)));
  }
  EXPECT_TRUE(std::filesystem::exists(first));
}

}  // namespace
}  // namespace spine::shard
