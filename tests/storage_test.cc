// Tests for the storage substrate: page file, buffer pool policies,
// paged arrays, and the disk-resident SPINE / suffix tree.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compact/compact_spine.h"
#include "core/adapters.h"
#include "core/matcher.h"
#include "naive/naive_index.h"
#include "obs/metrics.h"
#include "storage/mmap_region.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/disk_spine.h"
#include "storage/disk_suffix_tree.h"
#include "storage/paged_array.h"
#include "storage/page_file.h"
#include "suffix_tree/st_matcher.h"
#include "suffix_tree/suffix_tree.h"
#include "test_util.h"

namespace spine::storage {
namespace {

using spine::test::TempPath;

TEST(PageFileTest, WriteReadRoundTrip) {
  Result<PageFile> file =
      PageFile::Create(TempPath("pf1.dat"), PageFile::SyncMode::kNone);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  uint8_t page[kPageSize];
  std::memset(page, 0xab, sizeof(page));
  ASSERT_TRUE(file->WritePage(3, page).ok());
  uint8_t back[kPageSize];
  ASSERT_TRUE(file->ReadPage(3, back).ok());
  EXPECT_EQ(std::memcmp(page, back, kPageSize), 0);
  // Unwritten pages read as zeros.
  ASSERT_TRUE(file->ReadPage(100, back).ok());
  for (uint32_t i = 0; i < kPageSize; ++i) ASSERT_EQ(back[i], 0);
  EXPECT_EQ(file->pages_written(), 1u);
}

TEST(PageFileTest, SyncEveryWriteMode) {
  Result<PageFile> file = PageFile::Create(TempPath("pf2.dat"),
                                           PageFile::SyncMode::kSyncEveryWrite);
  ASSERT_TRUE(file.ok());
  uint8_t page[kPageSize] = {1, 2, 3};
  ASSERT_TRUE(file->WritePage(0, page).ok());
  ASSERT_TRUE(file->Sync().ok());
}

class BufferPoolPolicyTest
    : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(BufferPoolPolicyTest, DataSurvivesEvictionPressure) {
  Result<PageFile> file = PageFile::Create(
      TempPath(std::string("bp_") + PolicyName(GetParam()) + ".dat"),
      PageFile::SyncMode::kNone);
  ASSERT_TRUE(file.ok());
  BufferPool pool(&*file, 4, GetParam());

  // Write a recognizable stamp into 64 pages through a 4-frame pool.
  // FetchPage returns the checksummed page's payload region.
  for (uint64_t p = 0; p < 64; ++p) {
    uint8_t* page = pool.FetchPage(p, true);
    ASSERT_NE(page, nullptr);
    std::memset(page, static_cast<int>(p + 1), kPagePayloadSize);
  }
  // Read everything back (faults evicted pages back in).
  for (uint64_t p = 0; p < 64; ++p) {
    uint8_t* page = pool.FetchPage(p, false);
    ASSERT_NE(page, nullptr);
    for (uint32_t i = 0; i < kPagePayloadSize; i += 512) {
      ASSERT_EQ(page[i], static_cast<uint8_t>(p + 1)) << "page " << p;
    }
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_GT(pool.stats().dirty_writebacks, 0u);
  ASSERT_TRUE(pool.FlushAll().ok());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, BufferPoolPolicyTest,
                         ::testing::Values(ReplacementPolicy::kLru,
                                           ReplacementPolicy::kClock,
                                           ReplacementPolicy::kPinTop),
                         [](const auto& info) {
                           std::string name = PolicyName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(BufferPoolTest, HitAndMissAccounting) {
  Result<PageFile> file =
      PageFile::Create(TempPath("bp_stats.dat"), PageFile::SyncMode::kNone);
  ASSERT_TRUE(file.ok());
  BufferPool pool(&*file, 8, ReplacementPolicy::kLru);
  pool.FetchPage(0, false);
  pool.FetchPage(0, false);
  pool.FetchPage(1, false);
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(pool.stats().HitRate(), 1.0 / 3.0);
}

TEST(BufferPoolTest, PinTopKeepsLowPagesResident) {
  Result<PageFile> file =
      PageFile::Create(TempPath("bp_pintop.dat"), PageFile::SyncMode::kNone);
  ASSERT_TRUE(file.ok());
  // 16 frames -> the lowest 4 page ids are protected.
  BufferPool pin_pool(&*file, 16, ReplacementPolicy::kPinTop);
  for (uint64_t p = 0; p < 100; ++p) pin_pool.FetchPage(p, false);
  pin_pool.ResetStats();
  for (uint64_t p = 0; p < 4; ++p) pin_pool.FetchPage(p, false);
  EXPECT_EQ(pin_pool.stats().hits, 4u);
  EXPECT_EQ(pin_pool.stats().misses, 0u);

  // Plain LRU would have evicted the top pages during the long scan.
  Result<PageFile> file2 =
      PageFile::Create(TempPath("bp_lru2.dat"), PageFile::SyncMode::kNone);
  ASSERT_TRUE(file2.ok());
  BufferPool lru_pool(&*file2, 16, ReplacementPolicy::kLru);
  for (uint64_t p = 0; p < 100; ++p) lru_pool.FetchPage(p, false);
  lru_pool.ResetStats();
  for (uint64_t p = 0; p < 4; ++p) lru_pool.FetchPage(p, false);
  EXPECT_EQ(lru_pool.stats().misses, 4u);
}

TEST(PagedArrayTest, AppendGetSetAcrossPages) {
  Result<PageFile> file =
      PageFile::Create(TempPath("pa.dat"), PageFile::SyncMode::kNone);
  ASSERT_TRUE(file.ok());
  BufferPool pool(&*file, 3, ReplacementPolicy::kLru);
  PageAllocator allocator;
  PagedArray<uint64_t> array(&pool, &allocator);
  for (uint64_t i = 0; i < 5000; ++i) array.Append(i * 7);
  for (uint64_t i = 0; i < 5000; ++i) ASSERT_EQ(array.Get(i), i * 7);
  array.Set(4242, 99);
  EXPECT_EQ(array.Get(4242), 99u);
  EXPECT_GT(array.PagesUsed(), 5u);
}

TEST(PagedCodesTest, RoundTripAllWidths) {
  for (uint32_t bits : {2u, 5u, 8u}) {
    Result<PageFile> file = PageFile::Create(
        TempPath("pc" + std::to_string(bits) + ".dat"),
        PageFile::SyncMode::kNone);
    ASSERT_TRUE(file.ok());
    BufferPool pool(&*file, 2, ReplacementPolicy::kLru);
    PageAllocator allocator;
    PagedCodes codes(&pool, &allocator, bits);
    Rng rng(bits);
    std::vector<Code> expected;
    for (int i = 0; i < 40000; ++i) {
      Code c = static_cast<Code>(rng.Below(1u << bits));
      expected.push_back(c);
      codes.Append(c);
    }
    for (int i = 0; i < 40000; ++i) {
      ASSERT_EQ(codes.Get(i), expected[i]) << "bits " << bits << " idx " << i;
    }
  }
}

TEST(DiskModelTest, ModeledTimeScalesWithMisses) {
  DiskCostModel model;
  IoStats cheap{1000, 10, 0, 0};
  IoStats costly{1000, 1000, 900, 500};
  EXPECT_LT(model.ModeledSeconds(cheap), model.ModeledSeconds(costly));
  EXPECT_GT(model.PageIoMs(), 8.0);
}

// ---------------------------------------------------------------------
// Disk-resident SPINE: equivalence with the in-memory compact index
// under heavy eviction pressure.
// ---------------------------------------------------------------------

TEST(DiskSpineTest, MatchesCompactIndexUnderTinyPool) {
  Rng rng(2024);
  const char* letters = "ACGT";
  std::string s;
  for (int i = 0; i < 20000; ++i) s.push_back(letters[rng.Below(4)]);

  DiskSpine::Options options;
  options.pool_frames = 8;  // brutal pressure
  Result<std::unique_ptr<DiskSpine>> disk =
      DiskSpine::Create(Alphabet::Dna(), TempPath("ds1.idx"), options);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE((*disk)->AppendString(s).ok());

  CompactSpineIndex compact(Alphabet::Dna());
  ASSERT_TRUE(compact.AppendString(s).ok());

  ASSERT_EQ((*disk)->size(), compact.size());
  for (NodeId i = 1; i <= compact.size(); i += 97) {
    ASSERT_EQ((*disk)->LinkDest(i), compact.LinkDest(i)) << i;
    ASSERT_EQ((*disk)->LinkLel(i), compact.LinkLel(i)) << i;
  }
  for (int trial = 0; trial < 40; ++trial) {
    uint32_t start = static_cast<uint32_t>(rng.Below(s.size() - 12));
    std::string pattern = s.substr(start, 3 + rng.Below(9));
    ASSERT_EQ((*disk)->FindAll(pattern), compact.FindAll(pattern)) << pattern;
  }
  EXPECT_GT((*disk)->io_stats().evictions, 0u);
  EXPECT_GT((*disk)->PagesUsed(), 8u);
  ASSERT_TRUE((*disk)->Flush().ok());
}

TEST(DiskSpineTest, MaximalMatchesViaGenericMatcher) {
  std::string data = "ACCACAACAGGTTACCACAACA";
  std::string query = "TTACCACA";
  DiskSpine::Options options;
  options.pool_frames = 4;
  Result<std::unique_ptr<DiskSpine>> disk =
      DiskSpine::Create(Alphabet::Dna(), TempPath("ds2.idx"), options);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->AppendString(data).ok());
  auto matches = GenericFindMaximalMatches(**disk, query, 3);
  auto expected = naive::MaximalMatches(data, query, 3);
  ASSERT_EQ(matches.size(), expected.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(matches[k].query_pos, expected[k].query_pos);
    EXPECT_EQ(matches[k].length, expected[k].length);
  }
}

TEST(DiskSpineTest, SyncModeWorks) {
  DiskSpine::Options options;
  options.pool_frames = 4;
  options.sync_mode = PageFile::SyncMode::kSyncEveryWrite;
  Result<std::unique_ptr<DiskSpine>> disk =
      DiskSpine::Create(Alphabet::Dna(), TempPath("ds3.idx"), options);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->AppendString("ACGTACGTACGT").ok());
  EXPECT_TRUE((*disk)->Contains("GTAC"));
}

TEST(DiskSpinePersistenceTest, CheckpointAndReopen) {
  Rng rng(808);
  const char* letters = "ACGT";
  std::string s;
  for (int i = 0; i < 12000; ++i) s.push_back(letters[rng.Below(4)]);
  const std::string path = TempPath("persist.idx");

  {
    DiskSpine::Options options;
    options.pool_frames = 16;
    auto index = DiskSpine::Create(Alphabet::Dna(), path, options);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE((*index)->AppendString(s).ok());
    Status checkpoint = (*index)->Checkpoint();
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();
  }  // index destroyed: only the file + sidecar survive

  DiskSpine::Options options;
  options.pool_frames = 16;
  auto reopened = DiskSpine::Open(path, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->size(), s.size());
  CompactSpineIndex expected(Alphabet::Dna());
  ASSERT_TRUE(expected.AppendString(s).ok());
  for (NodeId i = 1; i <= s.size(); i += 53) {
    ASSERT_EQ((*reopened)->LinkDest(i), expected.LinkDest(i)) << i;
    ASSERT_EQ((*reopened)->LinkLel(i), expected.LinkLel(i)) << i;
  }
  for (int trial = 0; trial < 25; ++trial) {
    uint32_t start = static_cast<uint32_t>(rng.Below(s.size() - 10));
    std::string pattern = s.substr(start, 2 + rng.Below(8));
    ASSERT_EQ((*reopened)->FindAll(pattern), expected.FindAll(pattern));
  }

  // The reopened index remains appendable: extend and verify.
  std::string extension;
  for (int i = 0; i < 500; ++i) extension.push_back(letters[rng.Below(4)]);
  ASSERT_TRUE((*reopened)->AppendString(extension).ok());
  ASSERT_TRUE(expected.AppendString(extension).ok());
  for (int trial = 0; trial < 15; ++trial) {
    uint32_t start =
        static_cast<uint32_t>(s.size() - 20 + rng.Below(500));
    std::string pattern = (s + extension).substr(start, 6);
    ASSERT_EQ((*reopened)->FindAll(pattern), expected.FindAll(pattern));
  }
}

TEST(DiskSpineTest, ProteinHighFanoutSpillsOnDisk) {
  // The engineered protein string from the compact tests: one node
  // accumulates > 4 ribs, exercising the disk index's big-entry spill.
  std::string s;
  const std::string residues = "CDEFGHIKLMNPQRSTVWY";
  for (char r : residues) {
    s += "AA";
    s += r;
  }
  DiskSpine::Options options;
  options.pool_frames = 4;
  auto disk = DiskSpine::Create(Alphabet::Protein(),
                                TempPath("ds_protein.idx"), options);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->AppendString(s).ok());
  CompactSpineIndex expected(Alphabet::Protein());
  ASSERT_TRUE(expected.AppendString(s).ok());
  for (NodeId i = 1; i <= s.size(); ++i) {
    ASSERT_EQ((*disk)->LinkDest(i), expected.LinkDest(i)) << i;
    ASSERT_EQ((*disk)->LinkLel(i), expected.LinkLel(i)) << i;
  }
  EXPECT_TRUE((*disk)->Contains("AAC"));
  EXPECT_TRUE((*disk)->Contains("CAAD"));
  EXPECT_FALSE((*disk)->Contains("CC"));

  // Persistence round-trips the big entries too.
  ASSERT_TRUE((*disk)->Checkpoint().ok());
  auto reopened = DiskSpine::Open(TempPath("ds_protein.idx"), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->Contains("AAW"));
  EXPECT_FALSE((*reopened)->Contains("WW"));
}

TEST(DiskSpinePersistenceTest, OpenFailures) {
  DiskSpine::Options options;
  EXPECT_FALSE(DiskSpine::Open("/nonexistent/nope.idx", options).ok());
  // A garbage sidecar is rejected.
  const std::string path = TempPath("persist_bad.idx");
  {
    std::ofstream data(path);
    data << "data";
    std::ofstream meta(path + ".meta");
    meta << "not metadata";
  }
  Result<std::unique_ptr<DiskSpine>> opened = DiskSpine::Open(path, options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------
// Disk-resident suffix tree.
// ---------------------------------------------------------------------

TEST(DiskSuffixTreeTest, MatchesInMemoryTreeUnderTinyPool) {
  Rng rng(31337);
  const char* letters = "ACGT";
  std::string s;
  for (int i = 0; i < 8000; ++i) s.push_back(letters[rng.Below(4)]);

  DiskSuffixTree::Options options;
  options.pool_frames = 8;
  Result<std::unique_ptr<DiskSuffixTree>> disk =
      DiskSuffixTree::Create(Alphabet::Dna(), TempPath("dst1.idx"), options);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->AppendString(s).ok());

  SuffixTree tree(Alphabet::Dna());
  ASSERT_TRUE(tree.AppendString(s).ok());
  ASSERT_EQ((*disk)->node_count(), tree.node_count());

  for (int trial = 0; trial < 30; ++trial) {
    uint32_t start = static_cast<uint32_t>(rng.Below(s.size() - 10));
    std::string pattern = s.substr(start, 2 + rng.Below(8));
    ASSERT_EQ((*disk)->FindAll(pattern), tree.FindAll(pattern)) << pattern;
  }
  EXPECT_GT((*disk)->io_stats().evictions, 0u);
}

TEST(DiskSuffixTreeTest, GenericMatcherParity) {
  std::string data = "ACCACAACAGGTTACCACAACAGT";
  std::string query = "CCACAAGTTTACCA";
  DiskSuffixTree::Options options;
  options.pool_frames = 4;
  Result<std::unique_ptr<DiskSuffixTree>> disk =
      DiskSuffixTree::Create(Alphabet::Dna(), TempPath("dst2.idx"), options);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->AppendString(data).ok());
  auto got = GenericStFindMaximalMatches(**disk, query, 2, nullptr);
  auto want = naive::MaximalMatches(data, query, 2);
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].query_pos, want[k].query_pos);
    EXPECT_EQ(got[k].length, want[k].length);
  }
}

TEST(DiskSuffixTreePersistenceTest, CheckpointAndReopen) {
  Rng rng(909);
  const char* letters = "ACGT";
  std::string s;
  for (int i = 0; i < 6000; ++i) s.push_back(letters[rng.Below(4)]);
  const std::string path = TempPath("persist_tree.idx");
  {
    DiskSuffixTree::Options options;
    options.pool_frames = 16;
    auto tree = DiskSuffixTree::Create(Alphabet::Dna(), path, options);
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE((*tree)->AppendString(s).ok());
    ASSERT_TRUE((*tree)->Checkpoint().ok());
  }
  DiskSuffixTree::Options options;
  options.pool_frames = 16;
  auto reopened = DiskSuffixTree::Open(path, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->size(), s.size());

  SuffixTree expected(Alphabet::Dna());
  ASSERT_TRUE(expected.AppendString(s).ok());
  ASSERT_EQ((*reopened)->node_count(), expected.node_count());
  for (int trial = 0; trial < 25; ++trial) {
    uint32_t start = static_cast<uint32_t>(rng.Below(s.size() - 10));
    std::string pattern = s.substr(start, 2 + rng.Below(8));
    ASSERT_EQ((*reopened)->FindAll(pattern), expected.FindAll(pattern))
        << pattern;
  }
  // Still appendable after reopen (the Ukkonen state was persisted).
  std::string extension;
  for (int i = 0; i < 400; ++i) extension.push_back(letters[rng.Below(4)]);
  ASSERT_TRUE((*reopened)->AppendString(extension).ok());
  ASSERT_TRUE(expected.AppendString(extension).ok());
  for (int trial = 0; trial < 15; ++trial) {
    uint32_t start =
        static_cast<uint32_t>(s.size() - 20 + rng.Below(400));
    std::string pattern = (s + extension).substr(start, 6);
    ASSERT_EQ((*reopened)->FindAll(pattern), expected.FindAll(pattern));
  }
  EXPECT_FALSE(DiskSuffixTree::Open("/nonexistent.idx", options).ok());
}

// ---------------------------------------------------------------------
// Checksums, superblock and the buffer-pool error latch (PR 2).
// ---------------------------------------------------------------------

TEST(PageChecksumTest, SealVerifyAndMisdirection) {
  uint8_t page[kPageSize] = {};
  // A never-written (all-zero) page verifies trivially.
  EXPECT_TRUE(VerifyPageChecksum(7, page).ok());
  page[kPageHeaderSize + 10] = 0x42;
  SealPageChecksum(7, page);
  EXPECT_TRUE(VerifyPageChecksum(7, page).ok());
  // Same bytes presented as a different page id: misdirected read.
  Status misdirected = VerifyPageChecksum(8, page);
  ASSERT_FALSE(misdirected.ok());
  EXPECT_EQ(misdirected.code(), StatusCode::kCorruption);
  // A payload bit flip breaks the CRC.
  page[kPageHeaderSize + 10] ^= 0x01;
  Status flipped = VerifyPageChecksum(7, page);
  ASSERT_FALSE(flipped.ok());
  EXPECT_EQ(flipped.code(), StatusCode::kCorruption);
}

TEST(PageFileTest, SuperblockRejectsCorruption) {
  const std::string path = TempPath("sb_bad.dat");
  {
    Result<PageFile> file = PageFile::Create(path, PageFile::SyncMode::kNone);
    ASSERT_TRUE(file.ok());
    uint8_t page[kPageSize] = {1};
    ASSERT_TRUE(file->WritePage(0, page).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  ASSERT_TRUE(PageFile::Open(path, PageFile::SyncMode::kNone).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(1);  // inside the superblock magic
    char c = 0x7f;
    f.write(&c, 1);
  }
  Result<PageFile> reopened = PageFile::Open(path, PageFile::SyncMode::kNone);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST(BufferPoolTest, LatchesOnPersistentBitFlipAndConsumeResets) {
  const std::string path = TempPath("crc_flip.dat");
  {
    Result<PageFile> file = PageFile::Create(path, PageFile::SyncMode::kNone);
    ASSERT_TRUE(file.ok());
    BufferPool pool(&*file, 4, ReplacementPolicy::kLru);
    uint8_t* page = pool.FetchPage(0, true);
    ASSERT_NE(page, nullptr);
    std::memset(page, 0x5a, kPagePayloadSize);
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  {
    // Flip one payload bit of logical page 0 (physical page 1) on disk.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(kPageSize + kPageHeaderSize + 100);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x04);
    f.seekp(kPageSize + kPageHeaderSize + 100);
    f.write(&c, 1);
  }
  Result<PageFile> file = PageFile::Open(path, PageFile::SyncMode::kNone);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  BufferPool pool(&*file, 4, ReplacementPolicy::kLru);
  // Persistent corruption: the pool's single re-read hits the same
  // bytes, so the fetch fails and the error latches.
  EXPECT_EQ(pool.FetchPage(0, false), nullptr);
  ASSERT_TRUE(pool.has_error());
  // Latched: every subsequent fetch fails fast.
  EXPECT_EQ(pool.FetchPage(1, false), nullptr);
  Status latched = pool.ConsumeError();
  EXPECT_EQ(latched.code(), StatusCode::kCorruption);
  // Consuming clears the latch; clean pages are reachable again.
  EXPECT_FALSE(pool.has_error());
  EXPECT_NE(pool.FetchPage(1, false), nullptr);
}

// SPINE's disk construction exhibits better locality than the suffix
// tree's: with the same pool budget it needs fewer page faults per
// appended character (the Fig. 7 effect).
TEST(DiskLocalityTest, SpineFaultsLessThanSuffixTree) {
  Rng rng(9);
  const char* letters = "ACGT";
  std::string s;
  for (int i = 0; i < 30000; ++i) s.push_back(letters[rng.Below(4)]);

  DiskSpine::Options so;
  so.pool_frames = 32;
  auto disk_spine = DiskSpine::Create(Alphabet::Dna(), TempPath("loc1.idx"), so);
  ASSERT_TRUE(disk_spine.ok());
  ASSERT_TRUE((*disk_spine)->AppendString(s).ok());

  DiskSuffixTree::Options to;
  to.pool_frames = 32;
  auto disk_tree =
      DiskSuffixTree::Create(Alphabet::Dna(), TempPath("loc2.idx"), to);
  ASSERT_TRUE(disk_tree.ok());
  ASSERT_TRUE((*disk_tree)->AppendString(s).ok());

  EXPECT_LT((*disk_spine)->io_stats().misses,
            (*disk_tree)->io_stats().misses);
}

// --- MmapRegion + MmapIoBackend (PR 8) --------------------------------------

TEST(MmapRegionTest, MapReadAtAndBounds) {
  const std::string path = TempPath("mmap_basic.bin");
  const std::string payload = "zero-copy artifact bytes";
  spine::test::WriteFile(path, payload);

  auto region = MmapRegion::Map(path);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  ASSERT_EQ((*region)->size(), payload.size());
  EXPECT_EQ((*region)->path(), path);
  EXPECT_EQ(std::memcmp((*region)->data(), payload.data(), payload.size()), 0);
  EXPECT_TRUE((*region)->CheckFence().ok());

  // Bounded read semantics mirror the IoBackend contract.
  char buf[64] = {};
  size_t bytes_read = 0;
  ASSERT_TRUE((*region)->ReadAt(5, buf, 4, &bytes_read).ok());
  EXPECT_EQ(bytes_read, 4u);
  EXPECT_EQ(std::string(buf, 4), "copy");
  // Reading past EOF truncates; reading at/after EOF returns 0 bytes.
  ASSERT_TRUE((*region)->ReadAt(payload.size() - 2, buf, 10, &bytes_read).ok());
  EXPECT_EQ(bytes_read, 2u);
  ASSERT_TRUE((*region)->ReadAt(payload.size() + 7, buf, 10, &bytes_read).ok());
  EXPECT_EQ(bytes_read, 0u);
}

TEST(MmapRegionTest, OpenFailuresAreClean) {
  auto missing = MmapRegion::Map(TempPath("mmap_nope.bin"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);

  auto directory = MmapRegion::Map(::testing::TempDir());
  ASSERT_FALSE(directory.ok());
  EXPECT_EQ(directory.status().code(), StatusCode::kIoError);
}

TEST(MmapRegionTest, EmptyFileMapsToNullRegion) {
  const std::string path = TempPath("mmap_empty.bin");
  spine::test::WriteFile(path, "");
  auto region = MmapRegion::Map(path);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_EQ((*region)->size(), 0u);
  EXPECT_TRUE((*region)->CheckFence().ok());
  char buf[4];
  size_t bytes_read = 7;
  ASSERT_TRUE((*region)->ReadAt(0, buf, 4, &bytes_read).ok());
  EXPECT_EQ(bytes_read, 0u);
}

// The length fence: a file shrunk under a live mapping turns every
// subsequent access into kIoError instead of SIGBUS.
TEST(MmapRegionTest, FenceDetectsShrunkFile) {
  const std::string path = TempPath("mmap_shrink.bin");
  spine::test::WriteFile(path, std::string(8192, 'x'));
  auto region = MmapRegion::Map(path);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE((*region)->CheckFence().ok());

  std::filesystem::resize_file(path, 100);
  Status fence = (*region)->CheckFence();
  ASSERT_FALSE(fence.ok());
  EXPECT_EQ(fence.code(), StatusCode::kIoError);
  char buf[8];
  size_t bytes_read = 0;
  Status read = (*region)->ReadAt(0, buf, 8, &bytes_read);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), StatusCode::kIoError);

  // Growing the file back (or beyond) re-arms the mapping: the mapped
  // prefix is covered again.
  std::filesystem::resize_file(path, 16384);
  EXPECT_TRUE((*region)->CheckFence().ok());
}

TEST(MmapRegionTest, MlockFailureIsBestEffort) {
  // An mlock request may or may not succeed depending on
  // RLIMIT_MEMLOCK; either way the map itself must succeed.
  const std::string path = TempPath("mmap_lock.bin");
  spine::test::WriteFile(path, std::string(4096, 'y'));
  MmapOptions options;
  options.lock = true;
  auto region = MmapRegion::Map(path, options);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_EQ((*region)->size(), 4096u);
}

// The shared-mapping cache: N concurrent opens of the same artifact
// share one refcounted region, hits move the storage.mmap.cache_hits
// gauge, and the cache is keyed on mapping-relevant options.
TEST(MmapRegionTest, MapSharedDeduplicatesLiveMappings) {
  const std::string path = TempPath("mmap_shared.bin");
  spine::test::WriteFile(path, std::string(8192, 'a'));
  spine::obs::Gauge& hits =
      spine::obs::Registry::Default().GetGauge("storage.mmap.cache_hits");
  [[maybe_unused]] const int64_t hits_before = hits.value();
  // The gauge moves only where the capture sites are compiled in; the
  // mapping-identity checks hold in every build.
  const auto expect_hits = [&](int64_t added) {
#if defined(SPINE_OBS_DISABLED)
    (void)added;
#else
    EXPECT_EQ(hits.value(), hits_before + added);
#endif
  };

  auto first = MmapRegion::MapShared(path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  expect_hits(0);  // first open is a miss

  auto second = MmapRegion::MapShared(path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same physical mapping
  expect_hits(1);

  // Different mapping-relevant options must NOT share: a populated
  // mapping is not byte-equivalent in behavior to a lazy one.
  MmapOptions populate;
  populate.populate = true;
  auto distinct = MmapRegion::MapShared(path, populate);
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_NE(first->get(), distinct->get());
  expect_hits(1);

  // Once the last holder releases, the next open maps afresh (a
  // replaced artifact is picked up), so it is a miss again.
  first->reset();
  second->reset();
  auto remapped = MmapRegion::MapShared(path);
  ASSERT_TRUE(remapped.ok());
  expect_hits(1);
}

// A cached region whose backing file shrank under it is dropped and
// remapped instead of handed out: the new holder sees a working fence.
TEST(MmapRegionTest, MapSharedDropsFencedRegions) {
  const std::string path = TempPath("mmap_shared_shrink.bin");
  spine::test::WriteFile(path, std::string(8192, 'b'));
  auto first = MmapRegion::MapShared(path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  std::filesystem::resize_file(path, 4096);
  ASSERT_FALSE((*first)->CheckFence().ok());

  auto second = MmapRegion::MapShared(path);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(first->get(), second->get());
  EXPECT_EQ((*second)->size(), 4096u);
  EXPECT_TRUE((*second)->CheckFence().ok());
}

// A disk index opened over the mmap backend whose page file shrinks
// mid-life: the per-read fence converts the lost pages into latched
// kIoError, never SIGBUS.
TEST(MmapRegionTest, DiskSpineOverShrunkFileLatchesIoError) {
  Rng rng(66);
  const std::string s = spine::test::RandomDna(rng, 5000);
  const std::string path = TempPath("mmap_shrunk_disk.idx");
  {
    DiskSpine::Options options;
    options.pool_frames = 64;
    auto disk = DiskSpine::Create(Alphabet::Dna(), path, options);
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE((*disk)->AppendString(s).ok());
    ASSERT_TRUE((*disk)->Checkpoint().ok());
  }
  DiskSpine::Options options;
  options.pool_frames = 4;  // cold pool: queries must hit the backend
  options.backend = MmapIoBackend();
  auto disk = DiskSpine::Open(path, options);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_TRUE((*disk)->Contains(s.substr(20, 10)));

  // Chop the tail off the page file while the index is live.
  std::filesystem::resize_file(path, kPageSize);
  (void)(*disk)->ConsumeError();
  core::DiskSpineAdapter adapter(**disk);
  QueryResult result = adapter.Execute(Query::FindAll(s.substr(40, 12)));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status_code, StatusCode::kIoError);
}

}  // namespace
}  // namespace spine::storage
