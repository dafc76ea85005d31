// Differential/invariant tests tying the metrics registry to ground
// truth the components already expose: the registry is only useful if
// its counters agree exactly with the per-instance stats structs and
// with independently recomputed work. Every test measures registry
// *deltas* (after minus before) because the default registry is shared
// process-wide.
//
// In the SPINE_OBS_DISABLED build flavor the capture sites compile out,
// so the registry legitimately stays flat; those assertions skip.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compact/compact_spine.h"
#include "core/adapters.h"
#include "core/query.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "plan/planner.h"
#include "shard/dynamic_family.h"
#include "shard/sharded_index.h"
#include "storage/buffer_pool.h"
#include "storage/disk_spine.h"
#include "storage/io_backend.h"
#include "storage/page_file.h"
#include "test_util.h"

namespace spine {
namespace {

using storage::BufferPool;
using storage::FaultInjectingBackend;
using storage::PageFile;
using storage::ReplacementPolicy;
using FaultKind = FaultInjectingBackend::FaultKind;
using spine::test::RandomDna;
using spine::test::RegistryDelta;
using spine::test::ScopedTempDir;
using spine::test::TempPath;

// Writes `pages` dense checksummed pages into a fresh PageFile.
Result<PageFile> MakePageFile(const std::string& path, uint64_t pages,
                              storage::IoBackend* backend) {
  Result<PageFile> file =
      PageFile::Create(path, PageFile::SyncMode::kNone, backend);
  if (!file.ok()) return file;
  std::vector<uint8_t> page(storage::kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    for (uint32_t i = 0; i < storage::kPageSize; ++i) {
      page[i] = static_cast<uint8_t>(i * 13 + p + 1);
    }
    storage::SealPageChecksum(p, page.data());
    Status status = file->WritePage(p, page.data());
    if (!status.ok()) return status;
  }
  return file;
}

// (1) Pool registry counters agree exactly with the pool's own IoStats
// over a randomized access pattern: hits + misses == FetchPage calls,
// and each named counter delta equals its struct field.
TEST(MetricsInvariantTest, PoolCountersMatchIoStats) {
  SPINE_SKIP_IF_OBS_DISABLED();
  Rng rng(2024);
  constexpr uint64_t kPages = 32;
  Result<PageFile> file = MakePageFile(TempPath("mi_pool.dat"), kPages,
                                       storage::PosixIoBackend());
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  RegistryDelta delta;
  BufferPool pool(&*file, /*frames=*/8, ReplacementPolicy::kLru);
  uint64_t fetches = 0;
  for (int i = 0; i < 500; ++i) {
    // Skewed pattern so both hits and misses (and evictions) occur.
    const uint64_t page_id =
        rng.Below(4) != 0 ? rng.Below(8) : rng.Below(kPages);
    ASSERT_NE(pool.FetchPage(page_id, false), nullptr);
    ++fetches;
  }

  const storage::IoStats& stats = pool.stats();
  EXPECT_EQ(stats.accesses(), fetches);
  EXPECT_EQ(delta.Counter("storage.pool.hits"), stats.hits);
  EXPECT_EQ(delta.Counter("storage.pool.misses"), stats.misses);
  EXPECT_EQ(delta.Counter("storage.pool.hits") +
                delta.Counter("storage.pool.misses"),
            fetches);
  EXPECT_EQ(delta.Counter("storage.pool.evictions"), stats.evictions);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  // Clean reads: no checksum traffic.
  EXPECT_EQ(delta.Counter("storage.pool.checksum_failures"), 0u);
  EXPECT_EQ(delta.Counter("storage.pool.checksum_healed"), 0u);
}

// (2) PageFile byte counters follow page reads/writes exactly
// (read_bytes == pages_read * kPageSize for real backend reads).
TEST(MetricsInvariantTest, PageFileByteCountersFollowPageOps) {
  SPINE_SKIP_IF_OBS_DISABLED();
  RegistryDelta delta;
  constexpr uint64_t kPages = 16;
  Result<PageFile> file = MakePageFile(TempPath("mi_file.dat"), kPages,
                                       storage::PosixIoBackend());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<uint8_t> raw(storage::kPageSize);
  for (uint64_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(file->ReadPage(p, raw.data()).ok());
  }
  EXPECT_EQ(delta.Counter("storage.file.pages_written"), kPages);
  EXPECT_EQ(delta.Counter("storage.file.write_bytes"),
            kPages * storage::kPageSize);
  EXPECT_EQ(delta.Counter("storage.file.pages_read"), kPages);
  EXPECT_EQ(delta.Counter("storage.file.read_bytes"),
            kPages * storage::kPageSize);
}

// (3) A scheduled transient bit flip produces *exactly* one checksum
// failure, one heal, and one injected-fault count; a persistent flip
// (both the read and the heal re-read corrupted) produces one failure,
// zero heals, two injected faults.
TEST(MetricsInvariantTest, BitFlipSchedulesProduceExactIncrements) {
  SPINE_SKIP_IF_OBS_DISABLED();
  FaultInjectingBackend backend;
  Result<PageFile> file =
      MakePageFile(TempPath("mi_flip.dat"), /*pages=*/4, &backend);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  {  // Transient: only the first read is flipped; the re-read heals.
    RegistryDelta delta;
    const uint64_t faults_before = backend.faults_injected();
    BufferPool pool(&*file, 2, ReplacementPolicy::kLru);
    backend.ScheduleReadFault(FaultKind::kBitFlip, 1);
    EXPECT_NE(pool.FetchPage(0, false), nullptr);
    EXPECT_EQ(pool.stats().checksum_failures, 1u);
    EXPECT_EQ(pool.stats().healed_rereads, 1u);
    EXPECT_EQ(delta.Counter("storage.pool.checksum_failures"), 1u);
    EXPECT_EQ(delta.Counter("storage.pool.checksum_healed"), 1u);
    EXPECT_EQ(delta.Counter("storage.faults.injected"),
              backend.faults_injected() - faults_before);
    EXPECT_EQ(backend.faults_injected() - faults_before, 1u);
  }
  {  // Persistent: flip the initial read AND the heal re-read.
    RegistryDelta delta;
    const uint64_t faults_before = backend.faults_injected();
    BufferPool pool(&*file, 2, ReplacementPolicy::kLru);
    backend.ScheduleReadFault(FaultKind::kBitFlip, 1);
    backend.ScheduleReadFault(FaultKind::kBitFlip, 2);
    EXPECT_EQ(pool.FetchPage(1, false), nullptr);
    EXPECT_EQ(pool.ConsumeError().code(), StatusCode::kCorruption);
    EXPECT_EQ(pool.stats().checksum_failures, 1u);
    EXPECT_EQ(pool.stats().healed_rereads, 0u);
    EXPECT_EQ(delta.Counter("storage.pool.checksum_failures"), 1u);
    EXPECT_EQ(delta.Counter("storage.pool.checksum_healed"), 0u);
    EXPECT_EQ(backend.faults_injected() - faults_before, 2u);
    EXPECT_EQ(delta.Counter("storage.faults.injected"), 2u);
  }
}

// (4) The engine's retry counter agrees between BatchStats and the
// registry when a scheduled read EIO forces a retry.
TEST(MetricsInvariantTest, EngineRetriesMatchBatchStats) {
  SPINE_SKIP_IF_OBS_DISABLED();
  Rng rng(31);
  const std::string s = RandomDna(rng, 4000);
  const std::string path = TempPath("mi_retry.idx");
  {
    storage::DiskSpine::Options options;
    options.pool_frames = 64;
    auto disk = storage::DiskSpine::Create(Alphabet::Dna(), path, options);
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE((*disk)->AppendString(s).ok());
    ASSERT_TRUE((*disk)->Checkpoint().ok());
  }
  FaultInjectingBackend backend;
  storage::DiskSpine::Options options;
  options.pool_frames = 16;
  options.backend = &backend;
  auto disk = storage::DiskSpine::Open(path, options);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  backend.ScheduleReadFault(FaultKind::kReadError, 1);

  RegistryDelta delta;
  engine::QueryEngine engine({.threads = 2,
                              .cache_bytes = 0,
                              .retry_limit = 2,
                              .retry_backoff_us = 0});
  std::vector<Query> queries = {Query::FindAll(s.substr(50, 8)),
                                Query::Contains(s.substr(500, 6))};
  core::DiskSpineAdapter adapter(**disk);
  engine::BatchStats stats;
  std::vector<QueryResult> results =
      engine.ExecuteBatch(adapter, queries, &stats);
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(delta.Counter("engine.retries"), stats.retries);
  EXPECT_EQ(delta.Counter("engine.queries"), queries.size());
  EXPECT_EQ(delta.Counter("engine.failed"), 0u);
}

// (5) The Table 6 work counters accumulated by the registry equal the
// SearchStats the queries themselves report, summed independently, and
// the per-kind query counters equal the kind mix, over randomized
// patterns against a real index — and against both shard families,
// whose fan-out core must count one logical query once, however many
// sources it probes. Patterns are slices of `text` (plus random probes).
void ExpectCountersMatchSearchStats(
    const std::string& text,
    const std::function<QueryResult(const Query&)>& execute) {
  Rng rng(907);
  RegistryDelta delta;
  SearchStats expected;
  uint64_t per_kind[kQueryKindCount] = {};
  uint64_t approx_hits = 0;
  for (int i = 0; i < 200; ++i) {
    const uint32_t start = static_cast<uint32_t>(rng.Below(text.size() - 40));
    Query query;
    switch (i % 6) {
      case 0:
        query = Query::Contains(text.substr(start, 4 + rng.Below(10)));
        break;
      case 1:
        query = Query::FindAll(text.substr(start, 3 + rng.Below(8)));
        break;
      case 2: query = Query::MaximalMatches(RandomDna(rng, 32), 5); break;
      case 3: query = Query::MatchingStats(RandomDna(rng, 20)); break;
      case 4:
        query = Query::Mismatch(text.substr(start, 12 + rng.Below(8)),
                                rng.Below(3));
        break;
      default:
        query = Query::EditDistance(text.substr(start, 12 + rng.Below(8)),
                                    rng.Below(3));
        break;
    }
    QueryResult result = execute(query);
    ASSERT_TRUE(result.ok()) << result.error;
    expected.Add(result.stats);
    ++per_kind[static_cast<size_t>(query.kind)];
    if (query.kind == QueryKind::kMismatch ||
        query.kind == QueryKind::kEditDistance) {
      approx_hits += result.hits.size();
    }
  }

  EXPECT_EQ(delta.Counter("core.vertebra_steps"), expected.nodes_checked);
  EXPECT_EQ(delta.Counter("core.link_traversals"), expected.link_traversals);
  EXPECT_EQ(delta.Counter("core.chain_hops"), expected.chain_hops);
  EXPECT_EQ(delta.Counter("core.queries.contains"), per_kind[0]);
  EXPECT_EQ(delta.Counter("core.queries.findall"), per_kind[1]);
  EXPECT_EQ(delta.Counter("core.queries.match"), per_kind[2]);
  EXPECT_EQ(delta.Counter("core.queries.ms"), per_kind[3]);
  EXPECT_EQ(delta.Counter("core.queries.mismatch"), per_kind[4]);
  EXPECT_EQ(delta.Counter("core.queries.editdist"), per_kind[5]);
  // Every approximate query records exactly one routing decision, and
  // the verified-window counter is exactly the hits it returned.
  EXPECT_EQ(delta.Counter("approx.seeded") + delta.Counter("approx.scanned"),
            per_kind[4] + per_kind[5]);
  EXPECT_EQ(delta.Counter("approx.verified"), approx_hits);
  EXPECT_GE(delta.Counter("approx.candidates"),
            delta.Counter("approx.verified"));
  EXPECT_GT(approx_hits, 0u);
  EXPECT_GT(expected.nodes_checked, 0u);
}

TEST(MetricsInvariantTest, MatcherCountersMatchSearchStats) {
  SPINE_SKIP_IF_OBS_DISABLED();
  Rng rng(907);
  const std::string s = RandomDna(rng, 8000);
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(s).ok());
  {
    SCOPED_TRACE("compact index");
    ExpectCountersMatchSearchStats(
        s, [&](const Query& query) { return ExecuteQuery(index, query); });
  }

  auto sharded = shard::ShardedIndex::Build(Alphabet::Dna(), s,
                                            {.shards = 3, .max_pattern = 64});
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  {
    SCOPED_TRACE("3-shard family");
    const core::Index& family = **sharded;
    ExpectCountersMatchSearchStats(
        s, [&](const Query& query) { return family.Execute(query); });
  }

  // A dynamic family whose frozen shard and memtable each hold a
  // tombstoned document, so every kind takes the dirty-source paths.
  ScopedTempDir dir;
  auto dynamic = shard::DynamicFamily::Create(dir.File("mi.spinefam"),
                                              Alphabet::Dna(), {});
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().ToString();
  std::string live;
  for (uint32_t d = 0; d < 8; ++d) {
    const std::string doc = s.substr(d * 1000, 1000);
    ASSERT_TRUE((*dynamic)->InsertDocument(doc).ok());
    if (d != 1 && d != 6) live += doc;
    if (d == 3) {
      ASSERT_TRUE((*dynamic)->Flush().ok());
    }
  }
  ASSERT_TRUE((*dynamic)->DeleteDocument(1).ok());
  ASSERT_TRUE((*dynamic)->DeleteDocument(6).ok());
  ASSERT_EQ((*dynamic)->frozen_shard_count(), 1u);
  ASSERT_EQ((*dynamic)->memtable_documents(), 4u);
  {
    SCOPED_TRACE("dirty dynamic family");
    const core::Index& family = **dynamic;
    ExpectCountersMatchSearchStats(
        live, [&](const Query& query) { return family.Execute(query); });
  }
}

// (6) Matcher registry counters also increment on the *disk* backend,
// and agree with what the same queries report on the in-memory index
// (the Generic* algorithms are shared, so per-query SearchStats line up
// when both backends answer from the same structure).
TEST(MetricsInvariantTest, DiskBackendCountsSameCoreWork) {
  SPINE_SKIP_IF_OBS_DISABLED();
  Rng rng(55);
  const std::string s = RandomDna(rng, 3000);
  storage::DiskSpine::Options options;
  options.pool_frames = 256;
  auto disk = storage::DiskSpine::Create(Alphabet::Dna(),
                                         TempPath("mi_disk.idx"), options);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE((*disk)->AppendString(s).ok());

  RegistryDelta delta;
  SearchStats expected;
  for (int i = 0; i < 50; ++i) {
    const uint32_t start = static_cast<uint32_t>(rng.Below(s.size() - 20));
    QueryResult result =
        ExecuteQuery(**disk, Query::FindAll(s.substr(start, 4 + i % 8)));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.Add(result.stats);
  }
  EXPECT_EQ(delta.Counter("core.vertebra_steps"), expected.nodes_checked);
  EXPECT_EQ(delta.Counter("core.link_traversals"), expected.link_traversals);
  EXPECT_EQ(delta.Counter("core.chain_hops"), expected.chain_hops);
  EXPECT_EQ(delta.Counter("core.queries.findall"), 50u);
  // The paged backbone keeps no packed labels: every node walked has
  // its link consulted.
  EXPECT_GT(delta.Counter("core.scan_nodes"), 0u);
  EXPECT_EQ(delta.Counter("core.scan_link_tests"),
            delta.Counter("core.scan_nodes"));
}

// (7) The backbone scan's counters equal its walk recomputed from the
// text. core.scan_nodes counts the nodes after the earliest first
// occurrence. core.scan_link_tests counts the nodes among them whose
// last w labels equal the last w of some occurring pattern, where w is
// the shortest occurring pattern's length capped at the 32 DNA labels
// of a 64-bit word. One FindAll, then one seeded mismatch query whose
// pieces share one pass.
TEST(MetricsInvariantTest, ScanCountersMatchTheWalk) {
  SPINE_SKIP_IF_OBS_DISABLED();
  Rng rng(77);
  std::string s = RandomDna(rng, 12000);
  for (int copy = 0; copy < 6; ++copy) s += s.substr(rng.Below(12000), 200);
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(s).ok());

  struct Walk {
    uint64_t nodes = 0;
    uint64_t link_tests = 0;
  };
  const auto model = [&s](const std::vector<std::string>& patterns) {
    uint64_t first = s.size();
    size_t w = 32;
    std::vector<std::string> keys;
    for (const std::string& pattern : patterns) {
      const size_t at = s.find(pattern);
      if (at == std::string::npos) continue;
      first = std::min<uint64_t>(first, at + pattern.size());
      w = std::min(w, pattern.size());
    }
    for (const std::string& pattern : patterns) {
      if (s.find(pattern) != std::string::npos) {
        keys.push_back(pattern.substr(pattern.size() - w));
      }
    }
    Walk walk;
    walk.nodes = s.size() - first;
    for (uint64_t j = first + 1; j <= s.size(); ++j) {
      const std::string into = s.substr(j - w, w);
      if (std::find(keys.begin(), keys.end(), into) != keys.end()) {
        ++walk.link_tests;
      }
    }
    return walk;
  };

  const std::string repeated = s.substr(12000 + 50, 40);
  {
    RegistryDelta delta;
    const QueryResult result = ExecuteQuery(index, Query::FindAll(repeated));
    ASSERT_TRUE(result.ok());
    ASSERT_GE(result.hits.size(), 2u);
    const Walk walk = model({repeated});
    EXPECT_EQ(delta.Counter("core.scan_nodes"), walk.nodes);
    EXPECT_EQ(delta.Counter("core.scan_link_tests"), walk.link_tests);
    EXPECT_GE(walk.link_tests, result.hits.size() - 1);
  }
  {
    std::string read = s.substr(12000 + 250, 60);
    read[30] = read[30] == 'A' ? 'C' : 'A';
    const uint32_t m = static_cast<uint32_t>(read.size());
    const plan::ApproxPlan plan =
        plan::PlanApprox(index.size(), 4, m, 2, /*seedable=*/true);
    std::vector<std::string> pieces;
    for (uint32_t p = 0; p < plan.piece_count; ++p) {
      const auto [begin, end] = plan::SeedBoundaries(m, plan.piece_count, p);
      pieces.push_back(read.substr(begin, end - begin));
    }
    RegistryDelta delta;
    const QueryResult result = ExecuteQuery(index, Query::Mismatch(read, 2));
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result.hits.empty());
    EXPECT_EQ(delta.Counter("approx.seeded"), 1u);
    const Walk walk = model(pieces);
    EXPECT_EQ(delta.Counter("core.scan_nodes"), walk.nodes);
    EXPECT_EQ(delta.Counter("core.scan_link_tests"), walk.link_tests);
  }
}

}  // namespace
}  // namespace spine
