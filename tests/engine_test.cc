// Tests for the concurrent batch query engine: the work-stealing pool,
// the result cache and its admission, determinism across thread counts,
// and agreement across backends consumed through the core::Index
// interface.

#include "engine/query_engine.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "compact/compact_spine.h"
#include "core/adapters.h"
#include "core/query.h"
#include "core/spine_index.h"
#include "engine/query_cache.h"
#include "engine/thread_pool.h"
#include "seq/generator.h"
#include "storage/disk_spine.h"
#include "test_util.h"

namespace spine::engine {
namespace {

using spine::test::TestCorpus;

// A mixed batch of every query kind: patterns sliced from the corpus
// (hits), shuffled slices (mostly misses), and longer match queries.
std::vector<Query> MixedBatch(const std::string& corpus, size_t count) {
  std::vector<Query> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t len = 8 + (i * 7) % 24;
    const size_t offset = (i * 131) % (corpus.size() - 256);
    std::string pattern = corpus.substr(offset, len);
    switch (i % 5) {
      case 0:
        queries.push_back(Query::FindAll(pattern));
        break;
      case 1:
        queries.push_back(Query::Contains(pattern));
        break;
      case 2:
        // Perturb to exercise the miss paths.
        pattern[len / 2] = pattern[len / 2] == 'A' ? 'C' : 'A';
        queries.push_back(Query::FindAll(pattern));
        break;
      case 3:
        queries.push_back(
            Query::MaximalMatches(corpus.substr(offset, 96), 12));
        break;
      default:
        queries.push_back(Query::MatchingStats(corpus.substr(offset, 64)));
        break;
    }
  }
  return queries;
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, WorkerIndexIsStableInsideTasks) {
  ThreadPool pool(3);
  std::atomic<int> bad{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&bad] {
      int w = ThreadPool::worker_index();
      if (w < 0 || w >= 3) bad.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(ThreadPool::worker_index(), -1);  // not a pool thread
}

TEST(ThreadPoolTest, StealsFromABusyWorkersDeque) {
  ThreadPool pool(2);
  // Park both workers inside gate tasks, then queue work: the shorts
  // round-robin onto both deques. Releasing only one gate leaves one
  // worker parked, so the free worker can finish the batch only by
  // stealing from the parked worker's deque.
  std::promise<void> release_a, release_b;
  std::shared_future<void> gate_a = release_a.get_future().share();
  std::shared_future<void> gate_b = release_b.get_future().share();
  std::atomic<int> parked{0};
  pool.Submit([&] {
    parked.fetch_add(1);
    gate_a.wait();
  });
  pool.Submit([&] {
    parked.fetch_add(1);
    gate_b.wait();
  });
  while (parked.load() < 2) std::this_thread::yield();

  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  release_a.set_value();
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_GT(pool.steal_count(), 0u);
  release_b.set_value();
  pool.Wait();
}

TEST(QueryCacheTest, HitReturnsStoredAnswer) {
  QueryCache cache(1 << 20);
  Query q = Query::FindAll("ACGT");
  std::string key = QueryCache::Key(7, q);
  EXPECT_FALSE(cache.Get(key).has_value());
  QueryResult r;
  r.found = true;
  r.hits = {{3, 4, 0}, {9, 4, 0}};
  cache.Put(key, r);
  std::optional<QueryResult> got = cache.Get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->SameAnswer(r));
  QueryCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);

  // Unsorted hits (maximal-match expansions), extreme values, matching
  // statistics and work counters survive the compact stored form.
  QueryResult wide;
  wide.found = true;
  wide.hits = {{4000000000u, 7, 2}, {5, 300, 0}, {4000000000u, 1, 99999},
               {0, 0, 0}};
  wide.matching_stats = {0, 1, 200, 70000};
  wide.stats.nodes_checked = 123456789012ull;
  wide.stats.chain_hops = 7;
  const std::string wide_key =
      QueryCache::Key(7, Query::MaximalMatches("ACGTACGT", 2));
  cache.Put(wide_key, wide);
  got = cache.Get(wide_key);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->SameAnswer(wide));
  EXPECT_EQ(got->stats.nodes_checked, wide.stats.nodes_checked);
  EXPECT_EQ(got->stats.link_traversals, 0u);
  EXPECT_EQ(got->stats.chain_hops, 7u);
}

TEST(QueryCacheTest, KeySeparatesBackendsAndKinds) {
  Query findall = Query::FindAll("ACGT");
  Query contains = Query::Contains("ACGT");
  EXPECT_NE(QueryCache::Key(1, findall), QueryCache::Key(2, findall));
  EXPECT_NE(QueryCache::Key(1, findall), QueryCache::Key(1, contains));
  EXPECT_NE(QueryCache::Key(1, Query::MaximalMatches("ACGT", 5)),
            QueryCache::Key(1, Query::MaximalMatches("ACGT", 6)));
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsedAndStaysCorrect) {
  QueryResult small;
  small.found = true;
  small.hits = {{1, 2, 0}};
  const std::string a = QueryCache::Key(1, Query::FindAll("AAAA"));
  const std::string b = QueryCache::Key(1, Query::FindAll("BBBB"));
  const std::string c = QueryCache::Key(1, Query::FindAll("CCCC"));
  // Equal-length keys and one answer: every entry charges the same.
  const uint64_t entry_bytes = QueryCache::EntryBytes(a, small);
  ASSERT_EQ(QueryCache::EntryBytes(c, small), entry_bytes);
  // Room for exactly two entries.
  QueryCache cache(2 * entry_bytes);

  cache.Put(a, small);
  cache.Put(b, small);
  EXPECT_EQ(cache.entry_count(), 2u);
  // Touch a so b becomes the eviction victim.
  EXPECT_TRUE(cache.Get(a).has_value());
  cache.Put(c, small);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_FALSE(cache.Get(b).has_value());  // evicted
  std::optional<QueryResult> got_a = cache.Get(a);
  std::optional<QueryResult> got_c = cache.Get(c);
  ASSERT_TRUE(got_a.has_value());
  ASSERT_TRUE(got_c.has_value());
  EXPECT_TRUE(got_a->SameAnswer(small));
  EXPECT_TRUE(got_c->SameAnswer(small));
}

TEST(QueryCacheTest, ZeroCapacityDisables) {
  QueryCache cache(0);
  EXPECT_FALSE(cache.enabled());
  QueryResult r;
  cache.Put("k", r);
  EXPECT_FALSE(cache.Get("k").has_value());
  EXPECT_EQ(cache.entry_count(), 0u);
}

// Admission: a 16 MiB cache puts new answers on probation, capped at
// max(budget / 16, 1 MiB), and keeps only what is asked again.
constexpr uint64_t kAdmissionBudget = uint64_t{16} << 20;
constexpr uint64_t kProbationCap =
    std::max<uint64_t>(kAdmissionBudget / 16, uint64_t{1} << 20);

std::string ReadKey(uint64_t i) {
  return QueryCache::Key(
      1, Query::EditDistance("read-" + std::to_string(i), 2));
}

// An answer of `hits` hits, ~4 encoded bytes each.
QueryResult ReadAnswer(uint32_t hits) {
  QueryResult answer;
  answer.found = true;
  for (uint32_t h = 0; h < hits; ++h) {
    answer.hits.push_back({h * 977, 100, 2});
  }
  return answer;
}

TEST(QueryCacheTest, OneOffAnswersStayWithinProbation) {
  spine::test::RegistryDelta delta;
  QueryCache cache(kAdmissionBudget);
  // An entry hit once is promoted to protected and outlives the flood.
  const QueryResult kept = ReadAnswer(3);
  const std::string kept_key = QueryCache::Key(1, Query::FindAll("ACGT"));
  cache.Put(kept_key, kept);
  ASSERT_TRUE(cache.Get(kept_key).has_value());
  EXPECT_EQ(cache.counters().promotions, 1u);
  const uint64_t kept_bytes = cache.size_bytes();

  const QueryResult answer = ReadAnswer(40);
  uint64_t largest = 0;
  uint64_t total = 0;
  for (uint64_t i = 0; i < 100'000; ++i) {
    const std::string key = ReadKey(i);
    const uint64_t bytes = QueryCache::EntryBytes(key, answer);
    largest = std::max(largest, bytes);
    total += bytes;
    cache.Put(key, answer);
  }
  // A plain LRU would hold the whole budget.
  ASSERT_GT(total, 2 * kAdmissionBudget);
  const uint64_t one_offs = cache.size_bytes() - kept_bytes;
  EXPECT_LE(one_offs, kProbationCap + largest);
  EXPECT_GE(one_offs, kProbationCap - largest);
  const QueryCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.insertions, 100'001u);
  EXPECT_EQ(counters.evictions, 100'001u - cache.entry_count());
  EXPECT_EQ(counters.promotions, 1u);

  const std::optional<QueryResult> got = cache.Get(kept_key);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->SameAnswer(kept));
  EXPECT_EQ(cache.counters().promotions, 1u);  // already protected

#if defined(SPINE_OBS_DISABLED)
  // Capture site compiled out: the registry never hears of admission.
  EXPECT_EQ(delta.Counter("engine.cache_promotions"), 0u);
#else
  EXPECT_EQ(delta.Counter("engine.cache_promotions"), 1u);
#endif
}

TEST(QueryCacheTest, AnswerLargerThanProbationIsNotStored) {
  QueryCache cache(kAdmissionBudget);
  const QueryResult small = ReadAnswer(40);
  for (uint64_t i = 0; i < 100; ++i) cache.Put(ReadKey(i), small);
  const uint64_t resident = cache.size_bytes();
  const QueryResult large = ReadAnswer(400'000);
  const std::string large_key = QueryCache::Key(1, Query::FindAll("A"));
  ASSERT_GT(QueryCache::EntryBytes(large_key, large), kProbationCap);

  // Stored, it would evict all of probation for one entry.
  for (int attempt = 0; attempt < 2; ++attempt) {
    cache.Put(large_key, large);
    EXPECT_EQ(cache.size_bytes(), resident);
    EXPECT_FALSE(cache.Get(large_key).has_value());
  }
  EXPECT_EQ(cache.counters().insertions, 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(cache.Get(ReadKey(i)).has_value()) << i;
  }
}

TEST(QueryCacheTest, HitTooLargeForProtectedStaysOnProbation) {
  // 1.5 MiB: 1 MiB of probation, 0.5 MiB of protected.
  QueryCache cache(uint64_t{3} << 19);
  const QueryResult small = ReadAnswer(40);
  for (uint64_t i = 0; i < 10; ++i) {
    cache.Put(ReadKey(i), small);
    ASSERT_TRUE(cache.Get(ReadKey(i)).has_value());
  }
  ASSERT_EQ(cache.counters().promotions, 10u);
  const QueryResult large = ReadAnswer(180'000);
  const std::string large_key = QueryCache::Key(1, Query::FindAll("A"));
  const uint64_t large_bytes = QueryCache::EntryBytes(large_key, large);
  ASSERT_GT(large_bytes, uint64_t{1} << 19);
  ASSERT_LE(large_bytes, uint64_t{1} << 20);
  cache.Put(large_key, large);
  const uint64_t resident = cache.size_bytes();

  // Promoted, it would flush protected and then be evicted itself.
  for (int hit = 0; hit < 2; ++hit) {
    const std::optional<QueryResult> got = cache.Get(large_key);
    ASSERT_TRUE(got.has_value()) << hit;
    EXPECT_TRUE(got->SameAnswer(large));
  }
  EXPECT_EQ(cache.counters().promotions, 10u);
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_EQ(cache.size_bytes(), resident);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(cache.Get(ReadKey(i)).has_value()) << i;
  }
}

TEST(QueryCacheTest, ClearEmptiesBothSegments) {
  QueryCache cache(kAdmissionBudget);
  const QueryResult answer = ReadAnswer(40);
  cache.Put(ReadKey(0), answer);
  ASSERT_TRUE(cache.Get(ReadKey(0)).has_value());  // now protected
  cache.Put(ReadKey(1), answer);                   // on probation
  ASSERT_EQ(cache.entry_count(), 2u);

  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_FALSE(cache.Get(ReadKey(0)).has_value());
  EXPECT_FALSE(cache.Get(ReadKey(1)).has_value());
  // Stored again, read 0 starts over on probation: its next hit is a
  // second promotion.
  cache.Put(ReadKey(0), answer);
  ASSERT_TRUE(cache.Get(ReadKey(0)).has_value());
  EXPECT_EQ(cache.counters().promotions, 2u);
}

TEST(QueryEngineTest, MatchesSequentialExecutionAtAnyThreadCount) {
  const std::string corpus = TestCorpus(30'000);
  SpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(corpus).ok());
  core::SpineIndexAdapter adapter(index);
  const std::vector<Query> queries = MixedBatch(corpus, 200);

  std::vector<QueryResult> reference;
  reference.reserve(queries.size());
  for (const Query& q : queries) reference.push_back(ExecuteQuery(index, q));

  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    QueryEngine engine({.threads = threads, .cache_bytes = 0});
    BatchStats stats;
    std::vector<QueryResult> results =
        engine.ExecuteBatch(adapter, queries, &stats);
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(results[i].SameAnswer(reference[i]))
          << "thread count " << threads << ", query " << i;
    }
    EXPECT_EQ(stats.queries, queries.size());
    EXPECT_EQ(stats.executed, queries.size());
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.per_thread.size(), threads);
    // Per-thread counters must add up to the batch total.
    SearchStats sum;
    for (const SearchStats& s : stats.per_thread) sum.Add(s);
    EXPECT_EQ(sum.nodes_checked, stats.search.nodes_checked);
  }
}

TEST(QueryEngineTest, SecondIdenticalBatchHitsTheCache) {
  const std::string corpus = TestCorpus(10'000);
  SpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(corpus).ok());
  core::SpineIndexAdapter adapter(index);
  const std::vector<Query> queries = MixedBatch(corpus, 100);

  QueryEngine engine({.threads = 4, .cache_bytes = 8 << 20});
  BatchStats first_stats, second_stats;
  std::vector<QueryResult> first =
      engine.ExecuteBatch(adapter, queries, &first_stats);
  std::vector<QueryResult> second =
      engine.ExecuteBatch(adapter, queries, &second_stats);
  EXPECT_EQ(second_stats.cache_hits, queries.size());
  EXPECT_EQ(second_stats.executed, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(first[i].SameAnswer(second[i])) << "query " << i;
  }
  // A second adapter over the same backend is a distinct Index with its
  // own cache id: it must not see the first adapter's cached answers.
  core::SpineIndexAdapter other(index);
  EXPECT_NE(other.cache_id(), adapter.cache_id());
  BatchStats other_stats;
  engine.ExecuteBatch(other, queries, &other_stats);
  EXPECT_EQ(other_stats.cache_hits, 0u);
}

TEST(QueryEngineTest, CacheCorrectAfterEvictionPressure) {
  const std::string corpus = TestCorpus(10'000);
  SpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(corpus).ok());
  const std::vector<Query> queries = MixedBatch(corpus, 300);

  std::vector<QueryResult> reference;
  for (const Query& q : queries) reference.push_back(ExecuteQuery(index, q));

  // A cache far too small for the batch: constant eviction churn.
  core::SpineIndexAdapter adapter(index);
  QueryEngine engine({.threads = 4, .cache_bytes = 4096});
  for (int round = 0; round < 3; ++round) {
    std::vector<QueryResult> results = engine.ExecuteBatch(adapter, queries);
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(results[i].SameAnswer(reference[i]))
          << "round " << round << ", query " << i;
    }
  }
  EXPECT_GT(engine.cache().counters().evictions, 0u);
}

TEST(QueryEngineTest, AllThreeBackendsAgreeOnTheSameCorpus) {
  const std::string corpus = TestCorpus(20'000);
  const std::vector<Query> queries = MixedBatch(corpus, 150);

  SpineIndex reference(Alphabet::Dna());
  ASSERT_TRUE(reference.AppendString(corpus).ok());
  CompactSpineIndex compact(Alphabet::Dna());
  ASSERT_TRUE(compact.AppendString(corpus).ok());
  const std::string disk_path = spine::test::TempPath("engine_disk.spine");
  Result<std::unique_ptr<storage::DiskSpine>> disk = storage::DiskSpine::Create(
      Alphabet::Dna(), disk_path, storage::DiskSpine::Options{});
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE((*disk)->AppendString(corpus).ok());

  core::SpineIndexAdapter reference_adapter(reference);
  core::CompactSpineAdapter compact_adapter(compact);
  core::DiskSpineAdapter disk_adapter(**disk);
  // DiskSpine reads mutate the shared buffer pool; its adapter reports
  // concurrent_reads = false (the runtime replacement for the old
  // kConcurrentSafeReads trait), the engine serializes it, and the
  // answers still agree.
  EXPECT_FALSE(disk_adapter.capabilities().concurrent_reads);
  EXPECT_TRUE(compact_adapter.capabilities().concurrent_reads);

  QueryEngine engine({.threads = 4, .cache_bytes = 0});
  std::vector<QueryResult> from_reference =
      engine.ExecuteBatch(reference_adapter, queries);
  std::vector<QueryResult> from_compact =
      engine.ExecuteBatch(compact_adapter, queries);
  std::vector<QueryResult> from_disk =
      engine.ExecuteBatch(disk_adapter, queries);

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(from_reference[i].SameAnswer(from_compact[i]))
        << "compact disagrees on query " << i;
    EXPECT_TRUE(from_reference[i].SameAnswer(from_disk[i]))
        << "disk disagrees on query " << i;
  }
}

// Tracing is strictly observational: the same batch with tracing on
// and off returns exactly equal results (payload AND work counters),
// and the traces themselves carry the per-query spans/notes.
TEST(QueryEngineTest, TracingDoesNotChangeResults) {
  const std::string corpus = TestCorpus(15'000);
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(corpus).ok());
  const std::vector<Query> queries = MixedBatch(corpus, 120);

  core::CompactSpineAdapter adapter(index);
  QueryEngine plain({.threads = 4, .cache_bytes = 0, .tracing = false});
  QueryEngine traced({.threads = 4, .cache_bytes = 0, .tracing = true});
  BatchStats plain_stats, traced_stats;
  std::vector<QueryResult> off =
      plain.ExecuteBatch(adapter, queries, &plain_stats);
  std::vector<QueryResult> on =
      traced.ExecuteBatch(adapter, queries, &traced_stats);

  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_TRUE(off[i].SameAnswer(on[i])) << "query " << i;
    // Exact equality including the work counters: tracing observed the
    // same execution, it did not alter it.
    EXPECT_EQ(off[i].stats.nodes_checked, on[i].stats.nodes_checked);
    EXPECT_EQ(off[i].stats.link_traversals, on[i].stats.link_traversals);
    EXPECT_EQ(off[i].stats.chain_hops, on[i].stats.chain_hops);
  }
  EXPECT_EQ(plain_stats.search.nodes_checked,
            traced_stats.search.nodes_checked);

  EXPECT_TRUE(plain_stats.traces.empty());
#if defined(SPINE_OBS_DISABLED)
  // Capture sites compiled out: tracing silently collects nothing.
  EXPECT_TRUE(traced_stats.traces.empty());
#else
  ASSERT_EQ(traced_stats.traces.size(), queries.size());
  for (size_t i = 0; i < traced_stats.traces.size(); ++i) {
    const obs::TraceContext& trace = traced_stats.traces[i];
    EXPECT_GE(trace.SpanMicros("exec_us"), 0.0) << "query " << i;
    EXPECT_GE(trace.SpanMicros("queue_wait_us"), 0.0) << "query " << i;
    EXPECT_EQ(trace.NoteValue("cache_hit", 99), 0u);
    // The trace's work notes equal the result's own counters.
    EXPECT_EQ(trace.NoteValue("nodes_checked"), on[i].stats.nodes_checked);
    EXPECT_EQ(trace.NoteValue("found", 99), on[i].found ? 1u : 0u);
  }
#endif
}

// Tracing composes with the result cache: a cached answer's trace notes
// the hit instead of carrying an exec span's work notes.
TEST(QueryEngineTest, TracedCacheHitsAreMarked) {
  const std::string corpus = TestCorpus(8'000);
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(corpus).ok());
  const std::vector<Query> queries = MixedBatch(corpus, 40);

  core::CompactSpineAdapter adapter(index);
  QueryEngine engine(
      {.threads = 2, .cache_bytes = 8 << 20, .tracing = true});
  BatchStats first_stats, second_stats;
  std::vector<QueryResult> first =
      engine.ExecuteBatch(adapter, queries, &first_stats);
  std::vector<QueryResult> second =
      engine.ExecuteBatch(adapter, queries, &second_stats);
  ASSERT_EQ(second_stats.cache_hits, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(first[i].SameAnswer(second[i])) << "query " << i;
  }
#if !defined(SPINE_OBS_DISABLED)
  ASSERT_EQ(second_stats.traces.size(), queries.size());
  for (const obs::TraceContext& trace : second_stats.traces) {
    EXPECT_EQ(trace.NoteValue("cache_hit", 99), 1u);
  }
#endif
}

TEST(QueryEngineTest, EmptyBatchAndEmptyPatterns) {
  SpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString("ACGTACGT").ok());
  core::SpineIndexAdapter adapter(index);
  QueryEngine engine({.threads = 2, .cache_bytes = 1 << 16});
  BatchStats stats;
  EXPECT_TRUE(engine.ExecuteBatch(adapter, {}, &stats).empty());
  EXPECT_EQ(stats.queries, 0u);

  std::vector<Query> edge = {Query::FindAll(""), Query::Contains(""),
                             Query::MatchingStats("")};
  std::vector<QueryResult> results = engine.ExecuteBatch(adapter, edge);
  EXPECT_FALSE(results[0].found);       // empty pattern: no occurrences
  EXPECT_TRUE(results[1].found);        // empty pattern is contained
  EXPECT_TRUE(results[2].matching_stats.empty());
}

// The multi-index overload fans one batch across several indexes at
// once: per-index result rows in input order, per-index stats, and
// answers identical to running each index alone.
TEST(QueryEngineTest, MultiIndexOverloadAnswersEveryIndex) {
  const std::string corpus = TestCorpus(12'000);
  SpineIndex reference(Alphabet::Dna());
  ASSERT_TRUE(reference.AppendString(corpus).ok());
  CompactSpineIndex compact(Alphabet::Dna());
  ASSERT_TRUE(compact.AppendString(corpus).ok());
  const std::vector<Query> queries = MixedBatch(corpus, 80);

  core::SpineIndexAdapter reference_adapter(reference);
  core::CompactSpineAdapter compact_adapter(compact);
  QueryEngine engine({.threads = 4, .cache_bytes = 0});
  std::vector<BatchStats> stats;
  std::vector<std::vector<QueryResult>> results = engine.ExecuteBatch(
      {&reference_adapter, &compact_adapter}, queries, &stats);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(stats.size(), 2u);
  std::vector<QueryResult> solo = engine.ExecuteBatch(compact_adapter, queries);
  for (size_t j = 0; j < results.size(); ++j) {
    ASSERT_EQ(results[j].size(), queries.size()) << "index " << j;
    EXPECT_EQ(stats[j].queries, queries.size()) << "index " << j;
    EXPECT_EQ(stats[j].failed, 0u) << "index " << j;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(results[j][i].SameAnswer(solo[i]))
          << "index " << j << ", query " << i;
    }
  }
}

// --- deadlines and cancellation (PR 7) --------------------------------------

TEST(QueryEngineTest, ExpiredBatchTokenFailsEveryQueryBeforeDispatch) {
  const std::string corpus = TestCorpus(10'000);
  SpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(corpus).ok());
  core::SpineIndexAdapter adapter(index);
  const std::vector<Query> queries = MixedBatch(corpus, 40);

  QueryEngine engine({.threads = 4, .cache_bytes = 8 << 20});
  CancelToken expired(Deadline::AfterMs(0));  // fired before the batch starts
  BatchStats stats;
  std::vector<QueryResult> results =
      engine.ExecuteBatch(adapter, queries, &stats, &expired);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status_code, StatusCode::kDeadlineExceeded)
        << "query " << i;
    EXPECT_NE(results[i].error.find("before dispatch"), std::string::npos)
        << results[i].error;
  }
  EXPECT_EQ(stats.deadline_exceeded, queries.size());
  EXPECT_EQ(stats.failed, queries.size());
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  // Expired verdicts must not poison the cache: a clean rerun of the
  // same batch executes fresh and succeeds.
  BatchStats rerun;
  std::vector<QueryResult> fresh =
      engine.ExecuteBatch(adapter, queries, &rerun);
  EXPECT_EQ(rerun.cache_hits, 0u);
  EXPECT_EQ(rerun.failed, 0u);
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_TRUE(fresh[i].ok()) << "query " << i << ": " << fresh[i].error;
  }
}

TEST(QueryEngineTest, CancelledBatchTokenReportsCancelledNotDeadline) {
  const std::string corpus = TestCorpus(5'000);
  SpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(corpus).ok());
  core::SpineIndexAdapter adapter(index);
  const std::vector<Query> queries = MixedBatch(corpus, 20);

  QueryEngine engine({.threads = 2, .cache_bytes = 0});
  CancelToken token;
  token.Cancel();  // the "client hung up before we started" shape
  BatchStats stats;
  std::vector<QueryResult> results =
      engine.ExecuteBatch(adapter, queries, &stats, &token);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status_code, StatusCode::kCancelled) << "query " << i;
  }
  EXPECT_EQ(stats.cancelled, queries.size());
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.failed, queries.size());
}

TEST(QueryEngineTest, GenerousPerQueryDeadlinesDoNotChangeAnswers) {
  const std::string corpus = TestCorpus(10'000);
  SpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(corpus).ok());
  core::SpineIndexAdapter adapter(index);
  std::vector<Query> queries = MixedBatch(corpus, 60);
  std::vector<QueryResult> reference;
  for (const Query& q : queries) reference.push_back(ExecuteQuery(index, q));
  // A minute-scale budget on every query: enforcement machinery runs
  // (tokens, checkpoints) but nothing fires.
  for (Query& q : queries) q.deadline_ms = 60'000;

  QueryEngine engine({.threads = 4, .cache_bytes = 0});
  BatchStats stats;
  std::vector<QueryResult> results =
      engine.ExecuteBatch(adapter, queries, &stats);
  ASSERT_EQ(results.size(), reference.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].SameAnswer(reference[i])) << "query " << i;
  }
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

TEST(QueryCacheTest, KeyIgnoresDeadline) {
  // Deliberate: the same pattern with a different budget is the same
  // answer, so a budget change must not fragment the cache.
  Query a = Query::FindAll("ACGT");
  Query b = Query::FindAll("ACGT");
  b.deadline_ms = 500;
  EXPECT_EQ(QueryCache::Key(1, a), QueryCache::Key(1, b));
}

}  // namespace
}  // namespace spine::engine
