// Concurrent batch query engine over any core::Index backend.
//
// A batch of heterogeneous Queries (core/query.h) is sharded across the
// work-stealing pool; results come back in input order, byte-identical
// to sequential execution at any thread count (every backend's Execute
// is deterministic, and each query writes only its own result slot).
// SearchStats are aggregated per worker thread without locks and merged
// at the end.
//
// Backends whose const reads are NOT safe to run concurrently — the
// disk backends, whose reads share a buffer pool — declare so via
// Capabilities::concurrent_reads, and the engine serializes them
// through one per-index mutex. The batch still benefits from cache hits
// and from overlapping with other indexes.
//
// The optional result cache (engine/query_cache.h) is keyed per
// (Index::cache_id(), query); ids are issued at Index construction, so
// two live indexes can never collide.
//
// Fault tolerance (PR 2): a query whose backend hits an I/O error or
// detects corruption yields a per-query error QueryResult (status_code
// != kOk) while the rest of the batch completes normally. Transient
// kIoError failures are retried with exponential backoff
// (Options::retry_limit); kCorruption is never retried (the medium is
// wrong, not the moment). Error results are never cached.
//
// Deadlines (PR 7): Query::deadline_ms is pinned to an absolute
// common/cancel.h Deadline once, at batch entry — so time spent queued
// behind other work counts against the budget. A query already expired
// when a worker picks it up fails with kDeadlineExceeded before
// touching the backend; one that expires mid-walk is stopped at the
// next cooperative checkpoint. Retries never sleep past the deadline,
// and a budget exhausted between attempts yields kDeadlineExceeded
// carrying the transient error's detail. The optional batch-wide
// CancelToken (the serve layer passes its per-connection token) chains
// above every per-query deadline; Cancel() aborts queries still
// pending with kCancelled. Deadline results are never cached either.
//
// The multi-index overload fans one batch across several indexes at
// once: every (index, chunk) pair becomes a pool task, so a slow
// backend (disk) overlaps with fast ones (in-memory) instead of
// running after them.

#ifndef SPINE_ENGINE_QUERY_ENGINE_H_
#define SPINE_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/index.h"
#include "core/query.h"
#include "engine/query_cache.h"
#include "engine/thread_pool.h"
#include "obs/trace.h"

namespace spine::engine {

struct BatchStats {
  uint64_t queries = 0;
  uint64_t executed = 0;    // answered by the backend (cache misses)
  uint64_t cache_hits = 0;  // answered from the result cache
  uint64_t failed = 0;      // queries that returned an error result
  uint64_t retries = 0;     // transient-fault re-executions
  // Subsets of `failed`, broken out because they are verdicts about
  // time, not about the data: ran out of budget / token cancelled.
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  SearchStats search;       // total backend work, summed over workers
  std::vector<SearchStats> per_thread;  // one slot per pool worker
  // One trace per query, in input order, when Options::tracing is on
  // (and the build has observability compiled in); empty otherwise.
  // Traces are observational: results are identical either way.
  std::vector<obs::TraceContext> traces;
};

class QueryEngine {
 public:
  // Field names follow the one naming scheme shared with
  // serve::Options (threads / queue_cap / retry_* / tracing); the
  // defaults table for both lives in docs/SERVING.md.
  struct Options {
    uint32_t threads = 0;      // 0 → hardware concurrency
    uint64_t cache_bytes = 0;  // 0 → result cache disabled
    // Transient-fault handling: a query failing with kIoError is
    // re-executed up to retry_limit times, sleeping retry_backoff_us,
    // 2x, 4x, ... between attempts (never past the query's deadline).
    // Corruption is never retried.
    uint32_t retry_limit = 2;
    uint32_t retry_backoff_us = 500;
    // Collect a per-query TraceContext (spans + notes) into
    // BatchStats::traces. No effect on results or on builds compiled
    // with SPINE_OBS_DISABLED.
    bool tracing = false;
  };

  QueryEngine();  // default Options
  explicit QueryEngine(const Options& options);

  uint32_t thread_count() const { return pool_.thread_count(); }
  QueryCache& cache() { return cache_; }
  const QueryCache& cache() const { return cache_; }
  ThreadPool& pool() { return pool_; }

  // Executes every query in `queries` against `index` and returns the
  // answers in input order. Thread-safe: concurrent batches (against the
  // same or different backends) share the pool and cache. `cancel`,
  // when non-null, must outlive the call; it parents every per-query
  // deadline token, so one Cancel() aborts the whole batch cooperatively.
  std::vector<QueryResult> ExecuteBatch(const core::Index& index,
                                        const std::vector<Query>& queries,
                                        BatchStats* stats = nullptr,
                                        const CancelToken* cancel = nullptr);

  // Fans the batch across every index at once; result[j][i] answers
  // queries[i] on *indexes[j]. When `stats` is non-null it is resized
  // to one BatchStats per index. Null index pointers are not allowed.
  std::vector<std::vector<QueryResult>> ExecuteBatch(
      const std::vector<const core::Index*>& indexes,
      const std::vector<Query>& queries,
      std::vector<BatchStats>* stats = nullptr,
      const CancelToken* cancel = nullptr);

 private:
  QueryResult AnswerOne(const core::Index& index, const Query& query,
                        std::mutex* backend_mu, bool* cache_hit,
                        uint64_t* retries, obs::TraceContext* trace,
                        const CancelToken* batch_cancel,
                        Deadline::Clock::time_point epoch);

  ThreadPool pool_;
  QueryCache cache_;
  Options options_;
};

}  // namespace spine::engine

#endif  // SPINE_ENGINE_QUERY_ENGINE_H_
