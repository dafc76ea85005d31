// The unified, backend-agnostic query API.
//
// Every search entry point in the system — the batch QueryEngine, the
// CLI subcommands, benches — speaks these three value types instead of
// per-algorithm ad-hoc shapes (std::vector<uint32_t> position lists,
// MatchOccurrences, raw matching-statistics vectors):
//
//   Query        what to ask: a kind, a pattern, and kind parameters;
//   Hit          one occurrence: (data position, length, query offset);
//   QueryResult  the answer: hits / matching statistics + work counters.
//
// ExecuteQuery dispatches a Query against any backend satisfying the
// Index concept of core/search.h (reference SpineIndex,
// CompactSpineIndex, storage::DiskSpine, ...), so there is exactly one
// implementation of each search algorithm across all backends.

#ifndef SPINE_CORE_QUERY_H_
#define SPINE_CORE_QUERY_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/approx.h"
#include "core/matcher.h"
#include "core/search.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spine {

enum class QueryKind : uint8_t {
  kContains = 0,        // does the pattern occur at all?
  kFindAll = 1,         // all start positions of an exact pattern
  kMaximalMatches = 2,  // maximal matching substrings >= min_len
  kMatchingStats = 3,   // Chang-Lawler matching statistics
  kMismatch = 4,        // windows within max_errors Hamming distance
  kEditDistance = 5,    // windows within max_errors edit distance
};

// Number of query kinds (the per-kind counter arrays and the wire
// bounds checks all derive from this).
inline constexpr size_t kQueryKindCount = 6;

constexpr std::string_view QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kContains: return "contains";
    case QueryKind::kFindAll: return "findall";
    case QueryKind::kMaximalMatches: return "match";
    case QueryKind::kMatchingStats: return "ms";
    case QueryKind::kMismatch: return "mismatch";
    case QueryKind::kEditDistance: return "edit";
  }
  return "unknown";
}

struct Query {
  QueryKind kind = QueryKind::kFindAll;
  std::string pattern;
  // kMaximalMatches: minimum reported match length (>= 1).
  uint32_t min_len = 1;
  // kMaximalMatches: report every data-string occurrence of every match
  // (the paper's deferred backbone scan) instead of first occurrences.
  bool expand_occurrences = false;
  // Time budget in milliseconds; 0 means unbounded. Relative — the
  // engine pins it to an absolute common/cancel.h Deadline once, at
  // batch entry, so queue time counts. Carried by all three wire
  // encodings (core/wire.h). Not part of the result-cache key: a cached
  // answer is complete and equally valid under any budget.
  uint32_t deadline_ms = 0;
  // kMismatch / kEditDistance: the error budget (k resp. d). A budget
  // >= the pattern length is degenerate — every position would qualify
  // vacuously — and yields an empty kOk answer, like an empty pattern.
  // Part of the result-cache key (core semantics, unlike deadline_ms).
  uint32_t max_errors = 0;

  static Query Contains(std::string pattern) {
    return {QueryKind::kContains, std::move(pattern), 1, false};
  }
  static Query FindAll(std::string pattern) {
    return {QueryKind::kFindAll, std::move(pattern), 1, false};
  }
  static Query MaximalMatches(std::string pattern, uint32_t min_len,
                              bool expand_occurrences = false) {
    return {QueryKind::kMaximalMatches, std::move(pattern),
            std::max<uint32_t>(min_len, 1), expand_occurrences};
  }
  static Query MatchingStats(std::string pattern) {
    return {QueryKind::kMatchingStats, std::move(pattern), 1, false};
  }
  static Query Mismatch(std::string pattern, uint32_t max_mismatches) {
    return {QueryKind::kMismatch, std::move(pattern), 1, false, 0,
            max_mismatches};
  }
  static Query EditDistance(std::string pattern, uint32_t max_edits) {
    return {QueryKind::kEditDistance, std::move(pattern), 1, false, 0,
            max_edits};
  }

  bool operator==(const Query&) const = default;
};

// One occurrence of a pattern (or maximal match) in the data string.
// For the approximate kinds, `length` is the matched window length
// (always the pattern length for kMismatch) and `query_pos` carries the
// error count actually used (<= Query::max_errors) — so k=0 / d=0 hits
// are bit-identical to kFindAll's.
struct Hit {
  uint32_t pos = 0;        // start offset in the data string
  uint32_t length = 0;     // matched length
  uint32_t query_pos = 0;  // query offset (maximal matches) / error count

  bool operator==(const Hit&) const = default;
};

struct QueryResult {
  bool found = false;
  std::vector<Hit> hits;                 // kFindAll / kMaximalMatches
  std::vector<uint32_t> matching_stats;  // kMatchingStats
  SearchStats stats;                     // work done answering this query

  // Per-query error verdict (PR 2): kOk means the payload is a correct
  // answer; anything else means the backend hit an I/O error or
  // detected corruption and the payload must not be trusted. A failed
  // query never crashes the batch — see engine/query_engine.h.
  StatusCode status_code = StatusCode::kOk;
  std::string error;  // human-readable detail when status_code != kOk

  bool ok() const { return status_code == StatusCode::kOk; }
  Status status() const {
    return ok() ? Status::OK() : Status(status_code, error);
  }

  // Payload equality, ignoring the work counters (which legitimately
  // differ between backends and between cached and executed answers).
  bool SameAnswer(const QueryResult& o) const {
    return status_code == o.status_code && found == o.found &&
           hits == o.hits && matching_stats == o.matching_stats;
  }
};

// Records one answered query: its core.queries.<kind> counter, the
// paper's Table 6 work counters accumulated across all queries and all
// backends, and the same counters as notes on `trace`. Called once per
// logical query by ExecuteQuery, by the adapters that answer without
// it, and by the shard fan-out core. The per-kind counter cannot go
// through SPINE_OBS_COUNT (the name is dynamic), so the table resolves
// once, here.
inline void RecordQueryObs(const Query& query, const QueryResult& result,
                           obs::TraceContext* trace) {
#if !defined(SPINE_OBS_DISABLED)
  static obs::Counter* const kind_counters[kQueryKindCount] = {
      &obs::Registry::Default().GetCounter("core.queries.contains"),
      &obs::Registry::Default().GetCounter("core.queries.findall"),
      &obs::Registry::Default().GetCounter("core.queries.match"),
      &obs::Registry::Default().GetCounter("core.queries.ms"),
      &obs::Registry::Default().GetCounter("core.queries.mismatch"),
      &obs::Registry::Default().GetCounter("core.queries.editdist"),
  };
  kind_counters[static_cast<size_t>(query.kind)]->Add(1);
  SPINE_OBS_COUNT("core.vertebra_steps", result.stats.nodes_checked);
  SPINE_OBS_COUNT("core.link_traversals", result.stats.link_traversals);
  SPINE_OBS_COUNT("core.chain_hops", result.stats.chain_hops);
  if (trace != nullptr) {
    trace->Note("nodes_checked", result.stats.nodes_checked);
    trace->Note("link_traversals", result.stats.link_traversals);
    trace->Note("chain_hops", result.stats.chain_hops);
    trace->Note("found", result.found ? 1 : 0);
  }
#else
  (void)query;
  (void)result;
  (void)trace;
#endif
}

// Backends whose I/O layer latches errors instead of throwing/aborting
// (storage::DiskSpine). ExecuteQuery drains the latch after running the
// search and converts it into a per-query error result.
template <typename Index>
concept IoLatchedIndex = requires(const Index& index) {
  { index.ConsumeError() } -> std::same_as<Status>;
};

// Backends whose I/O layer can observe a CancelToken on its own
// (storage::DiskSpine, storage::DiskSuffixTree route it to the
// BufferPool, which polls it on every page miss — the natural
// checkpoint for paged walks, where one miss may cost milliseconds).
// ExecuteQuery scopes the token onto the backend for the duration of
// one query.
template <typename Index>
concept CancelScopedIndex = requires(const Index& index) {
  index.SetCancelToken(static_cast<const CancelToken*>(nullptr));
};

namespace internal {
// Clears the backend's scoped token on every exit path.
template <typename Index>
struct CancelScopeGuard {
  CancelScopeGuard(const Index& index, const CancelToken* cancel)
      : index_(index) {
    if constexpr (CancelScopedIndex<Index>) index_.SetCancelToken(cancel);
  }
  ~CancelScopeGuard() {
    if constexpr (CancelScopedIndex<Index>) index_.SetCancelToken(nullptr);
  }
  const Index& index_;
};
}  // namespace internal

// Answers one query against any backend satisfying the Index concept.
// Deterministic: the same (index contents, query) pair always produces
// the same QueryResult payload, on any thread.
//
// For IoLatchedIndex backends the result is only reported as kOk when
// the whole traversal completed without the pool latching an error;
// otherwise the payload is discarded and status_code/error carry the
// failure, so a fault can never surface as a silently wrong answer.
//
// `trace`, when non-null, receives an "exec_us" span plus the work
// counters as notes. Tracing is strictly observational: the returned
// QueryResult is byte-identical with trace == nullptr.
//
// `cancel`, when non-null, bounds the work: the generic walks poll it
// at checkpoints (common/cancel.h) and a fired token yields a
// kDeadlineExceeded / kCancelled result — never a partial payload
// reported as kOk. CancelScopedIndex backends additionally observe the
// token on every page miss.
//
// `doc_separator`, when set, is the document-boundary character of a
// generalized (multi-document) index; the approximate kinds never
// report a window crossing it. Exact kinds ignore it (separator codes
// never equal pattern codes, so they get the guarantee for free).
template <typename Index>
QueryResult ExecuteQuery(const Index& index, const Query& query,
                         obs::TraceContext* trace = nullptr,
                         const CancelToken* cancel = nullptr,
                         std::optional<char> doc_separator = std::nullopt) {
#if defined(SPINE_OBS_DISABLED)
  trace = nullptr;  // capture sites compile out in disabled builds
#endif
  obs::SpanTimer exec_timer(trace, "exec_us");
  if constexpr (IoLatchedIndex<Index>) {
    // Drop any stale latch so this query's verdict is its own.
    (void)index.ConsumeError();
  }
  internal::CancelScopeGuard<Index> cancel_scope(index, cancel);
  QueryResult result;
  switch (query.kind) {
    case QueryKind::kContains:
      result.found =
          GenericFindFirstEnd(index, query.pattern, &result.stats, cancel)
              .has_value();
      break;
    case QueryKind::kFindAll: {
      std::vector<uint32_t> starts =
          GenericFindAll(index, query.pattern, &result.stats, cancel);
      const uint32_t m = static_cast<uint32_t>(query.pattern.size());
      result.hits.reserve(starts.size());
      for (uint32_t pos : starts) result.hits.push_back({pos, m, 0});
      result.found = !result.hits.empty();
      break;
    }
    case QueryKind::kMaximalMatches: {
      const uint32_t min_len = std::max<uint32_t>(query.min_len, 1);
      std::vector<MaximalMatch> matches = GenericFindMaximalMatches(
          index, query.pattern, min_len, &result.stats, cancel);
      if (query.expand_occurrences) {
        for (const MatchOccurrences& occ :
             GenericCollectAllOccurrences(index, matches, cancel)) {
          for (uint32_t pos : occ.data_positions) {
            result.hits.push_back({pos, occ.match.length, occ.match.query_pos});
          }
        }
      } else {
        result.hits.reserve(matches.size());
        for (const MaximalMatch& match : matches) {
          result.hits.push_back(
              {match.first_end - match.length, match.length, match.query_pos});
        }
      }
      result.found = !result.hits.empty();
      break;
    }
    case QueryKind::kMatchingStats: {
      result.matching_stats = GenericMatchingStatistics(
          index, query.pattern, &result.stats, cancel);
      result.found = std::any_of(result.matching_stats.begin(),
                                 result.matching_stats.end(),
                                 [](uint32_t v) { return v > 0; });
      break;
    }
    case QueryKind::kMismatch:
    case QueryKind::kEditDistance: {
      if constexpr (CodeAddressable<Index>) {
        ApproxSearchStats approx_stats;
        std::vector<ApproxHit> approx_hits =
            query.kind == QueryKind::kMismatch
                ? GenericFindMismatch(index, query.pattern, query.max_errors,
                                      &result.stats, &approx_stats, cancel,
                                      doc_separator)
                : GenericFindEditDistance(index, query.pattern,
                                          query.max_errors, &result.stats,
                                          &approx_stats, cancel,
                                          doc_separator);
        result.hits.reserve(approx_hits.size());
        for (const ApproxHit& hit : approx_hits) {
          result.hits.push_back({hit.pos, hit.length, hit.errors});
        }
        result.found = !result.hits.empty();
        RecordApproxObs(approx_stats);
        if (trace != nullptr) {
          trace->Note("approx_candidates", approx_stats.candidates);
          trace->Note("approx_seed_len", approx_stats.seed_len);
        }
      } else {
        // Adapters route unsupported kinds away before dispatch
        // (Capabilities::query_kinds); this is the belt to that brace.
        result.status_code = StatusCode::kInvalidArgument;
        result.error = "backend cannot address text positions";
        return result;
      }
      break;
    }
  }
  // Work done before a latched fault still counts.
  RecordQueryObs(query, result, trace);
  if constexpr (IoLatchedIndex<Index>) {
    Status status = index.ConsumeError();
    if (!status.ok()) {
      QueryResult failed;
      failed.stats = result.stats;  // work done before the fault counts
      failed.status_code = status.code();
      failed.error = std::string(status.message());
      return failed;
    }
  }
  // A fired token trumps whatever partial payload the abandoned walk
  // left behind. (Checked after the latch: a paged backend that
  // observed the deadline on a page miss latched the same verdict.)
  if (cancel != nullptr) {
    Status status = cancel->ToStatus();
    if (!status.ok()) {
      QueryResult timed_out;
      timed_out.stats = result.stats;  // work done before the stop counts
      timed_out.status_code = status.code();
      timed_out.error = std::string(status.message());
      return timed_out;
    }
  }
  return result;
}

}  // namespace spine

#endif  // SPINE_CORE_QUERY_H_
