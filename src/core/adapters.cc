#include "core/adapters.h"

#include <algorithm>
#include <string_view>

#include "naive/naive_index.h"
#include "obs/metrics.h"
#include "suffix_tree/st_matcher.h"

namespace spine::core {

QueryResult UnsupportedKindResult(std::string_view backend, QueryKind kind) {
  QueryResult result;
  result.status_code = StatusCode::kInvalidArgument;
  result.error = "backend '" + std::string(backend) +
                 "' does not support query kind '" +
                 std::string(QueryKindName(kind)) + "'";
  return result;
}

QueryResult MappingFenceResult(const Status& fence) {
  QueryResult result;
  result.status_code = fence.code();
  result.error = std::string(fence.message());
  return result;
}

namespace {

// The same left-to-right decay GenericMatchingStatistics uses to turn
// seeded maximal-match lengths into full matching statistics.
void DecayMatchingStats(std::vector<uint32_t>* ms) {
  for (size_t q = 1; q < ms->size(); ++q) {
    if ((*ms)[q - 1] > 1 && (*ms)[q - 1] - 1 > (*ms)[q]) {
      (*ms)[q] = (*ms)[q - 1] - 1;
    }
  }
}

bool AnyPositive(const std::vector<uint32_t>& ms) {
  return std::any_of(ms.begin(), ms.end(),
                     [](uint32_t v) { return v > 0; });
}

// Code-space view over the oracle's raw text so the approximate
// generics canonicalize (DNA case folding, out-of-alphabet handling)
// exactly like the real backends. Not SeedSearchable: the oracle always
// takes the verification-scan path.
struct NaiveCodeView {
  const Alphabet* alpha;
  const std::string* text;
  Code CodeAt(uint64_t i) const { return alpha->Encode((*text)[i]); }
  uint64_t size() const { return text->size(); }
  const Alphabet& alphabet() const { return *alpha; }
};

// One Execute implementation for both suffix-tree backends (in-memory
// SuffixTree and paged storage::DiskSuffixTree). Matches the SPINE
// adapters' payloads exactly: maximal matches come from the
// suffix-link matcher, occurrences from per-match FindAll (ascending,
// so front() is the first occurrence — the position SPINE reports),
// and matching statistics from seeded matches plus the decay sweep.
// Cancellation granularity here is coarser than the SPINE generics:
// per maximal match / per phase on the adapter level, plus — for the
// paged tree — every buffer-pool miss via the scoped token
// (CancelScopedIndex). A fired token is converted to an error result
// exactly like an I/O latch, never returned as a partial kOk payload.
template <typename Tree>
QueryResult StExecute(const Tree& tree, std::string_view name,
                      const Query& query, obs::TraceContext* trace,
                      const CancelToken* cancel) {
#if defined(SPINE_OBS_DISABLED)
  trace = nullptr;
#endif
  obs::SpanTimer exec_timer(trace, "exec_us");
  if constexpr (IoLatchedIndex<Tree>) {
    (void)tree.ConsumeError();  // stale latch must not taint this query
  }
  internal::CancelScopeGuard<Tree> cancel_scope(tree, cancel);
  CancelCheckpoint checkpoint(cancel, /*interval=*/1);
  (void)name;
  QueryResult result;
  switch (query.kind) {
    case QueryKind::kContains:
      result.found =
          query.pattern.empty() || tree.Contains(query.pattern, &result.stats);
      break;
    case QueryKind::kFindAll: {
      if (!query.pattern.empty()) {
        const uint32_t m = static_cast<uint32_t>(query.pattern.size());
        for (uint32_t pos : tree.FindAll(query.pattern, &result.stats)) {
          result.hits.push_back({pos, m, 0});
        }
      }
      result.found = !result.hits.empty();
      break;
    }
    case QueryKind::kMaximalMatches: {
      const uint32_t min_len = std::max<uint32_t>(query.min_len, 1);
      for (const StMatch& match : GenericStFindMaximalMatches(
               tree, query.pattern, min_len, &result.stats)) {
        if (checkpoint.ShouldStop()) break;
        const std::string_view sub = std::string_view(query.pattern)
                                         .substr(match.query_pos, match.length);
        std::vector<uint32_t> positions = tree.FindAll(sub, &result.stats);
        if (positions.empty()) continue;  // only reachable via latched fault
        if (query.expand_occurrences) {
          for (uint32_t pos : positions) {
            result.hits.push_back({pos, match.length, match.query_pos});
          }
        } else {
          result.hits.push_back(
              {positions.front(), match.length, match.query_pos});
        }
      }
      result.found = !result.hits.empty();
      break;
    }
    case QueryKind::kMatchingStats: {
      result.matching_stats.assign(query.pattern.size(), 0);
      for (const StMatch& match : GenericStFindMaximalMatches(
               tree, query.pattern, 1, &result.stats)) {
        result.matching_stats[match.query_pos] = match.length;
      }
      DecayMatchingStats(&result.matching_stats);
      result.found = AnyPositive(result.matching_stats);
      break;
    }
    case QueryKind::kMismatch:
    case QueryKind::kEditDistance: {
      // Suffix trees are not SeedSearchable, so the generics take the
      // planner's verification-scan path over CodeAt.
      ApproxSearchStats approx_stats;
      std::vector<ApproxHit> approx_hits =
          query.kind == QueryKind::kMismatch
              ? GenericFindMismatch(tree, query.pattern, query.max_errors,
                                    &result.stats, &approx_stats, cancel)
              : GenericFindEditDistance(tree, query.pattern, query.max_errors,
                                        &result.stats, &approx_stats, cancel);
      for (const ApproxHit& hit : approx_hits) {
        result.hits.push_back({hit.pos, hit.length, hit.errors});
      }
      result.found = !result.hits.empty();
      RecordApproxObs(approx_stats);
      break;
    }
  }
  RecordQueryObs(query, result, trace);
  if constexpr (IoLatchedIndex<Tree>) {
    Status status = tree.ConsumeError();
    if (!status.ok()) {
      QueryResult failed;
      failed.stats = result.stats;  // work done before the fault counts
      failed.status_code = status.code();
      failed.error = std::string(status.message());
      return failed;
    }
  }
  if (cancel != nullptr) {
    Status status = cancel->ToStatus();
    if (!status.ok()) {
      QueryResult timed_out;
      timed_out.stats = result.stats;
      timed_out.status_code = status.code();
      timed_out.error = std::string(status.message());
      return timed_out;
    }
  }
  return result;
}

}  // namespace

QueryResult SuffixTreeAdapter::Execute(const Query& query,
                                       obs::TraceContext* trace,
                                       const CancelToken* cancel) const {
  return StExecute(*tree_, Name(), query, trace, cancel);
}

QueryResult DiskSuffixTreeAdapter::Execute(const Query& query,
                                           obs::TraceContext* trace,
                                           const CancelToken* cancel) const {
  return StExecute(*tree_, Name(), query, trace, cancel);
}

Status DiskSuffixTreeAdapter::VerifyStructure() const {
  (void)tree_->ConsumeError();  // start from a clean latch
  const uint64_t n = tree_->size();
  const uint64_t nodes = tree_->node_count();
  // Touch every text code so each page passes its checksum.
  for (uint64_t i = 0; i < n; ++i) (void)tree_->CodeAt(i);
  for (uint64_t id = 0; id < nodes; ++id) {
    const SuffixTree::Node node = tree_->node(static_cast<uint32_t>(id));
    if (node.start > n) {
      return Status::Corruption("node " + std::to_string(id) +
                                ": edge start beyond text");
    }
    if (node.end != SuffixTree::kOpenEnd &&
        (node.end > n || node.end < node.start)) {
      return Status::Corruption("node " + std::to_string(id) +
                                ": invalid edge range");
    }
    const uint32_t kNone = SuffixTree::kNoNode32;
    if ((node.first_child != kNone && node.first_child >= nodes) ||
        (node.next_sibling != kNone && node.next_sibling >= nodes) ||
        (node.suffix_link != kNone && node.suffix_link >= nodes)) {
      return Status::Corruption("node " + std::to_string(id) +
                                ": out-of-range node reference");
    }
    if (node.suffix_index != kNone && node.suffix_index >= n) {
      return Status::Corruption("node " + std::to_string(id) +
                                ": suffix index beyond text");
    }
  }
  return tree_->ConsumeError();
}

const Alphabet& CompactDawgAdapter::alphabet() const {
  return dawg_->alphabet();
}

QueryResult CompactDawgAdapter::Execute(const Query& query,
                                        obs::TraceContext* trace,
                                        const CancelToken* cancel) const {
#if defined(SPINE_OBS_DISABLED)
  trace = nullptr;
#endif
  if (query.kind != QueryKind::kContains) {
    return UnsupportedKindResult(Name(), query.kind);
  }
  obs::SpanTimer exec_timer(trace, "exec_us");
  QueryResult result;
  // One walk bounded by the pattern length; a boundary check suffices.
  if (cancel != nullptr && cancel->Fired()) {
    result.status_code = cancel->FiredCode();
    result.error = std::string(cancel->ToStatus().message());
    return result;
  }
  result.found = query.pattern.empty() || dawg_->Contains(query.pattern);
  RecordQueryObs(query, result, trace);
  return result;
}

QueryResult NaiveTextAdapter::Execute(const Query& query,
                                      obs::TraceContext* trace,
                                      const CancelToken* cancel) const {
#if defined(SPINE_OBS_DISABLED)
  trace = nullptr;
#endif
  obs::SpanTimer exec_timer(trace, "exec_us");
  // The oracle polls per reported match (interval 1: its per-item work
  // — a full text scan — dwarfs a token poll).
  CancelCheckpoint checkpoint(cancel, /*interval=*/1);
  QueryResult result;
  switch (query.kind) {
    case QueryKind::kContains:
      result.found = query.pattern.empty() ||
                     naive::FirstOccurrenceEnd(text_, query.pattern) >= 0;
      break;
    case QueryKind::kFindAll: {
      if (!query.pattern.empty()) {
        const uint32_t m = static_cast<uint32_t>(query.pattern.size());
        for (uint32_t pos : naive::FindAllOccurrences(text_, query.pattern)) {
          result.hits.push_back({pos, m, 0});
        }
      }
      result.found = !result.hits.empty();
      break;
    }
    case QueryKind::kMaximalMatches: {
      const uint32_t min_len = std::max<uint32_t>(query.min_len, 1);
      for (const naive::NaiveMatch& match :
           naive::MaximalMatches(text_, query.pattern, min_len)) {
        if (checkpoint.ShouldStop()) break;
        const std::string_view sub = std::string_view(query.pattern)
                                         .substr(match.query_pos, match.length);
        if (query.expand_occurrences) {
          for (uint32_t pos : naive::FindAllOccurrences(text_, sub)) {
            result.hits.push_back({pos, match.length, match.query_pos});
          }
        } else {
          const int64_t first_end = naive::FirstOccurrenceEnd(text_, sub);
          result.hits.push_back(
              {static_cast<uint32_t>(first_end) - match.length, match.length,
               match.query_pos});
        }
      }
      result.found = !result.hits.empty();
      break;
    }
    case QueryKind::kMatchingStats: {
      result.matching_stats.assign(query.pattern.size(), 0);
      for (const naive::NaiveMatch& match :
           naive::MaximalMatches(text_, query.pattern, 1)) {
        result.matching_stats[match.query_pos] = match.length;
      }
      DecayMatchingStats(&result.matching_stats);
      result.found = AnyPositive(result.matching_stats);
      break;
    }
    case QueryKind::kMismatch:
    case QueryKind::kEditDistance: {
      const NaiveCodeView view{&alphabet_, &text_};
      ApproxSearchStats approx_stats;
      std::vector<ApproxHit> approx_hits =
          query.kind == QueryKind::kMismatch
              ? GenericFindMismatch(view, query.pattern, query.max_errors,
                                    &result.stats, &approx_stats, cancel)
              : GenericFindEditDistance(view, query.pattern, query.max_errors,
                                        &result.stats, &approx_stats, cancel);
      for (const ApproxHit& hit : approx_hits) {
        result.hits.push_back({hit.pos, hit.length, hit.errors});
      }
      result.found = !result.hits.empty();
      RecordApproxObs(approx_stats);
      break;
    }
  }
  RecordQueryObs(query, result, trace);
  if (cancel != nullptr) {
    Status status = cancel->ToStatus();
    if (!status.ok()) {
      QueryResult timed_out;
      timed_out.stats = result.stats;
      timed_out.status_code = status.code();
      timed_out.error = std::string(status.message());
      return timed_out;
    }
  }
  return result;
}

}  // namespace spine::core
