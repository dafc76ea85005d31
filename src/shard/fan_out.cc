#include "shard/fan_out.h"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "core/approx.h"
#include "core/matcher.h"
#include "core/search.h"
#include "obs/metrics.h"

namespace spine::shard {

namespace {

// Family position of local position `pos`, or nullopt when no run of
// `source` owns it.
std::optional<uint32_t> Admit(const Source& source, uint64_t pos) {
  const auto next = std::upper_bound(
      source.runs.begin(), source.runs.end(), pos,
      [](uint64_t p, const SourceRun& run) { return p < run.begin; });
  if (next == source.runs.begin()) return std::nullopt;
  const SourceRun& run = *std::prev(next);
  if (pos >= run.end) return std::nullopt;
  return static_cast<uint32_t>(run.offset + (pos - run.begin));
}

// Calls `fn` with the source's index, whichever type it is.
template <typename Fn>
decltype(auto) Visit(const Source& source, Fn&& fn) {
  return std::visit([&fn](const auto* index) { return fn(*index); },
                    source.index);
}

// One query's walk over the sources: every per-source generic shares
// its work counters and its token.
class FanOut {
 public:
  FanOut(std::span<const Source> sources, SearchStats* stats,
         const CancelToken* cancel)
      : sources_(sources), stats_(stats), cancel_(cancel) {}

  bool Contains(std::string_view pattern) const {
    if (pattern.empty()) return true;
    for (size_t i = 0; i < sources_.size(); ++i) {
      // Warm the next source's root while this one walks; on the miss
      // path every source is probed in order.
      if (i + 1 < sources_.size()) {
        Visit(sources_[i + 1],
              [](const auto& index) { index.PrefetchNode(kRootNode); });
      }
      const Source& source = sources_[i];
      if (Clean(source) ? FirstEnd(source, pattern).has_value()
                        : FirstAdmitted(source, pattern).has_value()) {
        return true;
      }
    }
    return false;
  }

  // The family position of the first occurrence. A clean source's
  // unadmitted occurrences (a shard's overlap margin) follow its
  // admitted ones, so its first occurrence decides for it.
  std::optional<uint32_t> FirstOccurrence(std::string_view pattern) const {
    for (const Source& source : sources_) {
      std::optional<uint32_t> first;
      if (Clean(source)) {
        const std::optional<NodeId> end = FirstEnd(source, pattern);
        if (end.has_value()) first = Admit(source, *end - pattern.size());
      } else {
        first = FirstAdmitted(source, pattern);
      }
      if (first.has_value()) return first;
    }
    return std::nullopt;
  }

  void AppendOccurrences(std::string_view pattern, uint32_t query_pos,
                         std::vector<Hit>* hits) const {
    std::vector<std::vector<uint32_t>> local(sources_.size());
    for (size_t i = 0; i < sources_.size(); ++i) {
      local[i] = FindAll(sources_[i], pattern);
    }
    SPINE_OBS_SCOPED_TIMER_US("shard.merge_us");
    const uint32_t length = static_cast<uint32_t>(pattern.size());
    for (size_t i = 0; i < sources_.size(); ++i) {
      for (const uint32_t pos : local[i]) {
        if (const std::optional<uint32_t> at = Admit(sources_[i], pos)) {
          hits->push_back({*at, length, query_pos});
        }
      }
    }
  }

  std::vector<uint32_t> MatchingStatistics(std::string_view pattern) const {
    const uint32_t m = static_cast<uint32_t>(pattern.size());
    if (std::all_of(sources_.begin(), sources_.end(),
                    [this](const Source& source) { return Clean(source); })) {
      std::vector<std::vector<uint32_t>> local(sources_.size());
      for (size_t i = 0; i < sources_.size(); ++i) {
        local[i] = Visit(sources_[i], [&](const auto& index) {
          return GenericMatchingStatistics(index, pattern, stats_, cancel_);
        });
      }
      if (local.empty()) return std::vector<uint32_t>(m, 0);
      SPINE_OBS_SCOPED_TIMER_US("shard.merge_us");
      std::vector<uint32_t> ms = std::move(local.front());
      for (size_t i = 1; i < local.size(); ++i) {
        for (uint32_t q = 0; q < m; ++q) ms[q] = std::max(ms[q], local[i][q]);
      }
      return ms;
    }
    std::vector<uint32_t> ms(m, 0);
    CancelCheckpoint checkpoint(cancel_);
    uint32_t z = 0;
    for (uint32_t q = 0; q < m; ++q) {
      if (checkpoint.ShouldStop()) break;
      if (z > 0) --z;
      while (q + z < m && Contains(pattern.substr(q, z + 1))) ++z;
      ms[q] = z;
    }
    return ms;
  }

  void AppendMaximalMatches(const Query& query, std::vector<Hit>* hits) const {
    const uint32_t min_len = std::max<uint32_t>(query.min_len, 1);
    const std::string_view pattern = query.pattern;
    const std::vector<uint32_t> ms = MatchingStatistics(pattern);
    CancelCheckpoint checkpoint(cancel_);
    for (uint32_t q = 0; q < ms.size(); ++q) {
      if (checkpoint.ShouldStop()) break;
      const uint32_t len = ms[q];
      // ms[q-1] can exceed ms[q] only by one; when it does, this match
      // is a suffix of the previous one and is not maximal.
      if (len < min_len || (q > 0 && ms[q - 1] > len)) continue;
      const std::string_view sub = pattern.substr(q, len);
      if (query.expand_occurrences) {
        AppendOccurrences(sub, q, hits);
      } else if (const std::optional<uint32_t> first = FirstOccurrence(sub)) {
        hits->push_back({*first, len, q});
      }
    }
  }

  void AppendApprox(const Query& query, std::vector<Hit>* hits) const {
    ApproxSearchStats family;
    std::vector<std::vector<ApproxHit>> local(sources_.size());
    for (size_t i = 0; i < sources_.size(); ++i) {
      const Source& source = sources_[i];
      ApproxSearchStats one;
      local[i] = Visit(source, [&](const auto& index) {
        return query.kind == QueryKind::kMismatch
                   ? GenericFindMismatch(index, query.pattern,
                                         query.max_errors, stats_, &one,
                                         cancel_, source.separator)
                   : GenericFindEditDistance(index, query.pattern,
                                             query.max_errors, stats_, &one,
                                             cancel_, source.separator);
      });
      family.candidates += one.candidates;
      family.seeded = family.seeded || one.seeded;
      family.seed_len = std::max(family.seed_len, one.seed_len);
    }
    {
      SPINE_OBS_SCOPED_TIMER_US("shard.merge_us");
      for (size_t i = 0; i < sources_.size(); ++i) {
        for (const ApproxHit& hit : local[i]) {
          if (const std::optional<uint32_t> at = Admit(sources_[i], hit.pos)) {
            hits->push_back({*at, hit.length, hit.errors});
          }
        }
      }
    }
    family.verified = hits->size();
    RecordApproxObs(family);
  }

 private:
  static bool Clean(const Source& source) {
    return source.clean &&
           Visit(source, [](const auto& index) { return index.size(); }) ==
               source.size;
  }

  std::optional<NodeId> FirstEnd(const Source& source,
                                 std::string_view pattern) const {
    return Visit(source, [&](const auto& index) {
      return GenericFindFirstEnd(index, pattern, stats_, cancel_);
    });
  }

  std::vector<uint32_t> FindAll(const Source& source,
                                std::string_view pattern) const {
    return Visit(source, [&](const auto& index) {
      return GenericFindAll(index, pattern, stats_, cancel_);
    });
  }

  std::optional<uint32_t> FirstAdmitted(const Source& source,
                                        std::string_view pattern) const {
    for (const uint32_t pos : FindAll(source, pattern)) {
      if (const std::optional<uint32_t> at = Admit(source, pos)) return at;
    }
    return std::nullopt;
  }

  std::span<const Source> sources_;
  SearchStats* stats_;
  const CancelToken* cancel_;
};

}  // namespace

QueryResult ExecuteFanOut(std::span<const Source> sources, const Query& query,
                          obs::TraceContext* trace,
                          const CancelToken* cancel) {
#if defined(SPINE_OBS_DISABLED)
  trace = nullptr;
#endif
  obs::SpanTimer exec_timer(trace, "exec_us");
  QueryResult result;
  const FanOut fan_out(sources, &result.stats, cancel);
  switch (query.kind) {
    case QueryKind::kContains:
      result.found = fan_out.Contains(query.pattern);
      break;
    case QueryKind::kFindAll:
      fan_out.AppendOccurrences(query.pattern, 0, &result.hits);
      break;
    case QueryKind::kMatchingStats:
      result.matching_stats = fan_out.MatchingStatistics(query.pattern);
      result.found = std::any_of(result.matching_stats.begin(),
                                 result.matching_stats.end(),
                                 [](uint32_t v) { return v > 0; });
      break;
    case QueryKind::kMaximalMatches:
      fan_out.AppendMaximalMatches(query, &result.hits);
      break;
    case QueryKind::kMismatch:
    case QueryKind::kEditDistance:
      fan_out.AppendApprox(query, &result.hits);
      break;
  }
  if (!result.hits.empty()) result.found = true;
  RecordQueryObs(query, result, trace);
  // A fired token trumps whatever partial payload the abandoned walks
  // left behind.
  if (cancel != nullptr) {
    Status status = cancel->ToStatus();
    if (!status.ok()) {
      QueryResult stopped;
      stopped.stats = result.stats;  // work done before the stop counts
      stopped.status_code = status.code();
      stopped.error = std::string(status.message());
      return stopped;
    }
  }
  return result;
}

}  // namespace spine::shard
