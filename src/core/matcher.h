// Streaming matcher: finds all maximal matching substrings between an
// indexed data string and a query string (the "complex matching
// operation" of Section 4, the core of genome alignment tools).
//
// The matcher streams the query once, maintaining the invariant that the
// current state (node, pathlen) describes the longest suffix of the
// processed query that is a substring of the data string, with the node
// being the end of that substring's first occurrence. On a mismatch the
// match is reported and the suffix set is shrunk *set-wise*: one hop per
// link-chain node rather than one hop per suffix, which is where SPINE
// checks far fewer nodes than a suffix tree (Section 4.1 / Table 6).
//
// A reported match (query_pos, length) is maximal: it cannot be extended
// to the right (the next query character mismatches or the query ends)
// and it is not a suffix of a longer reported match.

#ifndef SPINE_CORE_MATCHER_H_
#define SPINE_CORE_MATCHER_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "core/search.h"
#include "core/spine_index.h"

namespace spine {

struct MaximalMatch {
  uint32_t query_pos = 0;   // start offset in the query
  uint32_t length = 0;
  NodeId first_end = 0;     // end node of the first occurrence in the data

  bool operator==(const MaximalMatch&) const = default;
};

// All maximal matches of length >= min_len between the indexed string and
// `query`. Query characters outside the alphabet act as universal
// mismatches. min_len must be >= 1.
std::vector<MaximalMatch> FindMaximalMatches(const SpineIndex& index,
                                             std::string_view query,
                                             uint32_t min_len,
                                             SearchStats* stats = nullptr);

// One occurrence of a maximal match within the data string.
struct MatchOccurrences {
  MaximalMatch match;
  std::vector<uint32_t> data_positions;  // start offsets in the data string
};

// Expands every match to all of its occurrences in the data string using
// the paper's deferred technique: a single sequential scan of the
// backbone serving all matches concurrently (Section 4).
std::vector<MatchOccurrences> CollectAllOccurrences(
    const SpineIndex& index, const std::vector<MaximalMatch>& matches);

// ---------------------------------------------------------------------
// Generic versions, usable with any index exposing the search interface
// documented in core/search.h (CompactSpineIndex, storage::DiskSpine).
// ---------------------------------------------------------------------

template <typename Index>
std::vector<MaximalMatch> GenericFindMaximalMatches(
    const Index& index, std::string_view query, uint32_t min_len,
    SearchStats* stats = nullptr, const CancelToken* cancel = nullptr) {
  std::vector<MaximalMatch> out;
  const Alphabet& alphabet = index.alphabet();
  NodeId node = kRootNode;
  uint32_t pathlen = 0;
  CancelCheckpoint checkpoint(cancel);
  auto report = [&](uint32_t end_pos) {
    if (pathlen >= min_len) out.push_back({end_pos - pathlen, pathlen, node});
  };
  // Word-parallel fast path: runs of matching vertebras are consumed in
  // bulk by the active comparison kernel (kernel/kernel.h); the
  // per-step loop below only resolves run boundaries (mismatch, rib
  // thresholds, link shrinking). Answers and SearchStats are identical
  // to the per-step walk.
  [[maybe_unused]] std::optional<kernel::EncodedPattern> encoded;
  if constexpr (KernelAccelerated<Index>) encoded.emplace(alphabet, query);
  for (uint32_t i = 0; i < query.size(); ++i) {
    // One poll per query character bounds the overshoot even when the
    // link-shrink inner loop below is long (its depth is bounded by the
    // current pathlen, which the outer loop grows one step at a time).
    if (checkpoint.ShouldStop()) return {};
    if constexpr (KernelAccelerated<Index>) {
      const uint32_t run = index.MatchVertebraRun(node, *encoded, i);
      if (run > 0) {
        if (stats != nullptr) stats->nodes_checked += run;
        node += run;
        pathlen += run;
        i += run;
        if (i >= query.size()) break;
      }
    }
    Code c = alphabet.Encode(query[i]);
    if (c == kInvalidCode) {
      report(i);
      node = kRootNode;
      pathlen = 0;
      continue;
    }
    bool reported = false;
    while (true) {
      StepResult step = index.Step(node, c, pathlen, stats);
      if (step.ok) {
        node = step.dest;
        ++pathlen;
        break;
      }
      if (!reported) {
        report(i);
        reported = true;
      }
      if (step.has_edge) {
        node = step.fallback_dest;
        pathlen = step.fallback_pt + 1;
        if constexpr (NodePrefetchable<Index>) index.PrefetchNode(node);
        break;
      }
      if (node == kRootNode) break;
      pathlen = index.LinkLel(node);
      node = index.LinkDest(node);
      if constexpr (NodePrefetchable<Index>) index.PrefetchNode(node);
      if (stats != nullptr) ++stats->link_traversals;
    }
  }
  if (pathlen >= min_len) {
    out.push_back(
        {static_cast<uint32_t>(query.size()) - pathlen, pathlen, node});
  }
  return out;
}

// Matching statistics (Chang-Lawler): ms[q] = length of the longest
// prefix of query[q..] that occurs anywhere in the indexed string.
// Computed in one streaming pass using the same set-based shrinking as
// the maximal-match finder; maximal matches are exactly the positions
// where ms[q] >= min_len and ms[q-1] <= ms[q].
template <typename Index>
std::vector<uint32_t> GenericMatchingStatistics(
    const Index& index, std::string_view query, SearchStats* stats = nullptr,
    const CancelToken* cancel = nullptr) {
  // Derived from the maximal matches via the O(n) decay rule. Each
  // maximal match is uniquely identified by its query start (two
  // right-maximal matches sharing a start would make the shorter one
  // extendable), so seeding ms[start] = length and sweeping
  // ms[q] = max(ms[q], ms[q-1] - 1) left-to-right computes
  // max over covering matches of (match_end - q) in one pass — the
  // per-match inner loop this replaces was quadratic on highly
  // repetitive queries where long matches overlap densely.
  std::vector<uint32_t> ms(query.size(), 0);
  for (const MaximalMatch& match :
       GenericFindMaximalMatches(index, query, 1, stats, cancel)) {
    ms[match.query_pos] = match.length;
  }
  for (size_t q = 1; q < ms.size(); ++q) {
    if (ms[q - 1] > 1 && ms[q - 1] - 1 > ms[q]) ms[q] = ms[q - 1] - 1;
  }
  return ms;
}

// The deferred expansion is core/search.h's backbone scan with one
// target per match. A fired `cancel` returns an empty list.
template <typename Index>
std::vector<MatchOccurrences> GenericCollectAllOccurrences(
    const Index& index, const std::vector<MaximalMatch>& matches,
    const CancelToken* cancel = nullptr) {
  std::vector<search_internal::ScanTarget> targets;
  targets.reserve(matches.size());
  for (const MaximalMatch& match : matches) {
    targets.push_back({match.first_end, match.length});
  }
  std::vector<search_internal::ScanEnd> ends;
  if (!search_internal::ScanOccurrenceEnds(index, targets, &ends, cancel)) {
    return {};
  }
  std::vector<MatchOccurrences> results(matches.size());
  for (size_t i = 0; i < matches.size(); ++i) results[i].match = matches[i];
  for (const search_internal::ScanEnd& end : ends) {
    results[end.target].data_positions.push_back(
        end.node - matches[end.target].length);
  }
  return results;
}

// ---------------------------------------------------------------------
// Classical string problems that fall out of the SPINE structure.
// ---------------------------------------------------------------------

struct RepeatedSubstring {
  uint32_t first_end = 0;  // end position of the FIRST occurrence
  uint32_t length = 0;
};

// Longest substring occurring at least twice in the indexed string.
// On SPINE this is simply the maximum LEL over the backbone: LEL(i) is
// by definition the longest suffix of s[0..i) that occurred earlier.
// O(n), no extra memory.
template <typename Index>
RepeatedSubstring LongestRepeatedSubstring(const Index& index) {
  RepeatedSubstring best;
  const NodeId n = static_cast<NodeId>(index.size());
  for (NodeId i = 1; i <= n; ++i) {
    uint32_t lel = index.LinkLel(i);
    if (lel > best.length) {
      best.length = lel;
      best.first_end = index.LinkDest(i);
    }
  }
  return best;
}

// Longest common substring of the indexed string and `query`: the
// largest matching statistic, i.e. the longest maximal match.
template <typename Index>
MaximalMatch LongestCommonSubstring(const Index& index,
                                    std::string_view query,
                                    SearchStats* stats = nullptr) {
  MaximalMatch best;
  for (const MaximalMatch& match :
       GenericFindMaximalMatches(index, query, 1, stats)) {
    if (match.length > best.length) best = match;
  }
  return best;
}

}  // namespace spine

#endif  // SPINE_CORE_MATCHER_H_
