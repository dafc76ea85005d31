// Generic approximate-search algorithms (k-mismatch and bounded edit
// distance), shared by every index implementation the same way
// core/search.h shares the exact ones.
//
// Both kinds run seed-and-extend when the backend and the planner
// (plan/planner.h) allow it: the pattern splits into budget+1 pieces,
// at least one of which any qualifying window must contain exactly
// (pigeonhole), so exact occurrences of the pieces — located through
// the SPINE backbone by one GenericFindAllMulti scan serving every
// piece, label-filtered where the backend packs its labels — enumerate
// every candidate start.
// Candidates (and, on the fallback path, every text window) are then
// verified by a shared extender:
//   - kMismatch: positional code comparison with early budget exit;
//   - kEditDistance: align::BestPrefixEditDistance, the banded
//     semi-global DP (fewest edits, then shortest prefix): m x (2d + 1)
//     cells at most, stopping at the first pattern row whose band is
//     all past d.
// Because verification is shared, the seed path and the scan path
// return bit-identical hits — the property the approx differential
// suite pins against an independent O(n*m) oracle.
//
// Comparison happens in code space (Alphabet::Encode), so alphabet
// canonicalization (DNA case folding) behaves exactly as it does for
// the exact kinds, and an out-of-alphabet pattern byte simply never
// matches any indexed character. Generalized (multi-document) backends
// pass their separator character: no window ever crosses a document
// boundary, matching the guarantee the exact kinds get for free from
// separator codes never equaling pattern codes.

#ifndef SPINE_CORE_APPROX_H_
#define SPINE_CORE_APPROX_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "align/edit_distance.h"
#include "common/cancel.h"
#include "core/search.h"
#include "obs/metrics.h"
#include "plan/planner.h"

namespace spine {

// Indexes whose text is addressable by position; the minimum an
// approximate scan needs. Every backend qualifies.
template <typename Index>
concept CodeAddressable = requires(const Index& index) {
  { index.CodeAt(uint64_t{0}) } -> std::convertible_to<Code>;
  { index.size() } -> std::convertible_to<uint64_t>;
  index.alphabet();
};

// Indexes that can additionally locate exact seeds through the
// backbone scan of core/search.h (suffix trees and the naive oracle
// cannot; they always verify by scanning).
template <typename Index>
concept SeedSearchable = CodeAddressable<Index> && requires(const Index& index) {
  { index.LinkLel(NodeId{0}) } -> std::convertible_to<uint32_t>;
  { index.LinkDest(NodeId{0}) } -> std::convertible_to<NodeId>;
};

// One approximate occurrence. `length` is the matched window length in
// the text (always the pattern length for kMismatch); `errors` is the
// mismatch/edit count actually used (<= the budget).
struct ApproxHit {
  uint32_t pos = 0;
  uint32_t length = 0;
  uint32_t errors = 0;
  bool operator==(const ApproxHit&) const = default;
};

// Per-query execution evidence, surfaced to the approx.* metrics and
// (via plan::PlanApprox being pure) reproducible by benches and tests.
struct ApproxSearchStats {
  uint64_t candidates = 0;  // windows handed to the verifier
  uint64_t verified = 0;    // windows that became hits
  uint32_t seed_len = 0;    // planner's choice; 0 on the scan path
  bool seeded = false;      // true when the seed path ran
};

// Records one approximate query's evidence into the metrics registry.
inline void RecordApproxObs(const ApproxSearchStats& stats) {
  if (stats.seeded) {
    SPINE_OBS_COUNT("approx.seeded", 1);
  } else {
    SPINE_OBS_COUNT("approx.scanned", 1);
  }
  SPINE_OBS_COUNT("approx.candidates", stats.candidates);
  SPINE_OBS_COUNT("approx.verified", stats.verified);
#if defined(SPINE_OBS_DISABLED)
  (void)stats;
#endif
}

namespace approx_internal {

// Sorted, deduplicated candidate starts from the exact occurrences of
// each pattern piece, widened by +-shift (0 for mismatch, the edit
// budget for edit distance: each indel before a piece moves its exact
// occurrence by one). One backbone scan locates every piece.
template <typename Index>
std::vector<uint64_t> SeedCandidates(const Index& index,
                                     std::string_view pattern,
                                     const plan::ApproxPlan& plan,
                                     uint32_t shift, uint64_t max_start,
                                     SearchStats* stats,
                                     const CancelToken* cancel) {
  const uint32_t m = static_cast<uint32_t>(pattern.size());
  std::vector<std::string_view> seeds(plan.piece_count);
  for (uint32_t piece = 0; piece < plan.piece_count; ++piece) {
    const auto [begin, end] =
        plan::SeedBoundaries(m, plan.piece_count, piece);
    seeds[piece] = pattern.substr(begin, end - begin);
  }
  const std::vector<std::vector<uint32_t>> occurrences =
      GenericFindAllMulti(index, seeds, stats, cancel);
  std::vector<uint64_t> starts;
  for (uint32_t piece = 0; piece < plan.piece_count; ++piece) {
    const uint32_t begin =
        plan::SeedBoundaries(m, plan.piece_count, piece).first;
    for (const uint32_t occ : occurrences[piece]) {
      const int64_t base = static_cast<int64_t>(occ) - begin;
      for (int64_t s = base - shift; s <= base + shift; ++s) {
        if (s >= 0 && s <= static_cast<int64_t>(max_start)) {
          starts.push_back(static_cast<uint64_t>(s));
        }
      }
    }
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  return starts;
}

}  // namespace approx_internal

// All windows within `max_mismatches` Hamming distance of `pattern`
// (fixed window length m). Hits arrive in increasing position order.
// A fired `cancel` returns a partial list; the caller converts it into
// a deadline/cancel verdict exactly like the exact kinds.
template <CodeAddressable Index>
std::vector<ApproxHit> GenericFindMismatch(
    const Index& index, std::string_view pattern, uint32_t max_mismatches,
    SearchStats* stats = nullptr, ApproxSearchStats* approx = nullptr,
    const CancelToken* cancel = nullptr,
    std::optional<char> separator = std::nullopt) {
  std::vector<ApproxHit> hits;
  const uint32_t m = static_cast<uint32_t>(pattern.size());
  const uint64_t n = index.size();
  if (m == 0 || max_mismatches >= m || n < m) return hits;
  const Alphabet& alphabet = index.alphabet();
  std::vector<Code> pcodes(m);
  for (uint32_t i = 0; i < m; ++i) pcodes[i] = alphabet.Encode(pattern[i]);
  // A plain flag and code, not an optional: GCC misreads the optional's
  // payload as maybe-uninitialized inside the verifier loop.
  const bool has_sep = separator.has_value();
  const Code sep_code = alphabet.Encode(separator.value_or('\0'));

  const plan::ApproxPlan plan =
      plan::PlanApprox(n, alphabet.size(), m, max_mismatches,
                       SeedSearchable<Index>);
  if (approx != nullptr) {
    approx->seeded = plan.use_seeds;
    approx->seed_len = plan.seed_len;
  }
  const uint64_t max_start = n - m;
  uint64_t compared = 0;

  // Shared verifier: the seed and scan paths differ only in which
  // starts reach it, never in the verdict for a given start.
  const auto verify = [&](uint64_t start) {
    if (approx != nullptr) ++approx->candidates;
    uint32_t mm = 0;
    for (uint32_t i = 0; i < m; ++i) {
      ++compared;
      const Code t = index.CodeAt(start + i);
      if (has_sep && t == sep_code) return;  // crosses a doc
      if (t != pcodes[i] && ++mm > max_mismatches) return;
    }
    hits.push_back({static_cast<uint32_t>(start), m, mm});
    if (approx != nullptr) ++approx->verified;
  };

  CancelCheckpoint checkpoint(cancel);
  if constexpr (SeedSearchable<Index>) {
    if (plan.use_seeds) {
      for (const uint64_t start : approx_internal::SeedCandidates(
               index, pattern, plan, /*shift=*/0, max_start, stats, cancel)) {
        if (checkpoint.ShouldStop()) break;
        verify(start);
      }
      if (stats != nullptr) stats->nodes_checked += compared;
      return hits;
    }
  }
  for (uint64_t start = 0; start <= max_start; ++start) {
    if (checkpoint.ShouldStop()) break;
    verify(start);
  }
  if (stats != nullptr) stats->nodes_checked += compared;
  return hits;
}

// All windows whose best prefix is within `max_edits` Levenshtein
// distance of `pattern`. Each hit reports the best (fewest edits, then
// shortest) prefix length and its edit count.
template <CodeAddressable Index>
std::vector<ApproxHit> GenericFindEditDistance(
    const Index& index, std::string_view pattern, uint32_t max_edits,
    SearchStats* stats = nullptr, ApproxSearchStats* approx = nullptr,
    const CancelToken* cancel = nullptr,
    std::optional<char> separator = std::nullopt) {
  std::vector<ApproxHit> hits;
  const uint32_t m = static_cast<uint32_t>(pattern.size());
  const uint64_t n = index.size();
  if (m == 0 || max_edits >= m || n == 0) return hits;
  const Alphabet& alphabet = index.alphabet();
  // Canonicalize the pattern the way the index canonicalized its text
  // (DNA folds case); out-of-alphabet bytes stay raw and can never
  // equal a decoded (canonical) text character.
  std::string canonical(pattern);
  for (char& c : canonical) {
    const Code code = alphabet.Encode(c);
    if (code != kInvalidCode) c = alphabet.Decode(code);
  }
  const bool has_sep = separator.has_value();
  const Code sep_code = alphabet.Encode(separator.value_or('\0'));

  const plan::ApproxPlan plan = plan::PlanApprox(
      n, alphabet.size(), m, max_edits, SeedSearchable<Index>);
  if (approx != nullptr) {
    approx->seeded = plan.use_seeds;
    approx->seed_len = plan.seed_len;
  }
  uint64_t compared = 0;
  std::string window;

  const auto verify = [&](uint64_t start) {
    if (approx != nullptr) ++approx->candidates;
    window.clear();
    const uint64_t limit = std::min<uint64_t>(start + m + max_edits, n);
    for (uint64_t i = start; i < limit; ++i) {
      const Code t = index.CodeAt(i);
      if (has_sep && t == sep_code) break;  // clip at the doc
      window.push_back(alphabet.Decode(t));
    }
    if (window.size() + max_edits < m) return;  // too close to the end
    compared += window.size();
    const auto best =
        align::BestPrefixEditDistance(canonical, window, max_edits);
    if (best.has_value()) {
      hits.push_back({static_cast<uint32_t>(start),
                      best->second, best->first});
      if (approx != nullptr) ++approx->verified;
    }
  };

  CancelCheckpoint checkpoint(cancel);
  if constexpr (SeedSearchable<Index>) {
    if (plan.use_seeds) {
      for (const uint64_t start : approx_internal::SeedCandidates(
               index, pattern, plan, /*shift=*/max_edits, n - 1, stats,
               cancel)) {
        if (checkpoint.ShouldStop()) break;
        verify(start);
      }
      if (stats != nullptr) stats->nodes_checked += compared;
      return hits;
    }
  }
  for (uint64_t start = 0; start < n; ++start) {
    if (checkpoint.ShouldStop()) break;
    verify(start);
  }
  if (stats != nullptr) stats->nodes_checked += compared;
  return hits;
}

}  // namespace spine

#endif  // SPINE_CORE_APPROX_H_
