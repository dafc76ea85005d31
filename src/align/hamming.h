// k-mismatch (Hamming) search directly on the SPINE structure.
//
// Unlike the seed-and-extend pipeline (core/approx.h), this walks the
// index itself: a depth-first search over the threshold-checked forward
// edges, branching on every alphabet character and charging a mismatch
// when the character differs from the pattern. Each complete path
// spells one variant of the pattern that occurs in the data string and
// ends at the variant's first occurrence; all occurrences of all
// variants are then expanded with ONE shared backbone scan (the paper's
// deferred batching, Section 4).
//
// Cost is O(sigma^k * m) node steps in the worst case — meant for small
// mismatch budgets, the common case in read mapping / motif search.

#ifndef SPINE_ALIGN_HAMMING_H_
#define SPINE_ALIGN_HAMMING_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/matcher.h"
#include "core/spine_index.h"

namespace spine::align {

struct HammingHit {
  uint32_t data_pos = 0;     // start of the occurrence
  uint32_t mismatches = 0;   // Hamming distance to the pattern
  bool operator==(const HammingHit&) const = default;
};

// All occurrences (across all matching variants) of `pattern` within
// Hamming distance `max_mismatches`, sorted by position. Works with any
// index exposing the shared search interface (see core/search.h).
template <typename Index>
std::vector<HammingHit> FindHammingMatches(const Index& index,
                                           std::string_view pattern,
                                           uint32_t max_mismatches,
                                           SearchStats* stats = nullptr) {
  std::vector<HammingHit> hits;
  const uint32_t m = static_cast<uint32_t>(pattern.size());
  if (m == 0 || index.size() < m) return hits;
  const Alphabet& alphabet = index.alphabet();

  // Encode the pattern; out-of-alphabet characters always mismatch.
  std::vector<Code> codes;
  codes.reserve(m);
  for (char ch : pattern) codes.push_back(alphabet.Encode(ch));

  // DFS over (node, depth, mismatches). Completed paths become pseudo
  // maximal matches for the shared occurrence scan.
  struct Frame {
    NodeId node;
    uint32_t depth;
    uint32_t mismatches;
  };
  std::vector<Frame> stack = {{kRootNode, 0, 0}};
  std::vector<MaximalMatch> variants;
  std::vector<uint32_t> variant_mismatches;
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    if (frame.depth == m) {
      variants.push_back({0, m, frame.node});
      variant_mismatches.push_back(frame.mismatches);
      continue;
    }
    for (uint32_t c = 0; c < alphabet.size(); ++c) {
      uint32_t cost = codes[frame.depth] == c ? 0 : 1;
      if (frame.mismatches + cost > max_mismatches) continue;
      StepResult step =
          index.Step(frame.node, static_cast<Code>(c), frame.depth, stats);
      if (!step.ok) continue;
      stack.push_back({step.dest, frame.depth + 1, frame.mismatches + cost});
    }
  }

  // One backbone scan serves every variant (distinct variants can never
  // occupy the same window, so the union needs no deduplication).
  auto expanded = GenericCollectAllOccurrences(index, variants);
  for (size_t v = 0; v < expanded.size(); ++v) {
    for (uint32_t pos : expanded[v].data_positions) {
      hits.push_back({pos, variant_mismatches[v]});
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const HammingHit& a, const HammingHit& b) {
              return a.data_pos < b.data_pos;
            });
  return hits;
}

}  // namespace spine::align

#endif  // SPINE_ALIGN_HAMMING_H_
