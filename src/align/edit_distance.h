// Edit-distance primitives used by the alignment pipeline: a banded
// Ukkonen-style computation for bounded-error verification, and a plain
// quadratic DP used as the small-case oracle and gap filler.

#ifndef SPINE_ALIGN_EDIT_DISTANCE_H_
#define SPINE_ALIGN_EDIT_DISTANCE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <string_view>

namespace spine::align {

// Unit-cost Levenshtein distance (substitution/insertion/deletion).
uint32_t EditDistance(std::string_view a, std::string_view b);

// Banded edit distance: returns the distance if it is <= max_edits,
// nullopt otherwise. O((|a|+|b|) * max_edits).
std::optional<uint32_t> BandedEditDistance(std::string_view a,
                                           std::string_view b,
                                           uint32_t max_edits);

// Minimum edit distance between `pattern` and any prefix of `window`,
// within max_edits; returns (edits, prefix_len) of the best (fewest
// edits, then shortest) prefix, or nullopt. The semi-global primitive
// behind approximate matching (core/approx.h, mrs/).
std::optional<std::pair<uint32_t, uint32_t>> BestPrefixEditDistance(
    std::string_view pattern, std::string_view window, uint32_t max_edits);

}  // namespace spine::align

#endif  // SPINE_ALIGN_EDIT_DISTANCE_H_
