// Edit-distance primitives used by the alignment pipeline: one banded
// Ukkonen-style pass for bounded-error verification (read at the last
// column for BandedEditDistance, at the best column for
// BestPrefixEditDistance), and a plain quadratic DP used as the
// small-case oracle.

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
// nullopt otherwise. O(|a| * max_edits); the band row is reused per
// thread, so a call allocates only when its budget outgrows it.
std::optional<uint32_t> BandedEditDistance(std::string_view a,
                                           std::string_view b,
                                           uint32_t max_edits);

// Minimum edit distance between `pattern` and any prefix of `window`,
// within max_edits; returns (edits, prefix_len) of the best (fewest
// edits, then shortest) prefix, or nullopt. The semi-global primitive
// behind approximate matching (core/approx.h, mrs/). Computes at most
// |pattern| x (2 * max_edits + 1) cells and stops at the first pattern
// row whose band is all past max_edits.
std::optional<std::pair<uint32_t, uint32_t>> BestPrefixEditDistance(
    std::string_view pattern, std::string_view window, uint32_t max_edits);

}  // namespace spine::align

#endif  // SPINE_ALIGN_EDIT_DISTANCE_H_
