// FrequencyFilterIndex: a simplified MRS-style two-phase index
// (Kahveci & Singh, "An Efficient Index Structure for String
// Databases", VLDB 2001 — the paper's Section 7 comparator).
//
// The idea behind MRS: keep a very small sketch of the data string —
// here, per-frame q-gram frequency vectors — and answer approximate
// queries in two phases:
//
//   1. FILTER: q-gram frequencies lower-bound the edit distance (one
//      edit creates at most q new q-grams in a window, so
//      edits >= gram_deficit / q). Grams are attributed to the frame
//      containing their START position, so a region of whole frames
//      soundly upper-bounds any window's gram supply with no boundary
//      slack. Frames whose bound exceeds the budget are pruned
//      wholesale.
//   2. VERIFY: the surviving regions are checked exactly (banded DP).
//
// The sketch is tiny (sigma counters per frame: ~0.13 B/char at frame
// size 64), but answers are two-phase and verification rescans the
// text — SPINE's point (Section 7): "the performance improvement
// through complete indexes is typically substantially more, albeit at
// the cost of increased resource consumption". bench_related_mrs
// reproduces that trade-off.

#ifndef SPINE_MRS_FREQUENCY_FILTER_H_
#define SPINE_MRS_FREQUENCY_FILTER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "alphabet/alphabet.h"
#include "common/status.h"

namespace spine::mrs {

struct FilterHit {
  uint32_t data_pos = 0;
  uint32_t length = 0;
  uint32_t edits = 0;
  bool operator==(const FilterHit&) const = default;
};

class FrequencyFilterIndex {
 public:
  struct Options {
    // Frame length of the sketch; smaller frames filter more precisely
    // but cost more space. Must be >= 4.
    uint32_t frame_size = 64;
    // Gram length of the frequency vectors (sigma^gram dimensions);
    // 2-grams are far more selective than letters on small alphabets.
    // Clamped to 1 when sigma^gram would exceed 4096 dimensions.
    uint32_t gram = 2;
  };

  // Builds the sketch over `text`. The text is retained (the filter is
  // not self-contained, unlike SPINE — part of the trade-off).
  static Result<FrequencyFilterIndex> Build(const Alphabet& alphabet,
                                            std::string_view text,
                                            const Options& options);
  static Result<FrequencyFilterIndex> Build(const Alphabet& alphabet,
                                            std::string_view text) {
    return Build(alphabet, text, Options{});
  }

  uint64_t size() const { return text_.size(); }
  // Bytes of the sketch only (the filter's selling point).
  uint64_t SketchBytes() const;
  // Bytes including the retained text.
  uint64_t MemoryBytes() const { return SketchBytes() + text_.size(); }

  // All windows matching `pattern` within `max_edits` Levenshtein
  // edits; same reporting convention as the kEditDistance query kind
  // (best window per start position). Statistics about the filter
  // phase are written to *frames_pruned / *candidates_verified when
  // non-null.
  std::vector<FilterHit> FindApproximate(std::string_view pattern,
                                         uint32_t max_edits,
                                         uint64_t* frames_pruned = nullptr,
                                         uint64_t* candidates_verified =
                                             nullptr) const;

 private:
  FrequencyFilterIndex(const Alphabet& alphabet, std::string text,
                       uint32_t frame_size, uint32_t gram);

  uint32_t GramAt(uint64_t pos) const;

  Alphabet alphabet_;
  std::string text_;          // decoded characters
  uint32_t frame_size_;
  uint32_t gram_;
  uint32_t dims_;             // sigma^gram
  // frame_counts_[f * dims + g] = grams with id g STARTING in frame f.
  std::vector<uint16_t> frame_counts_;
};

}  // namespace spine::mrs

#endif  // SPINE_MRS_FREQUENCY_FILTER_H_
