#include "align/edit_distance.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

namespace spine::align {

uint32_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<uint32_t> row(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) row[i] = static_cast<uint32_t>(i);
  for (size_t j = 1; j <= b.size(); ++j) {
    uint32_t diagonal = row[0];
    row[0] = static_cast<uint32_t>(j);
    for (size_t i = 1; i <= a.size(); ++i) {
      uint32_t up = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0u : 1u)});
      diagonal = up;
    }
  }
  return row[a.size()];
}

namespace {

// The last row of a band pass: the distances from all of `a` to the
// prefixes b[0..first), b[0..first + 1), ..., each capped at d + 1.
struct LastRow {
  uint32_t first = 0;
  std::span<const uint32_t> cells;
};

// The band's one row, reused by every pass on this thread: a verifier
// allocates only when its budget first grows.
thread_local std::vector<uint32_t> band_row;

// Fills the table D[i][j] = edit distance(a[0..i), b[0..j)) row by row,
// computing only the diagonals |i - j| <= d: any cell off them costs
// more than d, and so does every path through one. Row i is updated in
// place, slot k holding column j = i + k - d; reading slot k (the
// diagonal) and k + 1 (the cell above) before overwriting slot k leaves
// slot k - 1 already holding the cell to the left. A row whose band is
// all past d ends the pass (Ukkonen's cutoff: no later row can come back
// under it). Cost: |a| * (2d + 1) cells at most.
std::optional<LastRow> BandPass(std::string_view a, std::string_view b,
                                uint32_t max_edits) {
  const int64_t m = static_cast<int64_t>(a.size());
  const int64_t w = static_cast<int64_t>(b.size());
  // No cell exceeds max(m, w), so a wider band changes nothing.
  const int64_t d = std::min<int64_t>(max_edits, std::max(m, w));
  const uint32_t kInf = static_cast<uint32_t>(d) + 1;
  // Slots -1 and 2d + 1 stay kInf: the band's edges read them.
  band_row.assign(static_cast<size_t>(2 * d + 3), kInf);
  uint32_t* const slot = band_row.data() + 1;
  for (int64_t j = 0; j <= std::min(w, d); ++j) {
    slot[j + d] = static_cast<uint32_t>(j);
  }
  int64_t lo = 0;
  int64_t hi = std::min(w, d);
  for (int64_t i = 1; i <= m; ++i) {
    lo = std::max<int64_t>(0, i - d);
    hi = std::min(w, i + d);
    if (lo > hi) return std::nullopt;  // the band has left the window
    const char c = a[static_cast<size_t>(i - 1)];
    uint32_t* cell = slot + (lo - i + d);
    uint32_t row_min = kInf;
    int64_t j = lo;
    if (j == 0) {
      *cell++ = static_cast<uint32_t>(i);  // i <= d here
      row_min = static_cast<uint32_t>(i);
      ++j;
    }
    for (const char* column = b.data() + (j - 1); j <= hi;
         ++j, ++cell, ++column) {
      const uint32_t v = std::min(
          std::min(cell[0] + (c == *column ? 0u : 1u),
                   std::min(cell[1], cell[-1]) + 1),
          kInf);
      *cell = v;
      row_min = std::min(row_min, v);
    }
    if (row_min == kInf) return std::nullopt;
  }
  return LastRow{static_cast<uint32_t>(lo),
                 {slot + (lo - m + d), static_cast<size_t>(hi - lo + 1)}};
}

}  // namespace

std::optional<uint32_t> BandedEditDistance(std::string_view a,
                                           std::string_view b,
                                           uint32_t max_edits) {
  const uint64_t len_gap =
      a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  if (len_gap > max_edits) return std::nullopt;
  // Column |b| is then inside the band: the last cell of the last row.
  const std::optional<LastRow> row = BandPass(a, b, max_edits);
  if (!row.has_value() || row->cells.back() > max_edits) return std::nullopt;
  return row->cells.back();
}

std::optional<std::pair<uint32_t, uint32_t>> BestPrefixEditDistance(
    std::string_view pattern, std::string_view window, uint32_t max_edits) {
  const std::optional<LastRow> row = BandPass(pattern, window, max_edits);
  if (!row.has_value()) return std::nullopt;
  // min_element keeps the first, i.e. shortest, of equal distances.
  const auto best = std::min_element(row->cells.begin(), row->cells.end());
  if (*best > max_edits) return std::nullopt;
  return std::make_pair(
      *best, row->first + static_cast<uint32_t>(best - row->cells.begin()));
}

}  // namespace spine::align
