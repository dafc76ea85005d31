// Generic SPINE search algorithms, shared by every index implementation
// (reference SpineIndex, CompactSpineIndex, storage::DiskSpine).
//
// An Index must provide:
//   const Alphabet& alphabet() const;
//   uint64_t size() const;
//   NodeId LinkDest(NodeId) const;   uint32_t LinkLel(NodeId) const;
//   StepResult Step(NodeId, Code, uint32_t pathlen, SearchStats*) const;
//
// Three optional capabilities accelerate the walk without changing any
// answer or any SearchStats count (see the concepts below):
//   uint32_t MatchVertebraRun(NodeId, const kernel::EncodedPattern&, size_t)
//       — word-parallel bulk comparison of consecutive vertebra labels
//         via the runtime-dispatched kernels of kernel/kernel.h;
//   const PackedString& labels() — the packed vertebra labels, which
//         let the backbone scan skip nodes whose labels rule them out;
//   void PrefetchNode(NodeId) — prefetch hint ahead of a link/rib hop.

#ifndef SPINE_CORE_SEARCH_H_
#define SPINE_CORE_SEARCH_H_

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "core/spine_index.h"
#include "kernel/kernel.h"
#include "obs/metrics.h"

namespace spine {

// Indexes whose backbone (vertebra) labels can be compared in bulk by
// the active comparison kernel. In-memory backbones (SpineIndex,
// CompactSpineIndex) qualify; paged backends keep the per-step walk so
// their buffer-pool accounting and fault latching stay exact.
template <typename Index>
concept KernelAccelerated =
    requires(const Index& index, const kernel::EncodedPattern& pattern) {
      {
        index.MatchVertebraRun(NodeId{0}, pattern, size_t{0})
      } -> std::convertible_to<uint32_t>;
    };

// Indexes that keep their vertebra labels in a PackedString the
// backbone scan can read in order: SpineIndex and CompactSpineIndex, and
// through them every shard, generalized index and family source.
template <typename Index>
concept LabelPacked = requires(const Index& index) {
  { index.labels() } -> std::same_as<const PackedString&>;
};

// Indexes that can warm caches for a node about to be visited.
template <typename Index>
concept NodePrefetchable = requires(const Index& index) {
  index.PrefetchNode(NodeId{0});
};

// Cancellation (common/cancel.h): every generic takes an optional
// CancelToken and polls it through a CancelCheckpoint every
// kCancelCheckInterval iterations of its dominant loop. On a fired
// token the walk returns early with a partial value; the *caller*
// (core/query.h ExecuteQuery) re-checks the token and converts the
// abandonment into a kDeadlineExceeded / kCancelled result, so a
// partial payload is never reported as kOk. With cancel == nullptr the
// checkpoint is a null test — the hot paths stay kernel-speed
// (overhead measured in docs/PERF.md).

// End node (== end position) of the first occurrence of `pattern`.
template <typename Index>
std::optional<NodeId> GenericFindFirstEnd(const Index& index,
                                          std::string_view pattern,
                                          SearchStats* stats = nullptr,
                                          const CancelToken* cancel = nullptr) {
  NodeId node = kRootNode;
  uint32_t pathlen = 0;
  CancelCheckpoint checkpoint(cancel);
  if constexpr (KernelAccelerated<Index>) {
    // Runs of matching vertebras are consumed word-parallel; Step()
    // only resolves the boundary character (rib lookup / mismatch).
    // A run of k matches counts k nodes checked, exactly like k
    // successful Step calls would.
    const kernel::EncodedPattern encoded(index.alphabet(), pattern);
    size_t i = 0;
    while (i < pattern.size()) {
      if (checkpoint.ShouldStop()) return std::nullopt;
      const uint32_t run = index.MatchVertebraRun(node, encoded, i);
      if (run > 0) {
        if (stats != nullptr) stats->nodes_checked += run;
        node += run;
        pathlen += run;
        i += run;
        if (i == pattern.size()) break;
      }
      const Code c = encoded.code(i);
      if (c == kInvalidCode) return std::nullopt;
      const StepResult step = index.Step(node, c, pathlen, stats);
      if (!step.ok) return std::nullopt;
      node = step.dest;
      ++pathlen;
      ++i;
    }
    return node;
  } else {
    for (char ch : pattern) {
      if (checkpoint.ShouldStop()) return std::nullopt;
      Code c = index.alphabet().Encode(ch);
      if (c == kInvalidCode) return std::nullopt;
      StepResult step = index.Step(node, c, pathlen, stats);
      if (!step.ok) return std::nullopt;
      node = step.dest;
      ++pathlen;
    }
    return node;
  }
}

namespace search_internal {

// One pattern the backbone scan serves: `length` codes whose first
// occurrence ends at node `first_end`.
struct ScanTarget {
  NodeId first_end = 0;
  uint32_t length = 0;
};

// Node `node` ends an occurrence of targets[target].
struct ScanEnd {
  NodeId node = 0;
  uint32_t target = 0;
};

// The paper's target-node-buffer backbone scan, serving every target in
// one pass. Node j ends an occurrence of a target iff LEL(j) >= its
// length and link(j) ends an earlier one, so the pass walks from the
// earliest first occurrence to node n and extends a shared buffer of
// ends. Fills *ends with every occurrence end: the first ends sorted by
// node, then the later ends in increasing node order, so each target's
// ends appear in increasing order. Returns false when `cancel` fired
// (polled before the walk and once per kCancelCheckInterval nodes; the
// ends are then partial).
//
// On LabelPacked backends a node's link is consulted only where the
// last w = min(shortest length, 64 / bits) labels into it equal those
// into some target's first end: if LEL(j) >= m and link(j) ends an
// occurrence, the m labels ending at j spell the pattern, so the test
// never drops an end. It is one masked compare of a rolling 64-bit
// window, screened by a 4096-bit hash filter of the targets' windows.
// Other backends (the paged DiskSpine, forwarding wrappers) consult
// every node's link. Records core.scan_nodes (nodes walked) and
// core.scan_link_tests (links consulted).
template <typename Index>
bool ScanOccurrenceEnds(const Index& index,
                        std::span<const ScanTarget> targets,
                        std::vector<ScanEnd>* ends,
                        const CancelToken* cancel) {
  ends->clear();
  if (targets.empty()) return true;
  uint32_t min_length = targets[0].length;
  for (uint32_t t = 0; t < targets.size(); ++t) {
    ends->push_back({targets[t].first_end, t});
    min_length = std::min(min_length, targets[t].length);
  }
  std::sort(ends->begin(), ends->end(),
            [](const ScanEnd& a, const ScanEnd& b) {
              return a.node != b.node ? a.node < b.node : a.target < b.target;
            });
  const size_t first_count = ends->size();
  const uint64_t first = ends->front().node;
  const uint64_t n = index.size();
  uint64_t link_tests = 0;

  // Appends node j for every target whose occurrence ending at link(j)
  // the LEL covers. Both runs of *ends are sorted, and appends land past
  // the run searched (j > link(j)), so indexing survives reallocation.
  const auto test_link = [&](uint64_t j) {
    ++link_tests;
    const uint32_t lel = index.LinkLel(static_cast<NodeId>(j));
    if (lel < min_length) return;
    const NodeId dest = index.LinkDest(static_cast<NodeId>(j));
    const auto extend = [&](size_t begin, size_t end) {
      size_t i = std::lower_bound(ends->begin() + begin, ends->begin() + end,
                                  dest,
                                  [](const ScanEnd& e, NodeId node) {
                                    return e.node < node;
                                  }) -
                 ends->begin();
      for (; i < end && (*ends)[i].node == dest; ++i) {
        const uint32_t t = (*ends)[i].target;
        if (lel >= targets[t].length) {
          ends->push_back({static_cast<NodeId>(j), t});
        }
      }
    };
    extend(0, first_count);
    extend(first_count, ends->size());
  };
  // The walk polls `cancel` before each block of nodes (so a token
  // fired before the call stops it) and is complete past node n.
  CancelCheckpoint checkpoint(cancel, /*interval=*/1);
  uint64_t j = first + 1;
  uint64_t block_end = first;
  bool stopped = false;
  const auto next_block = [&] {
    stopped = checkpoint.ShouldStop();
    if (stopped || j > n) return false;
    block_end = std::min(n, j + kCancelCheckInterval - 1);
    return true;
  };

  if constexpr (LabelPacked<Index>) {
    const PackedString& labels = index.labels();
    const uint32_t bits = labels.bits_per_code();
    const uint32_t window = std::min<uint32_t>(min_length, 64 / bits);
    const uint64_t mask = window * bits == 64
                              ? ~uint64_t{0}
                              : (uint64_t{1} << (window * bits)) - 1;
    // The next `window` labels, the last in the low bits: the labels
    // into a node when the reader starts `window` labels before it
    // (every first end lies at or past `window`).
    const auto labels_into = [&](PackedString::Reader& reader) {
      uint64_t value = 0;
      for (uint32_t i = 0; i < window; ++i) {
        value = (value << bits) | reader.Next();
      }
      return value;
    };
    const auto slot = [](uint64_t key) {
      return (key * 0x9e3779b97f4a7c15ull) >> 52;
    };
    std::vector<uint64_t> keys;
    std::array<uint64_t, 64> filter{};
    keys.reserve(targets.size());
    for (const ScanTarget& target : targets) {
      PackedString::Reader reader(labels, target.first_end - window);
      keys.push_back(labels_into(reader));
      const uint64_t h = slot(keys.back());
      filter[h >> 6] |= uint64_t{1} << (h & 63);
    }
    std::sort(keys.begin(), keys.end());
    PackedString::Reader reader(labels, first - window);
    uint64_t labels_in = labels_into(reader);
    while (next_block()) {
      for (; j <= block_end; ++j) {
        labels_in = (labels_in << bits) | reader.Next();
        const uint64_t probe = labels_in & mask;
        const uint64_t h = slot(probe);
        if ((filter[h >> 6] >> (h & 63) & 1) != 0 &&
            std::binary_search(keys.begin(), keys.end(), probe)) {
          test_link(j);
        }
      }
    }
  } else {
    while (next_block()) {
      for (; j <= block_end; ++j) test_link(j);
    }
  }
  SPINE_OBS_COUNT("core.scan_nodes", j - first - 1);
  SPINE_OBS_COUNT("core.scan_link_tests", link_tests);
#if defined(SPINE_OBS_DISABLED)
  (void)link_tests;
#endif
  return !stopped;
}

}  // namespace search_internal

// Start positions of every pattern, in increasing order, from one
// backbone scan serving them all: result[p] lists pattern p's starts,
// exactly what GenericFindAll(index, patterns[p]) returns. An empty or
// absent pattern gets an empty list. A token fired before the call
// yields one empty list per pattern.
template <typename Index>
std::vector<std::vector<uint32_t>> GenericFindAllMulti(
    const Index& index, std::span<const std::string_view> patterns,
    SearchStats* stats = nullptr, const CancelToken* cancel = nullptr) {
  std::vector<std::vector<uint32_t>> starts(patterns.size());
  std::vector<search_internal::ScanTarget> targets;
  std::vector<size_t> owner;  // the pattern each target stands for
  for (size_t p = 0; p < patterns.size(); ++p) {
    if (patterns[p].empty()) continue;
    const std::optional<NodeId> first =
        GenericFindFirstEnd(index, patterns[p], stats, cancel);
    if (!first.has_value()) continue;
    targets.push_back({*first, static_cast<uint32_t>(patterns[p].size())});
    owner.push_back(p);
  }
  // The backbone scan is the unbounded part — O(n) over ALL indexed
  // characters regardless of hit count — so this is where a deadline
  // matters most on huge artifacts.
  std::vector<search_internal::ScanEnd> ends;
  if (!search_internal::ScanOccurrenceEnds(index, targets, &ends, cancel)) {
    return std::vector<std::vector<uint32_t>>(patterns.size());
  }
  for (const search_internal::ScanEnd& end : ends) {
    starts[owner[end.target]].push_back(end.node - targets[end.target].length);
  }
  return starts;
}

// All start positions of `pattern`, in increasing order: the one-pattern
// case of the same scan.
template <typename Index>
std::vector<uint32_t> GenericFindAll(const Index& index,
                                     std::string_view pattern,
                                     SearchStats* stats = nullptr,
                                     const CancelToken* cancel = nullptr) {
  if (pattern.empty()) return {};
  const std::optional<NodeId> first =
      GenericFindFirstEnd(index, pattern, stats, cancel);
  if (!first.has_value()) return {};
  const uint32_t m = static_cast<uint32_t>(pattern.size());
  const search_internal::ScanTarget target{*first, m};
  std::vector<search_internal::ScanEnd> ends;
  if (!search_internal::ScanOccurrenceEnds(index, {&target, 1}, &ends,
                                           cancel)) {
    return {};
  }
  std::vector<uint32_t> starts;
  starts.reserve(ends.size());
  for (const search_internal::ScanEnd& end : ends) {
    starts.push_back(end.node - m);
  }
  return starts;
}

}  // namespace spine

#endif  // SPINE_CORE_SEARCH_H_
