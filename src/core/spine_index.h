// SpineIndex: the reference implementation of the SPINE index
// (Neelapala, Mittal, Haritsa, "SPINE: Putting Backbone into String
// Indexing", ICDE 2004).
//
// SPINE is a complete horizontal compaction of the suffix trie of a
// string s of length n: the whole trie collapses onto a linear backbone
// of nodes 0..n, where node i stands for the prefix s[0..i) and the
// vertebra edge i -> i+1 carries the character s[i]. Node i also stands
// for every substring whose *first* occurrence in s ends at position i.
//
// Components (Section 2 of the paper):
//  - link(i) / LEL(i): upstream edge to the node where the longest
//    early-terminating suffix of prefix i terminates. Semantically,
//    LEL(i) is the length of the longest suffix of s[0..i) that also
//    occurs ending before i, and link(i) is the end of its first
//    occurrence.
//  - ribs: downstream edges created when a suffix that terminated early
//    must be extended by a newly appended character. A rib at node w
//    with character c and pathlength threshold PT certifies: every
//    string of length <= PT that first-ends at w is followed by c, and
//    that extension first-ends at the rib's destination.
//  - extribs: chained extensions of a rib whose PT was too small; each
//    carries PT (new covered length) and PRT (the parent rib's PT,
//    disambiguating parents within a shared chain).
//
// A search path is valid only while every rib/extrib it takes satisfies
// current_pathlength <= PT; this rule eliminates the false positives
// horizontal compaction would otherwise introduce.
//
// This class favours clarity and testability; the byte-exact layout of
// the paper's Section 5 lives in compact/compact_spine.h.
//
// Thread safety: const methods are safe to call concurrently once
// construction (Append) has finished; Append itself is not thread-safe.

#ifndef SPINE_CORE_SPINE_INDEX_H_
#define SPINE_CORE_SPINE_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "alphabet/alphabet.h"
#include "alphabet/packed_string.h"
#include "common/status.h"
#include "kernel/kernel.h"

namespace spine {

using NodeId = uint32_t;
inline constexpr NodeId kRootNode = 0;
inline constexpr NodeId kNoNode = 0xffffffffu;

// Counters for the "number of nodes checked" comparison (Table 6).
struct SearchStats {
  uint64_t nodes_checked = 0;   // nodes at which an edge lookup happened
  uint64_t link_traversals = 0; // upstream link hops
  uint64_t chain_hops = 0;      // extrib chain elements examined

  void Add(const SearchStats& o) {
    nodes_checked += o.nodes_checked;
    link_traversals += o.link_traversals;
    chain_hops += o.chain_hops;
  }
};

// Result of resolving one forward step during a search. Shared by every
// index implementation (reference, compact, disk-resident).
struct StepResult {
  bool ok = false;           // a valid edge was taken
  bool has_edge = false;     // an edge for the code exists at the node
  NodeId dest = kNoNode;     // destination when ok
  // When a rib exists but every threshold fails: the deepest
  // rib/sibling-extrib, i.e. the longest pathlength that *is*
  // extendable by this code at the node. Used for set-based shrinking.
  NodeId fallback_dest = kNoNode;
  uint32_t fallback_pt = 0;
};

class SpineIndex {
 public:
  struct Rib {
    NodeId dest = kNoNode;
    uint32_t pt = 0;
  };

  struct Extrib {
    NodeId dest = kNoNode;
    uint32_t pt = 0;
    uint32_t prt = 0;
    // Destination node of the parent rib. DEVIATION FROM THE PAPER: the
    // paper identifies an extrib's parent within a shared chain by PRT
    // alone, but two ribs with equal PTs (at different nodes, created in
    // different append steps) can have their chains merge, making PRT
    // ambiguous — we found concrete counterexamples where this yields
    // wrong LEL values and false positives. (parent_dest, prt) is
    // globally unique: ribs created in the same step share their
    // destination but have strictly decreasing PTs, and ribs from
    // different steps have different destinations.
    NodeId parent_dest = kNoNode;
  };

  explicit SpineIndex(const Alphabet& alphabet);

  SpineIndex(const SpineIndex&) = delete;
  SpineIndex& operator=(const SpineIndex&) = delete;
  SpineIndex(SpineIndex&&) = default;
  SpineIndex& operator=(SpineIndex&&) = default;

  // --- Construction (online; Section 3) ---------------------------------

  // Appends one character. Fails if the character is outside the
  // alphabet (the index is unchanged in that case).
  Status Append(char c);
  Status AppendString(std::string_view s);

  // --- Basic accessors ---------------------------------------------------

  const Alphabet& alphabet() const { return alphabet_; }
  // Number of indexed characters; node ids run 0..size().
  uint64_t size() const { return codes_.size(); }
  Code CodeAt(uint64_t i) const { return codes_.Get(i); }
  char CharAt(uint64_t i) const { return alphabet_.Decode(codes_.Get(i)); }
  // The vertebra labels, code i on the edge i -> i+1 (core/search.h's
  // backbone scan reads them in order).
  const PackedString& labels() const { return codes_; }
  // Reconstructs the indexed string (the index is self-contained; the
  // original string is not retained separately).
  std::string ReconstructString() const;

  NodeId LinkDest(NodeId i) const { return link_dest_[i]; }
  uint32_t LinkLel(NodeId i) const { return link_lel_[i]; }

  // Rib lookup at a node; nullptr when absent.
  const Rib* FindRib(NodeId node, Code c) const;
  // Outgoing extrib at a node; nullptr when absent.
  const Extrib* FindExtrib(NodeId node) const;

  uint64_t rib_count() const { return ribs_.size(); }
  uint64_t extrib_count() const { return extribs_.size(); }

  // Visits every rib as (source, code, rib) in unspecified order.
  template <typename Fn>
  void ForEachRib(Fn&& fn) const {
    for (const auto& [key, rib] : ribs_) {
      fn(static_cast<NodeId>(key >> 8), static_cast<Code>(key & 0xff), rib);
    }
  }

  // Visits every extrib as (source, extrib) in unspecified order.
  template <typename Fn>
  void ForEachExtrib(Fn&& fn) const {
    for (const auto& [source, e] : extribs_) fn(source, e);
  }

  // Approximate heap bytes used by this (clarity-first) representation.
  uint64_t MemoryBytes() const;

  // --- Search (Section 4) -------------------------------------------------

  // Resolves a single forward step from `node` with matched pathlength
  // `pathlen` on code `c`, applying the PT threshold rules.
  StepResult Step(NodeId node, Code c, uint32_t pathlen,
                  SearchStats* stats = nullptr) const;

  // Number of consecutive vertebra edges matched starting at `node`
  // against pattern codes [pattern_pos, ...), compared word-parallel by
  // the active kernel (kernel/kernel.h). Bounded by the pattern's
  // valid-code run and the backbone end; 0 on an immediate mismatch.
  // Equivalent to (and counted like) that many successful Step calls.
  uint32_t MatchVertebraRun(NodeId node, const kernel::EncodedPattern& pattern,
                            size_t pattern_pos) const;

  // Hints the hardware prefetcher at this node's link entry, issued by
  // the matcher right before a link/rib chain hop lands there.
  void PrefetchNode(NodeId node) const {
    __builtin_prefetch(link_dest_.data() + node);
    __builtin_prefetch(link_lel_.data() + node);
  }

  // True iff `pattern` is a substring of the indexed string.
  bool Contains(std::string_view pattern) const;

  // End node (== end position) of the first occurrence of `pattern`, or
  // nullopt if the pattern does not occur / contains foreign characters.
  // The empty pattern ends at the root.
  std::optional<NodeId> FindFirstEnd(std::string_view pattern,
                                     SearchStats* stats = nullptr) const;

  // All start positions of `pattern`, in increasing order. Implements
  // the paper's backbone scan over the target node buffer.
  std::vector<uint32_t> FindAll(std::string_view pattern,
                                SearchStats* stats = nullptr) const;

  // --- Diagnostics --------------------------------------------------------

  // Structural invariant check; O(n + edges). Returns the first
  // violation found.
  Status Validate() const;

  // Full dump of nodes and edges; intended for small indexes.
  std::string DebugString() const;

 private:
  uint64_t RibKey(NodeId node, Code c) const {
    return (static_cast<uint64_t>(node) << 8) | c;
  }

  void SetLink(NodeId node, NodeId dest, uint32_t lel);

  Alphabet alphabet_;
  PackedString codes_;

  // Entry i describes node i's upstream link; entry 0 (root) is unused.
  std::vector<NodeId> link_dest_;
  std::vector<uint32_t> link_lel_;

  // Sparse forward edges: ~30% of nodes carry any (paper Table 4).
  std::unordered_map<uint64_t, Rib> ribs_;       // key: (node << 8) | code
  std::unordered_map<NodeId, Extrib> extribs_;   // key: source node
};

}  // namespace spine

#endif  // SPINE_CORE_SPINE_INDEX_H_
