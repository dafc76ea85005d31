// CompactSpineIndex: the paper's Section 5 storage layout.
//
// The reference SpineIndex (core/spine_index.h) favours clarity; this
// class implements the space optimizations the paper uses to reach
// < 12 bytes per indexed character:
//
//  * Implicit vertebras — nodes are physically ordered like the string,
//    so vertebra destinations are never stored; character labels live in
//    a bit-packed array (2 bits for DNA, 5 for protein).
//  * Link Table (LT) — one fixed 6-byte entry per node: a 16-bit LEL
//    and a 32-bit word holding either the link destination (nodes with
//    no forward edges, ~70%) or a pointer into a Rib Table. Three flag
//    bits (RT class), one LEL-overflow bit and one has-extrib bit are
//    stolen from the word's top bits, capping the index at 2^27 nodes
//    (134M characters — comfortably above the paper's 57.5M HC19).
//  * Rib Tables RT1..RT4 — dynamically allocated entries, one table per
//    rib fan-out, each entry holding the node's link destination plus
//    its ribs as packed 7-byte slots (4-byte destination, 2-byte PT,
//    character code). Nodes with more than 4 ribs (possible only for
//    protein alphabets, and rare) spill into a side map. Freed slots
//    (from fan-out growth migrations) are recycled via free lists.
//  * Extrib Table — at most one extrib leaves any node, so extribs live
//    in a side table keyed by source node, with a presence bit in the
//    LT avoiding useless probes. Includes the parent-rib destination
//    (our soundness fix; see DESIGN.md).
//  * Overflow table — numeric labels are 16-bit; the rare label > 65535
//    stores an overflow-table index instead, marked by a flag bit
//    (paper Section 5.1 "Small Numeric Label Values").
//
// Construction and search implement exactly the same algorithm as the
// reference index; tests assert node-by-node equivalence.
//
// Thread safety: as for SpineIndex — concurrent const access is fine
// after construction completes; Append is single-threaded.

#ifndef SPINE_COMPACT_COMPACT_SPINE_H_
#define SPINE_COMPACT_COMPACT_SPINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "alphabet/alphabet.h"
#include "alphabet/packed_string.h"
#include "common/borrow_vec.h"
#include "common/status.h"
#include "core/spine_index.h"  // NodeId, StepResult, SearchStats

namespace spine {

class CompactSpineIndex {
 public:
  // Largest supported string length (27-bit node ids; see header note).
  static constexpr uint64_t kMaxNodes = (1u << 27) - 1;

  explicit CompactSpineIndex(const Alphabet& alphabet);

  CompactSpineIndex(CompactSpineIndex&&) = default;
  CompactSpineIndex& operator=(CompactSpineIndex&&) = default;

  // A copy that keeps appending where this index stops (compaction by
  // extension, shard/dynamic_family.h). Borrowed tables stay borrowed,
  // with their keepalive, until the copy's first Append materializes
  // them, so a mapping is never written. Save writes canonical bytes,
  // so however this index was opened, the copy extended by some
  // characters saves the same bytes as an index built from scratch over
  // all of them.
  CompactSpineIndex Clone() const;

  // --- Construction -------------------------------------------------------

  Status Append(char c);
  Status AppendString(std::string_view s);

  // --- Accessors ----------------------------------------------------------

  const Alphabet& alphabet() const { return alphabet_; }
  uint64_t size() const { return codes_.size(); }
  Code CodeAt(uint64_t i) const { return codes_.Get(i); }
  char CharAt(uint64_t i) const { return alphabet_.Decode(codes_.Get(i)); }
  // The CL array, code i on the edge i -> i+1 (core/search.h's backbone
  // scan reads it in order).
  const PackedString& labels() const { return codes_; }

  NodeId LinkDest(NodeId i) const;
  uint32_t LinkLel(NodeId i) const;

  // Logical rib/extrib views (decoded from the tables).
  struct RibView {
    Code cl;
    NodeId dest;
    uint32_t pt;
  };
  struct ExtribView {
    NodeId dest;
    uint32_t pt;
    uint32_t prt;
    NodeId parent_dest;
  };
  // Ribs at a node, unordered. Root ribs report pt == 0.
  std::vector<RibView> RibsAt(NodeId node) const;
  std::optional<ExtribView> ExtribAt(NodeId node) const;

  // --- Search -------------------------------------------------------------

  StepResult Step(NodeId node, Code c, uint32_t pathlen,
                  SearchStats* stats = nullptr) const;

  // Number of consecutive vertebra edges matched starting at `node`
  // against pattern codes [pattern_pos, ...): a word-parallel compare
  // of the bit-packed CL array against the pre-packed pattern (32
  // bases per 64-bit word for DNA) via the active kernel. Counted like
  // that many successful Step calls.
  uint32_t MatchVertebraRun(NodeId node, const kernel::EncodedPattern& pattern,
                            size_t pattern_pos) const;

  // Hints the hardware prefetcher at this node's Link Table entry,
  // issued by the matcher right before a link/rib chain hop lands
  // there.
  void PrefetchNode(NodeId node) const {
    __builtin_prefetch(lt_word_.data() + node);
    __builtin_prefetch(lt_lel_.data() + node);
  }

  bool Contains(std::string_view pattern) const;
  std::optional<NodeId> FindFirstEnd(std::string_view pattern,
                                     SearchStats* stats = nullptr) const;
  std::vector<uint32_t> FindAll(std::string_view pattern,
                                SearchStats* stats = nullptr) const;

  // --- Space accounting (Fig. 6 memory budget / space-per-char bench) ----

  struct MemoryBreakdown {
    uint64_t char_labels = 0;     // packed CL bits
    uint64_t link_table = 0;      // 6 bytes/node
    std::array<uint64_t, 4> rib_tables = {0, 0, 0, 0};
    uint64_t big_entries = 0;     // fan-out > 4 spill (protein only)
    uint64_t extrib_table = 0;
    uint64_t overflow_table = 0;
    uint64_t Total() const;
    double BytesPerChar(uint64_t n) const;
  };
  // Logical sizes: what the tables contain (the paper's accounting).
  MemoryBreakdown LogicalBytes() const;
  // Actual process memory including container/hash overheads.
  uint64_t MemoryBytes() const;

  // Label maxima observed during construction (Table 3).
  uint32_t max_lel() const { return max_lel_; }
  uint32_t max_pt() const { return max_pt_; }
  uint32_t max_prt() const { return max_prt_; }

  // Number of nodes per rib fan-out class: index 0 -> RT1, ... index 3
  // -> RT4, index 4 -> spilled big entries (Table 4).
  std::array<uint64_t, 5> FanoutCounts() const;
  // The paper's Table 4 counting, where a node's extrib counts as one
  // more forward edge: index k-1 -> nodes with k ribs+extribs (k = 1..5),
  // index 5 -> more than 5.
  std::array<uint64_t, 6> FanoutCountsWithExtribs() const;
  uint64_t extrib_count() const { return extribs_.size(); }

  // --- Diagnostics --------------------------------------------------------

  Status Validate() const;

 private:
  friend class CompactSpineSerializer;

  // Only Clone() copies, so no multi-megabyte copy happens by accident.
  CompactSpineIndex(const CompactSpineIndex&) = default;
  CompactSpineIndex& operator=(const CompactSpineIndex&) = delete;

  // LT word layout.
  static constexpr uint32_t kClassShift = 29;          // 3 bits: 0..5
  static constexpr uint32_t kLelOverflowBit = 1u << 28;
  static constexpr uint32_t kHasExtribBit = 1u << 27;
  static constexpr uint32_t kValueMask = (1u << 27) - 1;
  static constexpr uint32_t kClassBig = 5;

  // A packed rib slot: 7 bytes. cl bit 7 flags PT overflow.
  struct PackedRib {
    uint32_t dest;
    uint16_t pt;
    uint8_t cl;
  } __attribute__((packed));
  static_assert(sizeof(PackedRib) == 7);
  static constexpr uint8_t kPtOverflowFlag = 0x80;
  static constexpr uint8_t kClMask = 0x7f;

  struct ExtribEntry {
    uint32_t dest;
    uint32_t parent_dest;
    uint16_t pt;
    uint16_t prt;
    uint8_t flags;  // bit 0: pt overflow; bit 1: prt overflow
  } __attribute__((packed));
  static_assert(sizeof(ExtribEntry) == 13);

  struct BigEntry {
    uint32_t link_dest;
    std::vector<PackedRib> ribs;
  };

  static uint32_t RtStride(uint32_t klass) { return 4 + 7 * klass; }

  uint32_t Class(NodeId node) const {
    return lt_word_[node] >> kClassShift;
  }
  uint32_t WordValue(NodeId node) const { return lt_word_[node] & kValueMask; }

  // Raw entry pointer for a node in RT class 1..4.
  const uint8_t* RtEntry(NodeId node) const;
  uint8_t* RtEntryMutable(NodeId node);

  uint32_t LoadU32(const uint8_t* p) const;
  void StoreU32(uint8_t* p, uint32_t v);

  uint32_t RibPt(const PackedRib& rib) const;
  uint16_t EncodeLabel(uint32_t value, bool* overflow);

  // Finds the rib for code c at a (non-root) node; fills *view.
  bool FindRibAt(NodeId node, Code c, RibView* view) const;
  void AddRib(NodeId node, Code c, NodeId dest, uint32_t pt);
  void SetExtrib(NodeId node, NodeId dest, uint32_t pt, uint32_t prt,
                 NodeId parent_dest);
  std::optional<ExtribView> ExtribAtInternal(NodeId node) const;

  void PushNode(NodeId dest, uint32_t lel);  // appends the LT entry

  // Copies every borrowed table (and the packed labels) into owned
  // storage so mutation never writes through a read-only mapping.
  // Called at the top of Append; a heap-built index pays one branch.
  void EnsureOwnedTables();

  Alphabet alphabet_;
  PackedString codes_;

  // Flat tables are BorrowVecs: a built index owns them, an opened one
  // points them into the image it was loaded from, a mapping or a heap
  // buffer (kept alive by backing_). The hash maps below are always
  // rebuilt at open.
  BorrowVec<uint32_t> lt_word_;  // entry 0 (root) unused
  BorrowVec<uint16_t> lt_lel_;

  // Root forward edges: dest per code (PT is always 0 at the root).
  BorrowVec<uint32_t> root_rib_dest_;

  std::array<BorrowVec<uint8_t>, 4> rt_;        // classes 1..4
  std::array<BorrowVec<uint32_t>, 4> rt_free_;  // recycled entry offsets
  std::unordered_map<uint32_t, BigEntry> rt_big_;
  std::unordered_map<uint32_t, ExtribEntry> extribs_;
  BorrowVec<uint32_t> overflow_;  // label overflow values

  // Keeps the image (a mapping or a heap buffer) alive while any table
  // borrows from it.
  std::shared_ptr<const void> backing_;

  uint32_t max_lel_ = 0;
  uint32_t max_pt_ = 0;
  uint32_t max_prt_ = 0;
};

}  // namespace spine

#endif  // SPINE_COMPACT_COMPACT_SPINE_H_
