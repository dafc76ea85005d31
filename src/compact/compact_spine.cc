#include "compact/compact_spine.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "core/search.h"

namespace spine {

CompactSpineIndex::CompactSpineIndex(const Alphabet& alphabet)
    : alphabet_(alphabet), codes_(alphabet.bits_per_code()) {
  SPINE_CHECK(alphabet.size() <= 127);  // CL fits 7 bits in a rib slot
  lt_word_.push_back(0);  // root entry, unused
  lt_lel_.push_back(0);
  root_rib_dest_.assign(alphabet.size(), kNoNode);
}

uint32_t CompactSpineIndex::LoadU32(const uint8_t* p) const {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void CompactSpineIndex::StoreU32(uint8_t* p, uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}

const uint8_t* CompactSpineIndex::RtEntry(NodeId node) const {
  uint32_t klass = Class(node);
  SPINE_DCHECK(klass >= 1 && klass <= 4);
  return rt_[klass - 1].data() +
         static_cast<uint64_t>(WordValue(node)) * RtStride(klass);
}

uint8_t* CompactSpineIndex::RtEntryMutable(NodeId node) {
  return const_cast<uint8_t*>(RtEntry(node));
}

uint32_t CompactSpineIndex::RibPt(const PackedRib& rib) const {
  return (rib.cl & kPtOverflowFlag) ? overflow_[rib.pt] : rib.pt;
}

uint16_t CompactSpineIndex::EncodeLabel(uint32_t value, bool* overflow) {
  if (value <= 0xffff) {
    *overflow = false;
    return static_cast<uint16_t>(value);
  }
  // The overflow index itself must fit in the 16-bit label slot.
  SPINE_CHECK_MSG(overflow_.size() < 0x10000, "label overflow table full");
  *overflow = true;
  overflow_.push_back(value);
  return static_cast<uint16_t>(overflow_.size() - 1);
}

NodeId CompactSpineIndex::LinkDest(NodeId i) const {
  SPINE_DCHECK(i >= 1 && i < lt_word_.size());
  uint32_t klass = Class(i);
  if (klass == 0) return WordValue(i);
  if (klass == kClassBig) return rt_big_.at(i).link_dest;
  return LoadU32(RtEntry(i));
}

uint32_t CompactSpineIndex::LinkLel(NodeId i) const {
  SPINE_DCHECK(i >= 1 && i < lt_lel_.size());
  if (lt_word_[i] & kLelOverflowBit) return overflow_[lt_lel_[i]];
  return lt_lel_[i];
}

void CompactSpineIndex::PushNode(NodeId dest, uint32_t lel) {
  bool ovf = false;
  uint16_t stored = EncodeLabel(lel, &ovf);
  uint32_t word = dest;  // class 0: the word is the link destination
  if (ovf) word |= kLelOverflowBit;
  lt_word_.push_back(word);
  lt_lel_.push_back(stored);
  max_lel_ = std::max(max_lel_, lel);
}

std::vector<CompactSpineIndex::RibView> CompactSpineIndex::RibsAt(
    NodeId node) const {
  std::vector<RibView> out;
  if (node == kRootNode) {
    for (uint32_t c = 0; c < root_rib_dest_.size(); ++c) {
      if (root_rib_dest_[c] != kNoNode) {
        out.push_back({static_cast<Code>(c), root_rib_dest_[c], 0});
      }
    }
    return out;
  }
  uint32_t klass = Class(node);
  if (klass == 0) return out;
  if (klass == kClassBig) {
    for (const PackedRib& rib : rt_big_.at(node).ribs) {
      out.push_back({static_cast<Code>(rib.cl & kClMask), rib.dest,
                     RibPt(rib)});
    }
    return out;
  }
  const uint8_t* entry = RtEntry(node);
  for (uint32_t k = 0; k < klass; ++k) {
    PackedRib rib;
    std::memcpy(&rib, entry + 4 + 7 * k, sizeof(rib));
    out.push_back(
        {static_cast<Code>(rib.cl & kClMask), rib.dest, RibPt(rib)});
  }
  return out;
}

bool CompactSpineIndex::FindRibAt(NodeId node, Code c, RibView* view) const {
  if (node == kRootNode) {
    if (root_rib_dest_[c] == kNoNode) return false;
    *view = {c, root_rib_dest_[c], 0};
    return true;
  }
  uint32_t klass = Class(node);
  if (klass == 0) return false;
  if (klass == kClassBig) {
    for (const PackedRib& rib : rt_big_.at(node).ribs) {
      if ((rib.cl & kClMask) == c) {
        *view = {c, rib.dest, RibPt(rib)};
        return true;
      }
    }
    return false;
  }
  const uint8_t* entry = RtEntry(node);
  for (uint32_t k = 0; k < klass; ++k) {
    PackedRib rib;
    std::memcpy(&rib, entry + 4 + 7 * k, sizeof(rib));
    if ((rib.cl & kClMask) == c) {
      *view = {c, rib.dest, RibPt(rib)};
      return true;
    }
  }
  return false;
}

void CompactSpineIndex::AddRib(NodeId node, Code c, NodeId dest, uint32_t pt) {
  max_pt_ = std::max(max_pt_, pt);
  if (node == kRootNode) {
    SPINE_DCHECK(root_rib_dest_[c] == kNoNode);
    root_rib_dest_[c] = dest;
    return;
  }
  bool ovf = false;
  PackedRib rib;
  rib.dest = dest;
  rib.pt = EncodeLabel(pt, &ovf);
  rib.cl = static_cast<uint8_t>(c) | (ovf ? kPtOverflowFlag : 0);

  uint32_t klass = Class(node);
  uint32_t flags = lt_word_[node] & (kLelOverflowBit | kHasExtribBit);
  if (klass == kClassBig) {
    rt_big_[node].ribs.push_back(rib);
    return;
  }
  uint32_t link_dest = klass == 0 ? WordValue(node) : LoadU32(RtEntry(node));
  if (klass == 4) {
    // Fan-out 5+: spill to the big map (protein alphabets only).
    BigEntry big;
    big.link_dest = link_dest;
    const uint8_t* entry = RtEntry(node);
    for (uint32_t k = 0; k < 4; ++k) {
      PackedRib old;
      std::memcpy(&old, entry + 4 + 7 * k, sizeof(old));
      big.ribs.push_back(old);
    }
    big.ribs.push_back(rib);
    rt_free_[3].push_back(WordValue(node));
    rt_big_.emplace(node, std::move(big));
    lt_word_[node] = (kClassBig << kClassShift) | flags;
    return;
  }

  // Migrate the node's entry from class `klass` to `klass + 1`.
  uint32_t new_class = klass + 1;
  auto& table = rt_[new_class - 1];
  uint32_t stride = RtStride(new_class);
  uint32_t slot;
  if (!rt_free_[new_class - 1].empty()) {
    slot = rt_free_[new_class - 1].back();
    rt_free_[new_class - 1].pop_back();
  } else {
    slot = static_cast<uint32_t>(table.size() / stride);
    table.resize(table.size() + stride);
  }
  uint8_t* dst = table.data() + static_cast<uint64_t>(slot) * stride;
  StoreU32(dst, link_dest);
  if (klass > 0) {
    const uint8_t* src = RtEntry(node);
    std::memcpy(dst + 4, src + 4, 7 * klass);
    rt_free_[klass - 1].push_back(WordValue(node));
  }
  std::memcpy(dst + 4 + 7 * klass, &rib, sizeof(rib));
  SPINE_CHECK(slot <= kValueMask);
  lt_word_[node] = (new_class << kClassShift) | flags | slot;
}

void CompactSpineIndex::SetExtrib(NodeId node, NodeId dest, uint32_t pt,
                                  uint32_t prt, NodeId parent_dest) {
  SPINE_DCHECK((lt_word_[node] & kHasExtribBit) == 0);
  max_pt_ = std::max(max_pt_, pt);
  max_prt_ = std::max(max_prt_, prt);
  ExtribEntry entry;
  entry.dest = dest;
  entry.parent_dest = parent_dest;
  bool pt_ovf = false, prt_ovf = false;
  entry.pt = EncodeLabel(pt, &pt_ovf);
  entry.prt = EncodeLabel(prt, &prt_ovf);
  entry.flags = (pt_ovf ? 1 : 0) | (prt_ovf ? 2 : 0);
  extribs_.emplace(node, entry);
  lt_word_[node] |= kHasExtribBit;
}

std::optional<CompactSpineIndex::ExtribView>
CompactSpineIndex::ExtribAtInternal(NodeId node) const {
  if (node == kRootNode || (lt_word_[node] & kHasExtribBit) == 0) {
    return std::nullopt;
  }
  const ExtribEntry& e = extribs_.at(node);
  ExtribView view;
  view.dest = e.dest;
  view.parent_dest = e.parent_dest;
  view.pt = (e.flags & 1) ? overflow_[e.pt] : e.pt;
  view.prt = (e.flags & 2) ? overflow_[e.prt] : e.prt;
  return view;
}

std::optional<CompactSpineIndex::ExtribView> CompactSpineIndex::ExtribAt(
    NodeId node) const {
  return ExtribAtInternal(node);
}

void CompactSpineIndex::EnsureOwnedTables() {
  if (backing_ == nullptr) return;
  lt_word_.EnsureOwned();
  lt_lel_.EnsureOwned();
  root_rib_dest_.EnsureOwned();
  for (uint32_t k = 0; k < 4; ++k) {
    rt_[k].EnsureOwned();
    rt_free_[k].EnsureOwned();
  }
  overflow_.EnsureOwned();
  // codes_ materializes itself on its first Append; force it here so
  // the index stops referencing the mapping entirely.
  std::vector<uint64_t> words(codes_.word_data(),
                              codes_.word_data() + codes_.word_count());
  codes_.RestoreFromWords(std::move(words), codes_.size());
  backing_.reset();
}

CompactSpineIndex CompactSpineIndex::Clone() const {
  CompactSpineIndex copy(*this);
  if (!copy.side_maps_in_build_order_) copy.RestoreSideMapBuildOrder();
  return copy;
}

void CompactSpineIndex::RestoreSideMapBuildOrder() {
  // Append creates at most one extrib per appended node t, with
  // destination t, so extribs were created in destination order.
  std::vector<std::pair<uint32_t, uint32_t>> extrib_order;  // (dest, node)
  extrib_order.reserve(extribs_.size());
  for (const auto& [node, entry] : extribs_) {
    extrib_order.emplace_back(entry.dest, node);
  }
  std::sort(extrib_order.begin(), extrib_order.end());
  std::unordered_map<uint32_t, ExtribEntry> extribs;
  for (const auto& [dest, node] : extrib_order) {
    extribs.emplace(node, extribs_.at(node));
  }
  extribs_ = std::move(extribs);

  // A node spills to the big map when its fifth rib, to the appended
  // node t, arrives; one Append visits nodes in descending order.
  std::vector<std::pair<uint32_t, uint32_t>> big_order;  // (t, node)
  big_order.reserve(rt_big_.size());
  for (const auto& [node, big] : rt_big_) {
    big_order.emplace_back(big.ribs.size() > 4 ? big.ribs[4].dest : 0, node);
  }
  std::sort(big_order.begin(), big_order.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second > b.second;
            });
  std::unordered_map<uint32_t, BigEntry> rt_big;
  for (const auto& [dest, node] : big_order) {
    rt_big.emplace(node, std::move(rt_big_.at(node)));
  }
  rt_big_ = std::move(rt_big);
  side_maps_in_build_order_ = true;
}

Status CompactSpineIndex::Append(char ch) {
  EnsureOwnedTables();
  Code c = alphabet_.Encode(ch);
  if (c == kInvalidCode) {
    return Status::InvalidArgument(
        std::string("character '") + ch + "' is not in the " +
        alphabet_.name() + " alphabet");
  }
  if (size() >= kMaxNodes) {
    return Status::ResourceExhausted(
        "compact SPINE supports at most 2^27 - 1 characters");
  }
  const NodeId old_tail = static_cast<NodeId>(size());
  const NodeId t = old_tail + 1;
  codes_.Append(c);

  if (old_tail == kRootNode) {
    PushNode(kRootNode, 0);
    return Status::OK();
  }

  // Identical walk to SpineIndex::Append, expressed over the tables.
  NodeId w = LinkDest(old_tail);
  uint32_t lel = LinkLel(old_tail);
  while (true) {
    if (codes_.Get(w) == c) {
      PushNode(w + 1, lel + 1);
      return Status::OK();
    }
    RibView rib;
    if (!FindRibAt(w, c, &rib)) {
      AddRib(w, c, t, lel);
      if (w == kRootNode) {
        PushNode(kRootNode, 0);
        return Status::OK();
      }
      lel = LinkLel(w);
      w = LinkDest(w);
      continue;
    }
    if (rib.pt >= lel) {
      PushNode(rib.dest, lel + 1);
      return Status::OK();
    }
    NodeId last_sibling_dest = rib.dest;
    uint32_t last_sibling_pt = rib.pt;
    NodeId x = rib.dest;
    while (true) {
      std::optional<ExtribView> e = ExtribAtInternal(x);
      if (!e.has_value()) break;
      if (e->prt == rib.pt && e->parent_dest == rib.dest) {
        if (e->pt >= lel) {
          PushNode(e->dest, lel + 1);
          return Status::OK();
        }
        last_sibling_dest = e->dest;
        last_sibling_pt = e->pt;
      }
      x = e->dest;
    }
    SetExtrib(x, t, lel, rib.pt, rib.dest);
    PushNode(last_sibling_dest, last_sibling_pt + 1);
    return Status::OK();
  }
}

Status CompactSpineIndex::AppendString(std::string_view s) {
  for (char ch : s) {
    SPINE_RETURN_IF_ERROR(Append(ch));
  }
  return Status::OK();
}

uint32_t CompactSpineIndex::MatchVertebraRun(
    NodeId node, const kernel::EncodedPattern& pattern,
    size_t pattern_pos) const {
  const uint64_t limit = std::min<uint64_t>(
      pattern.ValidRunLength(pattern_pos), size() - node);
  if (limit == 0) return 0;
  const uint32_t bits = codes_.bits_per_code();
  return static_cast<uint32_t>(kernel::MatchRunPacked(
      codes_.word_data(), codes_.word_count(),
      static_cast<uint64_t>(node) * bits, pattern.packed().words().data(),
      pattern.packed().words().size(),
      static_cast<uint64_t>(pattern_pos) * bits, limit, bits));
}

StepResult CompactSpineIndex::Step(NodeId node, Code c, uint32_t pathlen,
                                   SearchStats* stats) const {
  StepResult result;
  if (stats != nullptr) ++stats->nodes_checked;
  if (node < size() && codes_.Get(node) == c) {
    result.ok = true;
    result.has_edge = true;
    result.dest = node + 1;
    return result;
  }
  RibView rib;
  if (!FindRibAt(node, c, &rib)) return result;
  result.has_edge = true;
  if (pathlen <= rib.pt) {
    result.ok = true;
    result.dest = rib.dest;
    return result;
  }
  result.fallback_dest = rib.dest;
  result.fallback_pt = rib.pt;
  NodeId x = rib.dest;
  while (true) {
    std::optional<ExtribView> e = ExtribAtInternal(x);
    if (!e.has_value()) break;
    if (stats != nullptr) ++stats->chain_hops;
    if (e->prt == rib.pt && e->parent_dest == rib.dest) {
      if (e->pt >= pathlen) {
        result.ok = true;
        result.dest = e->dest;
        return result;
      }
      result.fallback_dest = e->dest;
      result.fallback_pt = e->pt;
    }
    x = e->dest;
  }
  return result;
}

bool CompactSpineIndex::Contains(std::string_view pattern) const {
  return FindFirstEnd(pattern).has_value();
}

std::optional<NodeId> CompactSpineIndex::FindFirstEnd(
    std::string_view pattern, SearchStats* stats) const {
  return GenericFindFirstEnd(*this, pattern, stats);
}

std::vector<uint32_t> CompactSpineIndex::FindAll(std::string_view pattern,
                                                 SearchStats* stats) const {
  return GenericFindAll(*this, pattern, stats);
}

uint64_t CompactSpineIndex::MemoryBreakdown::Total() const {
  uint64_t total = char_labels + link_table + big_entries + extrib_table +
                   overflow_table;
  for (uint64_t bytes : rib_tables) total += bytes;
  return total;
}

double CompactSpineIndex::MemoryBreakdown::BytesPerChar(uint64_t n) const {
  return n == 0 ? 0.0 : static_cast<double>(Total()) / static_cast<double>(n);
}

CompactSpineIndex::MemoryBreakdown CompactSpineIndex::LogicalBytes() const {
  MemoryBreakdown breakdown;
  const uint64_t n = size();
  breakdown.char_labels = (n * alphabet_.bits_per_code() + 7) / 8;
  breakdown.link_table =
      6 * (n + 1) + root_rib_dest_.size() * sizeof(uint32_t);
  for (uint32_t k = 0; k < 4; ++k) {
    breakdown.rib_tables[k] = rt_[k].size();
  }
  for (const auto& [node, big] : rt_big_) {
    breakdown.big_entries += 4 + 4 + 7 * big.ribs.size();
  }
  breakdown.extrib_table = extribs_.size() * (4 + sizeof(ExtribEntry));
  breakdown.overflow_table = overflow_.size() * sizeof(uint32_t);
  return breakdown;
}

uint64_t CompactSpineIndex::MemoryBytes() const {
  constexpr uint64_t kHashNodeOverhead = 32;
  uint64_t total = codes_.MemoryBytes() +
                   lt_word_.capacity() * sizeof(uint32_t) +
                   lt_lel_.capacity() * sizeof(uint16_t) +
                   root_rib_dest_.capacity() * sizeof(uint32_t) +
                   overflow_.capacity() * sizeof(uint32_t);
  for (uint32_t k = 0; k < 4; ++k) {
    total += rt_[k].capacity() + rt_free_[k].capacity() * sizeof(uint32_t);
  }
  for (const auto& [node, big] : rt_big_) {
    total += sizeof(BigEntry) + big.ribs.capacity() * sizeof(PackedRib) +
             kHashNodeOverhead;
  }
  total += extribs_.size() * (sizeof(ExtribEntry) + 4 + kHashNodeOverhead);
  return total;
}

std::array<uint64_t, 5> CompactSpineIndex::FanoutCounts() const {
  std::array<uint64_t, 5> counts = {0, 0, 0, 0, 0};
  for (NodeId i = 1; i < lt_word_.size(); ++i) {
    uint32_t klass = Class(i);
    if (klass >= 1 && klass <= 4) {
      ++counts[klass - 1];
    } else if (klass == kClassBig) {
      ++counts[4];
    }
  }
  return counts;
}

std::array<uint64_t, 6> CompactSpineIndex::FanoutCountsWithExtribs() const {
  std::array<uint64_t, 6> counts = {0, 0, 0, 0, 0, 0};
  uint64_t root_edges = 0;
  for (uint32_t dest : root_rib_dest_) {
    if (dest != kNoNode) ++root_edges;
  }
  if (root_edges > 0) ++counts[std::min<uint64_t>(root_edges, 6) - 1];
  for (NodeId i = 1; i < lt_word_.size(); ++i) {
    uint32_t klass = Class(i);
    uint64_t edges = klass == kClassBig ? rt_big_.at(i).ribs.size() : klass;
    if (lt_word_[i] & kHasExtribBit) ++edges;
    if (edges == 0) continue;
    ++counts[std::min<uint64_t>(edges, 6) - 1];
  }
  return counts;
}

Status CompactSpineIndex::Validate() const {
  const NodeId n = static_cast<NodeId>(size());
  if (lt_word_.size() != n + 1 || lt_lel_.size() != n + 1) {
    return Status::Corruption("link table size mismatch");
  }
  // Raw-field validation of every rib slot a node can reach. Runs
  // BEFORE any decoded accessor (LinkDest/LinkLel) so that corrupt
  // overflow indexes are caught instead of dereferenced.
  auto check_raw_rib = [&](NodeId node, const PackedRib& rib) -> Status {
    if ((rib.cl & kPtOverflowFlag) && rib.pt >= overflow_.size()) {
      return Status::Corruption("rib PT overflow index out of range at node " +
                                std::to_string(node));
    }
    if ((rib.cl & kClMask) >= alphabet_.size()) {
      return Status::Corruption("invalid rib CL at node " +
                                std::to_string(node));
    }
    if (rib.dest > n) {
      return Status::Corruption("rib destination beyond tail at node " +
                                std::to_string(node));
    }
    if (rib.dest <= node) {
      return Status::Corruption("rib not downstream at node " +
                                std::to_string(node));
    }
    return Status::OK();
  };
  for (uint32_t dest : root_rib_dest_) {
    if (dest != kNoNode && dest > n) {
      return Status::Corruption("root rib destination beyond tail");
    }
  }
  // Append reuses free RT slots in place; one past its table would be
  // written out of bounds.
  for (uint32_t k = 0; k < 4; ++k) {
    const uint64_t slots = rt_[k].size() / RtStride(k + 1);
    for (const uint32_t slot : rt_free_[k]) {
      if (slot >= slots) {
        return Status::Corruption("RT free slot out of range in class " +
                                  std::to_string(k + 1));
      }
    }
  }
  uint64_t extrib_bits = 0;
  for (NodeId i = 1; i <= n; ++i) {
    uint32_t klass = Class(i);
    if (klass > kClassBig) {
      return Status::Corruption("invalid class at node " + std::to_string(i));
    }
    if (klass == kClassBig && rt_big_.find(i) == rt_big_.end()) {
      return Status::Corruption("missing big entry for node " +
                                std::to_string(i));
    }
    if (klass >= 1 && klass <= 4) {
      uint64_t offset =
          static_cast<uint64_t>(WordValue(i)) * RtStride(klass);
      if (offset + RtStride(klass) > rt_[klass - 1].size()) {
        return Status::Corruption("RT pointer out of range at node " +
                                  std::to_string(i));
      }
      const uint8_t* entry = RtEntry(i);
      for (uint32_t k = 0; k < klass; ++k) {
        PackedRib rib;
        std::memcpy(&rib, entry + 4 + 7 * k, sizeof(rib));
        SPINE_RETURN_IF_ERROR(check_raw_rib(i, rib));
      }
    }
    if (klass == kClassBig) {
      for (const PackedRib& rib : rt_big_.at(i).ribs) {
        SPINE_RETURN_IF_ERROR(check_raw_rib(i, rib));
      }
    }
    if ((lt_word_[i] & kLelOverflowBit) && lt_lel_[i] >= overflow_.size()) {
      return Status::Corruption("LEL overflow index out of range at node " +
                                std::to_string(i));
    }
    if (lt_word_[i] & kHasExtribBit) {
      auto it = extribs_.find(i);
      if (it == extribs_.end()) {
        return Status::Corruption("extrib bit without entry at node " +
                                  std::to_string(i));
      }
      const ExtribEntry& e = it->second;
      if (((e.flags & 1) && e.pt >= overflow_.size()) ||
          ((e.flags & 2) && e.prt >= overflow_.size())) {
        return Status::Corruption(
            "extrib overflow index out of range at node " +
            std::to_string(i));
      }
      if (e.dest <= i || e.dest > n || e.parent_dest > n) {
        return Status::Corruption("extrib destinations invalid at node " +
                                  std::to_string(i));
      }
    }
    if (LinkDest(i) >= i) {
      return Status::Corruption("link not upstream at node " +
                                std::to_string(i));
    }
    if (LinkLel(i) > LinkDest(i)) {
      return Status::Corruption("LEL exceeds destination prefix at node " +
                                std::to_string(i));
    }
    if (lt_word_[i] & kHasExtribBit) ++extrib_bits;
  }
  if (extrib_bits != extribs_.size()) {
    return Status::Corruption("extrib bit/entry count mismatch");
  }
  return Status::OK();
}

}  // namespace spine
