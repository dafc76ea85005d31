#include "storage/disk_spine.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/check.h"
#include "common/serde.h"
#include "core/search.h"

namespace spine::storage {

namespace {
constexpr uint32_t kMetaMagic = 0x5350444d;  // "SPDM"
constexpr uint32_t kMetaVersion = 2;         // v2: CRC32C footer

struct SlotPair {
  uint32_t node;
  uint32_t slot;
};
}  // namespace

// --- PagedCodes -----------------------------------------------------------

PagedCodes::PagedCodes(BufferPool* pool, PageAllocator* allocator,
                       uint32_t bits)
    : pool_(pool), allocator_(allocator), bits_(bits) {
  SPINE_CHECK(bits >= 1 && bits <= 8);
  codes_per_page_ = kPagePayloadSize * 8 / bits;  // codes never straddle pages
}

void PagedCodes::Append(Code code) {
  uint64_t slot = size_ % codes_per_page_;
  if (slot == 0) page_table_.push_back(allocator_->Allocate());
  ++size_;
  uint8_t* page = pool_->FetchPage(page_table_.back(), true);
  if (page == nullptr) return;  // error latched on the pool
  uint64_t bit_pos = slot * bits_;
  uint64_t byte = bit_pos / 8;
  uint32_t offset = static_cast<uint32_t>(bit_pos % 8);
  if (offset + bits_ <= 8) {
    page[byte] = static_cast<uint8_t>(page[byte] | (code << offset));
  } else {
    // Codes never straddle pages (floor division in codes_per_page_),
    // so a byte-straddling code always has byte + 1 within the page.
    uint16_t word;
    std::memcpy(&word, page + byte, sizeof(word));
    word =
        static_cast<uint16_t>(word | (static_cast<uint16_t>(code) << offset));
    std::memcpy(page + byte, &word, sizeof(word));
  }
}

Code PagedCodes::Get(uint64_t index) const {
  SPINE_DCHECK(index < size_);
  const uint8_t* page =
      pool_->FetchPage(page_table_[index / codes_per_page_], false);
  if (page == nullptr) return 0;  // error latched on the pool
  uint64_t bit_pos = (index % codes_per_page_) * bits_;
  uint64_t byte = bit_pos / 8;
  uint32_t offset = static_cast<uint32_t>(bit_pos % 8);
  uint32_t value;
  if (offset + bits_ <= 8) {
    value = page[byte] >> offset;
  } else {
    uint16_t word;
    std::memcpy(&word, page + byte, sizeof(word));
    value = word >> offset;
  }
  return static_cast<Code>(value & ((1u << bits_) - 1));
}

Status PagedCodes::Restore(uint64_t size, std::vector<uint64_t> page_table) {
  uint64_t want = (size + codes_per_page_ - 1) / codes_per_page_;
  if (page_table.size() != want) {
    return Status::Corruption(
        "paged codes metadata: " + std::to_string(page_table.size()) +
        " pages listed, " + std::to_string(want) + " required");
  }
  size_ = size;
  page_table_ = std::move(page_table);
  return Status::OK();
}

// --- DiskSpine ------------------------------------------------------------

DiskSpine::DiskSpine(const Alphabet& alphabet, PageFile file,
                     const Options& options)
    : alphabet_(alphabet),
      file_(std::move(file)),
      pool_(&file_, options.pool_frames, options.policy),
      codes_(&pool_, &allocator_, alphabet.bits_per_code()),
      lt_(&pool_, &allocator_),
      extrib_records_(&pool_, &allocator_) {
  for (uint32_t k = 0; k < 4; ++k) {
    rt_[k] = std::make_unique<PagedRecordArray>(&pool_, &allocator_,
                                                4 + 7 * (k + 1));
  }
  root_rib_dest_.assign(alphabet.size(), kNoNode);
}

Result<std::unique_ptr<DiskSpine>> DiskSpine::Create(const Alphabet& alphabet,
                                                     const std::string& path,
                                                     const Options& options) {
  SPINE_CHECK(alphabet.size() <= 127);
  Result<PageFile> file =
      PageFile::Create(path, options.sync_mode, options.backend);
  if (!file.ok()) return file.status();
  std::unique_ptr<DiskSpine> index(
      new DiskSpine(alphabet, std::move(file).value(), options));
  index->meta_path_ = path + ".meta";
  index->lt_.Append(LtRecord{0, 0});  // root entry, unused
  SPINE_RETURN_IF_ERROR(index->PoolStatus());
  return index;
}

void DiskSpine::LatchCorruption(const std::string& message) const {
  if (struct_error_.ok()) struct_error_ = Status::Corruption(message);
}

Status DiskSpine::ConsumeError() const {
  if (pool_.has_error()) {
    struct_error_ = Status::OK();
    return pool_.ConsumeError();
  }
  Status status = std::move(struct_error_);
  struct_error_ = Status::OK();
  return status;
}

uint16_t DiskSpine::EncodeLabel(uint32_t value, bool* overflow) {
  if (value <= 0xffff) {
    *overflow = false;
    return static_cast<uint16_t>(value);
  }
  SPINE_CHECK_MSG(overflow_.size() < 0x10000, "label overflow table full");
  *overflow = true;
  overflow_.push_back(value);
  return static_cast<uint16_t>(overflow_.size() - 1);
}

uint32_t DiskSpine::RibPt(const PackedRib& rib) const {
  if (rib.cl & kPtOverflowFlag) {
    if (rib.pt >= overflow_.size()) {
      LatchCorruption("rib PT overflow index out of range");
      return 0;
    }
    return overflow_[rib.pt];
  }
  return rib.pt;
}

NodeId DiskSpine::LinkDest(NodeId i) const {
  LtRecord record = lt_.Get(i);
  uint32_t klass = record.word >> kClassShift;
  if (klass == 0) return record.word & kValueMask;
  if (klass == kClassBig) {
    auto it = rt_big_.find(i);
    if (it == rt_big_.end()) {
      LatchCorruption("big rib entry missing for node " + std::to_string(i));
      return kRootNode;
    }
    return it->second.link_dest;
  }
  if (klass > 4) {
    LatchCorruption("invalid rib class for node " + std::to_string(i));
    return kRootNode;
  }
  uint8_t entry[32];
  rt_[klass - 1]->Read(record.word & kValueMask, entry);
  uint32_t dest;
  std::memcpy(&dest, entry, 4);
  return dest;
}

uint32_t DiskSpine::LinkLel(NodeId i) const {
  LtRecord record = lt_.Get(i);
  if (record.word & kLelOverflowBit) {
    if (record.lel >= overflow_.size()) {
      LatchCorruption("LEL overflow index out of range");
      return 0;
    }
    return overflow_[record.lel];
  }
  return record.lel;
}

void DiskSpine::PushNode(NodeId dest, uint32_t lel) {
  bool ovf = false;
  uint16_t stored = EncodeLabel(lel, &ovf);
  uint32_t word = dest;
  if (ovf) word |= kLelOverflowBit;
  lt_.Append(LtRecord{word, stored});
}

bool DiskSpine::FindRibAt(NodeId node, Code c, RibView* view) const {
  if (node == kRootNode) {
    if (root_rib_dest_[c] == kNoNode) return false;
    *view = {c, root_rib_dest_[c], 0};
    return true;
  }
  LtRecord record = lt_.Get(node);
  uint32_t klass = record.word >> kClassShift;
  if (klass == 0) return false;
  if (klass == kClassBig) {
    auto it = rt_big_.find(node);
    if (it == rt_big_.end()) {
      LatchCorruption("big rib entry missing for node " +
                      std::to_string(node));
      return false;
    }
    for (const PackedRib& rib : it->second.ribs) {
      if ((rib.cl & kClMask) == c) {
        *view = {c, rib.dest, RibPt(rib)};
        return true;
      }
    }
    return false;
  }
  if (klass > 4) {
    LatchCorruption("invalid rib class for node " + std::to_string(node));
    return false;
  }
  uint8_t entry[32];
  rt_[klass - 1]->Read(record.word & kValueMask, entry);
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

void DiskSpine::AddRib(NodeId node, Code c, NodeId dest, uint32_t pt) {
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

  LtRecord record = lt_.Get(node);
  uint32_t klass = record.word >> kClassShift;
  uint32_t flags = record.word & (kLelOverflowBit | kHasExtribBit);
  if (klass == kClassBig) {
    rt_big_[node].ribs.push_back(rib);
    return;
  }

  uint8_t old_entry[32];
  uint32_t link_dest;
  if (klass == 0) {
    link_dest = record.word & kValueMask;
  } else {
    rt_[klass - 1]->Read(record.word & kValueMask, old_entry);
    std::memcpy(&link_dest, old_entry, 4);
  }

  if (klass == 4) {
    BigEntry big;
    big.link_dest = link_dest;
    for (uint32_t k = 0; k < 4; ++k) {
      PackedRib old;
      std::memcpy(&old, old_entry + 4 + 7 * k, sizeof(old));
      big.ribs.push_back(old);
    }
    big.ribs.push_back(rib);
    rt_free_[3].push_back(record.word & kValueMask);
    rt_big_.emplace(node, std::move(big));
    lt_.Set(node, LtRecord{(kClassBig << kClassShift) | flags, record.lel});
    return;
  }

  uint32_t new_class = klass + 1;
  uint8_t new_entry[32];
  std::memcpy(new_entry, &link_dest, 4);
  if (klass > 0) {
    std::memcpy(new_entry + 4, old_entry + 4, 7 * klass);
    rt_free_[klass - 1].push_back(record.word & kValueMask);
  }
  std::memcpy(new_entry + 4 + 7 * klass, &rib, sizeof(rib));

  uint32_t slot;
  if (!rt_free_[new_class - 1].empty()) {
    slot = rt_free_[new_class - 1].back();
    rt_free_[new_class - 1].pop_back();
    rt_[new_class - 1]->Write(slot, new_entry);
  } else {
    slot = static_cast<uint32_t>(rt_[new_class - 1]->Append(new_entry));
  }
  SPINE_CHECK(slot <= kValueMask);
  lt_.Set(node,
          LtRecord{(new_class << kClassShift) | flags | slot, record.lel});
}

void DiskSpine::SetExtrib(NodeId node, NodeId dest, uint32_t pt, uint32_t prt,
                          NodeId parent_dest) {
  ExtribRecord record;
  record.dest = dest;
  record.parent_dest = parent_dest;
  bool pt_ovf = false, prt_ovf = false;
  record.pt = EncodeLabel(pt, &pt_ovf);
  record.prt = EncodeLabel(prt, &prt_ovf);
  record.flags = (pt_ovf ? 1 : 0) | (prt_ovf ? 2 : 0);
  uint32_t slot = static_cast<uint32_t>(extrib_records_.Append(record));
  extrib_slot_.emplace(node, slot);
  LtRecord lt = lt_.Get(node);
  lt.word |= kHasExtribBit;
  lt_.Set(node, lt);
}

std::optional<DiskSpine::ExtribView> DiskSpine::ExtribAt(NodeId node) const {
  if (node == kRootNode) return std::nullopt;
  LtRecord record = lt_.Get(node);
  if ((record.word & kHasExtribBit) == 0) return std::nullopt;
  auto it = extrib_slot_.find(node);
  if (it == extrib_slot_.end()) {
    LatchCorruption("extrib directory entry missing for node " +
                    std::to_string(node));
    return std::nullopt;
  }
  ExtribRecord e = extrib_records_.Get(it->second);
  ExtribView view;
  view.dest = e.dest;
  view.parent_dest = e.parent_dest;
  if ((e.flags & 1) && e.pt >= overflow_.size()) {
    LatchCorruption("extrib PT overflow index out of range");
    return std::nullopt;
  }
  if ((e.flags & 2) && e.prt >= overflow_.size()) {
    LatchCorruption("extrib PRT overflow index out of range");
    return std::nullopt;
  }
  view.pt = (e.flags & 1) ? overflow_[e.pt] : e.pt;
  view.prt = (e.flags & 2) ? overflow_[e.prt] : e.prt;
  return view;
}

Status DiskSpine::Append(char ch) {
  Code c = alphabet_.Encode(ch);
  if (c == kInvalidCode) {
    return Status::InvalidArgument(
        std::string("character '") + ch + "' is not in the " +
        alphabet_.name() + " alphabet");
  }
  if (size() >= kValueMask) {
    return Status::ResourceExhausted("disk SPINE node limit reached");
  }
  const NodeId old_tail = static_cast<NodeId>(size());
  const NodeId t = old_tail + 1;
  codes_.Append(c);
  if (has_io_error()) return ConsumeError();

  if (old_tail == kRootNode) {
    PushNode(kRootNode, 0);
    return PoolStatus();
  }
  NodeId w = LinkDest(old_tail);
  uint32_t lel = LinkLel(old_tail);
  while (true) {
    if (has_io_error()) return ConsumeError();
    if (codes_.Get(w) == c && !has_io_error()) {
      PushNode(w + 1, lel + 1);
      return PoolStatus();
    }
    RibView rib;
    if (!FindRibAt(w, c, &rib)) {
      if (has_io_error()) return ConsumeError();
      AddRib(w, c, t, lel);
      if (w == kRootNode) {
        PushNode(kRootNode, 0);
        return PoolStatus();
      }
      lel = LinkLel(w);
      w = LinkDest(w);
      continue;
    }
    if (rib.pt >= lel) {
      PushNode(rib.dest, lel + 1);
      return PoolStatus();
    }
    NodeId last_sibling_dest = rib.dest;
    uint32_t last_sibling_pt = rib.pt;
    NodeId x = rib.dest;
    while (true) {
      if (has_io_error()) return ConsumeError();
      std::optional<ExtribView> e = ExtribAt(x);
      if (!e.has_value()) break;
      if (e->prt == rib.pt && e->parent_dest == rib.dest) {
        if (e->pt >= lel) {
          PushNode(e->dest, lel + 1);
          return PoolStatus();
        }
        last_sibling_dest = e->dest;
        last_sibling_pt = e->pt;
      }
      x = e->dest;
    }
    SetExtrib(x, t, lel, rib.pt, rib.dest);
    PushNode(last_sibling_dest, last_sibling_pt + 1);
    return PoolStatus();
  }
}

Status DiskSpine::AppendString(std::string_view s) {
  for (char ch : s) {
    SPINE_RETURN_IF_ERROR(Append(ch));
  }
  return Status::OK();
}

StepResult DiskSpine::Step(NodeId node, Code c, uint32_t pathlen,
                           SearchStats* stats) const {
  StepResult result;
  if (stats != nullptr) ++stats->nodes_checked;
  if (node < size() && codes_.Get(node) == c && !has_io_error()) {
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
    if (has_io_error()) return StepResult{};  // caller consumes the latch
    std::optional<ExtribView> e = ExtribAt(x);
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

bool DiskSpine::Contains(std::string_view pattern) const {
  return FindFirstEnd(pattern).has_value();
}

std::optional<NodeId> DiskSpine::FindFirstEnd(std::string_view pattern,
                                              SearchStats* stats) const {
  return GenericFindFirstEnd(*this, pattern, stats);
}

std::vector<uint32_t> DiskSpine::FindAll(std::string_view pattern,
                                         SearchStats* stats) const {
  return GenericFindAll(*this, pattern, stats);
}

Status DiskSpine::VerifyStructure() const {
  const uint64_t n = size();
  for (uint32_t c = 0; c < root_rib_dest_.size(); ++c) {
    uint32_t dest = root_rib_dest_[c];
    if (dest != kNoNode && dest > n) {
      return Status::Corruption("root rib for code " + std::to_string(c) +
                                " points beyond the tail");
    }
  }
  for (NodeId i = 1; i <= n; ++i) {
    LtRecord record = lt_.Get(i);
    SPINE_RETURN_IF_ERROR(PoolStatus());
    uint32_t klass = record.word >> kClassShift;
    if (klass > kClassBig) {
      return Status::Corruption("node " + std::to_string(i) +
                                ": invalid rib class " +
                                std::to_string(klass));
    }
    if ((record.word & kLelOverflowBit) && record.lel >= overflow_.size()) {
      return Status::Corruption("node " + std::to_string(i) +
                                ": LEL overflow index out of range");
    }
    NodeId dest = LinkDest(i);
    uint32_t lel = LinkLel(i);
    SPINE_RETURN_IF_ERROR(PoolStatus());
    if (dest >= i) {
      return Status::Corruption("node " + std::to_string(i) +
                                ": link destination " + std::to_string(dest) +
                                " is not upstream");
    }
    if (lel > dest) {
      return Status::Corruption("node " + std::to_string(i) + ": LEL " +
                                std::to_string(lel) +
                                " exceeds destination depth");
    }

    // Per-class slot validity and rib destinations.
    std::vector<PackedRib> ribs;
    if (klass == kClassBig) {
      auto it = rt_big_.find(i);
      if (it == rt_big_.end()) {
        return Status::Corruption("node " + std::to_string(i) +
                                  ": big rib entry missing");
      }
      ribs = it->second.ribs;
    } else if (klass >= 1) {
      uint32_t slot = record.word & kValueMask;
      if (slot >= rt_[klass - 1]->size()) {
        return Status::Corruption("node " + std::to_string(i) +
                                  ": rib slot out of range");
      }
      uint8_t entry[32];
      rt_[klass - 1]->Read(slot, entry);
      SPINE_RETURN_IF_ERROR(PoolStatus());
      for (uint32_t k = 0; k < klass; ++k) {
        PackedRib rib;
        std::memcpy(&rib, entry + 4 + 7 * k, sizeof(rib));
        ribs.push_back(rib);
      }
    }
    for (const PackedRib& rib : ribs) {
      if (rib.dest > n) {
        return Status::Corruption("node " + std::to_string(i) +
                                  ": rib destination beyond the tail");
      }
      if ((rib.cl & kClMask) >= alphabet_.size()) {
        return Status::Corruption("node " + std::to_string(i) +
                                  ": rib label outside the alphabet");
      }
      if ((rib.cl & kPtOverflowFlag) && rib.pt >= overflow_.size()) {
        return Status::Corruption("node " + std::to_string(i) +
                                  ": rib PT overflow index out of range");
      }
      // Extrib sibling chain: PT strictly increases, bounded hops.
      uint32_t rib_pt = RibPt(rib);
      uint32_t last_pt = rib_pt;
      NodeId x = rib.dest;
      for (uint64_t hops = 0;; ++hops) {
        if (hops > n + 1) {
          return Status::Corruption("node " + std::to_string(i) +
                                    ": extrib chain does not terminate");
        }
        std::optional<ExtribView> e = ExtribAt(x);
        SPINE_RETURN_IF_ERROR(PoolStatus());
        if (!e.has_value()) break;
        if (e->dest > n) {
          return Status::Corruption("extrib destination beyond the tail");
        }
        if (e->prt == rib_pt && e->parent_dest == rib.dest) {
          if (e->pt <= last_pt) {
            return Status::Corruption("node " + std::to_string(i) +
                                      ": extrib chain PT not increasing");
          }
          last_pt = e->pt;
        }
        x = e->dest;
      }
    }

    if (record.word & kHasExtribBit) {
      auto it = extrib_slot_.find(i);
      if (it == extrib_slot_.end()) {
        return Status::Corruption("node " + std::to_string(i) +
                                  ": extrib directory entry missing");
      }
      if (it->second >= extrib_records_.size()) {
        return Status::Corruption("node " + std::to_string(i) +
                                  ": extrib slot out of range");
      }
    }
  }
  return PoolStatus();
}

Status DiskSpine::Checkpoint() {
  SPINE_RETURN_IF_ERROR(pool_.FlushAll());
  SPINE_RETURN_IF_ERROR(file_.Sync());
  std::ofstream out(meta_path_, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + meta_path_ + ": " +
                           std::strerror(errno));
  }
  serde::Writer w(out);
  w.Pod(kMetaMagic);
  w.Pod(kMetaVersion);
  w.Pod(static_cast<uint32_t>(alphabet_.kind()));
  w.Pod<uint64_t>(allocator_.allocated());
  w.Pod<uint64_t>(codes_.size());
  w.Vec(codes_.page_table());
  w.Pod<uint64_t>(lt_.size());
  w.Vec(lt_.page_table());
  for (int k = 0; k < 4; ++k) {
    w.Pod<uint64_t>(rt_[k]->size());
    w.Vec(rt_[k]->page_table());
    w.Vec(rt_free_[k]);
  }
  w.Pod<uint64_t>(extrib_records_.size());
  w.Vec(extrib_records_.page_table());
  w.Vec(root_rib_dest_);
  std::vector<SlotPair> slots;
  slots.reserve(extrib_slot_.size());
  for (const auto& [node, slot] : extrib_slot_) slots.push_back({node, slot});
  w.Vec(slots);
  w.Pod<uint64_t>(rt_big_.size());
  for (const auto& [node, big] : rt_big_) {
    w.Pod(node);
    w.Pod(big.link_dest);
    w.Vec(big.ribs);
  }
  w.Vec(overflow_);
  w.WriteCrcFooter();
  out.flush();
  if (!out) {
    return Status::IoError("write failure on " + meta_path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<std::unique_ptr<DiskSpine>> DiskSpine::Open(const std::string& path,
                                                   const Options& options) {
  std::ifstream in(path + ".meta", std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path + ".meta: " +
                           std::strerror(errno));
  }
  serde::Reader r(in);
  uint32_t magic = 0, version = 0, kind = 0;
  if (!r.Pod(&magic) || magic != kMetaMagic) {
    return Status::Corruption("bad metadata magic in " + path + ".meta");
  }
  if (!r.Pod(&version) || version != kMetaVersion) {
    return Status::Corruption("unsupported metadata version");
  }
  if (!r.Pod(&kind)) return Status::Corruption("bad alphabet kind");
  Result<Alphabet> alphabet = Alphabet::FromKindCode(kind);
  if (!alphabet.ok()) return alphabet.status();
  if (alphabet->kind() == Alphabet::Kind::kByte) {
    return Status::Corruption("disk indexes do not support the byte alphabet");
  }

  Result<PageFile> file =
      PageFile::Open(path, options.sync_mode, options.backend);
  if (!file.ok()) return file.status();
  std::unique_ptr<DiskSpine> index(
      new DiskSpine(*alphabet, std::move(file).value(), options));
  index->meta_path_ = path + ".meta";

  auto corrupt = [&](const char* what) {
    return Status::Corruption(std::string("truncated metadata (") + what +
                              ") in " + path + ".meta");
  };
  uint64_t allocated = 0, size = 0;
  std::vector<uint64_t> table;
  if (!r.Pod(&allocated)) return corrupt("allocator");
  index->allocator_.Restore(allocated);
  if (!r.Pod(&size) || !r.Vec(&table)) return corrupt("codes");
  SPINE_RETURN_IF_ERROR(index->codes_.Restore(size, std::move(table)));
  if (!r.Pod(&size) || !r.Vec(&table)) return corrupt("link table");
  if (size != index->codes_.size() + 1) {
    return Status::Corruption("LT/codes size mismatch in " + path + ".meta");
  }
  SPINE_RETURN_IF_ERROR(index->lt_.Restore(size, std::move(table)));
  for (int k = 0; k < 4; ++k) {
    if (!r.Pod(&size) || !r.Vec(&table)) return corrupt("rib table");
    SPINE_RETURN_IF_ERROR(index->rt_[k]->Restore(size, std::move(table)));
    if (!r.Vec(&index->rt_free_[k])) return corrupt("rib free list");
  }
  if (!r.Pod(&size) || !r.Vec(&table)) return corrupt("extrib records");
  SPINE_RETURN_IF_ERROR(index->extrib_records_.Restore(size, std::move(table)));
  if (!r.Vec(&index->root_rib_dest_)) return corrupt("root ribs");
  if (index->root_rib_dest_.size() != alphabet->size()) {
    return Status::Corruption("root rib table size mismatch");
  }
  std::vector<SlotPair> slots;
  if (!r.Vec(&slots)) return corrupt("extrib directory");
  for (const SlotPair& pair : slots) {
    index->extrib_slot_.emplace(pair.node, pair.slot);
  }
  uint64_t big_count = 0;
  if (!r.Pod(&big_count)) return corrupt("big entries");
  for (uint64_t i = 0; i < big_count; ++i) {
    uint32_t node = 0;
    BigEntry big;
    if (!r.Pod(&node) || !r.Pod(&big.link_dest) || !r.Vec(&big.ribs)) {
      return corrupt("big entry");
    }
    index->rt_big_.emplace(node, std::move(big));
  }
  if (!r.Vec(&index->overflow_)) return corrupt("overflow table");
  if (!r.VerifyCrcFooter()) {
    return Status::Corruption("metadata checksum mismatch in " + path +
                              ".meta");
  }
  // The page file must hold exactly the pages the metadata names;
  // a mismatched sidecar/page-file pair would read unwritten pages as
  // zeros and silently answer from them.
  if (index->allocator_.allocated() != index->file_.page_count()) {
    return Status::Corruption(
        path + ": metadata names " +
        std::to_string(index->allocator_.allocated()) +
        " pages but the page file holds " +
        std::to_string(index->file_.page_count()));
  }
  return index;
}

uint64_t DiskSpine::MetadataBytes() const {
  uint64_t total = codes_.MetadataBytes() + lt_.MetadataBytes() +
                   extrib_records_.MetadataBytes() +
                   root_rib_dest_.capacity() * sizeof(uint32_t) +
                   overflow_.capacity() * sizeof(uint32_t) +
                   extrib_slot_.size() * (8 + 32);
  for (uint32_t k = 0; k < 4; ++k) {
    total += rt_[k]->MetadataBytes() +
             rt_free_[k].capacity() * sizeof(uint32_t);
  }
  for (const auto& [node, big] : rt_big_) {
    total += sizeof(BigEntry) + big.ribs.capacity() * sizeof(PackedRib) + 32;
  }
  return total;
}

}  // namespace spine::storage
