#include "compact/serializer.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "storage/mmap_region.h"

namespace spine {

namespace {

constexpr uint32_t kMagic = 0x53504e45;  // "SPNE"
// v3: whole-image CRC32C footer after the trailer.
// v4: flat-table payloads 8-aligned (CRC-covered zero pads) so the
//     zero-copy loader can point into the image without misaligned
//     typed loads.
constexpr uint32_t kVersion = 4;

}  // namespace

class CompactSpineSerializer {
 public:
  static Status Save(const CompactSpineIndex& index, std::ostream& out) {
    serde::Writer w(out);
    w.Pod(kMagic);
    w.Pod(kVersion);
    w.Pod(static_cast<uint32_t>(index.alphabet_.kind()));
    w.Pod<uint64_t>(index.size());
    // Every flat table a reader may borrow is Align8'd: the pad puts
    // the 8-byte count at an 8-aligned image offset, so the payload
    // right after it is 8-aligned too (≥ any element alignment).
    w.Align8();
    w.Vec(index.codes_.word_data(), index.codes_.word_count());
    w.Align8();
    w.Vec(index.lt_word_.data(), index.lt_word_.size());
    w.Align8();
    w.Vec(index.lt_lel_.data(), index.lt_lel_.size());
    w.Align8();
    w.Vec(index.root_rib_dest_.data(), index.root_rib_dest_.size());
    for (int k = 0; k < 4; ++k) {
      w.Align8();
      w.Vec(index.rt_[k].data(), index.rt_[k].size());
    }
    for (int k = 0; k < 4; ++k) {
      w.Align8();
      w.Vec(index.rt_free_[k].data(), index.rt_free_[k].size());
    }
    // Hash-map payloads are rebuilt at open, so they stay unaligned
    // (and unpadded). Their records go in ascending node order: a hash
    // map iterates in an order that depends on how it was filled, and
    // an image's bytes must depend on the index alone. Loaders accept
    // any order.
    std::vector<uint32_t> spilled;
    spilled.reserve(index.rt_big_.size());
    for (const auto& entry : index.rt_big_) spilled.push_back(entry.first);
    std::sort(spilled.begin(), spilled.end());
    w.Pod<uint64_t>(spilled.size());
    for (const uint32_t node : spilled) {
      const CompactSpineIndex::BigEntry& big = index.rt_big_.at(node);
      w.Pod(node);
      w.Pod(big.link_dest);
      w.Vec(big.ribs);
    }
    // Extribs are numerous (one per ~45 DNA characters), so their
    // records are sorted as one packed array and written in one call.
    std::vector<ExtribRecord> extribs;
    extribs.reserve(index.extribs_.size());
    for (const auto& [node, entry] : index.extribs_) {
      extribs.push_back({node, entry});
    }
    SortByNode(&extribs);
    w.Vec(extribs.data(), extribs.size());
    w.Align8();
    w.Vec(index.overflow_.data(), index.overflow_.size());
    w.Pod(index.max_lel_);
    w.Pod(index.max_pt_);
    w.Pod(index.max_prt_);
    w.WriteCrcFooter();
    out.flush();
    if (!out) return Status::IoError("stream write failure");
    return Status::OK();
  }

  // Parses an image resident in memory, pointing the index's flat
  // tables into it.
  static Result<CompactSpineIndex> Load(const uint8_t* data, uint64_t size,
                                        bool verify,
                                        std::shared_ptr<const void> keepalive) {
    serde::MapReader r(data, size, /*verify_crc=*/verify);
    uint32_t magic = 0, version = 0, kind = 0;
    if (!r.Pod(&magic) || magic != kMagic) {
      return Status::Corruption("bad magic");
    }
    if (!r.Pod(&version) || version != kVersion) {
      return Status::Corruption("unsupported version");
    }
    if (!r.Pod(&kind)) return Status::Corruption("bad alphabet kind");
    Result<Alphabet> alphabet = Alphabet::FromKindCode(kind);
    if (!alphabet.ok()) return alphabet.status();
    if (alphabet->kind() == Alphabet::Kind::kByte) {
      return Status::Corruption(
          "compact images do not support the byte alphabet");
    }
    CompactSpineIndex index(*alphabet);
    uint64_t n = 0;
    if (!r.Pod(&n)) return Status::Corruption("truncated header");

    auto aligned_view = [&r](auto* bv) -> bool {
      using T = std::decay_t<decltype((*bv)[0])>;
      const T* p = nullptr;
      uint64_t count = 0;
      if (!r.Align8() || !r.View(&p, &count)) return false;
      bv->Borrow(p, count);
      return true;
    };

    const uint64_t* words = nullptr;
    uint64_t cl_words = 0;
    if (!r.Align8() || !r.View(&words, &cl_words)) {
      return Status::Corruption("truncated CL");
    }
    if (!aligned_view(&index.lt_word_) || !aligned_view(&index.lt_lel_) ||
        !aligned_view(&index.root_rib_dest_)) {
      return Status::Corruption("truncated LT");
    }
    for (int k = 0; k < 4; ++k) {
      if (!aligned_view(&index.rt_[k])) {
        return Status::Corruption("truncated RT");
      }
    }
    for (int k = 0; k < 4; ++k) {
      if (!aligned_view(&index.rt_free_[k])) {
        return Status::Corruption("truncated RT free list");
      }
    }
    // Reserving spares the rehashes as the maps fill. Each side-map
    // record takes at least 16 bytes (spill) or 17 (extrib), so a
    // corrupt count cannot reserve more than the image could hold.
    uint64_t big_count = 0;
    if (!r.Pod(&big_count)) return Status::Corruption("truncated big table");
    index.rt_big_.reserve(std::min<uint64_t>(big_count, r.remaining() / 16));
    for (uint64_t i = 0; i < big_count; ++i) {
      uint32_t node = 0;
      CompactSpineIndex::BigEntry big;
      if (!r.Pod(&node) || !r.Pod(&big.link_dest) || !r.Vec(&big.ribs)) {
        return Status::Corruption("truncated big entry");
      }
      index.rt_big_.emplace(node, std::move(big));
    }
    uint64_t ext_count = 0;
    if (!r.Pod(&ext_count)) return Status::Corruption("truncated extribs");
    index.extribs_.reserve(
        std::min<uint64_t>(ext_count, r.remaining() / sizeof(ExtribRecord)));
    for (uint64_t i = 0; i < ext_count; ++i) {
      uint32_t node = 0;
      CompactSpineIndex::ExtribEntry entry;
      if (!r.Pod(&node) || !r.Pod(&entry)) {
        return Status::Corruption("truncated extrib entry");
      }
      index.extribs_.emplace(node, entry);
    }
    if (!aligned_view(&index.overflow_)) {
      return Status::Corruption("truncated overflow table");
    }
    if (!r.Pod(&index.max_lel_) || !r.Pod(&index.max_pt_) ||
        !r.Pod(&index.max_prt_)) {
      return Status::Corruption("truncated trailer");
    }
    // Geometry before BorrowFromWords: its SPINE_CHECK must only see
    // images whose word count already passed the corruption check.
    if (cl_words * 64 < n * index.alphabet_.bits_per_code()) {
      return Status::Corruption("CL words inconsistent with size");
    }
    if (index.lt_word_.size() != n + 1 || index.lt_lel_.size() != n + 1 ||
        index.root_rib_dest_.size() != index.alphabet_.size()) {
      return Status::Corruption("LT sizes inconsistent");
    }
    for (uint32_t k = 0; k < 4; ++k) {
      if (index.rt_[k].size() % CompactSpineIndex::RtStride(k + 1) != 0) {
        return Status::Corruption("RT stride misalignment");
      }
    }
    index.codes_.BorrowFromWords(words, cl_words, n);
    // Whole-image checksum before any structural verdict: a payload
    // flip that happens to parse is still rejected here.
    if (!r.VerifyCrcFooter()) {
      return Status::Corruption("image checksum mismatch");
    }
    if (verify) {
      Status valid = index.Validate();
      if (!valid.ok()) return valid;
    }
    index.backing_ = std::move(keepalive);
    return index;
  }

 private:
  // An extrib as the image stores it: the node, then its entry.
  struct ExtribRecord {
    uint32_t node;
    CompactSpineIndex::ExtribEntry entry;
  } __attribute__((packed));
  static_assert(sizeof(ExtribRecord) == 17);

  // Sorts by node in two counting passes over 14-bit digits, as node
  // ids stay below 2^28; on a save's ~10^5 records this takes about a
  // fifth of std::sort's time.
  static void SortByNode(std::vector<ExtribRecord>* records) {
    static_assert(CompactSpineIndex::kMaxNodes < (1u << 28));
    constexpr uint32_t kDigits = 1u << 14;
    std::vector<ExtribRecord> sorted(records->size());
    for (uint32_t shift = 0; shift < 28; shift += 14) {
      std::vector<uint32_t> start(kDigits + 1, 0);
      for (const ExtribRecord& record : *records) {
        ++start[((record.node >> shift) & (kDigits - 1)) + 1];
      }
      for (uint32_t d = 1; d <= kDigits; ++d) start[d] += start[d - 1];
      for (const ExtribRecord& record : *records) {
        sorted[start[(record.node >> shift) & (kDigits - 1)]++] = record;
      }
      records->swap(sorted);
    }
  }
};

Status SaveCompactSpine(const CompactSpineIndex& index,
                        const std::string& path, FileChecksum* written) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::IoError("cannot open " + path +
                           " for writing: " + std::strerror(errno));
  }
  serde::CrcStreambuf counted(file.rdbuf());
  std::ostream out(&counted);
  SPINE_RETURN_IF_ERROR(CompactSpineSerializer::Save(index, out));
  if (written != nullptr) *written = counted.checksum();
  return Status::OK();
}

Result<CompactSpineIndex> LoadCompactSpine(const std::string& path) {
  Result<storage::ImageBytes> image =
      storage::MapOrReadImage(path, /*map=*/false);
  if (!image.ok()) return image.status();
  Result<CompactSpineIndex> loaded = CompactSpineSerializer::Load(
      image->data, image->size, /*verify=*/true, std::move(image->keepalive));
  if (!loaded.ok()) {
    return Status(loaded.status().code(),
                  path + ": " + loaded.status().message());
  }
  return loaded;
}

Status SaveCompactSpineToStream(const CompactSpineIndex& index,
                                std::ostream& out) {
  return CompactSpineSerializer::Save(index, out);
}

Result<CompactSpineIndex> LoadCompactSpineFromMemory(
    const uint8_t* data, uint64_t size, bool verify,
    std::shared_ptr<const void> keepalive) {
  return CompactSpineSerializer::Load(data, size, verify,
                                      std::move(keepalive));
}

}  // namespace spine
