#include "compact/serializer.h"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serde.h"

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
    // Hash-map payloads are rebuilt at open on every path, so they
    // stay unaligned (and unpadded).
    w.Pod<uint64_t>(index.rt_big_.size());
    for (const auto& [node, big] : index.rt_big_) {
      w.Pod(node);
      w.Pod(big.link_dest);
      w.Vec(big.ribs);
    }
    w.Pod<uint64_t>(index.extribs_.size());
    for (const auto& [node, entry] : index.extribs_) {
      w.Pod(node);
      w.Pod(entry);
    }
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

  // Shared header parse: magic/version/alphabet. Templated over
  // serde::Reader and serde::MapReader (identical Pod interface).
  template <typename R>
  static Result<Alphabet> ReadHeader(R& r, const std::string& path) {
    uint32_t magic = 0, version = 0, kind = 0;
    if (!r.Pod(&magic) || magic != kMagic) {
      return Status::Corruption("bad magic in " + path);
    }
    if (!r.Pod(&version) || version != kVersion) {
      return Status::Corruption("unsupported version in " + path);
    }
    if (!r.Pod(&kind) || kind > 3) {
      return Status::Corruption("bad alphabet kind in " + path);
    }
    switch (static_cast<Alphabet::Kind>(kind)) {
      case Alphabet::Kind::kDna:
        return Alphabet::Dna();
      case Alphabet::Kind::kProtein:
        return Alphabet::Protein();
      case Alphabet::Kind::kByte:
        return Status::Corruption(
            "compact images do not support the byte alphabet");
      case Alphabet::Kind::kAscii:
        return Alphabet::Ascii();
    }
    return Status::Corruption("bad alphabet kind in " + path);
  }

  // Shared post-parse geometry checks (run on both open paths, in the
  // same order, so they reach the same verdict).
  static Status CheckGeometry(const CompactSpineIndex& index, uint64_t n,
                              uint64_t cl_words, const std::string& path) {
    if (cl_words * 64 < n * index.alphabet_.bits_per_code()) {
      return Status::Corruption("CL words inconsistent with size");
    }
    if (index.lt_word_.size() != n + 1 || index.lt_lel_.size() != n + 1 ||
        index.root_rib_dest_.size() != index.alphabet_.size()) {
      return Status::Corruption("LT sizes inconsistent in " + path);
    }
    for (uint32_t k = 0; k < 4; ++k) {
      if (index.rt_[k].size() % CompactSpineIndex::RtStride(k + 1) != 0) {
        return Status::Corruption("RT stride misalignment in " + path);
      }
    }
    return Status::OK();
  }

  static Result<CompactSpineIndex> Load(std::istream& in,
                                        const std::string& path) {
    serde::Reader r(in);
    Result<Alphabet> alphabet = ReadHeader(r, path);
    if (!alphabet.ok()) return alphabet.status();
    CompactSpineIndex index(*alphabet);
    uint64_t n = 0;
    if (!r.Pod(&n)) return Status::Corruption("truncated header in " + path);

    auto aligned_vec = [&r](auto* bv) -> bool {
      using T = std::decay_t<decltype((*bv)[0])>;
      std::vector<T> tmp;
      if (!r.Align8() || !r.Vec(&tmp)) return false;
      bv->Adopt(std::move(tmp));
      return true;
    };

    std::vector<uint64_t> words;
    if (!r.Align8() || !r.Vec(&words)) {
      return Status::Corruption("truncated CL in " + path);
    }
    uint64_t cl_words = words.size();
    if (!aligned_vec(&index.lt_word_) || !aligned_vec(&index.lt_lel_) ||
        !aligned_vec(&index.root_rib_dest_)) {
      return Status::Corruption("truncated LT in " + path);
    }
    for (int k = 0; k < 4; ++k) {
      if (!aligned_vec(&index.rt_[k])) {
        return Status::Corruption("truncated RT in " + path);
      }
    }
    for (int k = 0; k < 4; ++k) {
      if (!aligned_vec(&index.rt_free_[k])) {
        return Status::Corruption("truncated RT free list in " + path);
      }
    }
    uint64_t big_count = 0;
    if (!r.Pod(&big_count)) return Status::Corruption("truncated big table");
    for (uint64_t i = 0; i < big_count; ++i) {
      uint32_t node = 0;
      CompactSpineIndex::BigEntry big;
      if (!r.Pod(&node) || !r.Pod(&big.link_dest) || !r.Vec(&big.ribs)) {
        return Status::Corruption("truncated big entry in " + path);
      }
      index.rt_big_.emplace(node, std::move(big));
    }
    uint64_t ext_count = 0;
    if (!r.Pod(&ext_count)) return Status::Corruption("truncated extribs");
    for (uint64_t i = 0; i < ext_count; ++i) {
      uint32_t node = 0;
      CompactSpineIndex::ExtribEntry entry;
      if (!r.Pod(&node) || !r.Pod(&entry)) {
        return Status::Corruption("truncated extrib entry in " + path);
      }
      index.extribs_.emplace(node, entry);
    }
    index.side_maps_in_build_order_ = false;  // filled in file order
    if (!aligned_vec(&index.overflow_)) {
      return Status::Corruption("truncated overflow table in " + path);
    }
    if (!r.Pod(&index.max_lel_) || !r.Pod(&index.max_pt_) ||
        !r.Pod(&index.max_prt_)) {
      return Status::Corruption("truncated trailer in " + path);
    }
    // Geometry before RestoreFromWords: its SPINE_CHECK must only see
    // images whose word count already passed the corruption check.
    SPINE_RETURN_IF_ERROR(CheckGeometry(index, n, cl_words, path));
    index.codes_.RestoreFromWords(std::move(words), n);
    // Whole-image checksum before any structural verdict: a payload
    // flip that happens to parse is still rejected here.
    if (!r.VerifyCrcFooter()) {
      return Status::Corruption("image checksum mismatch in " + path);
    }
    Status valid = index.Validate();
    if (!valid.ok()) return valid;
    return index;
  }

  static Result<CompactSpineIndex> LoadFromMemory(
      const uint8_t* data, uint64_t size, bool verify,
      std::shared_ptr<const void> keepalive, uint64_t* consumed) {
    const std::string path = "<memory>";
    serde::MapReader r(data, size, /*verify_crc=*/verify);
    Result<Alphabet> alphabet = ReadHeader(r, path);
    if (!alphabet.ok()) return alphabet.status();
    CompactSpineIndex index(*alphabet);
    uint64_t n = 0;
    if (!r.Pod(&n)) return Status::Corruption("truncated header in " + path);

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
      return Status::Corruption("truncated CL in " + path);
    }
    if (!aligned_view(&index.lt_word_) || !aligned_view(&index.lt_lel_) ||
        !aligned_view(&index.root_rib_dest_)) {
      return Status::Corruption("truncated LT in " + path);
    }
    for (int k = 0; k < 4; ++k) {
      if (!aligned_view(&index.rt_[k])) {
        return Status::Corruption("truncated RT in " + path);
      }
    }
    for (int k = 0; k < 4; ++k) {
      if (!aligned_view(&index.rt_free_[k])) {
        return Status::Corruption("truncated RT free list in " + path);
      }
    }
    uint64_t big_count = 0;
    if (!r.Pod(&big_count)) return Status::Corruption("truncated big table");
    for (uint64_t i = 0; i < big_count; ++i) {
      uint32_t node = 0;
      CompactSpineIndex::BigEntry big;
      if (!r.Pod(&node) || !r.Pod(&big.link_dest) || !r.Vec(&big.ribs)) {
        return Status::Corruption("truncated big entry in " + path);
      }
      index.rt_big_.emplace(node, std::move(big));
    }
    uint64_t ext_count = 0;
    if (!r.Pod(&ext_count)) return Status::Corruption("truncated extribs");
    for (uint64_t i = 0; i < ext_count; ++i) {
      uint32_t node = 0;
      CompactSpineIndex::ExtribEntry entry;
      if (!r.Pod(&node) || !r.Pod(&entry)) {
        return Status::Corruption("truncated extrib entry in " + path);
      }
      index.extribs_.emplace(node, entry);
    }
    index.side_maps_in_build_order_ = false;  // filled in file order
    if (!aligned_view(&index.overflow_)) {
      return Status::Corruption("truncated overflow table in " + path);
    }
    if (!r.Pod(&index.max_lel_) || !r.Pod(&index.max_pt_) ||
        !r.Pod(&index.max_prt_)) {
      return Status::Corruption("truncated trailer in " + path);
    }
    SPINE_RETURN_IF_ERROR(CheckGeometry(index, n, cl_words, path));
    index.codes_.BorrowFromWords(words, cl_words, n);
    if (!r.VerifyCrcFooter()) {
      return Status::Corruption("image checksum mismatch in " + path);
    }
    if (verify) {
      Status valid = index.Validate();
      if (!valid.ok()) return valid;
    }
    index.backing_ = std::move(keepalive);
    if (consumed != nullptr) *consumed = r.offset();
    return index;
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  return CompactSpineSerializer::Load(in, path);
}

Status SaveCompactSpineToStream(const CompactSpineIndex& index,
                                std::ostream& out) {
  return CompactSpineSerializer::Save(index, out);
}

Result<CompactSpineIndex> LoadCompactSpineFromStream(std::istream& in) {
  return CompactSpineSerializer::Load(in, "<stream>");
}

Result<CompactSpineIndex> LoadCompactSpineFromMemory(
    const uint8_t* data, uint64_t size, bool verify,
    std::shared_ptr<const void> keepalive, uint64_t* consumed) {
  return CompactSpineSerializer::LoadFromMemory(data, size, verify,
                                                std::move(keepalive),
                                                consumed);
}

}  // namespace spine
