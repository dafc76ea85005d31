// Minimal POD/vector stream serialization shared by the index
// serializers (compact/serializer.cc, storage/*.cc metadata sidecars).
//
// Robustness properties (PR 2):
//   - Writer and Reader both accumulate a running CRC32C over every
//     byte written/consumed; WriteCrcFooter / VerifyCrcFooter turn it
//     into a whole-image integrity check that catches any single-bit
//     corruption the structural checks miss.
//   - Reader::Vec bounds every element count against the bytes
//     actually remaining in the stream, so a corrupted length field
//     fails cleanly instead of attempting a multi-GiB allocation.
//
// Zero-copy additions (PR 8): Writer::Align8 pads the stream with
// CRC-covered zero bytes so array payloads land 8-aligned in the file,
// and MapReader walks a memory image (an mmap'd artifact) handing out
// borrowed pointers into it instead of copying. Heap Reader and
// MapReader enforce the same bounds/pad checks in the same order, so
// both open paths accept or reject any given image identically — the
// property the fuzz harness' differential mmap phase locks in.
//
// CrcStreambuf wraps a file's stream buffer and yields the size and
// whole-file CRC32C a shard manifest records, taken from the bytes as
// they are written.

#ifndef SPINE_COMMON_SERDE_H_
#define SPINE_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <streambuf>
#include <vector>

#include "common/crc32c.h"

namespace spine::serde {

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(&value, sizeof(T));
  }

  template <typename T>
  void Vec(const std::vector<T>& vec) {
    static_assert(std::is_trivially_copyable_v<T>);
    Pod<uint64_t>(vec.size());
    if (!vec.empty()) Raw(vec.data(), vec.size() * sizeof(T));
  }

  // Pointer/count variant (BorrowVec members, borrowed word arrays).
  template <typename T>
  void Vec(const T* data, uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    Pod<uint64_t>(count);
    if (count > 0) Raw(data, count * sizeof(T));
  }

  // Raw CRC-covered bytes with no length prefix (callers encode their
  // own framing).
  void Bytes(const void* data, size_t n) { Raw(data, n); }

  // Zero-pads (CRC-covered) so the next byte lands on an 8-byte file
  // offset — written before each array a zero-copy reader will point
  // into, making the borrowed T* naturally aligned.
  void Align8() {
    static const char kZeros[8] = {0};
    size_t pad = static_cast<size_t>((8 - written_ % 8) % 8);
    if (pad > 0) Raw(kZeros, pad);
  }

  // Zero-pads so the byte AFTER a 4-byte CRC footer lands 8-aligned —
  // used when a self-aligned image follows the footer (the generalized
  // container's embedded inner image).
  void AlignForFooter8() {
    static const char kZeros[8] = {0};
    size_t pad = static_cast<size_t>((8 - (written_ + 4) % 8) % 8);
    if (pad > 0) Raw(kZeros, pad);
  }

  uint64_t written() const { return written_; }

  // CRC32C of everything written so far.
  uint32_t crc() const { return Crc32cFinish(crc_state_); }

  // Appends the running CRC as a trailer. The footer itself is not
  // folded into the CRC; pair with Reader::VerifyCrcFooter.
  void WriteCrcFooter() {
    uint32_t footer = crc();
    out_.write(reinterpret_cast<const char*>(&footer), sizeof(footer));
  }

 private:
  void Raw(const void* data, size_t n) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    crc_state_ = Crc32cExtend(crc_state_, data, n);
    written_ += n;
  }

  std::ostream& out_;
  uint32_t crc_state_ = kCrc32cInit;
  uint64_t written_ = 0;
};

// A stream buffer that passes every byte through to `sink` and folds
// it into a running CRC32C on the way, so a writer learns the size and
// checksum of a file from the bytes it hands over instead of reading
// the file back. Unbuffered: each write goes straight to the sink,
// which does its own buffering.
class CrcStreambuf : public std::streambuf {
 public:
  explicit CrcStreambuf(std::streambuf* sink) : sink_(sink) {}

  FileChecksum checksum() const { return {size_, Crc32cFinish(state_)}; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::streamsize put = sink_->sputn(s, n);
    Fold(s, put);
    return put;
  }

  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    if (traits_type::eq_int_type(sink_->sputc(c), traits_type::eof())) {
      return traits_type::eof();
    }
    Fold(&c, 1);
    return ch;
  }

  int sync() override { return sink_->pubsync(); }

 private:
  void Fold(const char* s, std::streamsize n) {
    if (n <= 0) return;
    state_ = Crc32cExtend(state_, s, static_cast<size_t>(n));
    size_ += static_cast<uint64_t>(n);
  }

  std::streambuf* sink_;
  uint32_t state_ = kCrc32cInit;
  uint64_t size_ = 0;
};

class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {
    // Snapshot how many bytes remain so corrupt vector lengths can be
    // rejected before allocation. Non-seekable streams fall back to a
    // coarse cap.
    std::streampos cur = in_.tellg();
    if (cur != std::streampos(-1)) {
      in_.seekg(0, std::ios::end);
      std::streampos end = in_.tellg();
      in_.seekg(cur);
      if (end != std::streampos(-1) && end >= cur) {
        remaining_ = static_cast<uint64_t>(end - cur);
        bounded_ = true;
      }
    }
    in_.clear();
  }

  template <typename T>
  [[nodiscard]] bool Pod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Raw(value, sizeof(T));
  }

  template <typename T>
  [[nodiscard]] bool Vec(std::vector<T>* vec) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    if (!Pod(&count)) return false;
    if (bounded_) {
      if (count > remaining_ / sizeof(T)) return false;
    } else if (count > (1ull << 34) / sizeof(T)) {
      // Guard against absurd sizes from corrupt files.
      return false;
    }
    vec->resize(count);
    if (count > 0 && !Raw(vec->data(), count * sizeof(T))) return false;
    return true;
  }

  // Raw CRC-covered bytes with no length prefix (mirrors
  // Writer::Bytes).
  [[nodiscard]] bool Bytes(void* out, size_t n) { return Raw(out, n); }

  // Consumes the zero pad written by Writer::Align8; false when the
  // pad bytes are missing or nonzero (nonzero pad means the image was
  // tampered with — both open paths must agree on rejecting it).
  [[nodiscard]] bool Align8() { return SkipPad((8 - consumed_ % 8) % 8); }
  [[nodiscard]] bool AlignForFooter8() {
    return SkipPad((8 - (consumed_ + 4) % 8) % 8);
  }

  uint64_t consumed() const { return consumed_; }

  // CRC32C of everything consumed so far.
  uint32_t crc() const { return Crc32cFinish(crc_state_); }

  // Reads a trailing CRC written by Writer::WriteCrcFooter and checks
  // it against the bytes consumed up to this point.
  [[nodiscard]] bool VerifyCrcFooter() {
    uint32_t want = crc();
    uint32_t stored = 0;
    in_.read(reinterpret_cast<char*>(&stored), sizeof(stored));
    if (!in_.good() && !in_.eof()) return false;
    if (in_.gcount() != sizeof(stored)) return false;
    if (bounded_ && remaining_ >= sizeof(stored)) {
      remaining_ -= sizeof(stored);
    }
    return stored == want;
  }

 private:
  [[nodiscard]] bool Raw(void* data, size_t n) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (static_cast<size_t>(in_.gcount()) != n) return false;
    crc_state_ = Crc32cExtend(crc_state_, data, n);
    if (bounded_) remaining_ = remaining_ >= n ? remaining_ - n : 0;
    consumed_ += n;
    return true;
  }

  [[nodiscard]] bool SkipPad(uint64_t pad) {
    uint8_t buf[8] = {0};
    if (pad == 0) return true;
    if (!Raw(buf, static_cast<size_t>(pad))) return false;
    for (uint64_t i = 0; i < pad; ++i) {
      if (buf[i] != 0) return false;
    }
    return true;
  }

  std::istream& in_;
  uint32_t crc_state_ = kCrc32cInit;
  uint64_t remaining_ = 0;
  uint64_t consumed_ = 0;
  bool bounded_ = false;
};

// Walks a serialized image already resident in memory (an mmap'd
// artifact) and hands out borrowed pointers into it instead of
// copying. Mirrors Reader exactly — same framing, same bounds checks,
// same pad verification, same CRC coverage — so the heap and mmap open
// paths reach identical verdicts on any byte sequence. Constructed
// with verify_crc=false it skips the CRC fold entirely (the
// "mmap-noverify" open mode: structural bounds checks only, O(1-ish)
// open cost), in which case VerifyCrcFooter only checks the footer's
// presence.
class MapReader {
 public:
  MapReader(const uint8_t* data, uint64_t size, bool verify_crc = true)
      : data_(data), size_(size), verify_(verify_crc) {}

  template <typename T>
  [[nodiscard]] bool Pod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ - offset_ < sizeof(T)) return false;
    std::memcpy(value, data_ + offset_, sizeof(T));
    Consume(sizeof(T));
    return true;
  }

  // Count-prefixed array, borrowed: *out points into the image (valid
  // for the mapping's lifetime), naturally aligned because the writer
  // Align8'd before it. Misalignment is treated as corruption.
  template <typename T>
  [[nodiscard]] bool View(const T** out, uint64_t* count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Pod(count)) return false;
    if (*count > (size_ - offset_) / sizeof(T)) return false;
    const uint8_t* p = data_ + offset_;
    if (reinterpret_cast<uintptr_t>(p) % alignof(T) != 0) return false;
    *out = reinterpret_cast<const T*>(p);
    Consume(*count * sizeof(T));
    return true;
  }

  // Count-prefixed array, copied (hash-map payloads that are rebuilt
  // at open regardless of mode).
  template <typename T>
  [[nodiscard]] bool Vec(std::vector<T>* vec) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    if (!Pod(&count)) return false;
    if (count > (size_ - offset_) / sizeof(T)) return false;
    vec->resize(count);
    if (count > 0) {
      std::memcpy(vec->data(), data_ + offset_, count * sizeof(T));
      Consume(count * sizeof(T));
    }
    return true;
  }

  [[nodiscard]] bool Bytes(void* out, uint64_t n) {
    if (size_ - offset_ < n) return false;
    std::memcpy(out, data_ + offset_, n);
    Consume(n);
    return true;
  }

  [[nodiscard]] bool Align8() { return SkipPad((8 - offset_ % 8) % 8); }
  [[nodiscard]] bool AlignForFooter8() {
    return SkipPad((8 - (offset_ + 4) % 8) % 8);
  }

  [[nodiscard]] bool VerifyCrcFooter() {
    if (size_ - offset_ < sizeof(uint32_t)) return false;
    uint32_t want = Crc32cFinish(crc_state_);
    uint32_t stored = 0;
    std::memcpy(&stored, data_ + offset_, sizeof(stored));
    offset_ += sizeof(stored);  // footer is outside the CRC, like Reader
    return verify_ ? stored == want : true;
  }

  uint64_t offset() const { return offset_; }
  uint64_t remaining() const { return size_ - offset_; }

 private:
  void Consume(uint64_t n) {
    if (verify_) crc_state_ = Crc32cExtend(crc_state_, data_ + offset_, n);
    offset_ += n;
  }

  [[nodiscard]] bool SkipPad(uint64_t pad) {
    if (pad == 0) return true;
    if (size_ - offset_ < pad) return false;
    for (uint64_t i = 0; i < pad; ++i) {
      if (data_[offset_ + i] != 0) return false;
    }
    Consume(pad);
    return true;
  }

  const uint8_t* data_;
  uint64_t size_;
  uint64_t offset_ = 0;
  bool verify_;
  uint32_t crc_state_ = kCrc32cInit;
};

}  // namespace spine::serde

#endif  // SPINE_COMMON_SERDE_H_
