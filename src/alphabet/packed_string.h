// PackedString: bit-packed storage of alphabet codes.
//
// SPINE stores one character label per vertebra; with a DNA alphabet the
// label costs 2 bits (the "0.25 bytes" CL entry of the paper's Table 2).
// PackedString provides that storage: an append-only sequence of codes
// packed at Alphabet::bits_per_code() bits each.

#ifndef SPINE_ALPHABET_PACKED_STRING_H_
#define SPINE_ALPHABET_PACKED_STRING_H_

#include <cstdint>
#include <vector>

#include "alphabet/alphabet.h"

namespace spine {

class PackedString {
 public:
  explicit PackedString(uint32_t bits_per_code);

  void Append(Code code);
  Code Get(uint64_t index) const;
  uint64_t size() const { return size_; }
  uint32_t bits_per_code() const { return bits_; }

  // Bytes of private heap storage used by the packed words. A borrowed
  // view costs nothing here: its pages belong to the mapping.
  uint64_t MemoryBytes() const {
    return view_ != nullptr ? 0 : words_.size() * sizeof(uint64_t);
  }

  // Raw word access for serialization and the match kernels. Valid in
  // both owned and borrowed modes; `words()` is only for owned strings
  // (kernel::EncodedPattern builds its own).
  const uint64_t* word_data() const {
    return view_ != nullptr ? view_ : words_.data();
  }
  uint64_t word_count() const {
    return view_ != nullptr ? view_words_ : words_.size();
  }
  const std::vector<uint64_t>& words() const { return words_; }

  // Sequential reader of the codes from `begin` on, one per Next(), for
  // scans that walk the labels in order: it shifts codes out of the
  // current word and loads the next only at a word boundary. The caller
  // must not read past size(); the string must outlive the reader.
  class Reader {
   public:
    Reader(const PackedString& labels, uint64_t begin)
        : words_(labels.word_data()),
          bits_(labels.bits_per_code()),
          code_mask_((1ull << bits_) - 1) {
      const uint64_t bit = begin * bits_;
      word_ = bit / 64;
      const uint32_t offset = static_cast<uint32_t>(bit % 64);
      left_ = 64 - offset;
      current_ = begin < labels.size() ? words_[word_] >> offset : 0;
    }

    Code Next() {
      if (left_ >= bits_) {
        const uint64_t code = current_ & code_mask_;
        current_ >>= bits_;
        left_ -= bits_;
        return static_cast<Code>(code);
      }
      // The code straddles into (or starts at) the next word.
      const uint64_t next = words_[++word_];
      const uint64_t code = (current_ | (next << left_)) & code_mask_;
      current_ = next >> (bits_ - left_);
      left_ = 64 - (bits_ - left_);
      return static_cast<Code>(code);
    }

   private:
    const uint64_t* words_;
    uint32_t bits_;
    uint64_t code_mask_;
    uint64_t word_ = 0;
    uint64_t current_ = 0;  // unread bits of words_[word_], low first
    uint32_t left_ = 0;     // how many bits of current_ are unread
  };

  void RestoreFromWords(std::vector<uint64_t> words, uint64_t size);
  // Zero-copy restore: points at `word_count` externally owned words
  // (an mmap'd image; the caller keeps the mapping alive). The pointer
  // must be 8-aligned. Append() copies out of the view first.
  void BorrowFromWords(const uint64_t* words, uint64_t word_count,
                       uint64_t size);
  bool borrowed() const { return view_ != nullptr; }

 private:
  // Copies a borrowed view into owned storage; no-op when owned.
  void EnsureOwned();

  uint32_t bits_;
  uint64_t size_ = 0;
  std::vector<uint64_t> words_;
  const uint64_t* view_ = nullptr;  // non-null => borrowed mode
  uint64_t view_words_ = 0;
};

}  // namespace spine

#endif  // SPINE_ALPHABET_PACKED_STRING_H_
