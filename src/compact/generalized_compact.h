// GeneralizedCompactSpine: one compact SPINE index over a collection of
// strings — the space-optimized counterpart of core/generalized_spine.h
// (the paper's Section 1.1 multi-string feature), with persistence.
//
// Strings are concatenated with a newline separator inside a compact
// index over the printable-ASCII alphabet (whose 7-bit character labels
// fit the Section 5 rib-slot layout). User-facing validation happens
// against the declared alphabet (DNA / protein / ASCII-minus-newline),
// so a DNA collection still rejects non-ACGT input; the separator can
// never appear in valid queries, so no match crosses a string boundary.

#ifndef SPINE_COMPACT_GENERALIZED_COMPACT_H_
#define SPINE_COMPACT_GENERALIZED_COMPACT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alphabet/alphabet.h"
#include "common/crc32c.h"
#include "common/status.h"
#include "compact/compact_spine.h"

namespace spine {

class GeneralizedCompactSpine {
 public:
  static constexpr char kSeparator = '\n';

  // `alphabet` constrains strings and queries (DNA, protein or ASCII).
  explicit GeneralizedCompactSpine(const Alphabet& alphabet);

  GeneralizedCompactSpine(const GeneralizedCompactSpine&) = delete;
  GeneralizedCompactSpine& operator=(const GeneralizedCompactSpine&) = delete;
  GeneralizedCompactSpine(GeneralizedCompactSpine&&) = default;
  GeneralizedCompactSpine& operator=(GeneralizedCompactSpine&&) = default;

  // A copy that AddString extends (CompactSpineIndex::Clone): strings
  // added to it make the same image, byte for byte, as a collection
  // built from scratch over this one's strings and then them.
  GeneralizedCompactSpine Clone() const;

  // Adds one string (with an optional display name, e.g. the FASTA
  // record id). Fails — leaving the index unchanged — on characters
  // outside the declared alphabet or on the separator itself.
  Status AddString(std::string_view s, std::string name = {});

  uint32_t string_count() const {
    return static_cast<uint32_t>(boundaries_.size());
  }
  uint32_t StringLength(uint32_t id) const;
  const std::string& StringName(uint32_t id) const { return names_[id]; }
  // The stored (canonical) text of string `id`, reconstructed from the
  // underlying concatenation. What compaction re-indexes when merging
  // frozen shards (shard/dynamic_family.h).
  std::string StringText(uint32_t id) const;
  uint64_t total_characters() const { return index_.size(); }
  // The user-facing alphabet strings and queries validate against.
  const Alphabet& alphabet() const { return user_alphabet_; }

  struct Hit {
    uint32_t string_id;
    uint32_t offset;
    bool operator==(const Hit&) const = default;
  };

  bool Contains(std::string_view pattern) const;
  // All occurrences across the collection, ordered by (string, offset).
  std::vector<Hit> FindAll(std::string_view pattern) const;

  struct CollectionMatch {
    uint32_t query_pos = 0;
    uint32_t length = 0;
    std::vector<Hit> hits;
  };
  // All maximal matching substrings (>= min_len) of `query` against the
  // collection, expanded to all occurrences.
  std::vector<CollectionMatch> MatchAgainst(std::string_view query,
                                            uint32_t min_len) const;

  // Space accounting of the underlying compact layout.
  CompactSpineIndex::MemoryBreakdown LogicalBytes() const {
    return index_.LogicalBytes();
  }

  // The concatenated compact index (ASCII alphabet, separators
  // included) — what the core::Index adapter executes queries against.
  const CompactSpineIndex& underlying() const { return index_; }

  // --- Persistence ---------------------------------------------------------

  // `written`, when non-null, receives the size and CRC32C of the
  // bytes handed to the file.
  Status Save(const std::string& path,
              FileChecksum* written = nullptr) const;
  static Result<GeneralizedCompactSpine> Load(const std::string& path);

  // Zero-copy variant over an image already in memory (an mmap'd
  // .spinegen file): the outer header is parsed and copied (it is
  // tiny), the embedded compact image is borrowed in place via
  // LoadCompactSpineFromMemory. Same verify semantics and verdicts as
  // Load. `data` must be 8-aligned; `keepalive` is retained by the
  // inner index while it borrows from the buffer.
  static Result<GeneralizedCompactSpine> LoadFromMemory(
      const uint8_t* data, uint64_t size, bool verify,
      std::shared_ptr<const void> keepalive);

 private:
  bool MapPosition(uint32_t global, Hit* hit) const;

  Alphabet user_alphabet_;
  CompactSpineIndex index_;            // over Alphabet::Ascii()
  std::vector<uint32_t> boundaries_;   // global end (excl.) per string
  std::vector<std::string> names_;
};

}  // namespace spine

#endif  // SPINE_COMPACT_GENERALIZED_COMPACT_H_
