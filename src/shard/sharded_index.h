// shard::ShardedIndex — a family of compact SPINE indexes serving one
// string, itself a core::Index.
//
// The string is split into K core ranges [core_start, core_end) that
// partition [0, n). Shard i physically indexes the *slice*
// [core_start, min(n, core_end + max_pattern)): the extra max_pattern
// characters (the overlap margin) guarantee that any pattern of length
// m <= max_pattern starting inside a core range lies entirely inside
// that shard's slice. With that invariant every query kind merges
// exactly through the fan-out core (shard/fan_out.h): each shard is a
// clean source whose one run is its core range at offset core_start,
// so an occurrence counts once, in the shard that owns its start, and
// the merged answer is byte-identical to the monolithic one.
//
// Patterns longer than max_pattern could straddle a boundary without
// any shard seeing them whole, so Execute rejects them loudly with
// kInvalidArgument at admission — never a silently wrong answer. For
// kEditDistance the admitted window is pattern length + max_errors
// (insertions can lengthen the matched window by up to d characters).
//
// Construction is the first parallel build path in the repo: per-shard
// compact indexes build concurrently on an engine::ThreadPool.
//
// Persistence: Save writes one compact image per shard
// (<path>.shard<i>) plus a versioned manifest at <path> — magic "SPFM"
// — recording the split geometry and, per shard file, its byte size
// and whole-file CRC32C. Load re-verifies every checksum, so a single
// bit flip in any shard file or in the manifest is kCorruption.

#ifndef SPINE_SHARD_SHARDED_INDEX_H_
#define SPINE_SHARD_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alphabet/alphabet.h"
#include "common/status.h"
#include "compact/compact_spine.h"
#include "core/index.h"
#include "shard/fan_out.h"
#include "storage/mmap_region.h"

namespace spine::shard {

// Manifest leading magic ("SPFM") and current format version.
inline constexpr uint32_t kShardManifestMagic = 0x5350464d;
inline constexpr uint32_t kShardManifestVersion = 1;

// Default overlap margin: the longest pattern a sharded family accepts
// unless built with an explicit --max-pattern.
inline constexpr uint32_t kDefaultMaxPattern = 1024;

// Split geometry of one shard. Core ranges partition [0, n); the slice
// is what the shard physically indexes.
struct ShardInfo {
  uint64_t core_start = 0;
  uint64_t core_end = 0;   // exclusive
  uint64_t slice_end = 0;  // min(n, core_end + max_pattern)
};

class ShardedIndex final : public core::Index {
 public:
  struct Options {
    // Number of shards (>= 1; clamped to the string length so no more
    // than one shard is empty-cored).
    uint32_t shards = 2;
    // Overlap margin == longest admissible query pattern (>= 1).
    uint32_t max_pattern = kDefaultMaxPattern;
    // Build-pool threads; 0 picks hardware concurrency.
    uint32_t build_threads = 0;
  };

  // Splits `text` and builds the per-shard compact indexes in parallel.
  static Result<std::unique_ptr<ShardedIndex>> Build(const Alphabet& alphabet,
                                                     std::string_view text,
                                                     const Options& options);

  // Writes <path> (manifest) plus <path>.shard<i> compact images.
  Status Save(const std::string& path) const;

  // Reopens a family saved by Save. Verifies the manifest CRC, every
  // shard file's size + whole-file CRC32C, and the split geometry;
  // any mismatch is kCorruption. Under OpenMode::kMmap every shard
  // image is mapped and its tables borrowed from the mapping (the
  // manifest itself is small and always read eagerly); per-shard CRC
  // and structural validation are skipped when options.verify is
  // false. Every query then passes the length fence of all shard
  // mappings before touching mapped bytes.
  static Result<std::unique_ptr<ShardedIndex>> Load(
      const std::string& path, const core::OpenOptions& options = {});

  // --- core::Index ---------------------------------------------------------

  core::IndexKind kind() const override { return core::IndexKind::kSharded; }
  core::Capabilities capabilities() const override {
    core::Capabilities caps;
    caps.supports_approx = true;  // per-shard seed-and-extend
    caps.persistent = true;
    return caps;
  }
  const Alphabet& alphabet() const override { return alphabet_; }
  uint64_t size() const override { return n_; }
  // Merged by the fan-out core after the mapping fence and the margin
  // admission. Emits shard.queries / shard.fanout metrics and a
  // "shard_fanout" trace note. `cancel` is threaded into every
  // per-shard generic walk, so a fired token stops mid-shard, not just
  // between shards.
  QueryResult Execute(const Query& query,
                      obs::TraceContext* trace = nullptr,
                      const CancelToken* cancel = nullptr) const override;
  // Per-shard Validate plus family invariants: core ranges partition
  // [0, n), slices sized to the margin, and overlap characters agree
  // between neighbouring shards.
  Status VerifyStructure() const override;
  uint64_t MemoryBytes() const override;

  // --- Family accessors ----------------------------------------------------

  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t max_pattern() const { return max_pattern_; }
  const ShardInfo& info(uint32_t i) const { return infos_[i]; }
  const CompactSpineIndex& shard(uint32_t i) const { return shards_[i]; }

 private:
  ShardedIndex(const Alphabet& alphabet, uint64_t n, uint32_t max_pattern)
      : alphabet_(alphabet), n_(n), max_pattern_(max_pattern) {}

  // Describes each shard as a fan-out source; run once the shards are
  // in place (after Build or Load).
  void BuildSources();

  // kIoError when any shard mapping's backing file shrank below its
  // mapped length (storage::MmapRegion::CheckFence); OK for heap-loaded
  // families (no mappings to fence).
  Status CheckMappingFence() const;

  Alphabet alphabet_;
  uint64_t n_ = 0;
  uint32_t max_pattern_ = 0;
  std::vector<ShardInfo> infos_;
  std::vector<CompactSpineIndex> shards_;
  std::vector<Source> sources_;  // one per shard, over shards_
  // One region per shard when the family was opened with
  // OpenMode::kMmap (shards_[i] borrows from mappings_[i]); empty on
  // the heap path.
  std::vector<std::shared_ptr<const storage::MmapRegion>> mappings_;
  // Heap-opened shard images: their tables borrow from these buffers
  // and report no capacity of their own.
  uint64_t heap_image_bytes_ = 0;
};

}  // namespace spine::shard

#endif  // SPINE_SHARD_SHARDED_INDEX_H_
