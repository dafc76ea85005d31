// shard::DynamicFamily — an LSM-style document index with memtable
// shards, versioned generations, and background compaction.
//
// Everything else in the repo is build-once/serve-forever; this is the
// subsystem that exploits SPINE's *online* construction (PAPER.md §4)
// at the system level. Documents are mutable at the granularity of
// whole strings:
//
//   insert    lands in an in-memory memtable shard — a live
//             GeneralizedSpineIndex, appended to in place — and is
//             queryable immediately (volatile until the next flush);
//   delete    adds the doc id to the tombstone set: the document stops
//             matching at once and is physically dropped at the next
//             compaction that rewrites its shard;
//   flush     freezes the memtable, serializes the live documents to a
//             compact image (<manifest>.g<version>), and swaps the
//             generation pointer — the durability point;
//   compact   merges every frozen shard and the memtable into one
//             compact image, dropping tombstoned documents and their
//             tombstones, with one image write and one manifest
//             commit. SPINE builds online, so when the first shard
//             holds no tombstone the image is a copy of it extended by
//             the other live documents: a compaction costs the
//             characters outside that base, not every live one.
//
// Generations: the family's entire queryable state is an immutable,
// refcounted Generation — frozen shard list + memtable snapshot
// (visible-document count) + tombstone set + a fresh cache_id. Readers
// pin the current generation (shared_ptr) for the duration of one
// query or one engine batch (core::Index::PinSnapshot), so a query
// never observes a torn or mixed index: mutations build a *new*
// generation and swap the pointer. Because each generation mints a new
// cache_id, the engine's result LRU self-invalidates on swap — a
// cached answer from generation N is unreachable once N+1 publishes.
//
// Durability: the `.spinefam` manifest (magic "SPFM", version 2 — the
// version field distinguishes it from shard::ShardedIndex's static v1)
// is a generation pointer: generation version counter, next doc id,
// shard list (filename, byte size, whole-file CRC32C, doc ids) and
// tombstone set, closed by a CRC32C footer. It is written to
// <path>.tmp and committed by atomic rename(2); shard image files are
// uniquely named per generation and never rewritten in place. A crash
// or injected fault anywhere on the flush/compaction write path
// therefore leaves the previous generation fully live, on disk and in
// memory. Inserts are volatile until flushed; durable tombstones
// (deletes of already-frozen documents) rewrite the manifest at delete
// time. docs/LIFECYCLE.md specifies the state machine and the
// crash-consistency contract.
//
// Query semantics: answers are byte-exact over the canonical
// separator-joined concatenation of the live documents in doc-id
// order — exactly what a GeneralizedSpineIndex rebuilt from scratch
// over the same documents answers through ExecuteQuery on its
// underlying index (the differential oracle in
// tests/lifecycle_differential_test.cc). Hit positions are offsets
// into that virtual concatenation. Queries run through the fan-out
// core (shard/fan_out.h): every frozen shard, then the memtable, is a
// source whose runs are its live visible documents. Patterns
// containing a reserved separator byte ('\n' or '\x1f') are rejected
// with kInvalidArgument — they could otherwise match across document
// boundaries, which is composition-dependent nonsense — and never
// answered silently wrong.

#ifndef SPINE_SHARD_DYNAMIC_FAMILY_H_
#define SPINE_SHARD_DYNAMIC_FAMILY_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alphabet/alphabet.h"
#include "common/cancel.h"
#include "common/status.h"
#include "core/index.h"
#include "core/query.h"
#include "obs/trace.h"

namespace spine {
class GeneralizedCompactSpine;
}  // namespace spine

namespace spine::shard {

// Manifest version written by DynamicFamily under the shared "SPFM"
// magic (shard/sharded_index.h). The registry routes on this field.
inline constexpr uint32_t kDynamicManifestVersion = 2;

class DynamicFamily final : public core::MutableIndex {
 public:
  struct Options {
    // How frozen shard images are materialized (heap copy or shared
    // mapping; storage::MmapRegion::MapShared under OpenMode::kMmap).
    core::OpenOptions open;
    // Auto-flush trigger: when the memtable holds at least this many
    // characters, the background thread freezes it. 0 disables
    // size-triggered flushing.
    uint64_t flush_threshold_bytes = 0;
    // Background compaction trigger: merge frozen shards whenever at
    // least this many exist. 0 disables background compaction.
    // The background thread runs iff either trigger is enabled.
    uint32_t compact_fanout = 0;
    // Test-only fault hook on the flush/compaction/delete write path:
    // invoked before each named step ("shard.write", "shard.finish",
    // "manifest.write", "manifest.rename"); a non-OK return aborts the
    // mutation at that point. The contract under any such fault: the
    // prior generation keeps serving, on disk and in memory.
    std::function<Status(std::string_view step)> write_fault_hook;
  };

  // Creates a brand-new empty family at `path` (writes the initial
  // manifest). kFailedPrecondition if `path` already exists.
  static Result<std::unique_ptr<DynamicFamily>> Create(
      const std::string& path, const Alphabet& alphabet,
      const Options& options);

  // Reopens a family from its manifest, verifying the manifest CRC and
  // (under options.open.verify) every shard file's size + CRC32C; any
  // mismatch is kCorruption, never a crash or a torn load.
  static Result<std::unique_ptr<DynamicFamily>> Open(
      const std::string& path, const Options& options);

  ~DynamicFamily() override;

  // --- core::Index ---------------------------------------------------------

  core::IndexKind kind() const override { return core::IndexKind::kDynamic; }
  core::Capabilities capabilities() const override {
    core::Capabilities caps;
    caps.supports_approx = true;  // per-source seed-and-extend
    caps.persistent = true;
    return caps;
  }
  const Alphabet& alphabet() const override { return alphabet_; }
  // Characters in the live concatenation, separators included (the
  // oracle's underlying().size()).
  uint64_t size() const override;
  QueryResult Execute(const Query& query,
                      obs::TraceContext* trace = nullptr,
                      const CancelToken* cancel = nullptr) const override;
  Status VerifyStructure() const override;
  uint64_t MemoryBytes() const override;
  // The *current generation's* id: every mutation publishes a new
  // generation with a freshly minted id, so engine-cached answers from
  // older generations become unreachable at the swap.
  uint64_t cache_id() const override;
  // An immutable view of the current generation; its answers, size and
  // cache_id stay frozen while writers swap underneath.
  std::shared_ptr<const core::Index> PinSnapshot() const override;

  // --- core::MutableIndex --------------------------------------------------

  Result<uint32_t> InsertDocument(std::string_view text) override;
  Status DeleteDocument(uint32_t doc_id) override;
  Status Flush() override;
  Status Compact() override;
  Status Reload() override;
  uint64_t generation_version() const override;
  uint32_t live_documents() const override;

  // --- Accessors -----------------------------------------------------------

  const std::string& path() const { return path_; }
  uint32_t next_doc_id() const;
  uint32_t frozen_shard_count() const;
  // Documents currently in the (volatile) memtable, live or not.
  uint32_t memtable_documents() const;
  uint32_t tombstone_count() const;
  // Takes (clears) the most recent background flush/compaction error.
  // Background failures never take the family down — the old
  // generation keeps serving — but tests and operators want to see
  // them.
  Status TakeBackgroundError();

 private:
  struct MemtableShard;
  struct FrozenShard;
  struct Generation;
  class Snapshot;

  DynamicFamily(std::string path, const Alphabet& alphabet, Options options);

  std::shared_ptr<const Generation> CurrentGeneration() const;
  void Publish(std::shared_ptr<const Generation> generation);
  void StartBackgroundThread();
  void BackgroundLoop();
  void KickBackground();

  // The shared implementation of Execute for the family and its
  // pinned snapshots.
  static QueryResult ExecuteOnGeneration(const Generation& generation,
                                         const Query& query,
                                         obs::TraceContext* trace,
                                         const CancelToken* cancel);
  static Status VerifyGeneration(const Generation& generation);
  static uint64_t GenerationMemoryBytes(const Generation& generation);

  // Mutation bodies; writer_mu_ held by the caller.
  Status FlushLocked();
  Status CompactLocked();
  Status ReloadLocked();
  // Merges the sources of `cur` from frozen shard `first` on (the later
  // shards, then the memtable) into one frozen shard holding their live
  // documents in doc-id order, commits it with one manifest write and
  // publishes it. The image extends a copy of shard `first` when that
  // shard holds no tombstone, and starts empty otherwise. A flush
  // merges the memtable alone, a compaction every source.
  Status MergeLocked(const Generation& cur, size_t first, bool compaction);
  // Saves `image` to <path_>.g<version>, returning the FrozenShard that
  // holds it. Fault-hook steps: shard.write, shard.finish.
  Result<std::shared_ptr<const FrozenShard>> WriteShard(
      uint64_t version, GeneralizedCompactSpine image,
      std::vector<uint32_t> doc_ids) const;
  // Writes the manifest for `generation` to <path_>.tmp and commits it
  // by rename. Fault-hook steps: manifest.write, manifest.rename.
  Status WriteManifest(const Generation& generation) const;
  Status RunFaultHook(std::string_view step) const;

  // Parses + loads the on-disk state into a ready generation. Mutable
  // so Reload can keep the version counter monotone before publishing.
  static Result<std::shared_ptr<Generation>> LoadGeneration(
      const std::string& path, const Options& options,
      Alphabet* alphabet_out);

  std::string path_;
  Alphabet alphabet_;
  Options options_;

  // Serializes all mutations (insert/delete/flush/compact/reload).
  mutable std::mutex writer_mu_;
  // Guards only the current_ pointer swap; queries copy the pointer
  // and run lock-free against the immutable generation.
  mutable std::mutex gen_mu_;
  std::shared_ptr<const Generation> current_;

  // Background flush/compaction.
  std::thread background_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_stop_ = false;
  bool bg_kick_ = false;
  Status bg_error_;
};

}  // namespace spine::shard

#endif  // SPINE_SHARD_DYNAMIC_FAMILY_H_
