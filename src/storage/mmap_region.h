// MmapRegion: a read-only memory mapping of an artifact file, plus the
// MmapIoBackend that serves the IoBackend seam straight from a mapping.
//
// This is the zero-copy open path: instead of reading an image into
// heap memory, the file is mapped once and the deserializers point
// their tables into the mapping (compact/serializer.h
// LoadCompactSpineFromMemory), so open time and private resident cost
// stop scaling with artifact size and many processes share one page
// cache (the radb string_store / realm-core approach). A heap open
// reads the file into one buffer and runs the same parse over it
// (MapOrReadImage).
//
// SIGBUS policy: a mapped file that shrinks underneath the mapping
// turns page access into SIGBUS. We cannot intercept that portably, so
// every entry point that touches mapped bytes goes through the *length
// fence* first: CheckFence() fstats the still-open descriptor and
// fails with kIoError when the file no longer covers the mapped
// length. The fence is checked on every MmapIoBackend::Read and at
// query admission for borrowed indexes (core/adapters.h,
// shard::ShardedIndex), so a shrunk artifact surfaces as a clean
// per-query error. A truncation racing a query that already passed
// the fence is outside the contract (docs/STORAGE.md) — the same
// stance the production mmap stores take.
//
// Thread safety: MmapRegion is immutable after Map(); concurrent
// CheckFence()/ReadAt() calls are safe. The backend's handle table is
// mutex-guarded.

#ifndef SPINE_STORAGE_MMAP_REGION_H_
#define SPINE_STORAGE_MMAP_REGION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/io_backend.h"

namespace spine::storage {

struct MmapOptions {
  // madvise hint for the whole mapping. Index opens default to kRandom:
  // SPINE walks jump across the link table, so readahead is wasted.
  enum class Advice : uint8_t { kNormal, kRandom, kSequential, kWillNeed };
  Advice advice = Advice::kRandom;
  // Best-effort mlock of the mapping (serving fleets pinning the hot
  // index). Failure (RLIMIT_MEMLOCK) is not fatal: it counts
  // storage.mmap.mlock_failures and the open proceeds unpinned.
  bool lock = false;
  // MAP_POPULATE: pre-fault every page at map time so the first query
  // never stalls on a page-in (open pays the cost instead). Downgraded
  // silently on kernels without the flag.
  bool populate = false;
  // MADV_HUGEPAGE: ask for transparent-huge-page backing. Best-effort
  // everywhere — a kernel built without THP just ignores the hint.
  bool hugepage = false;
};

class MmapRegion {
 public:
  // Maps `path` read-only in its entirety. The descriptor stays open
  // for the region's lifetime (the fence needs it). An empty file maps
  // to a null region of size 0 — valid, with nothing to point at.
  static Result<std::shared_ptr<MmapRegion>> Map(
      const std::string& path, const MmapOptions& options = {});

  // The shared-mapping cache: N in-process opens of one (path, options)
  // pair share a single refcounted region instead of mapping the file N
  // times. The cache holds weak references — a region lives exactly as
  // long as someone holds it, and the next open after the last release
  // maps afresh (so a replaced artifact is picked up). Hits count the
  // storage.mmap.cache_hits gauge. A cached region whose fence already
  // failed (backing file shrank) is dropped and remapped rather than
  // handed out.
  static Result<std::shared_ptr<MmapRegion>> MapShared(
      const std::string& path, const MmapOptions& options = {});

  ~MmapRegion();
  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  // The length fence: kIoError when the backing file shrank below the
  // mapped length (touching the lost pages would SIGBUS), OK otherwise.
  Status CheckFence() const;

  // Fence-guarded bounded read (memcpy out of the mapping), with the
  // IoBackend EOF contract: *bytes_read < n only when `offset + n`
  // runs past the mapped length.
  Status ReadAt(uint64_t offset, void* buf, size_t n,
                size_t* bytes_read) const;

 private:
  MmapRegion(std::string path, int fd, const uint8_t* data, uint64_t size,
             bool locked)
      : path_(std::move(path)),
        fd_(fd),
        data_(data),
        size_(size),
        locked_(locked) {}

  std::string path_;
  int fd_ = -1;
  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  bool locked_ = false;
};

// An artifact image in memory, as the memory loaders take it
// (compact/serializer.h LoadCompactSpineFromMemory,
// GeneralizedCompactSpine::LoadFromMemory).
struct ImageBytes {
  const uint8_t* data = nullptr;
  uint64_t size = 0;
  // Owns the bytes: the mapping, or the heap buffer. A loaded index
  // keeps it while any of its tables borrows from the bytes.
  std::shared_ptr<const void> keepalive;
  // The mapping whose length fence queries check; null for a heap read.
  std::shared_ptr<const MmapRegion> mapping;

  // What the image costs this process privately: a heap buffer's size;
  // 0 for a mapping, whose pages belong to the page cache.
  uint64_t heap_bytes() const { return mapping == nullptr ? size : 0; }
};

// Maps `path` through MmapRegion::MapShared(path, options) when `map`
// is set; otherwise reads the whole file with one read into an
// 8-aligned heap buffer (the memory loaders need 8-aligned data, which
// a std::string's buffer does not promise).
Result<ImageBytes> MapOrReadImage(const std::string& path, bool map,
                                  const MmapOptions& options = {});

// The process-wide read-only mmap IoBackend (singleton; never
// deleted). Open(create=true), Write and Sync fail with clean
// Statuses; everything the read path needs (Open existing / Size /
// Read / Close) is served from per-handle MmapRegions, so
// PageFile/BufferPool, DiskSpine and DiskSuffixTree run unmodified
// over a mapping — and FaultInjectingBackend can wrap this backend
// exactly like the POSIX one.
IoBackend* MmapIoBackend();

}  // namespace spine::storage

#endif  // SPINE_STORAGE_MMAP_REGION_H_
