#include "storage/mmap_region.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.h"

namespace spine::storage {

namespace {

int ToMadvise(MmapOptions::Advice advice) {
  switch (advice) {
    case MmapOptions::Advice::kNormal:
      return MADV_NORMAL;
    case MmapOptions::Advice::kRandom:
      return MADV_RANDOM;
    case MmapOptions::Advice::kSequential:
      return MADV_SEQUENTIAL;
    case MmapOptions::Advice::kWillNeed:
      return MADV_WILLNEED;
  }
  return MADV_NORMAL;
}

}  // namespace

Result<std::shared_ptr<MmapRegion>> MmapRegion::Map(
    const std::string& path, const MmapOptions& options) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status =
        Status::IoError("fstat(" + path + "): " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError("mmap open: " + path + " is not a regular file");
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  const uint8_t* data = nullptr;
  bool locked = false;
  if (size > 0) {
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    if (options.populate) flags |= MAP_POPULATE;
#endif
    void* mapping =
        ::mmap(nullptr, size, PROT_READ, flags, fd, /*offset=*/0);
    if (mapping == MAP_FAILED) {
      Status status =
          Status::IoError("mmap(" + path + "): " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    // Advice is best-effort everywhere: a kernel that rejects it still
    // serves the mapping correctly, just without the hint.
    (void)::madvise(mapping, size, ToMadvise(options.advice));
#ifdef MADV_HUGEPAGE
    if (options.hugepage) (void)::madvise(mapping, size, MADV_HUGEPAGE);
#endif
    if (options.lock) {
      if (::mlock(mapping, size) == 0) {
        locked = true;
      } else {
        SPINE_OBS_COUNT("storage.mmap.mlock_failures", 1);
      }
    }
    data = static_cast<const uint8_t*>(mapping);
  }
  SPINE_OBS_GAUGE_ADD("storage.mmap.maps", 1);
  SPINE_OBS_GAUGE_ADD("storage.mmap.bytes_mapped",
                      static_cast<int64_t>(size));
  return std::shared_ptr<MmapRegion>(
      new MmapRegion(path, fd, data, size, locked));
}

MmapRegion::~MmapRegion() {
  if (data_ != nullptr) {
    if (locked_) ::munlock(const_cast<uint8_t*>(data_), size_);
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
  if (fd_ >= 0) ::close(fd_);
  SPINE_OBS_GAUGE_ADD("storage.mmap.maps", -1);
  SPINE_OBS_GAUGE_ADD("storage.mmap.bytes_mapped",
                      -static_cast<int64_t>(size_));
}

Status MmapRegion::CheckFence() const {
  if (size_ == 0) return Status::OK();
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IoError("mmap fence: fstat(" + path_ +
                           "): " + std::strerror(errno));
  }
  if (static_cast<uint64_t>(st.st_size) < size_) {
    return Status::IoError(
        "mmap fence: " + path_ + " shrank under the mapping (" +
        std::to_string(st.st_size) + " < " + std::to_string(size_) +
        " mapped bytes)");
  }
  return Status::OK();
}

Status MmapRegion::ReadAt(uint64_t offset, void* buf, size_t n,
                          size_t* bytes_read) const {
  SPINE_RETURN_IF_ERROR(CheckFence());
  if (offset >= size_) {
    *bytes_read = 0;
    return Status::OK();
  }
  size_t available = static_cast<size_t>(size_ - offset);
  size_t take = n < available ? n : available;
  std::memcpy(buf, data_ + offset, take);
  *bytes_read = take;
  return Status::OK();
}

// --- shared-mapping cache --------------------------------------------------

namespace {

// Keyed on (path, mapping-relevant options): two opens only share a
// region when they would have produced byte-identical mappings.
std::string SharedKey(const std::string& path, const MmapOptions& options) {
  std::string key = path;
  key.push_back('\0');
  key.push_back(static_cast<char>('0' + static_cast<int>(options.advice)));
  key.push_back(options.lock ? 'L' : '-');
  key.push_back(options.populate ? 'P' : '-');
  key.push_back(options.hugepage ? 'H' : '-');
  return key;
}

struct SharedCache {
  std::mutex mu;
  std::unordered_map<std::string, std::weak_ptr<MmapRegion>> regions;
};

SharedCache& SharedMappings() {
  static SharedCache* cache = new SharedCache;
  return *cache;
}

}  // namespace

Result<std::shared_ptr<MmapRegion>> MmapRegion::MapShared(
    const std::string& path, const MmapOptions& options) {
  SharedCache& cache = SharedMappings();
  const std::string key = SharedKey(path, options);
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.regions.find(key);
    if (it != cache.regions.end()) {
      if (std::shared_ptr<MmapRegion> region = it->second.lock()) {
        // Never hand out a mapping whose backing file already shrank —
        // remap instead so the caller sees the artifact's current state
        // (a fresh Map would fail or fence cleanly on its own).
        if (region->CheckFence().ok()) {
          SPINE_OBS_GAUGE_ADD("storage.mmap.cache_hits", 1);
          return region;
        }
      }
      cache.regions.erase(it);
    }
  }
  // Map outside the lock: the miss path does real I/O, and two racing
  // misses at worst map twice (the loser's insert overwrites, and the
  // winner's region dies with its last holder — harmless).
  Result<std::shared_ptr<MmapRegion>> region = Map(path, options);
  if (!region.ok()) return region.status();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    cache.regions[key] = *region;
  }
  return region;
}

Result<ImageBytes> MapOrReadImage(const std::string& path, bool map,
                                  const MmapOptions& options) {
  ImageBytes image;
  if (map) {
    Result<std::shared_ptr<MmapRegion>> region = MmapRegion::MapShared(
        path, options);
    if (!region.ok()) return region.status();
    image.data = (*region)->data();
    image.size = (*region)->size();
    image.mapping = *region;
    image.keepalive = *std::move(region);
    return image;
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError("cannot read " + path + ": not a regular file");
  }
  image.size = static_cast<uint64_t>(st.st_size);
  // new[] guarantees max_align, above the loaders' 8.
  std::shared_ptr<uint8_t[]> buffer(new uint8_t[image.size]);
  for (uint64_t done = 0; done < image.size;) {
    const ssize_t got = ::read(fd, buffer.get() + done, image.size - done);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      ::close(fd);
      return Status::IoError("failed reading " + path);
    }
    done += static_cast<uint64_t>(got);
  }
  ::close(fd);
  image.data = buffer.get();
  image.keepalive = std::move(buffer);
  return image;
}

// --- MmapIoBackend ---------------------------------------------------------

namespace {

// Serves the IoBackend read contract from per-handle MmapRegions. The
// handle space is private (monotonic ids), not file descriptors — the
// region owns the real fd.
class MmapBackend : public IoBackend {
 public:
  Result<int> Open(const std::string& path, bool create) override {
    if (create) {
      return Status::IoError("mmap backend is read-only: cannot create " +
                             path);
    }
    auto region = MmapRegion::Map(path);
    if (!region.ok()) return region.status();
    std::lock_guard<std::mutex> lock(mu_);
    int handle = next_handle_++;
    regions_[handle] = *std::move(region);
    return handle;
  }

  void Close(int handle) override {
    std::lock_guard<std::mutex> lock(mu_);
    regions_.erase(handle);
  }

  Result<uint64_t> Size(int handle) override {
    auto region = Find(handle);
    if (!region) return Status::IoError("mmap backend: bad handle");
    return region->size();
  }

  Status Read(int handle, uint64_t offset, void* buf, size_t n,
              size_t* bytes_read) override {
    auto region = Find(handle);
    if (!region) return Status::IoError("mmap backend: bad handle");
    return region->ReadAt(offset, buf, n, bytes_read);
  }

  Status Write(int /*handle*/, uint64_t /*offset*/, const void* /*buf*/,
               size_t /*n*/) override {
    return Status::IoError("mmap backend is read-only: write rejected");
  }

  Status Sync(int /*handle*/) override {
    return Status::IoError("mmap backend is read-only: sync rejected");
  }

 private:
  std::shared_ptr<MmapRegion> Find(int handle) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = regions_.find(handle);
    return it == regions_.end() ? nullptr : it->second;
  }

  std::mutex mu_;
  int next_handle_ = 1;
  std::unordered_map<int, std::shared_ptr<MmapRegion>> regions_;
};

}  // namespace

IoBackend* MmapIoBackend() {
  static MmapBackend* backend = new MmapBackend;
  return backend;
}

}  // namespace spine::storage
