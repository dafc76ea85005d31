// The file plumbing both shard families share: manifest sibling paths,
// whole-file reads, and the open of one shard image checked against its
// manifest entry.

#ifndef SPINE_SHARD_SHARD_FILE_H_
#define SPINE_SHARD_SHARD_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/crc32c.h"
#include "common/status.h"
#include "core/index.h"
#include "storage/mmap_region.h"

namespace spine::shard {

// The last path component of `path`.
std::string BaseName(const std::string& path);

// `filename` in the directory of `manifest_path`.
std::string SiblingPath(const std::string& manifest_path,
                        const std::string& filename);

Result<std::string> ReadFileBytes(const std::string& path);

// One shard image in memory, already checked against its manifest
// entry. Hand `data`, `size`, `verify` and `keepalive` to a memory
// loader (LoadCompactSpineFromMemory, GeneralizedCompactSpine::
// LoadFromMemory).
struct ShardImage : storage::ImageBytes {
  // Whether the loader still validates the image; false only for an
  // unverified mmap open.
  bool verify = true;
};

// Maps (OpenMode::kMmap) or reads the shard image at `path`
// (storage::MapOrReadImage) and checks its size and whole-file CRC32C
// against the manifest's `expected`; any mismatch is kCorruption. An
// mmap open with `open.verify` false skips the CRC.
Result<ShardImage> OpenShardImage(const std::string& path,
                                  const FileChecksum& expected,
                                  const core::OpenOptions& open);

}  // namespace spine::shard

#endif  // SPINE_SHARD_SHARD_FILE_H_
