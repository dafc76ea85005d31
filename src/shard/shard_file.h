// The file plumbing both shard families share: manifest sibling paths,
// whole-file reads, alphabet codes, and the open of one shard image
// checked against its manifest entry.

#ifndef SPINE_SHARD_SHARD_FILE_H_
#define SPINE_SHARD_SHARD_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "alphabet/alphabet.h"
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

// The alphabet a manifest records by Alphabet::Kind code; kCorruption
// for an unknown code.
Result<Alphabet> AlphabetFromKindCode(uint32_t code);

// One shard image in memory, already checked against its manifest
// entry. Hand `data`, `size`, `verify` and `keepalive` to a memory
// loader (LoadCompactSpineFromMemory, GeneralizedCompactSpine::
// LoadFromMemory).
struct ShardImage {
  const uint8_t* data = nullptr;
  uint64_t size = 0;
  // Whether the loader still validates the image; false only for an
  // unverified mmap open.
  bool verify = true;
  // Owns the bytes: the mapping, or an 8-aligned heap copy.
  std::shared_ptr<const void> keepalive;
  // The mapping whose length fence queries check; null on the heap path.
  std::shared_ptr<const storage::MmapRegion> mapping;
};

// Maps (OpenMode::kMmap) or reads the shard image at `path` and checks
// its size and whole-file CRC32C against the manifest's `expected`; any
// mismatch is kCorruption. An mmap open with `open.verify` false skips
// the CRC.
Result<ShardImage> OpenShardImage(const std::string& path,
                                  const FileChecksum& expected,
                                  const core::OpenOptions& open);

}  // namespace spine::shard

#endif  // SPINE_SHARD_SHARD_FILE_H_
