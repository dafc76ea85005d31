#include "shard/shard_file.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/crc32c.h"

namespace spine::shard {

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string SiblingPath(const std::string& manifest_path,
                        const std::string& filename) {
  const size_t slash = manifest_path.find_last_of('/');
  return slash == std::string::npos
             ? filename
             : manifest_path.substr(0, slash) + "/" + filename;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("failed reading " + path);
  return std::move(buffer).str();
}

Result<ShardImage> OpenShardImage(const std::string& path,
                                  const FileChecksum& expected,
                                  const core::OpenOptions& open) {
  const bool map = open.mode == core::OpenMode::kMmap;
  storage::MmapOptions mmap_options;
  mmap_options.populate = open.populate;
  mmap_options.hugepage = open.hugepage;
  Result<storage::ImageBytes> bytes =
      storage::MapOrReadImage(path, map, mmap_options);
  if (!bytes.ok()) return bytes.status();
  // A heap open always verifies. An mmap open with verify=false skips
  // the whole-file CRC pass (the only full read), keeping open cost
  // independent of shard size.
  ShardImage image{*std::move(bytes), !map || open.verify};
  if (image.size != expected.size) {
    return Status::Corruption(path + ": size mismatch (manifest says " +
                              std::to_string(expected.size) +
                              " bytes, file has " +
                              std::to_string(image.size) + ")");
  }
  if (image.verify && Crc32c(image.data, image.size) != expected.crc) {
    return Status::Corruption(path + ": shard file checksum mismatch");
  }
  return image;
}

}  // namespace spine::shard
