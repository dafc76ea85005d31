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

Result<Alphabet> AlphabetFromKindCode(uint32_t code) {
  switch (static_cast<Alphabet::Kind>(code)) {
    case Alphabet::Kind::kDna: return Alphabet::Dna();
    case Alphabet::Kind::kProtein: return Alphabet::Protein();
    case Alphabet::Kind::kByte: return Alphabet::Byte();
    case Alphabet::Kind::kAscii: return Alphabet::Ascii();
  }
  return Status::Corruption("unknown alphabet kind " + std::to_string(code));
}

Result<ShardImage> OpenShardImage(const std::string& path,
                                  const FileChecksum& expected,
                                  const core::OpenOptions& open) {
  ShardImage image;
  if (open.mode == core::OpenMode::kMmap) {
    // Zero-copy: the loader borrows its tables from the mapping. The
    // whole-file CRC pass (the only full read) is skipped with
    // verify=false, keeping open cost independent of shard size.
    storage::MmapOptions mmap_options;
    mmap_options.populate = open.populate;
    mmap_options.hugepage = open.hugepage;
    Result<std::shared_ptr<storage::MmapRegion>> region =
        storage::MmapRegion::MapShared(path, mmap_options);
    if (!region.ok()) return region.status();
    image.data = (*region)->data();
    image.size = (*region)->size();
    image.verify = open.verify;
    image.mapping = *region;
    image.keepalive = *std::move(region);
  } else {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
      return Status::IoError("cannot open " + path + ": " +
                             std::strerror(errno));
    }
    image.size = static_cast<uint64_t>(in.tellg());
    // new[] guarantees max_align; the memory loaders need 8-aligned
    // data, which a std::string's buffer does not promise.
    std::shared_ptr<uint8_t[]> buffer(new uint8_t[image.size]);
    in.seekg(0);
    in.read(reinterpret_cast<char*>(buffer.get()),
            static_cast<std::streamsize>(image.size));
    if (!in) return Status::IoError("failed reading " + path);
    image.data = buffer.get();
    image.keepalive = std::move(buffer);
  }
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
