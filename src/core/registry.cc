#include "core/registry.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "compact/serializer.h"
#include "core/adapters.h"
#include "shard/dynamic_family.h"
#include "shard/sharded_index.h"
#include "storage/mmap_region.h"

namespace spine::core {

namespace {

constexpr uint32_t kCompactMagic = 0x53504e45;     // "SPNE"
constexpr uint32_t kGeneralizedMagic = 0x53504e47; // "SPNG"
constexpr uint32_t kDiskSpineMeta = 0x5350444d;    // "SPDM"
constexpr uint32_t kDiskTreeMeta = 0x53544d44;     // "STMD"

// Opens a compact or generalized image: mapped under OpenMode::kMmap
// (N in-process opens share one mapping, storage::MmapRegion::MapShared,
// with populate/hugepage carried through), else read into a heap buffer
// and always verified. `load` parses the bytes in place; `Adapter`
// keeps the mapping's fence or counts the heap buffer.
template <typename Adapter, typename Load>
Result<std::unique_ptr<Index>> OpenImage(const std::string& path,
                                         const OpenOptions& options,
                                         Load load) {
  storage::MmapOptions mmap_options;
  mmap_options.populate = options.populate;
  mmap_options.hugepage = options.hugepage;
  const bool map = options.mode == OpenMode::kMmap;
  Result<storage::ImageBytes> image =
      storage::MapOrReadImage(path, map, mmap_options);
  if (!image.ok()) return image.status();
  auto index = load(image->data, image->size, !map || options.verify,
                    image->keepalive);
  if (!index.ok()) {
    return Status(index.status().code(),
                  path + ": " + index.status().message());
  }
  return std::unique_ptr<Index>(new Adapter(std::move(*index), *image));
}

Result<std::unique_ptr<Index>> OpenCompact(const std::string& path,
                                           const OpenOptions& options) {
  return OpenImage<CompactSpineAdapter>(path, options,
                                        &LoadCompactSpineFromMemory);
}

Result<std::unique_ptr<Index>> OpenGeneralizedCompact(
    const std::string& path, const OpenOptions& options) {
  return OpenImage<GeneralizedCompactAdapter>(
      path, options, &GeneralizedCompactSpine::LoadFromMemory);
}

Result<std::unique_ptr<Index>> OpenDiskSpine(const std::string& path,
                                             const OpenOptions& options) {
  storage::DiskSpine::Options disk_options;
  if (options.mode == OpenMode::kMmap) {
    disk_options.backend = storage::MmapIoBackend();
  }
  Result<std::unique_ptr<storage::DiskSpine>> index =
      storage::DiskSpine::Open(path, disk_options);
  if (!index.ok()) return index.status();
  return std::unique_ptr<Index>(new DiskSpineAdapter(std::move(*index)));
}

Result<std::unique_ptr<Index>> OpenDiskSuffixTree(const std::string& path,
                                                  const OpenOptions& options) {
  storage::DiskSuffixTree::Options tree_options;
  if (options.mode == OpenMode::kMmap) {
    tree_options.backend = storage::MmapIoBackend();
  }
  Result<std::unique_ptr<storage::DiskSuffixTree>> tree =
      storage::DiskSuffixTree::Open(path, tree_options);
  if (!tree.ok()) return tree.status();
  return std::unique_ptr<Index>(new DiskSuffixTreeAdapter(std::move(*tree)));
}

Result<std::unique_ptr<Index>> OpenDynamic(const std::string& path,
                                           const OpenOptions& options) {
  shard::DynamicFamily::Options family_options;
  family_options.open = options;
  Result<std::unique_ptr<shard::DynamicFamily>> family =
      shard::DynamicFamily::Open(path, family_options);
  if (!family.ok()) return family.status();
  return std::unique_ptr<Index>(std::move(*family));
}

// Both family flavors share the "SPFM" magic; the version field right
// behind it says which lifecycle wrote the manifest (v1 static
// ShardedIndex, v2 DynamicFamily generation pointer).
Result<std::unique_ptr<Index>> OpenSharded(const std::string& path,
                                           const OpenOptions& options) {
  uint32_t version = 0;
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) {
      return Status::IoError("cannot open " + path + ": " +
                             std::strerror(errno));
    }
    probe.seekg(sizeof(uint32_t));
    probe.read(reinterpret_cast<char*>(&version), sizeof(version));
    if (!probe) {
      return Status::Corruption(path + " is too short to hold a manifest");
    }
  }
  if (version == shard::kDynamicManifestVersion) {
    return OpenDynamic(path, options);
  }
  Result<std::unique_ptr<shard::ShardedIndex>> index =
      shard::ShardedIndex::Load(path, options);
  if (!index.ok()) return index.status();
  return std::unique_ptr<Index>(std::move(*index));
}

}  // namespace

BackendRegistry::BackendRegistry() {
  backends_ = {
      {IndexKind::kCompactSpine, IndexKindName(IndexKind::kCompactSpine),
       kCompactMagic, 0, "compact image", &OpenCompact},
      {IndexKind::kGeneralizedCompact,
       IndexKindName(IndexKind::kGeneralizedCompact), kGeneralizedMagic, 0,
       "generalized compact image", &OpenGeneralizedCompact},
      {IndexKind::kDiskSpine, IndexKindName(IndexKind::kDiskSpine),
       kPageFileMagic, kDiskSpineMeta, "disk spine", &OpenDiskSpine},
      {IndexKind::kDiskSuffixTree,
       IndexKindName(IndexKind::kDiskSuffixTree), kPageFileMagic,
       kDiskTreeMeta, "disk suffix tree", &OpenDiskSuffixTree},
      {IndexKind::kSharded, IndexKindName(IndexKind::kSharded),
       shard::kShardManifestMagic, 0, "sharded family manifest",
       &OpenSharded},
      // Same file magic as kSharded (OpenSharded routes on the version
      // field); listed so --backend=dynamic can force the open and so
      // diagnostics can name the kind. FindByMagic-style scans hit the
      // kSharded row first, which dispatches correctly for both.
      {IndexKind::kDynamic, IndexKindName(IndexKind::kDynamic), 0, 0,
       "dynamic family manifest", &OpenDynamic},
      // Memory-built backends: addressable by name for diagnostics,
      // but with no on-disk artifact to open.
      {IndexKind::kSpine, IndexKindName(IndexKind::kSpine), 0, 0,
       "in-memory reference index", nullptr},
      {IndexKind::kGeneralizedSpine,
       IndexKindName(IndexKind::kGeneralizedSpine), 0, 0,
       "in-memory generalized index", nullptr},
      {IndexKind::kSuffixTree, IndexKindName(IndexKind::kSuffixTree), 0, 0,
       "in-memory suffix tree", nullptr},
      {IndexKind::kCompactDawg, IndexKindName(IndexKind::kCompactDawg), 0, 0,
       "in-memory CDAWG", nullptr},
      {IndexKind::kNaive, IndexKindName(IndexKind::kNaive), 0, 0,
       "brute-force oracle", nullptr},
  };
}

const BackendRegistry& BackendRegistry::Default() {
  static const BackendRegistry* const registry = new BackendRegistry();
  return *registry;
}

const BackendInfo* BackendRegistry::FindByName(std::string_view name) const {
  for (const BackendInfo& info : backends_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

const BackendInfo* BackendRegistry::FindByKind(IndexKind kind) const {
  for (const BackendInfo& info : backends_) {
    if (info.kind == kind) return &info;
  }
  return nullptr;
}

Result<uint32_t> BackendRegistry::SniffMagic(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  uint32_t magic = 0;
  probe.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!probe) {
    return Status::Corruption(path + " is too short to hold an index");
  }
  return magic;
}

namespace {

// Every successful open reports the spec it used, so `spine stats` and
// the server snapshot can tell a heap copy from a live mapping.
Result<std::unique_ptr<Index>> Stamp(Result<std::unique_ptr<Index>> opened,
                                     const OpenOptions& options) {
  if (opened.ok()) (*opened)->set_open_mode(OpenOptionsName(options));
  return opened;
}

}  // namespace

Result<std::unique_ptr<Index>> BackendRegistry::Open(
    const std::string& path, const OpenOptions& options) const {
  Result<uint32_t> magic = SniffMagic(path);
  if (!magic.ok()) return magic.status();

  if (*magic == kPageFileMagic) {
    // Page files are shared between disk backends; the metadata sidecar
    // says which one persisted this file.
    Result<uint32_t> meta = SniffMagic(path + ".meta");
    if (!meta.ok()) {
      if (meta.status().code() == StatusCode::kIoError) {
        return Status::InvalidArgument(
            path + " is a page file with no metadata sidecar (" + path +
            ".meta); cannot open as an index");
      }
      return Status::Corruption(path + ".meta is truncated");
    }
    for (const BackendInfo& info : backends_) {
      if (info.file_magic == kPageFileMagic && info.meta_magic == *meta) {
        return Stamp(info.open(path, options), options);
      }
    }
    return Status::Corruption("unrecognized metadata magic in " + path +
                              ".meta");
  }

  for (const BackendInfo& info : backends_) {
    if (info.file_magic != 0 && info.file_magic == *magic &&
        info.meta_magic == 0) {
      return Stamp(info.open(path, options), options);
    }
  }
  return Status::Corruption(
      path + ": unrecognized magic (expected a compact image, a page file "
             "or a shard manifest)");
}

Result<std::unique_ptr<Index>> BackendRegistry::OpenAs(
    std::string_view name, const std::string& path,
    const OpenOptions& options) const {
  const BackendInfo* info = FindByName(name);
  if (info == nullptr) {
    return Status::InvalidArgument("unknown backend '" + std::string(name) +
                                   "'");
  }
  if (info->open == nullptr) {
    return Status::InvalidArgument("backend '" + std::string(name) +
                                   "' has no on-disk artifact to open");
  }
  return Stamp(info->open(path, options), options);
}

}  // namespace spine::core
