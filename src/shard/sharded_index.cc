#include "shard/sharded_index.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/crc32c.h"
#include "common/serde.h"
#include "compact/serializer.h"
#include "core/adapters.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "shard/shard_file.h"

namespace spine::shard {

namespace {

// Backstop against corrupt manifests claiming absurd shard counts.
constexpr uint32_t kMaxShards = 1u << 20;

}  // namespace

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Build(
    const Alphabet& alphabet, std::string_view text, const Options& options) {
  if (options.shards == 0) {
    return Status::InvalidArgument("shard count must be >= 1");
  }
  if (options.max_pattern == 0) {
    return Status::InvalidArgument(
        "shard overlap margin (max_pattern) must be >= 1");
  }
  const uint64_t n = text.size();
  // More shards than characters would only add empty slices.
  const uint32_t shards = static_cast<uint32_t>(
      std::min<uint64_t>(options.shards, std::max<uint64_t>(n, 1)));

  std::unique_ptr<ShardedIndex> family(
      new ShardedIndex(alphabet, n, options.max_pattern));
  family->infos_.reserve(shards);
  family->shards_.reserve(shards);
  const uint64_t base = n / shards;
  const uint64_t rem = n % shards;
  uint64_t start = 0;
  for (uint32_t i = 0; i < shards; ++i) {
    const uint64_t len = base + (i < rem ? 1 : 0);
    family->infos_.push_back(
        {start, start + len,
         std::min<uint64_t>(n, start + len + options.max_pattern)});
    family->shards_.emplace_back(alphabet);
    start += len;
  }

  // Per-shard construction is independent (each shard appends only to
  // its own index), so it fans out across the pool. shards_ and infos_
  // are fully sized before any task starts and never resized after.
  std::vector<Status> statuses(shards, Status::OK());
  {
    engine::ThreadPool pool(options.build_threads);
    for (uint32_t i = 0; i < shards; ++i) {
      pool.Submit([raw = family.get(), &statuses, text, i] {
        const ShardInfo& info = raw->infos_[i];
        statuses[i] = raw->shards_[i].AppendString(
            text.substr(info.core_start, info.slice_end - info.core_start));
      });
    }
    pool.Wait();
  }
  for (uint32_t i = 0; i < shards; ++i) {
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(), "shard " + std::to_string(i) + ": " +
                                            std::string(statuses[i].message()));
    }
  }
  family->BuildSources();
  return family;
}

void ShardedIndex::BuildSources() {
  sources_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    // One run: the core range at its offset. The overlap margin only
    // repeats the next shard's text, so every shard is clean.
    const ShardInfo& info = infos_[i];
    sources_.push_back(
        {.index = &shards_[i],
         .runs = {{0, info.core_end - info.core_start, info.core_start}},
         .size = shards_[i].size(),
         .separator = std::nullopt});
  }
}

QueryResult ShardedIndex::Execute(const Query& query,
                                  obs::TraceContext* trace,
                                  const CancelToken* cancel) const {
  // Mapped families fence first: a shrunk shard file must surface as a
  // clean kIoError, never as a SIGBUS inside a walk.
  Status fence = CheckMappingFence();
  if (!fence.ok()) return core::MappingFenceResult(fence);
  // Admission: a longer pattern could straddle a shard boundary without
  // any shard seeing it whole, for every query kind (matching
  // statistics are only exact while no match can exceed the margin).
  // An edit-distance window can run max_errors characters past the
  // pattern length (insertions), so the margin must cover that too. An
  // approximate budget at or past the pattern length names no window
  // (core/query.h answers it empty), so it is never rejected.
  const bool approx_kind = query.kind == QueryKind::kMismatch ||
                           query.kind == QueryKind::kEditDistance;
  const uint64_t window_len =
      query.pattern.size() +
      (query.kind == QueryKind::kEditDistance ? query.max_errors : 0);
  if (window_len > max_pattern_ &&
      !(approx_kind && query.max_errors >= query.pattern.size())) {
    QueryResult rejected;
    rejected.status_code = StatusCode::kInvalidArgument;
    rejected.error = "query window length " + std::to_string(window_len) +
                     " exceeds the shard overlap margin (max_pattern=" +
                     std::to_string(max_pattern_) +
                     "); rebuild with a larger --max-pattern";
    return rejected;
  }
  SPINE_OBS_COUNT("shard.queries", shard_count());
#if !defined(SPINE_OBS_DISABLED)
  {
    static obs::Histogram& fanout = obs::Registry::Default().GetHistogram(
        "shard.fanout", obs::Histogram::ExponentialBounds(1, 2, 8));
    fanout.Observe(shard_count());
  }
  if (trace != nullptr) trace->Note("shard_fanout", shard_count());
#endif
  return ExecuteFanOut(sources_, query, trace, cancel);
}

Status ShardedIndex::CheckMappingFence() const {
  for (const std::shared_ptr<const storage::MmapRegion>& mapping : mappings_) {
    Status fence = mapping->CheckFence();
    if (!fence.ok()) return fence;
  }
  return Status::OK();
}

Status ShardedIndex::VerifyStructure() const {
  Status fence = CheckMappingFence();
  if (!fence.ok()) return fence;
  if (shards_.empty()) {
    return Status::Corruption("sharded family has no shards");
  }
  uint64_t expect_start = 0;
  for (uint32_t i = 0; i < shard_count(); ++i) {
    const ShardInfo& info = infos_[i];
    const std::string tag = "shard " + std::to_string(i);
    if (info.core_start != expect_start || info.core_end < info.core_start) {
      return Status::Corruption(tag +
                                ": core ranges do not partition the string");
    }
    if (info.slice_end !=
        std::min<uint64_t>(n_, info.core_end + max_pattern_)) {
      return Status::Corruption(tag +
                                ": slice end disagrees with the overlap "
                                "margin");
    }
    if (shards_[i].size() != info.slice_end - info.core_start) {
      return Status::Corruption(tag +
                                ": index size disagrees with the manifest "
                                "slice");
    }
    Status status = shards_[i].Validate();
    if (!status.ok()) {
      return Status(status.code(),
                    tag + ": " + std::string(status.message()));
    }
    expect_start = info.core_end;
  }
  if (expect_start != n_) {
    return Status::Corruption("core ranges do not cover the string");
  }
  // Neighbouring shards must agree on every overlap character, or the
  // dedup-by-core-range merge would silently drop/duplicate hits.
  for (uint32_t i = 0; i + 1 < shard_count(); ++i) {
    for (uint64_t pos = infos_[i].core_end; pos < infos_[i].slice_end; ++pos) {
      if (shards_[i].CharAt(pos - infos_[i].core_start) !=
          shards_[i + 1].CharAt(pos - infos_[i + 1].core_start)) {
        return Status::Corruption(
            "shards " + std::to_string(i) + " and " + std::to_string(i + 1) +
            " disagree on overlap character at position " +
            std::to_string(pos));
      }
    }
  }
  return Status::OK();
}

uint64_t ShardedIndex::MemoryBytes() const {
  uint64_t total = infos_.capacity() * sizeof(ShardInfo) + heap_image_bytes_;
  for (const CompactSpineIndex& shard : shards_) {
    total += shard.MemoryBytes();
  }
  return total;
}

Status ShardedIndex::Save(const std::string& path) const {
  const std::string base = BaseName(path);
  std::vector<std::string> names(shard_count());
  std::vector<FileChecksum> files(shard_count());
  for (uint32_t i = 0; i < shard_count(); ++i) {
    names[i] = base + ".shard" + std::to_string(i);
    const std::string shard_path = path + ".shard" + std::to_string(i);
    SPINE_RETURN_IF_ERROR(SaveCompactSpine(shards_[i], shard_path, &files[i]));
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  serde::Writer writer(out);
  writer.Pod(kShardManifestMagic);
  writer.Pod(kShardManifestVersion);
  writer.Pod(static_cast<uint32_t>(alphabet_.kind()));
  writer.Pod(n_);
  writer.Pod(shard_count());
  writer.Pod(max_pattern_);
  for (uint32_t i = 0; i < shard_count(); ++i) {
    writer.Pod(infos_[i].core_start);
    writer.Pod(infos_[i].core_end);
    writer.Pod(infos_[i].slice_end);
    const std::vector<char> name(names[i].begin(), names[i].end());
    writer.Vec(name);
    writer.Pod(files[i].size);
    writer.Pod(files[i].crc);
  }
  writer.WriteCrcFooter();
  out.flush();
  if (!out) return Status::IoError("failed writing " + path);
  return Status::OK();
}

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Load(
    const std::string& path, const core::OpenOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  serde::Reader reader(in);
  const auto corrupt = [&path](const std::string& what) {
    return Status::Corruption(path + ": " + what);
  };

  uint32_t magic = 0;
  if (!reader.Pod(&magic)) return corrupt("truncated manifest");
  if (magic != kShardManifestMagic) {
    return corrupt("not a shard manifest (bad magic)");
  }
  uint32_t version = 0;
  if (!reader.Pod(&version)) return corrupt("truncated manifest");
  if (version != kShardManifestVersion) {
    return corrupt("unsupported manifest version " + std::to_string(version));
  }
  uint32_t alphabet_code = 0;
  uint64_t n = 0;
  uint32_t shards = 0;
  uint32_t max_pattern = 0;
  if (!reader.Pod(&alphabet_code) || !reader.Pod(&n) ||
      !reader.Pod(&shards) || !reader.Pod(&max_pattern)) {
    return corrupt("truncated manifest");
  }
  Result<Alphabet> alphabet = AlphabetFromKindCode(alphabet_code);
  if (!alphabet.ok()) return corrupt(std::string(alphabet.status().message()));
  if (shards == 0 || shards > kMaxShards) {
    return corrupt("implausible shard count " + std::to_string(shards));
  }
  if (max_pattern == 0) return corrupt("zero overlap margin");

  std::vector<ShardInfo> infos(shards);
  std::vector<std::string> names(shards);
  std::vector<FileChecksum> files(shards);
  uint64_t expect_start = 0;
  for (uint32_t i = 0; i < shards; ++i) {
    ShardInfo& info = infos[i];
    std::vector<char> name;
    if (!reader.Pod(&info.core_start) || !reader.Pod(&info.core_end) ||
        !reader.Pod(&info.slice_end) || !reader.Vec(&name) ||
        !reader.Pod(&files[i].size) || !reader.Pod(&files[i].crc)) {
      return corrupt("truncated manifest");
    }
    const std::string tag = "shard " + std::to_string(i);
    if (info.core_start != expect_start || info.core_end < info.core_start ||
        info.slice_end !=
            std::min<uint64_t>(n, info.core_end + max_pattern)) {
      return corrupt(tag + ": invalid split geometry");
    }
    names[i].assign(name.begin(), name.end());
    // Manifest filenames are plain siblings of the manifest; anything
    // else (corruption or tampering) must not escape its directory.
    if (names[i].empty() ||
        names[i].find_first_of("/\\") != std::string::npos ||
        names[i].find("..") != std::string::npos) {
      return corrupt(tag + ": invalid shard filename");
    }
    expect_start = info.core_end;
  }
  if (expect_start != n) {
    return corrupt("core ranges do not cover the string");
  }
  if (!reader.VerifyCrcFooter()) return corrupt("manifest checksum mismatch");

  std::unique_ptr<ShardedIndex> family(
      new ShardedIndex(*alphabet, n, max_pattern));
  family->infos_ = std::move(infos);
  family->shards_.reserve(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    const std::string shard_path = SiblingPath(path, names[i]);
    Result<ShardImage> image =
        OpenShardImage(shard_path, files[i], options);
    if (!image.ok()) return image.status();
    Result<CompactSpineIndex> index = LoadCompactSpineFromMemory(
        image->data, image->size, image->verify, image->keepalive);
    if (!index.ok()) {
      return Status(index.status().code(),
                    shard_path + ": " +
                        std::string(index.status().message()));
    }
    const ShardInfo& info = family->infos_[i];
    if (index->size() != info.slice_end - info.core_start ||
        index->alphabet().kind() != alphabet->kind()) {
      return Status::Corruption(shard_path +
                                ": shard image disagrees with the manifest");
    }
    family->shards_.push_back(std::move(*index));
    if (image->mapping != nullptr) {
      family->mappings_.push_back(std::move(image->mapping));
    } else {
      family->heap_image_bytes_ += image->size;
    }
  }
  family->BuildSources();
  return family;
}

}  // namespace spine::shard
