#include "shard/dynamic_family.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <shared_mutex>
#include <sstream>
#include <utility>

#include "common/crc32c.h"
#include "common/serde.h"
#include "compact/generalized_compact.h"
#include "core/adapters.h"
#include "core/generalized_spine.h"
#include "obs/metrics.h"
#include "shard/fan_out.h"
#include "shard/shard_file.h"
#include "shard/sharded_index.h"
#include "storage/mmap_region.h"

namespace spine::shard {

namespace {

// Backstop against corrupt manifests claiming absurd shard counts.
constexpr uint32_t kMaxDynamicShards = 1u << 20;

// The two reserved separator bytes: the memtable concatenates with the
// GeneralizedSpineIndex separator, frozen shards with the compact one.
// Neither may appear in documents or patterns — a pattern containing
// either could match across document boundaries.
constexpr char kMemSeparator = GeneralizedSpineIndex::kSeparator;
constexpr char kDiskSeparator = GeneralizedCompactSpine::kSeparator;

// Validates and canonicalizes one document through the user alphabet
// (case folding etc.), so the memtable and every frozen shard index
// byte-identical text and answers stay byte-exact across flushes.
Result<std::string> CanonicalizeDocument(const Alphabet& alphabet,
                                         std::string_view text) {
  std::string canonical;
  canonical.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == kMemSeparator || c == kDiskSeparator) {
      return Status::InvalidArgument("document contains a reserved separator "
                                     "byte at offset " +
                                     std::to_string(i));
    }
    const Code code = alphabet.Encode(c);
    if (code == kInvalidCode) {
      return Status::InvalidArgument(
          "character at offset " + std::to_string(i) + " is not in the " +
          alphabet.name() + " alphabet");
    }
    canonical.push_back(alphabet.Decode(code));
  }
  return canonical;
}

}  // namespace

// --- generation model ------------------------------------------------------

// The live, growing shard. The shared_mutex travels with the data:
// the writer appends under the exclusive lock, every reader (on any
// pinned generation) walks the index under the shared lock. Older
// generations simply ignore documents past their visible count.
struct DynamicFamily::MemtableShard {
  explicit MemtableShard(const Alphabet& alphabet) : index(alphabet) {}

  mutable std::shared_mutex mu;
  GeneralizedSpineIndex index;
  std::vector<uint32_t> doc_ids;   // ascending; parallel to texts
  std::vector<std::string> texts;  // canonical document texts
  uint64_t chars = 0;              // total canonical characters (flush trigger)
};

// An immutable on-disk shard image, loaded (or just built) in memory.
struct DynamicFamily::FrozenShard {
  explicit FrozenShard(GeneralizedCompactSpine&& image)
      : index(std::move(image)) {}

  GeneralizedCompactSpine index;
  std::string filename;  // relative to the manifest's directory
  FileChecksum file;     // size and CRC32C the manifest records
  std::vector<uint32_t> doc_ids;  // ascending; parallel to index strings
  // Non-null when the image borrows from a mapping (mmap open): the
  // fence is checked at query admission, exactly like ShardedIndex.
  std::shared_ptr<const storage::MmapRegion> mapping;
  // Size of the heap buffer a heap-opened image borrows its tables
  // from (borrowed tables report no capacity); 0 when built in memory
  // or mapped.
  uint64_t heap_image_bytes = 0;
  // Whether the image's structure is known good: built in this process
  // or validated at open. False only under an mmap-noverify open.
  bool validated = true;
};

// One immutable snapshot of the family's queryable state. Everything
// below `derived state` is precomputed once by the publishing writer;
// readers share the structure lock-free (the memtable's own lock is
// the only lock a query ever takes).
struct DynamicFamily::Generation {
  uint64_t version = 0;
  uint64_t cache_id = 0;
  uint32_t next_doc_id = 0;
  std::vector<std::shared_ptr<const FrozenShard>> shards;
  std::shared_ptr<MemtableShard> memtable;  // null when empty/flushed
  uint32_t memtable_visible = 0;  // docs of the memtable this gen sees
  std::vector<uint32_t> tombstones;  // sorted, unique doc ids

  // --- derived state (BuildDerived) ---
  struct DocRef {
    uint32_t doc_id = 0;
    uint32_t source = 0;  // shard index, or shards.size() = memtable
    uint32_t local = 0;   // document index within the source
  };
  std::vector<DocRef> live;  // ascending doc_id
  // The fan-out sources (shard/fan_out.h): every frozen shard, then the
  // memtable when this generation sees any of it. Each live document is
  // one run, placed at its offset in the live concatenation; a source
  // holding a tombstoned document is dirty, and so is a memtable that
  // grows past this generation's visible documents (its size check).
  std::vector<Source> sources;
  uint64_t total_chars = 0;  // live concatenation size, separators included

  void BuildDerived();
};

void DynamicFamily::Generation::BuildDerived() {
  live.clear();
  sources.clear();
  size_t docs_seen = memtable != nullptr ? memtable_visible : 0;
  for (const std::shared_ptr<const FrozenShard>& shard : shards) {
    docs_seen += shard->doc_ids.size();
  }
  live.reserve(docs_seen);
  sources.reserve(shards.size() + 1);
  uint64_t canonical = 0;
  // Appends a source whose documents have the given lengths, in local
  // order, each followed by one separator.
  const auto add_source = [&](auto index, char separator, uint32_t docs,
                              const std::vector<uint32_t>& doc_ids,
                              const auto& length_of) {
    const uint32_t s = static_cast<uint32_t>(sources.size());
    Source& source = sources.emplace_back();
    source.index = index;
    source.separator = separator;
    source.runs.reserve(docs);
    for (uint32_t i = 0; i < docs; ++i) {
      const uint64_t length = length_of(i);
      if (std::binary_search(tombstones.begin(), tombstones.end(),
                             doc_ids[i])) {
        source.clean = false;
      } else {
        source.runs.push_back({source.size, source.size + length, canonical});
        live.push_back({doc_ids[i], s, i});
        canonical += length + 1;
      }
      source.size += length + 1;
    }
  };
  for (const std::shared_ptr<const FrozenShard>& shard : shards) {
    add_source(&shard->index.underlying(), kDiskSeparator,
               static_cast<uint32_t>(shard->doc_ids.size()), shard->doc_ids,
               [&](uint32_t i) { return shard->index.StringLength(i); });
  }
  if (memtable != nullptr && memtable_visible > 0) {
    add_source(&memtable->index.underlying(), kMemSeparator, memtable_visible,
               memtable->doc_ids,
               [&](uint32_t i) { return memtable->texts[i].size(); });
  }
  total_chars = canonical;
}

// The pinned view handed to engine batches: answers, size and cache_id
// stay frozen on this generation while writers swap underneath.
class DynamicFamily::Snapshot final : public core::Index {
 public:
  Snapshot(Alphabet alphabet, std::shared_ptr<const Generation> generation)
      : alphabet_(std::move(alphabet)), generation_(std::move(generation)) {}

  core::IndexKind kind() const override { return core::IndexKind::kDynamic; }
  core::Capabilities capabilities() const override {
    core::Capabilities caps;
    caps.supports_approx = true;  // per-source seed-and-extend
    caps.persistent = true;
    return caps;
  }
  const Alphabet& alphabet() const override { return alphabet_; }
  uint64_t size() const override { return generation_->total_chars; }
  QueryResult Execute(const Query& query, obs::TraceContext* trace,
                      const CancelToken* cancel) const override {
    return DynamicFamily::ExecuteOnGeneration(*generation_, query, trace,
                                              cancel);
  }
  Status VerifyStructure() const override {
    return DynamicFamily::VerifyGeneration(*generation_);
  }
  uint64_t MemoryBytes() const override {
    return DynamicFamily::GenerationMemoryBytes(*generation_);
  }
  uint64_t cache_id() const override { return generation_->cache_id; }

 private:
  Alphabet alphabet_;
  std::shared_ptr<const Generation> generation_;
};

// --- queries ---------------------------------------------------------------

QueryResult DynamicFamily::ExecuteOnGeneration(const Generation& gen,
                                               const Query& query,
                                               obs::TraceContext* trace,
                                               const CancelToken* cancel) {
  SPINE_OBS_COUNT("lifecycle.queries", 1);
  // A reserved separator byte could match across document boundaries —
  // composition-dependent nonsense — so it is rejected, never answered.
  for (const char c : query.pattern) {
    if (c == kMemSeparator || c == kDiskSeparator) {
      QueryResult rejected;
      rejected.status_code = StatusCode::kInvalidArgument;
      rejected.error = "pattern contains a reserved separator byte";
      return rejected;
    }
  }
  // Length fence before touching mapped shard bytes (docs/STORAGE.md).
  for (const std::shared_ptr<const FrozenShard>& shard : gen.shards) {
    if (shard->mapping != nullptr) {
      Status fence = shard->mapping->CheckFence();
      if (!fence.ok()) return core::MappingFenceResult(fence);
    }
  }
  // One shared lock covers every memtable read: one query sees one
  // memtable state even while the writer appends concurrently.
  std::shared_lock<std::shared_mutex> memtable_lock;
  if (gen.memtable != nullptr) {
    memtable_lock = std::shared_lock<std::shared_mutex>(gen.memtable->mu);
  }
  return ExecuteFanOut(gen.sources, query, trace, cancel);
}

// --- construction / open ---------------------------------------------------

DynamicFamily::DynamicFamily(std::string path, const Alphabet& alphabet,
                             Options options)
    : path_(std::move(path)), alphabet_(alphabet), options_(std::move(options)) {}

DynamicFamily::~DynamicFamily() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_stop_ = true;
  }
  bg_cv_.notify_all();
  if (background_.joinable()) background_.join();
}

Result<std::unique_ptr<DynamicFamily>> DynamicFamily::Create(
    const std::string& path, const Alphabet& alphabet,
    const Options& options) {
  if (alphabet.kind() == Alphabet::Kind::kByte) {
    return Status::InvalidArgument(
        "dynamic families require an encodable alphabet (dna, protein or "
        "ascii): frozen shards are compact images");
  }
  if (std::ifstream probe(path, std::ios::binary); probe) {
    return Status::FailedPrecondition(path +
                                      " already exists; open it instead");
  }
  std::unique_ptr<DynamicFamily> family(
      new DynamicFamily(path, alphabet, options));
  auto generation = std::make_shared<Generation>();
  generation->version = 1;
  generation->cache_id = core::NextIndexCacheId();
  generation->BuildDerived();
  SPINE_RETURN_IF_ERROR(family->WriteManifest(*generation));
  family->current_ = std::move(generation);
  family->StartBackgroundThread();
  return family;
}

Result<std::unique_ptr<DynamicFamily>> DynamicFamily::Open(
    const std::string& path, const Options& options) {
  Alphabet alphabet = Alphabet::Dna();
  Result<std::shared_ptr<Generation>> generation =
      LoadGeneration(path, options, &alphabet);
  if (!generation.ok()) return generation.status();
  std::unique_ptr<DynamicFamily> family(
      new DynamicFamily(path, alphabet, options));
  family->current_ = *std::move(generation);
  family->StartBackgroundThread();
  return family;
}

// --- generation plumbing ---------------------------------------------------

std::shared_ptr<const DynamicFamily::Generation>
DynamicFamily::CurrentGeneration() const {
  std::lock_guard<std::mutex> lock(gen_mu_);
  return current_;
}

void DynamicFamily::Publish(std::shared_ptr<const Generation> generation) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  current_ = std::move(generation);
}

uint64_t DynamicFamily::size() const {
  return CurrentGeneration()->total_chars;
}

uint64_t DynamicFamily::cache_id() const {
  return CurrentGeneration()->cache_id;
}

uint64_t DynamicFamily::generation_version() const {
  return CurrentGeneration()->version;
}

uint32_t DynamicFamily::live_documents() const {
  return static_cast<uint32_t>(CurrentGeneration()->live.size());
}

uint32_t DynamicFamily::next_doc_id() const {
  return CurrentGeneration()->next_doc_id;
}

uint32_t DynamicFamily::frozen_shard_count() const {
  return static_cast<uint32_t>(CurrentGeneration()->shards.size());
}

uint32_t DynamicFamily::memtable_documents() const {
  std::shared_ptr<const Generation> gen = CurrentGeneration();
  if (gen->memtable == nullptr) return 0;
  std::shared_lock<std::shared_mutex> lock(gen->memtable->mu);
  return gen->memtable->index.string_count();
}

uint32_t DynamicFamily::tombstone_count() const {
  return static_cast<uint32_t>(CurrentGeneration()->tombstones.size());
}

QueryResult DynamicFamily::Execute(const Query& query,
                                   obs::TraceContext* trace,
                                   const CancelToken* cancel) const {
  std::shared_ptr<const Generation> gen = CurrentGeneration();
  return ExecuteOnGeneration(*gen, query, trace, cancel);
}

std::shared_ptr<const core::Index> DynamicFamily::PinSnapshot() const {
  return std::make_shared<Snapshot>(alphabet_, CurrentGeneration());
}

Status DynamicFamily::VerifyStructure() const {
  return VerifyGeneration(*CurrentGeneration());
}

uint64_t DynamicFamily::MemoryBytes() const {
  return GenerationMemoryBytes(*CurrentGeneration());
}

Status DynamicFamily::VerifyGeneration(const Generation& gen) {
  for (const std::shared_ptr<const FrozenShard>& shard : gen.shards) {
    if (shard->mapping != nullptr) {
      SPINE_RETURN_IF_ERROR(shard->mapping->CheckFence());
    }
    if (shard->index.string_count() != shard->doc_ids.size()) {
      return Status::Corruption("shard " + shard->filename +
                                " document count mismatch");
    }
    SPINE_RETURN_IF_ERROR(shard->index.underlying().Validate());
  }
  if (gen.memtable != nullptr) {
    std::shared_lock<std::shared_mutex> lock(gen.memtable->mu);
    if (gen.memtable_visible > gen.memtable->index.string_count()) {
      return Status::Corruption(
          "generation sees more memtable documents than exist");
    }
    SPINE_RETURN_IF_ERROR(gen.memtable->index.underlying().Validate());
  }
  for (const uint32_t id : gen.tombstones) {
    if (id >= gen.next_doc_id) {
      return Status::Corruption("tombstone references an unassigned doc id");
    }
  }
  return Status::OK();
}

uint64_t DynamicFamily::GenerationMemoryBytes(const Generation& gen) {
  uint64_t total = 0;
  for (const std::shared_ptr<const FrozenShard>& shard : gen.shards) {
    total += shard->index.underlying().MemoryBytes();
    total += shard->heap_image_bytes;
    total += shard->doc_ids.size() * sizeof(uint32_t);
  }
  if (gen.memtable != nullptr) {
    std::shared_lock<std::shared_mutex> lock(gen.memtable->mu);
    total += gen.memtable->index.underlying().MemoryBytes();
    total += gen.memtable->chars;
  }
  total += gen.live.size() * sizeof(Generation::DocRef);
  for (const Source& source : gen.sources) {
    total += source.runs.size() * sizeof(SourceRun);
  }
  return total;
}

// --- mutations -------------------------------------------------------------

Result<uint32_t> DynamicFamily::InsertDocument(std::string_view text) {
  Result<std::string> canonical = CanonicalizeDocument(alphabet_, text);
  if (!canonical.ok()) return canonical.status();
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::shared_ptr<const Generation> cur = CurrentGeneration();
  auto next = std::make_shared<Generation>();
  next->version = cur->version + 1;
  next->cache_id = core::NextIndexCacheId();
  next->next_doc_id = cur->next_doc_id + 1;
  next->shards = cur->shards;
  next->tombstones = cur->tombstones;
  next->memtable = cur->memtable != nullptr
                       ? cur->memtable
                       : std::make_shared<MemtableShard>(alphabet_);
  const uint32_t doc_id = cur->next_doc_id;
  {
    std::unique_lock<std::shared_mutex> lock(next->memtable->mu);
    SPINE_RETURN_IF_ERROR(next->memtable->index.AddString(*canonical));
    next->memtable->doc_ids.push_back(doc_id);
    next->memtable->chars += canonical->size();
    next->memtable->texts.push_back(std::move(*canonical));
  }
  // The newest generation always sees the full memtable; older pinned
  // generations keep their smaller visible counts.
  next->memtable_visible =
      static_cast<uint32_t>(next->memtable->doc_ids.size());
  next->BuildDerived();
  Publish(next);
  SPINE_OBS_COUNT("lifecycle.inserts", 1);
  if (options_.flush_threshold_bytes > 0 &&
      next->memtable->chars >= options_.flush_threshold_bytes) {
    KickBackground();
  }
  return doc_id;
}

Status DynamicFamily::DeleteDocument(uint32_t doc_id) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::shared_ptr<const Generation> cur = CurrentGeneration();
  const auto it = std::lower_bound(
      cur->live.begin(), cur->live.end(), doc_id,
      [](const Generation::DocRef& ref, uint32_t id) {
        return ref.doc_id < id;
      });
  if (it == cur->live.end() || it->doc_id != doc_id) {
    return Status::NotFound("document " + std::to_string(doc_id) +
                            " is not live");
  }
  auto next = std::make_shared<Generation>();
  next->version = cur->version + 1;
  next->cache_id = core::NextIndexCacheId();
  next->next_doc_id = cur->next_doc_id;
  next->shards = cur->shards;
  next->memtable = cur->memtable;
  next->memtable_visible = cur->memtable_visible;
  next->tombstones = cur->tombstones;
  next->tombstones.insert(std::upper_bound(next->tombstones.begin(),
                                           next->tombstones.end(), doc_id),
                          doc_id);
  next->BuildDerived();
  if (it->source < cur->shards.size()) {
    // Deleting a frozen document: the tombstone must survive reopen,
    // so the manifest commits before the generation publishes. On
    // failure the old generation keeps serving — the doc stays live.
    SPINE_RETURN_IF_ERROR(WriteManifest(*next));
  }
  Publish(next);
  SPINE_OBS_COUNT("lifecycle.deletes", 1);
  return Status::OK();
}

Status DynamicFamily::Flush() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  return FlushLocked();
}

Status DynamicFamily::Compact() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  return CompactLocked();
}

Status DynamicFamily::Reload() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  return ReloadLocked();
}

Status DynamicFamily::FlushLocked() {
  std::shared_ptr<const Generation> cur = CurrentGeneration();
  return MergeLocked(*cur, cur->shards.size(), /*compaction=*/false);
}

Status DynamicFamily::CompactLocked() {
  std::shared_ptr<const Generation> cur = CurrentGeneration();
  const size_t shards = cur->shards.size();
  const bool memtable_live =
      cur->sources.size() > shards && !cur->sources[shards].runs.empty();
  if (shards <= 1 && (shards == 0 || cur->sources[0].clean) &&
      !memtable_live) {
    return FlushLocked();  // nothing to merge
  }
  return MergeLocked(*cur, 0, /*compaction=*/true);
}

Status DynamicFamily::MergeLocked(const Generation& cur, size_t first,
                                  bool compaction) {
  const size_t shard_count = cur.shards.size();
  if (first == cur.sources.size()) return Status::OK();  // no source to merge
  // Source s is frozen shard s, then the memtable; a clean shard holds no
  // tombstoned document, so all of it survives the merge.
  std::shared_ptr<const FrozenShard> base;
  if (first < shard_count && cur.sources[first].clean) {
    base = cur.shards[first];
    // Appending follows the base's links, ribs and extribs; an image
    // opened without verification must prove them in range first.
    if (!base->validated) {
      SPINE_RETURN_IF_ERROR(base->index.underlying().Validate());
    }
  }
  GeneralizedCompactSpine image = base != nullptr
                                      ? base->index.Clone()
                                      : GeneralizedCompactSpine(alphabet_);
  std::vector<uint32_t> doc_ids;
  if (base != nullptr) doc_ids = base->doc_ids;
  // Every other live document of the merged sources, in doc-id order.
  // The writer lock stops the memtable growing meanwhile, and the newest
  // generation sees all of it, so no document is left behind.
  const size_t appended_from = first + (base != nullptr ? 1 : 0);
  for (const Generation::DocRef& doc : cur.live) {
    if (doc.source < appended_from) continue;
    const std::string text =
        doc.source < shard_count
            ? cur.shards[doc.source]->index.StringText(doc.local)
            : cur.memtable->texts[doc.local];
    SPINE_RETURN_IF_ERROR(
        image.AddString(text, "doc-" + std::to_string(doc.doc_id)));
    doc_ids.push_back(doc.doc_id);
  }
  // Tombstones of merged documents die with them. Doc ids ascend across
  // the sources, so the kept shards' tombstones are those below the
  // first merged document.
  const uint32_t first_merged_id = first < shard_count
                                       ? cur.shards[first]->doc_ids.front()
                                       : cur.memtable->doc_ids.front();

  auto next = std::make_shared<Generation>();
  next->version = cur.version + 1;
  next->cache_id = core::NextIndexCacheId();
  next->next_doc_id = cur.next_doc_id;
  next->shards.assign(cur.shards.begin(), cur.shards.begin() + first);
  next->tombstones.assign(cur.tombstones.begin(),
                          std::lower_bound(cur.tombstones.begin(),
                                           cur.tombstones.end(),
                                           first_merged_id));
  [[maybe_unused]] const uint64_t reused_chars =
      base != nullptr ? base->index.total_characters() : 0;
  [[maybe_unused]] const uint64_t merged_chars = image.total_characters();
  if (!doc_ids.empty()) {
    Result<std::shared_ptr<const FrozenShard>> shard =
        WriteShard(next->version, std::move(image), std::move(doc_ids));
    if (!shard.ok()) return shard.status();
    next->shards.push_back(*std::move(shard));
  }
  next->BuildDerived();
  Status status = WriteManifest(*next);
  if (!status.ok()) {
    if (next->shards.size() > first) {
      // Roll back the fresh image; the old generation stays fully live.
      std::remove(SiblingPath(path_, next->shards.back()->filename).c_str());
    }
    return status;
  }
  Publish(next);
  // The merged images are unreferenced by the committed manifest; pinned
  // readers keep them alive through open descriptors or heap copies, so
  // unlinking now is safe.
  for (size_t s = first; s < shard_count; ++s) {
    std::remove(SiblingPath(path_, cur.shards[s]->filename).c_str());
  }
  if (compaction) {
    SPINE_OBS_COUNT("lifecycle.compactions", 1);
    SPINE_OBS_COUNT("lifecycle.compact_reused_chars", reused_chars);
    SPINE_OBS_COUNT("lifecycle.compact_appended_chars",
                    merged_chars - reused_chars);
  } else {
    SPINE_OBS_COUNT("lifecycle.flushes", 1);
  }
  return Status::OK();
}

Status DynamicFamily::ReloadLocked() {
  Alphabet alphabet = Alphabet::Dna();
  Result<std::shared_ptr<Generation>> loaded =
      LoadGeneration(path_, options_, &alphabet);
  if (!loaded.ok()) return loaded.status();
  if (alphabet.kind() != alphabet_.kind()) {
    return Status::FailedPrecondition(
        "manifest alphabet changed across reload");
  }
  std::shared_ptr<const Generation> cur = CurrentGeneration();
  std::shared_ptr<Generation> next = *std::move(loaded);
  // Keep the version counter monotone: volatile inserts bumped the
  // in-memory version past what the manifest recorded.
  if (next->version < cur->version + 1) next->version = cur->version + 1;
  Publish(std::move(next));
  SPINE_OBS_COUNT("lifecycle.reloads", 1);
  return Status::OK();
}

// --- persistence -----------------------------------------------------------

Status DynamicFamily::RunFaultHook(std::string_view step) const {
  if (!options_.write_fault_hook) return Status::OK();
  return options_.write_fault_hook(step);
}

Result<std::shared_ptr<const DynamicFamily::FrozenShard>>
DynamicFamily::WriteShard(uint64_t version, GeneralizedCompactSpine image,
                          std::vector<uint32_t> doc_ids) const {
  // Image files are uniquely named per generation and never rewritten
  // in place — the crash-consistency contract's load-bearing half.
  const std::string filename =
      BaseName(path_) + ".g" + std::to_string(version);
  const std::string full = SiblingPath(path_, filename);
  // The manifest records the size and CRC32C of the bytes handed to
  // the file; a torn write shows up as kCorruption at the next open.
  FileChecksum file;
  Status status = RunFaultHook("shard.write");
  if (status.ok()) status = image.Save(full, &file);
  if (status.ok()) status = RunFaultHook("shard.finish");
  if (!status.ok()) {
    std::remove(full.c_str());
    return status;
  }
  auto shard = std::make_shared<FrozenShard>(std::move(image));
  shard->filename = filename;
  shard->file = file;
  shard->doc_ids = std::move(doc_ids);
  return std::shared_ptr<const FrozenShard>(std::move(shard));
}

Status DynamicFamily::WriteManifest(const Generation& generation) const {
  std::vector<uint32_t> frozen_ids;
  for (const std::shared_ptr<const FrozenShard>& shard : generation.shards) {
    frozen_ids.insert(frozen_ids.end(), shard->doc_ids.begin(),
                      shard->doc_ids.end());
  }
  // Only tombstones of frozen documents are durable; memtable deletes
  // resolve at flush and would dangle after a reopen.
  std::vector<uint32_t> durable_tombstones;
  for (const uint32_t id : generation.tombstones) {
    if (std::binary_search(frozen_ids.begin(), frozen_ids.end(), id)) {
      durable_tombstones.push_back(id);
    }
  }
  SPINE_RETURN_IF_ERROR(RunFaultHook("manifest.write"));
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");
    serde::Writer w(out);
    w.Pod(kShardManifestMagic);
    w.Pod(kDynamicManifestVersion);
    w.Pod(static_cast<uint32_t>(alphabet_.kind()));
    w.Pod<uint64_t>(generation.version);
    w.Pod<uint32_t>(generation.next_doc_id);
    w.Pod<uint32_t>(static_cast<uint32_t>(generation.shards.size()));
    for (const std::shared_ptr<const FrozenShard>& shard : generation.shards) {
      w.Pod<uint32_t>(static_cast<uint32_t>(shard->filename.size()));
      w.Bytes(shard->filename.data(), shard->filename.size());
      w.Pod<uint64_t>(shard->file.size);
      w.Pod<uint32_t>(shard->file.crc);
      w.Vec(shard->doc_ids);
    }
    w.Vec(durable_tombstones);
    w.WriteCrcFooter();
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("write failure on " + tmp);
    }
  }
  Status hook = RunFaultHook("manifest.rename");
  if (!hook.ok()) {
    std::remove(tmp.c_str());
    return hook;
  }
  // The commit point: readers either see the old manifest or the new
  // one in its entirety, never a torn mix.
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    Status status = Status::IoError("rename(" + tmp + ", " + path_ +
                                    "): " + std::strerror(errno));
    std::remove(tmp.c_str());
    return status;
  }
  return Status::OK();
}

Result<std::shared_ptr<DynamicFamily::Generation>>
DynamicFamily::LoadGeneration(const std::string& path, const Options& options,
                              Alphabet* alphabet_out) {
  Result<std::string> manifest_bytes = ReadFileBytes(path);
  if (!manifest_bytes.ok()) return manifest_bytes.status();
  std::istringstream stream(*manifest_bytes);
  serde::Reader r(stream);
  const auto corrupt = [&path](const std::string& what) {
    return Status::Corruption(what + " in " + path);
  };
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t alphabet_code = 0;
  if (!r.Pod(&magic) || magic != kShardManifestMagic) {
    return corrupt("bad family manifest magic");
  }
  if (!r.Pod(&version) || version != kDynamicManifestVersion) {
    return corrupt("unsupported family manifest version");
  }
  if (!r.Pod(&alphabet_code)) return corrupt("truncated alphabet kind");
  Result<Alphabet> alphabet = Alphabet::FromKindCode(alphabet_code);
  if (!alphabet.ok()) return corrupt("bad alphabet kind");
  if (alphabet->kind() == Alphabet::Kind::kByte) {
    return corrupt("byte alphabet is not valid for a dynamic family");
  }
  uint64_t generation_version = 0;
  uint32_t next_doc_id = 0;
  uint32_t shard_count = 0;
  if (!r.Pod(&generation_version) || generation_version == 0) {
    return corrupt("bad generation version");
  }
  if (!r.Pod(&next_doc_id)) return corrupt("truncated next doc id");
  if (!r.Pod(&shard_count) || shard_count > kMaxDynamicShards) {
    return corrupt("absurd shard count");
  }
  struct ShardMeta {
    std::string filename;
    FileChecksum file;
    std::vector<uint32_t> doc_ids;
  };
  std::vector<ShardMeta> metas;
  metas.reserve(shard_count);
  int64_t prev_id = -1;
  for (uint32_t s = 0; s < shard_count; ++s) {
    ShardMeta meta;
    uint32_t name_length = 0;
    if (!r.Pod(&name_length) || name_length == 0 || name_length > 4096) {
      return corrupt("bad shard filename length");
    }
    meta.filename.resize(name_length);
    if (!r.Bytes(meta.filename.data(), name_length)) {
      return corrupt("truncated shard filename");
    }
    if (meta.filename.find_first_of("/\\") != std::string::npos ||
        meta.filename.find("..") != std::string::npos) {
      return corrupt("shard filename escapes the family directory");
    }
    if (!r.Pod(&meta.file.size)) return corrupt("truncated shard size");
    if (!r.Pod(&meta.file.crc)) return corrupt("truncated shard checksum");
    if (!r.Vec(&meta.doc_ids) || meta.doc_ids.empty()) {
      return corrupt("empty shard document list");
    }
    for (const uint32_t id : meta.doc_ids) {
      if (static_cast<int64_t>(id) <= prev_id || id >= next_doc_id) {
        return corrupt("shard document ids out of order");
      }
      prev_id = id;
    }
    metas.push_back(std::move(meta));
  }
  std::vector<uint32_t> tombstones;
  if (!r.Vec(&tombstones)) return corrupt("truncated tombstone set");
  std::vector<uint32_t> frozen_ids;
  for (const ShardMeta& meta : metas) {
    frozen_ids.insert(frozen_ids.end(), meta.doc_ids.begin(),
                      meta.doc_ids.end());
  }
  int64_t prev_tombstone = -1;
  for (const uint32_t id : tombstones) {
    if (static_cast<int64_t>(id) <= prev_tombstone) {
      return corrupt("tombstones out of order");
    }
    prev_tombstone = id;
    if (!std::binary_search(frozen_ids.begin(), frozen_ids.end(), id)) {
      return corrupt("tombstone references no frozen document");
    }
  }
  if (!r.VerifyCrcFooter()) return corrupt("manifest checksum mismatch");
  if (r.consumed() + sizeof(uint32_t) != manifest_bytes->size()) {
    return corrupt("trailing bytes after manifest footer");
  }

  auto generation = std::make_shared<Generation>();
  generation->version = generation_version;
  generation->cache_id = core::NextIndexCacheId();
  generation->next_doc_id = next_doc_id;
  generation->tombstones = std::move(tombstones);
  for (ShardMeta& meta : metas) {
    Result<ShardImage> bytes = OpenShardImage(
        SiblingPath(path, meta.filename), meta.file, options.open);
    if (!bytes.ok()) return bytes.status();
    Result<GeneralizedCompactSpine> image =
        GeneralizedCompactSpine::LoadFromMemory(bytes->data, bytes->size,
                                                bytes->verify,
                                                bytes->keepalive);
    if (!image.ok()) return image.status();
    if (image->string_count() != meta.doc_ids.size()) {
      return Status::Corruption("shard " + meta.filename +
                                " document count disagrees with the manifest");
    }
    if (image->alphabet().kind() != alphabet->kind()) {
      return Status::Corruption("shard " + meta.filename +
                                " alphabet disagrees with the manifest");
    }
    auto shard = std::make_shared<FrozenShard>(std::move(*image));
    shard->filename = std::move(meta.filename);
    shard->file = meta.file;
    shard->doc_ids = std::move(meta.doc_ids);
    shard->heap_image_bytes = bytes->heap_bytes();
    shard->mapping = std::move(bytes->mapping);
    shard->validated = bytes->verify;
    generation->shards.push_back(std::move(shard));
  }
  generation->BuildDerived();
  *alphabet_out = *alphabet;
  return generation;
}

// --- background flush / compaction -----------------------------------------

void DynamicFamily::StartBackgroundThread() {
  if (options_.flush_threshold_bytes == 0 && options_.compact_fanout == 0) {
    return;
  }
  background_ = std::thread([this] { BackgroundLoop(); });
}

void DynamicFamily::KickBackground() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_kick_ = true;
  }
  bg_cv_.notify_all();
}

void DynamicFamily::BackgroundLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(bg_mu_);
      bg_cv_.wait(lock, [this] { return bg_stop_ || bg_kick_; });
      if (bg_stop_) return;
      bg_kick_ = false;
    }
    Status status = Status::OK();
    {
      std::lock_guard<std::mutex> writer(writer_mu_);
      std::shared_ptr<const Generation> cur = CurrentGeneration();
      if (options_.flush_threshold_bytes > 0 && cur->memtable != nullptr &&
          cur->memtable->chars >= options_.flush_threshold_bytes) {
        status = FlushLocked();
      }
      if (status.ok() && options_.compact_fanout > 0) {
        cur = CurrentGeneration();
        if (cur->shards.size() >= options_.compact_fanout) {
          status = CompactLocked();
        }
      }
    }
    if (!status.ok()) {
      // A background failure never takes the family down: the prior
      // generation keeps serving; the error is parked for TakeBackgroundError.
      SPINE_OBS_COUNT("lifecycle.background_errors", 1);
      std::lock_guard<std::mutex> lock(bg_mu_);
      bg_error_ = status;
    }
  }
}

Status DynamicFamily::TakeBackgroundError() {
  std::lock_guard<std::mutex> lock(bg_mu_);
  Status status = bg_error_;
  bg_error_ = Status::OK();
  return status;
}

}  // namespace spine::shard
