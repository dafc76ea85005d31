// Thin core::Index adapters for every concrete backend.
//
// Each adapter either *borrows* a caller-owned backend (const&
// constructor — the backend must outlive the adapter; this is what
// tests and benches use) or *owns* one (rvalue / unique_ptr
// constructor — what BackendRegistry::Open hands out). Adapters add no
// behavior beyond translating Execute() onto the backend's native
// search entry points and reporting honest Capabilities.
//
// Query semantics are identical across adapters — the engine agreement
// tests assert byte-identical QueryResult payloads for every kind a
// backend supports:
//   - SPINE-shaped backends (reference, compact, disk, generalized)
//     dispatch through core/query.h ExecuteQuery, sharing the generic
//     algorithms of core/search.h and core/matcher.h.
//   - Suffix-tree backends run the suffix-link matcher
//     (suffix_tree/st_matcher.h) and derive matching statistics from
//     maximal matches via the same decay rule the SPINE path uses.
//   - CompactDawg answers kContains only; other kinds return a loud
//     kInvalidArgument result (see Capabilities::query_kinds).
//   - NaiveTextAdapter wraps a raw string with the brute-force oracle,
//     giving tests a ground-truth Index.

#ifndef SPINE_CORE_ADAPTERS_H_
#define SPINE_CORE_ADAPTERS_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "compact/compact_spine.h"
#include "compact/generalized_compact.h"
#include "core/generalized_spine.h"
#include "core/index.h"
#include "core/spine_index.h"
#include "dawg/compact_dawg.h"
#include "storage/disk_spine.h"
#include "storage/disk_suffix_tree.h"
#include "storage/mmap_region.h"
#include "storage/page_file.h"
#include "suffix_tree/suffix_tree.h"

namespace spine::core {

// A query-kind-unsupported error result (never a silently empty
// answer); shared by the adapters and shard::ShardedIndex.
QueryResult UnsupportedKindResult(std::string_view backend, QueryKind kind);

// A kIoError result for a query admitted after the artifact's mapping
// fence tripped (the file shrank under the mapping; see
// storage/mmap_region.h). Shared by the mmap-opened adapters and both
// shard families.
QueryResult MappingFenceResult(const Status& fence);

class SpineIndexAdapter final : public Index {
 public:
  explicit SpineIndexAdapter(const SpineIndex& index) : index_(&index) {}
  explicit SpineIndexAdapter(SpineIndex&& index)
      : owned_(std::move(index)), index_(&*owned_) {}

  IndexKind kind() const override { return IndexKind::kSpine; }
  Capabilities capabilities() const override {
    Capabilities caps;
    caps.supports_approx = true;  // backbone seed lookup available
    return caps;
  }
  const Alphabet& alphabet() const override { return index_->alphabet(); }
  uint64_t size() const override { return index_->size(); }
  QueryResult Execute(const Query& query,
                      obs::TraceContext* trace = nullptr,
                      const CancelToken* cancel = nullptr) const override {
    return ExecuteQuery(*index_, query, trace, cancel);
  }
  Status VerifyStructure() const override { return index_->Validate(); }
  uint64_t MemoryBytes() const override { return index_->MemoryBytes(); }

 private:
  std::optional<SpineIndex> owned_;
  const SpineIndex* index_;
};

class CompactSpineAdapter final : public Index {
 public:
  explicit CompactSpineAdapter(const CompactSpineIndex& index)
      : index_(&index) {}
  explicit CompactSpineAdapter(CompactSpineIndex&& index)
      : owned_(std::move(index)), index_(&*owned_) {}
  // Zero-copy open: the index borrows its tables from `mapping`; every
  // query admission checks the length fence first so a shrunk artifact
  // surfaces as a clean kIoError, never SIGBUS.
  CompactSpineAdapter(CompactSpineIndex&& index,
                      std::shared_ptr<const storage::MmapRegion> mapping)
      : owned_(std::move(index)),
        index_(&*owned_),
        mapping_(std::move(mapping)) {}

  IndexKind kind() const override { return IndexKind::kCompactSpine; }
  Capabilities capabilities() const override {
    Capabilities caps;
    caps.supports_approx = true;
    caps.persistent = true;
    return caps;
  }
  const Alphabet& alphabet() const override { return index_->alphabet(); }
  uint64_t size() const override { return index_->size(); }
  QueryResult Execute(const Query& query,
                      obs::TraceContext* trace = nullptr,
                      const CancelToken* cancel = nullptr) const override {
    if (mapping_ != nullptr) {
      Status fence = mapping_->CheckFence();
      if (!fence.ok()) return MappingFenceResult(fence);
    }
    return ExecuteQuery(*index_, query, trace, cancel);
  }
  Status VerifyStructure() const override {
    if (mapping_ != nullptr) {
      SPINE_RETURN_IF_ERROR(mapping_->CheckFence());
    }
    return index_->Validate();
  }
  uint64_t MemoryBytes() const override { return index_->MemoryBytes(); }

  const CompactSpineIndex& backend() const { return *index_; }

 private:
  std::optional<CompactSpineIndex> owned_;
  const CompactSpineIndex* index_;
  std::shared_ptr<const storage::MmapRegion> mapping_;
};

// Queries run against the concatenated underlying index, so hit
// positions are global offsets into the separator-joined text (use the
// backend's native FindAll for (string, offset) mapping).
class GeneralizedSpineAdapter final : public Index {
 public:
  explicit GeneralizedSpineAdapter(const GeneralizedSpineIndex& index)
      : index_(&index) {}
  explicit GeneralizedSpineAdapter(GeneralizedSpineIndex&& index)
      : owned_(std::move(index)), index_(&*owned_) {}

  IndexKind kind() const override { return IndexKind::kGeneralizedSpine; }
  Capabilities capabilities() const override {
    Capabilities caps;
    caps.supports_approx = true;
    return caps;
  }
  const Alphabet& alphabet() const override {
    return index_->underlying().alphabet();
  }
  uint64_t size() const override { return index_->underlying().size(); }
  QueryResult Execute(const Query& query,
                      obs::TraceContext* trace = nullptr,
                      const CancelToken* cancel = nullptr) const override {
    // The separator keeps approximate windows inside one document.
    return ExecuteQuery(index_->underlying(), query, trace, cancel,
                        GeneralizedSpineIndex::kSeparator);
  }
  Status VerifyStructure() const override {
    return index_->underlying().Validate();
  }
  uint64_t MemoryBytes() const override {
    return index_->underlying().MemoryBytes();
  }

 private:
  std::optional<GeneralizedSpineIndex> owned_;
  const GeneralizedSpineIndex* index_;
};

class GeneralizedCompactAdapter final : public Index {
 public:
  explicit GeneralizedCompactAdapter(const GeneralizedCompactSpine& index)
      : index_(&index) {}
  explicit GeneralizedCompactAdapter(GeneralizedCompactSpine&& index)
      : owned_(std::move(index)), index_(&*owned_) {}
  // Zero-copy open (see CompactSpineAdapter).
  GeneralizedCompactAdapter(GeneralizedCompactSpine&& index,
                            std::shared_ptr<const storage::MmapRegion> mapping)
      : owned_(std::move(index)),
        index_(&*owned_),
        mapping_(std::move(mapping)) {}

  IndexKind kind() const override { return IndexKind::kGeneralizedCompact; }
  Capabilities capabilities() const override {
    Capabilities caps;
    caps.supports_approx = true;
    caps.persistent = true;
    return caps;
  }
  const Alphabet& alphabet() const override {
    return index_->underlying().alphabet();
  }
  uint64_t size() const override { return index_->underlying().size(); }
  QueryResult Execute(const Query& query,
                      obs::TraceContext* trace = nullptr,
                      const CancelToken* cancel = nullptr) const override {
    if (mapping_ != nullptr) {
      Status fence = mapping_->CheckFence();
      if (!fence.ok()) return MappingFenceResult(fence);
    }
    // The separator keeps approximate windows inside one document.
    return ExecuteQuery(index_->underlying(), query, trace, cancel,
                        GeneralizedCompactSpine::kSeparator);
  }
  Status VerifyStructure() const override {
    if (mapping_ != nullptr) {
      SPINE_RETURN_IF_ERROR(mapping_->CheckFence());
    }
    return index_->underlying().Validate();
  }
  uint64_t MemoryBytes() const override {
    return index_->underlying().MemoryBytes();
  }

  const GeneralizedCompactSpine& backend() const { return *index_; }

 private:
  std::optional<GeneralizedCompactSpine> owned_;
  const GeneralizedCompactSpine* index_;
  std::shared_ptr<const storage::MmapRegion> mapping_;
};

class DiskSpineAdapter final : public Index {
 public:
  explicit DiskSpineAdapter(const storage::DiskSpine& index)
      : index_(&index) {}
  explicit DiskSpineAdapter(std::unique_ptr<storage::DiskSpine> index)
      : owned_(std::move(index)), index_(owned_.get()) {}

  IndexKind kind() const override { return IndexKind::kDiskSpine; }
  Capabilities capabilities() const override {
    Capabilities caps;
    caps.concurrent_reads = false;  // const reads share the buffer pool
    caps.statusful_io = true;
    caps.supports_approx = true;
    caps.persistent = true;
    return caps;
  }
  const Alphabet& alphabet() const override { return index_->alphabet(); }
  uint64_t size() const override { return index_->size(); }
  QueryResult Execute(const Query& query,
                      obs::TraceContext* trace = nullptr,
                      const CancelToken* cancel = nullptr) const override {
    // ExecuteQuery drains + re-checks the I/O error latch around the
    // traversal (the IoLatchedIndex concept), so faults surface as
    // per-query error results here too; the CancelScopedIndex concept
    // additionally routes `cancel` to the buffer pool, which polls it
    // on every page miss.
    return ExecuteQuery(*index_, query, trace, cancel);
  }
  Status VerifyStructure() const override {
    Status status = index_->VerifyStructure();
    if (status.ok()) status = index_->ConsumeError();
    return status;
  }
  uint64_t MemoryBytes() const override {
    return index_->PoolMemoryBytes() + index_->MetadataBytes();
  }

  const storage::DiskSpine& backend() const { return *index_; }

 private:
  std::unique_ptr<storage::DiskSpine> owned_;
  const storage::DiskSpine* index_;
};

class DiskSuffixTreeAdapter final : public Index {
 public:
  explicit DiskSuffixTreeAdapter(const storage::DiskSuffixTree& tree)
      : tree_(&tree) {}
  explicit DiskSuffixTreeAdapter(std::unique_ptr<storage::DiskSuffixTree> tree)
      : owned_(std::move(tree)), tree_(owned_.get()) {}

  IndexKind kind() const override { return IndexKind::kDiskSuffixTree; }
  Capabilities capabilities() const override {
    Capabilities caps;
    caps.concurrent_reads = false;  // const reads share the buffer pool
    caps.statusful_io = true;
    caps.persistent = true;
    return caps;
  }
  const Alphabet& alphabet() const override { return tree_->alphabet(); }
  uint64_t size() const override { return tree_->size(); }
  QueryResult Execute(const Query& query,
                      obs::TraceContext* trace = nullptr,
                      const CancelToken* cancel = nullptr) const override;
  // Paged node/text walk: edge ranges, child targets and suffix indexes
  // in bounds. Reads every record, so page checksums are exercised too.
  Status VerifyStructure() const override;
  uint64_t MemoryBytes() const override {
    return tree_->PagesUsed() * storage::kPageSize;
  }

  const storage::DiskSuffixTree& backend() const { return *tree_; }

 private:
  std::unique_ptr<storage::DiskSuffixTree> owned_;
  const storage::DiskSuffixTree* tree_;
};

class SuffixTreeAdapter final : public Index {
 public:
  explicit SuffixTreeAdapter(const SuffixTree& tree) : tree_(&tree) {}
  explicit SuffixTreeAdapter(SuffixTree&& tree)
      : owned_(std::move(tree)), tree_(&*owned_) {}

  IndexKind kind() const override { return IndexKind::kSuffixTree; }
  Capabilities capabilities() const override { return Capabilities{}; }
  const Alphabet& alphabet() const override { return tree_->alphabet(); }
  uint64_t size() const override { return tree_->size(); }
  QueryResult Execute(const Query& query,
                      obs::TraceContext* trace = nullptr,
                      const CancelToken* cancel = nullptr) const override;
  Status VerifyStructure() const override { return tree_->Validate(); }
  uint64_t MemoryBytes() const override { return tree_->MemoryBytes(); }

 private:
  std::optional<SuffixTree> owned_;
  const SuffixTree* tree_;
};

class CompactDawgAdapter final : public Index {
 public:
  explicit CompactDawgAdapter(const CompactDawg& dawg) : dawg_(&dawg) {}
  explicit CompactDawgAdapter(CompactDawg&& dawg)
      : owned_(std::move(dawg)), dawg_(&*owned_) {}

  IndexKind kind() const override { return IndexKind::kCompactDawg; }
  Capabilities capabilities() const override {
    Capabilities caps;
    caps.query_kinds = QueryKindBit(QueryKind::kContains);
    return caps;
  }
  const Alphabet& alphabet() const override;
  uint64_t size() const override { return dawg_->size(); }
  QueryResult Execute(const Query& query,
                      obs::TraceContext* trace = nullptr,
                      const CancelToken* cancel = nullptr) const override;
  Status VerifyStructure() const override { return dawg_->Validate(); }
  uint64_t MemoryBytes() const override { return dawg_->MemoryBytes(); }

 private:
  std::optional<CompactDawg> owned_;
  const CompactDawg* dawg_;
};

// Brute-force oracle over a plain text copy — the slowest and most
// obviously correct Index, for agreement tests.
class NaiveTextAdapter final : public Index {
 public:
  NaiveTextAdapter(const Alphabet& alphabet, std::string text)
      : alphabet_(alphabet), text_(std::move(text)) {}

  IndexKind kind() const override { return IndexKind::kNaive; }
  Capabilities capabilities() const override { return Capabilities{}; }
  const Alphabet& alphabet() const override { return alphabet_; }
  uint64_t size() const override { return text_.size(); }
  QueryResult Execute(const Query& query,
                      obs::TraceContext* trace = nullptr,
                      const CancelToken* cancel = nullptr) const override;
  Status VerifyStructure() const override { return Status::OK(); }
  uint64_t MemoryBytes() const override { return text_.capacity(); }

 private:
  Alphabet alphabet_;
  std::string text_;
};

}  // namespace spine::core

#endif  // SPINE_CORE_ADAPTERS_H_
