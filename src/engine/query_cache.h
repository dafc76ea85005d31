// Thread-safe result cache of QueryResults, keyed on
// (backend id, query kind, kind parameters, pattern).
//
// The engine consults it before touching a backend: skewed query
// workloads (hot patterns, retried requests) short-circuit to a stored
// answer. Capacity is a byte budget; a capacity of zero disables the
// cache entirely (Get always misses, Put is a no-op).
//
// Admission follows 2Q (Johnson & Shasha, VLDB 1994), without its
// ghost queue. A new answer enters a probation LRU of at most
// max(budget / 16, 1 MiB), never more than the budget. A hit promotes
// it to the protected LRU, which holds the rest of the budget, unless
// it alone is larger than protected: then it stays on probation. So a
// stream of one-off answers churns probation alone and holds at most
// its cap, while an answer asked again within the cap of new answers
// stays. A budget of 1 MiB or less leaves protected empty, which makes
// it a plain LRU.
//
// Each entry keeps its key and its answer in one buffer, the answer
// varint-encoded (hit positions as deltas), and is charged what it
// really allocates (EntryBytes), so the budget bounds the cache's heap.
//
// Stored answers carry the SearchStats of the execution that produced
// them; batch-level work accounting only counts executed (missed)
// queries, so cached stats are informational.

#ifndef SPINE_ENGINE_QUERY_CACHE_H_
#define SPINE_ENGINE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/query.h"
#include "kernel/kernel.h"

namespace spine::engine {

// Key equality for the cache map, routed through the active comparison
// kernel. Cache keys embed the full query pattern, so on hit-heavy
// workloads this equality check is the engine's hottest byte compare;
// same-bucket collisions resolve at SIMD width instead of bytewise.
struct KernelKeyEq {
  bool operator()(std::string_view a, std::string_view b) const {
    return kernel::VerifyEq(a, b);
  }
};

class QueryCache {
 public:
  explicit QueryCache(uint64_t capacity_bytes);

  // Canonical cache key. backend_id namespaces entries per logical
  // index. The engine always passes core::Index::cache_id(), which is
  // issued by an atomic counter at Index construction — two live
  // indexes can never share an id, so a cached answer can never be
  // served for the wrong index (the caller-managed-id footgun PR 1
  // shipped with). Manual ids remain possible for direct cache users.
  static std::string Key(uint64_t backend_id, const Query& query);

  bool enabled() const { return capacity_ > 0; }

  // Returns a copy of the stored answer; a probation entry moves to
  // protected if it fits there, any other to the front of its segment.
  std::optional<QueryResult> Get(std::string_view key);
  // Stores the answer on probation unless the key is already cached
  // (answers are deterministic, so only its recency is refreshed then)
  // or the answer alone is larger than probation.
  void Put(std::string_view key, const QueryResult& result);
  // Empties both segments.
  void Clear();

  // Heap bytes the entry Put(key, result) would occupy, as a 64-bit
  // glibc-style malloc reserves them (8-byte header, 16-byte granules,
  // 32 bytes at least): its LRU list node, its index node and bucket
  // slot, and its key-plus-answer buffer. This is what it is charged.
  static uint64_t EntryBytes(std::string_view key, const QueryResult& result);

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t promotions = 0;  // probation -> protected on a hit
  };
  Counters counters() const;

  uint64_t capacity_bytes() const { return capacity_; }
  // Bytes charged to stored entries, both segments.
  uint64_t size_bytes() const;
  uint64_t entry_count() const;

 private:
  struct Entry {
    std::string blob;  // the key, then the encoded answer
    size_t key_size = 0;
    uint64_t bytes = 0;
    bool in_protected = false;
    std::string_view key() const { return {blob.data(), key_size}; }
  };
  // One segment: front = most recently stored or used.
  struct Segment {
    std::list<Entry> entries;
    uint64_t size = 0;
    uint64_t capacity = 0;
  };
  using KeyIndex =
      std::unordered_map<std::string_view, std::list<Entry>::iterator,
                         std::hash<std::string_view>, KernelKeyEq>;

  static std::string Encode(std::string_view key, const QueryResult& result);
  static QueryResult Decode(const Entry& entry);
  static uint64_t ChargedBytes(const std::string& blob);

  Segment& SegmentOf(const Entry& entry) {
    return entry.in_protected ? protected_ : probation_;
  }
  // Evicts from the back of `segment` until it fits its capacity.
  void Trim(Segment& segment);

  const uint64_t capacity_;
  mutable std::mutex mu_;
  // The map indexes into both segments' lists, keyed by a view of each
  // entry's own key bytes (list nodes never move, splicing included).
  Segment probation_;
  Segment protected_;
  KeyIndex index_;
  Counters counters_;
};

}  // namespace spine::engine

#endif  // SPINE_ENGINE_QUERY_CACHE_H_
