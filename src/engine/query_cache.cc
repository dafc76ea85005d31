#include "engine/query_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace spine::engine {

namespace {

constexpr uint64_t kMinProbationBytes = uint64_t{1} << 20;

}  // namespace

QueryCache::QueryCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {
  probation_.capacity =
      std::min(capacity_, std::max(capacity_ / 16, kMinProbationBytes));
  protected_.capacity = capacity_ - probation_.capacity;
}

std::string QueryCache::Key(uint64_t backend_id, const Query& query) {
  std::string key;
  key.reserve(query.pattern.size() + 24);
  key += std::to_string(backend_id);
  key += '|';
  key += std::to_string(static_cast<unsigned>(query.kind));
  key += '|';
  key += std::to_string(query.min_len);
  key += '|';
  key += query.expand_occurrences ? '1' : '0';
  key += '|';
  key += std::to_string(query.max_errors);
  key += '|';
  key += query.pattern;  // last field, so embedded '|' is unambiguous
  return key;
}

namespace {

// LEB128 varints: 7 bits per byte, the high bit set on all but the last.
// Hit positions go in as zigzag-mapped steps from the previous hit, so
// the sorted hits of an answer cost a few bytes each.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Reads back what WriteSink wrote.
struct ReadSource {
  const char* in;
  uint64_t Varint() {
    uint8_t byte = static_cast<uint8_t>(*in++);
    uint64_t v = byte & 0x7fu;
    for (uint32_t shift = 7; byte >= 0x80; shift += 7) {
      byte = static_cast<uint8_t>(*in++);
      v |= uint64_t{byte & 0x7fu} << shift;
    }
    return v;
  }
};

// Counts the encoded bytes (first pass) or writes them (second pass).
struct SizeSink {
  size_t size = 0;
  void Varint(uint64_t v) {
    for (++size; v >= 0x80; v >>= 7) ++size;
  }
  void Raw(std::string_view bytes) { size += bytes.size(); }
};
struct WriteSink {
  char* out;
  void Varint(uint64_t v) {
    for (; v >= 0x80; v >>= 7) *out++ = static_cast<char>(v | 0x80);
    *out++ = static_cast<char>(v);
  }
  void Raw(std::string_view bytes) {
    if (bytes.empty()) return;  // data() may be null
    std::memcpy(out, bytes.data(), bytes.size());
    out += bytes.size();
  }
};

// The answer's fields in encoding order; Decode reads them back in it.
template <typename Sink>
void EmitAnswer(const QueryResult& r, Sink& sink) {
  sink.Varint(r.found ? 1 : 0);
  sink.Varint(static_cast<uint64_t>(r.status_code));
  sink.Varint(r.stats.nodes_checked);
  sink.Varint(r.stats.link_traversals);
  sink.Varint(r.stats.chain_hops);
  sink.Varint(r.error.size());
  sink.Raw(r.error);
  sink.Varint(r.hits.size());
  int64_t previous = 0;
  for (const Hit& hit : r.hits) {
    sink.Varint(ZigZag(int64_t{hit.pos} - previous));
    previous = hit.pos;
    sink.Varint(hit.length);
    sink.Varint(hit.query_pos);
  }
  // Matching statistics go in raw, so a served answer decodes with one
  // copy; they are short (one value per pattern character).
  sink.Varint(r.matching_stats.size());
  sink.Raw({reinterpret_cast<const char*>(r.matching_stats.data()),
            r.matching_stats.size() * sizeof(uint32_t)});
}

// What a 64-bit glibc-style malloc reserves for an n-byte request.
uint64_t HeapBytes(uint64_t n) {
  return std::max<uint64_t>(32, (n + 8 + 15) & ~uint64_t{15});
}

}  // namespace

std::string QueryCache::Encode(std::string_view key,
                               const QueryResult& result) {
  SizeSink size;
  EmitAnswer(result, size);
  // Sized exactly, so the buffer's capacity is what the entry holds.
  std::string blob(key.size() + size.size, '\0');
  std::memcpy(blob.data(), key.data(), key.size());
  WriteSink write{blob.data() + key.size()};
  EmitAnswer(result, write);
  return blob;
}

QueryResult QueryCache::Decode(const Entry& entry) {
  ReadSource source{entry.blob.data() + entry.key_size};
  QueryResult r;
  r.found = source.Varint() != 0;
  r.status_code = static_cast<StatusCode>(source.Varint());
  r.stats.nodes_checked = source.Varint();
  r.stats.link_traversals = source.Varint();
  r.stats.chain_hops = source.Varint();
  const uint64_t error_size = source.Varint();
  r.error.assign(source.in, error_size);
  source.in += error_size;
  r.hits.resize(source.Varint());
  int64_t previous = 0;
  for (Hit& hit : r.hits) {
    previous += UnZigZag(source.Varint());
    hit.pos = static_cast<uint32_t>(previous);
    hit.length = static_cast<uint32_t>(source.Varint());
    hit.query_pos = static_cast<uint32_t>(source.Varint());
  }
  r.matching_stats.resize(source.Varint());
  if (!r.matching_stats.empty()) {
    std::memcpy(r.matching_stats.data(), source.in,
                r.matching_stats.size() * sizeof(uint32_t));
  }
  return r;
}

uint64_t QueryCache::ChargedBytes(const std::string& blob) {
  // A list node holds two links and the Entry; an index node holds the
  // next link, the (key view, iterator) pair and the cached hash; the
  // bucket array holds about one pointer per entry.
  constexpr uint64_t kListNode = 2 * sizeof(void*) + sizeof(Entry);
  constexpr uint64_t kIndexNode =
      2 * sizeof(void*) + sizeof(KeyIndex::value_type);
  const bool on_heap = blob.capacity() > std::string().capacity();
  return HeapBytes(kListNode) + HeapBytes(kIndexNode) + sizeof(void*) +
         (on_heap ? HeapBytes(blob.capacity() + 1) : 0);
}

uint64_t QueryCache::EntryBytes(std::string_view key,
                                const QueryResult& result) {
  return ChargedBytes(Encode(key, result));
}

std::optional<QueryResult> QueryCache::Get(std::string_view key) {
  if (!enabled()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return std::nullopt;
  }
  ++counters_.hits;
  const std::list<Entry>::iterator entry = it->second;
  if (!entry->in_protected && entry->bytes <= protected_.capacity) {
    probation_.size -= entry->bytes;
    protected_.size += entry->bytes;
    entry->in_protected = true;
    protected_.entries.splice(protected_.entries.begin(), probation_.entries,
                              entry);
    ++counters_.promotions;
    SPINE_OBS_COUNT("engine.cache_promotions", 1);
    Trim(protected_);  // never evicts `entry`: it fits protected alone
  } else {
    // Protected entries, and probation entries larger than all of
    // protected (promoting one would flush it), refresh in place.
    Segment& segment = SegmentOf(*entry);
    segment.entries.splice(segment.entries.begin(), segment.entries, entry);
  }
  return Decode(*entry);
}

void QueryCache::Put(std::string_view key, const QueryResult& result) {
  if (!enabled()) return;
  std::string blob = Encode(key, result);
  const uint64_t bytes = ChargedBytes(blob);
  // Would evict all of probation for one entry.
  if (bytes > probation_.capacity) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Another thread answered the same query first; the stored answer
    // is the same (answers are deterministic), so only refresh it.
    Segment& segment = SegmentOf(*it->second);
    segment.entries.splice(segment.entries.begin(), segment.entries,
                           it->second);
    return;
  }
  probation_.entries.push_front(Entry{std::move(blob), key.size(), bytes});
  index_.emplace(probation_.entries.front().key(),
                 probation_.entries.begin());
  probation_.size += bytes;
  ++counters_.insertions;
  Trim(probation_);
}

void QueryCache::Trim(Segment& segment) {
  while (segment.size > segment.capacity) {
    const Entry& victim = segment.entries.back();
    segment.size -= victim.bytes;
    index_.erase(victim.key());
    segment.entries.pop_back();
    ++counters_.evictions;
  }
}

void QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Segment* segment : {&probation_, &protected_}) {
    segment->entries.clear();
    segment->size = 0;
  }
  index_.clear();
}

QueryCache::Counters QueryCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

uint64_t QueryCache::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probation_.size + protected_.size;
}

uint64_t QueryCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probation_.entries.size() + protected_.entries.size();
}

}  // namespace spine::engine
