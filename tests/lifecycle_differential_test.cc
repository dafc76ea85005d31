// The lifecycle differential harness (docs/LIFECYCLE.md): every
// interleaving of mutations (insert / delete / flush / compact /
// reload) and queries against shard::DynamicFamily must agree
// byte-for-byte with a naive oracle — a GeneralizedSpineIndex rebuilt
// from scratch over the live canonical documents in doc-id order,
// answering through ExecuteQuery on its underlying index.
//
// Three layers of adversity:
//   1. seeded random interleavings, heap and mmap open paths;
//   2. >= 100 seeded fault schedules on the flush/compaction/delete
//      write path (shard.write / shard.finish / manifest.write /
//      manifest.rename) — a failed mutation must leave the prior
//      generation fully live, in memory AND after a fresh Open;
//   3. compaction racing concurrent readers (the TSan target in CI).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/generalized_spine.h"
#include "core/query.h"
#include "engine/query_engine.h"
#include "shard/dynamic_family.h"
#include "test_util.h"

namespace spine::shard {
namespace {

using spine::test::RandomDna;
using spine::test::ScopedTempDir;

std::vector<Query> AllKinds(const std::string& pattern, uint32_t min_len) {
  std::vector<Query> queries = {
      Query::Contains(pattern), Query::FindAll(pattern),
      Query::MatchingStats(pattern), Query::MaximalMatches(pattern, min_len),
      Query::MaximalMatches(pattern, min_len, /*expand=*/true)};
  for (uint32_t k = 0; k <= 2; ++k) {
    queries.push_back(Query::Mismatch(pattern, k));
    queries.push_back(Query::EditDistance(pattern, k));
  }
  return queries;
}

// The oracle's answer: its underlying index with its separator, so no
// approximate window crosses a document boundary.
QueryResult OracleAnswer(const GeneralizedSpineIndex& oracle,
                         const Query& query) {
  return ExecuteQuery(oracle.underlying(), query, nullptr, nullptr,
                      GeneralizedSpineIndex::kSeparator);
}

// The specification the family is tested against: which documents are
// visible now, which state is durable (visible after Reload / a fresh
// Open), and the manifest-level counters the accessors expose. Every
// transition mirrors the contract in shard/dynamic_family.h, not the
// implementation.
class Model {
 public:
  uint32_t Insert(std::string text) {
    const uint32_t id = next_id_++;
    memtable_.emplace(id, std::move(text));
    ++memtable_ever_;
    return id;
  }

  // True iff the document was live (the family must answer OK).
  bool Delete(uint32_t id) {
    if (memtable_.erase(id) > 0) {
      ++memtable_deleted_;
      return true;
    }
    const auto it = frozen_.find(id);
    if (it == frozen_.end()) return false;
    // Deleting a frozen document commits the manifest at delete time:
    // the tombstone and the current doc-id watermark become durable.
    frozen_.erase(it);
    durable_tombstones_.insert(id);
    durable_next_id_ = next_id_;
    return true;
  }

  void Flush() {
    if (memtable_ever_ == 0) return;  // empty memtable: flush is a no-op
    if (!memtable_.empty()) ++shard_count_;
    for (auto& [id, text] : memtable_) frozen_.emplace(id, std::move(text));
    memtable_.clear();
    memtable_ever_ = 0;
    memtable_deleted_ = 0;  // memtable tombstones resolve at the flush
    durable_next_id_ = next_id_;
  }

  void Compact() {
    Flush();
    if (shard_count_ <= 1 && durable_tombstones_.empty()) return;
    shard_count_ = frozen_.empty() ? 0u : 1u;
    durable_tombstones_.clear();
    durable_next_id_ = next_id_;
  }

  void Reload() {
    // Volatile state dies; every frozen transition was already durable.
    memtable_.clear();
    memtable_ever_ = 0;
    memtable_deleted_ = 0;
    next_id_ = durable_next_id_;
  }

  // Live documents in doc-id order (frozen ids always precede memtable
  // ids: the durable watermark never runs ahead of an unflushed id).
  std::vector<std::string> LiveDocs() const {
    std::vector<std::string> docs;
    docs.reserve(frozen_.size() + memtable_.size());
    for (const auto& [id, text] : frozen_) docs.push_back(text);
    for (const auto& [id, text] : memtable_) docs.push_back(text);
    return docs;
  }
  std::vector<uint32_t> LiveIds() const {
    std::vector<uint32_t> ids;
    for (const auto& [id, text] : frozen_) ids.push_back(id);
    for (const auto& [id, text] : memtable_) ids.push_back(id);
    return ids;
  }

  uint32_t next_id() const { return next_id_; }
  uint32_t live_documents() const {
    return static_cast<uint32_t>(frozen_.size() + memtable_.size());
  }
  uint32_t memtable_documents() const { return memtable_ever_; }
  uint32_t shard_count() const { return shard_count_; }
  uint32_t tombstone_count() const {
    return static_cast<uint32_t>(durable_tombstones_.size()) +
           memtable_deleted_;
  }

 private:
  std::map<uint32_t, std::string> frozen_;    // durable live documents
  std::map<uint32_t, std::string> memtable_;  // volatile live documents
  std::set<uint32_t> durable_tombstones_;
  uint32_t next_id_ = 0;
  uint32_t durable_next_id_ = 0;
  uint32_t memtable_ever_ = 0;      // inserts since the last flush
  uint32_t memtable_deleted_ = 0;   // deletes of those inserts
  uint32_t shard_count_ = 0;
};

// Full agreement check: accessors, then every query kind over a mix of
// guaranteed-hit substrings and random probes against the oracle.
void ExpectAgrees(const DynamicFamily& family, const Model& model, Rng& rng,
                  const std::string& label) {
  ASSERT_EQ(family.live_documents(), model.live_documents()) << label;
  ASSERT_EQ(family.next_doc_id(), model.next_id()) << label;
  ASSERT_EQ(family.frozen_shard_count(), model.shard_count()) << label;
  ASSERT_EQ(family.memtable_documents(), model.memtable_documents()) << label;
  ASSERT_EQ(family.tombstone_count(), model.tombstone_count()) << label;

  const std::vector<std::string> docs = model.LiveDocs();
  GeneralizedSpineIndex oracle(family.alphabet());
  for (const std::string& doc : docs) {
    ASSERT_TRUE(oracle.AddString(doc).ok()) << label;
  }
  ASSERT_EQ(family.size(), oracle.underlying().size()) << label;

  std::vector<std::string> patterns = {"", RandomDna(rng, 3),
                                       RandomDna(rng, 6)};
  for (int i = 0; i < 3 && !docs.empty(); ++i) {
    const std::string& doc = docs[rng.Below(docs.size())];
    const uint64_t start = rng.Below(doc.size());
    patterns.push_back(doc.substr(start, 1 + rng.Below(12)));
  }
  for (const std::string& pattern : patterns) {
    for (const Query& query : AllKinds(pattern, 3)) {
      QueryResult expected = OracleAnswer(oracle, query);
      QueryResult got = family.Execute(query);
      ASSERT_TRUE(got.SameAnswer(expected))
          << label << ", kind " << QueryKindName(query.kind) << ", pattern \""
          << pattern << "\": status " << static_cast<int>(got.status_code)
          << " vs " << static_cast<int>(expected.status_code);
    }
  }
}

TEST(LifecycleDifferentialTest, RandomInterleavingsAgreeWithOracle) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScopedTempDir dir("lifecycle_seed" + std::to_string(seed));
    Rng rng(seed);
    DynamicFamily::Options options;
    if (seed % 2 == 0) options.open.mode = core::OpenMode::kMmap;
    auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                        Alphabet::Dna(), options);
    ASSERT_TRUE(family.ok()) << family.status().ToString();
    Model model;

    for (int op = 0; op < 30; ++op) {
      const uint64_t r = rng.Below(100);
      if (r < 45) {
        const std::string doc = RandomDna(rng, 1 + rng.Below(60));
        auto id = (*family)->InsertDocument(doc);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ASSERT_EQ(*id, model.Insert(doc));
      } else if (r < 65) {
        // Existing and bogus ids alike; verdicts must match.
        const uint32_t id = static_cast<uint32_t>(
            rng.Below(static_cast<uint64_t>(model.next_id()) + 2));
        const bool lived = model.Delete(id);
        EXPECT_EQ((*family)->DeleteDocument(id).ok(), lived)
            << "op " << op << " delete " << id;
      } else if (r < 80) {
        ASSERT_TRUE((*family)->Flush().ok());
        model.Flush();
      } else if (r < 90) {
        ASSERT_TRUE((*family)->Compact().ok());
        model.Compact();
      } else {
        ASSERT_TRUE((*family)->Reload().ok());
        model.Reload();
      }
      if (op % 5 == 4) {
        ExpectAgrees(**family, model, rng,
                     "seed " + std::to_string(seed) + " op " +
                         std::to_string(op));
      }
    }
    ExpectAgrees(**family, model, rng, "seed " + std::to_string(seed) +
                                           " final");
    EXPECT_TRUE((*family)->VerifyStructure().ok());
  }
}

// Shared switchboard between a test body and the family's write fault
// hook: arm a step, the Nth matching invocation fails once.
struct FaultState {
  std::string armed_step;
  int remaining = 0;
  int fired = 0;
};

TEST(LifecycleDifferentialTest, HundredSeedFaultSchedulesKeepOldGenerationLive) {
  static const char* kSteps[] = {"shard.write", "shard.finish",
                                 "manifest.write", "manifest.rename"};
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScopedTempDir dir("lifecycle_fault" + std::to_string(seed));
    const std::string path = dir.File("fam.spinefam");
    Rng rng(seed);

    auto fault = std::make_shared<FaultState>();
    DynamicFamily::Options options;
    options.write_fault_hook = [fault](std::string_view step) {
      if (!fault->armed_step.empty() && step == fault->armed_step &&
          --fault->remaining == 0) {
        ++fault->fired;
        return Status::IoError("injected fault at " + std::string(step));
      }
      return Status::OK();
    };
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), options);
    ASSERT_TRUE(family.ok()) << family.status().ToString();
    Model model;

    // Interesting standing state: a few frozen documents across one or
    // two shards, sometimes a durable tombstone, plus a live memtable.
    const int docs = 3 + static_cast<int>(rng.Below(3));
    for (int i = 0; i < docs; ++i) {
      const std::string doc = RandomDna(rng, 8 + rng.Below(32));
      ASSERT_EQ(*(*family)->InsertDocument(doc), model.Insert(doc));
      if (rng.Chance(0.5)) {
        ASSERT_TRUE((*family)->Flush().ok());
        model.Flush();
      }
    }
    if (rng.Chance(0.4) && !model.LiveIds().empty()) {
      const std::vector<uint32_t> ids = model.LiveIds();
      const uint32_t id = ids[rng.Below(ids.size())];
      ASSERT_EQ((*family)->DeleteDocument(id).ok(), model.Delete(id));
    }
    {
      // Guarantee the flush under test has work to do.
      const std::string doc = RandomDna(rng, 8 + rng.Below(24));
      ASSERT_EQ(*(*family)->InsertDocument(doc), model.Insert(doc));
    }

    // Arm one fault and run one mutation against it.
    const int op = static_cast<int>(rng.Below(3));  // 0 flush, 1 compact, 2 delete
    fault->armed_step = kSteps[rng.Below(4)];
    fault->remaining =
        op == 1 ? 1 + static_cast<int>(rng.Below(2)) : 1;  // compact: either leg
    Status status;
    uint32_t delete_target = 0;
    if (op == 2) {
      const std::vector<uint32_t> ids = model.LiveIds();
      delete_target = ids[rng.Below(ids.size())];
      status = (*family)->DeleteDocument(delete_target);
    } else {
      status = op == 0 ? (*family)->Flush() : (*family)->Compact();
    }

    if (status.ok()) {
      // The armed step was not on this mutation's path (e.g. a
      // shard-stage fault under a delete, or the second-leg fault of a
      // compaction that no-oped its merge). Apply the op to the model.
      if (op == 0) {
        model.Flush();
      } else if (op == 1) {
        model.Compact();
      } else {
        ASSERT_TRUE(model.Delete(delete_target));
      }
    } else {
      EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
      // A compaction folds the memtable in with one manifest commit, so
      // a failed one leaves the memtable undrained and this is a no-op;
      // a drained memtable would mean a separate flush leg went live.
      if (op == 1 && (*family)->memtable_documents() == 0 &&
          model.memtable_documents() > 0) {
        model.Flush();
      }
    }

    // Contract under any fault: the current generation answers exactly
    // like the model, the structure verifies, and no temp file leaks.
    ExpectAgrees(**family, model, rng, "post-fault");
    EXPECT_TRUE((*family)->VerifyStructure().ok());
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    // And the on-disk state is the durable subset: a fresh Open agrees
    // with the model after a Reload (which by definition keeps exactly
    // the durable state).
    {
      Model durable = model;
      durable.Reload();
      DynamicFamily::Options plain;
      auto reopened = DynamicFamily::Open(path, plain);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      ExpectAgrees(**reopened, durable, rng, "post-fault reopen");
    }

    // Disarm and retry: the failed mutation must succeed cleanly now.
    fault->armed_step.clear();
    if (!status.ok()) {
      if (op == 2) {
        ASSERT_TRUE((*family)->DeleteDocument(delete_target).ok());
        ASSERT_TRUE(model.Delete(delete_target));
      } else if (op == 0) {
        ASSERT_TRUE((*family)->Flush().ok());
        model.Flush();
      } else {
        ASSERT_TRUE((*family)->Compact().ok());
        model.Compact();
      }
      ExpectAgrees(**family, model, rng, "post-retry");
    }
  }
}

TEST(LifecycleDifferentialTest, CompactionRacesConcurrentReaders) {
  ScopedTempDir dir;
  DynamicFamily::Options options;
  options.flush_threshold_bytes = 256;  // background thread live too
  options.compact_fanout = 3;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), options);
  ASSERT_TRUE(family.ok());
  Rng rng(77);
  Model model;
  for (int i = 0; i < 10; ++i) {
    const std::string doc = RandomDna(rng, 40 + rng.Below(40));
    ASSERT_EQ(*(*family)->InsertDocument(doc), model.Insert(doc));
  }
  ASSERT_TRUE((*family)->Flush().ok());
  model.Flush();

  static const char* kPatterns[] = {"ACGT", "GGG", "TTAA", "CACA", "A"};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_failures{0};
  std::atomic<uint64_t> reader_iterations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng thread_rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        ++reader_iterations;
        const Query query =
            Query::FindAll(kPatterns[thread_rng.Below(5)]);
        // A pinned snapshot must be self-consistent: the same query
        // answers identically no matter what writers publish meanwhile.
        std::shared_ptr<const core::Index> snap = (*family)->PinSnapshot();
        if (snap == nullptr) {
          ++reader_failures;
          continue;
        }
        const QueryResult a = snap->Execute(query);
        const QueryResult b = snap->Execute(query);
        if (!a.ok() || !a.SameAnswer(b)) ++reader_failures;
        // And the family's own Execute never fails under racing swaps.
        if (!(*family)->Execute(query).ok()) ++reader_failures;
        // Back off between iterations: glibc's rwlock is
        // reader-preferring, so spinning readers would starve the
        // writer's memtable lock and stretch the test to minutes.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  // Writer: the full mutation mix while the readers hammer away. The
  // model only tracks visibility, which background flush/compaction
  // never changes — so it stays exact under the race.
  for (int op = 0; op < 100; ++op) {
    const uint64_t r = rng.Below(100);
    if (r < 60) {
      const std::string doc = RandomDna(rng, 20 + rng.Below(60));
      auto id = (*family)->InsertDocument(doc);
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(*id, model.Insert(doc));
    } else if (r < 80) {
      const std::vector<uint32_t> ids = model.LiveIds();
      if (!ids.empty()) {
        const uint32_t id = ids[rng.Below(ids.size())];
        ASSERT_EQ((*family)->DeleteDocument(id).ok(), model.Delete(id));
      }
    } else if (r < 92) {
      ASSERT_TRUE((*family)->Flush().ok());
      model.Flush();
    } else {
      ASSERT_TRUE((*family)->Compact().ok());
      model.Compact();
    }
    // Pace the writer so mutations genuinely overlap reader activity
    // instead of finishing before the readers get going.
    if (op % 10 == 9) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Make sure the readers actually raced the mutations before calling
  // it a day (bounded: they only need a few ms of runway).
  const auto race_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (reader_iterations.load() < 500 &&
         std::chrono::steady_clock::now() < race_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GE(reader_iterations.load(), 500u);

  EXPECT_EQ(reader_failures.load(), 0u);
  EXPECT_TRUE((*family)->TakeBackgroundError().ok());
  // Background flushes moved documents between shards but never
  // changed visibility or the doc-id watermark; only the shard/
  // memtable counters diverge from the single-threaded model, so
  // compare the visible collection by query, not by accessor.
  GeneralizedSpineIndex oracle(Alphabet::Dna());
  for (const std::string& doc : model.LiveDocs()) {
    ASSERT_TRUE(oracle.AddString(doc).ok());
  }
  EXPECT_EQ((*family)->live_documents(), model.live_documents());
  EXPECT_EQ((*family)->size(), oracle.underlying().size());
  for (const char* pattern : kPatterns) {
    for (const Query& query : AllKinds(pattern, 3)) {
      QueryResult expected = OracleAnswer(oracle, query);
      QueryResult got = (*family)->Execute(query);
      EXPECT_TRUE(got.SameAnswer(expected))
          << QueryKindName(query.kind) << " \"" << pattern << "\"";
    }
  }
  EXPECT_TRUE((*family)->VerifyStructure().ok());
}

// Satellite: the engine's result cache must key on the generation's
// cache_id, so an answer cached against generation N is unreachable
// once N+1 publishes — a stale cache hit would otherwise serve deleted
// documents forever.
TEST(LifecycleEngineTest, ResultCacheIsolatesGenerations) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), DynamicFamily::Options{});
  ASSERT_TRUE(family.ok());
  ASSERT_TRUE((*family)->InsertDocument("ACGTACGT").ok());

  engine::QueryEngine engine({.threads = 2, .cache_bytes = 1 << 20});
  const std::vector<Query> queries = {Query::FindAll("ACGT"),
                                      Query::Contains("ACGT")};

  engine::BatchStats stats;
  std::vector<QueryResult> first = engine.ExecuteBatch(**family, queries,
                                                       &stats);
  ASSERT_EQ(first[0].hits.size(), 2u);
  EXPECT_EQ(stats.cache_hits, 0u);

  std::vector<QueryResult> second = engine.ExecuteBatch(**family, queries,
                                                        &stats);
  EXPECT_EQ(stats.cache_hits, 2u);  // same generation: served from cache
  EXPECT_TRUE(second[0].SameAnswer(first[0]));

  // Swap the generation: delete the only document, insert another one
  // with a different answer for the same pattern.
  ASSERT_TRUE((*family)->DeleteDocument(0).ok());
  ASSERT_TRUE((*family)->InsertDocument("GGGGACGT").ok());

  std::vector<QueryResult> third = engine.ExecuteBatch(**family, queries,
                                                       &stats);
  EXPECT_EQ(stats.cache_hits, 0u) << "stale generation served from cache";
  ASSERT_EQ(third[0].hits.size(), 1u);
  EXPECT_EQ(third[0].hits[0].pos, 4u);
}

}  // namespace
}  // namespace spine::shard
