// ingest_mixed: one thread drives a fresh shard::DynamicFamily through a
// fixed seeded script of writes, reads and maintenance, with the
// background thread off (flush_threshold_bytes = 0, compact_fanout = 0),
// so every round does identical work.
//
// A round: set-up creates the family and loads kBaseDocs documents,
// compacted into one frozen shard. The script then inserts kInserts
// ~1 kchar documents; after each insert come kLookups lookups (contains
// of 20-mers, hit or miss, and matching statistics of 32-mers). Every
// kFlushEvery inserts the memtable is flushed, and every kCompactEvery-th
// of those maintenance points is a Compact() instead. Each flush cycle
// deletes one memtable document at a fixed cycle position (its source is
// tombstone-dirty until the flush), and each compaction cycle also
// deletes one document of the newest frozen shard (dirty until the
// compaction). Which documents are deleted and what is looked up is
// seeded; the positions are fixed, so every seed has the same shape.
//
// Answers: the first round runs unchecked and records every lookup's
// answer. In the second round, at each maintenance point, a lookup
// sample is checked against a freshly built GeneralizedSpineIndex over
// the live documents, and every lookup of every round after the first
// must equal the first round's answer. The first round goes unchecked
// so that the memory high-water mark taken after it is the family's
// alone, without the oracle's index.

#include <sys/stat.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "common/check.h"
#include "common/rng.h"
#include "compact/generalized_compact.h"
#include "core/adapters.h"
#include "core/generalized_spine.h"
#include "shard/dynamic_family.h"

namespace spinebench {
namespace {

using spine::Query;
using spine::QueryResult;
using spine::Rng;

constexpr uint32_t kBaseDocs = 250;
constexpr uint32_t kInserts = 400;
constexpr uint32_t kLookups = 3;        // per insert: contains, contains, ms
constexpr uint32_t kFlushEvery = 40;    // inserts per maintenance point
constexpr uint32_t kCompactEvery = 5;   // maintenance points per compaction
constexpr uint32_t kMemDeleteAt = 33;   // cycle position of the memtable delete
constexpr uint32_t kFrozenDeleteAt = 36;  // ... of the frozen delete
constexpr uint32_t kDocMin = 800;
constexpr uint32_t kDocMax = 1200;
constexpr uint32_t kCheckLookups = 24;  // oracle sample per maintenance point

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng rng(a * 0x9e3779b97f4a7c15ull ^ (b + 0x7f4a7c159e3779b9ull));
  return rng.Next();
}

struct Op {
  enum Type { kInsert, kDelete, kLookup, kFlush, kCompact } type = kInsert;
  uint32_t doc = 0;  // kInsert / kDelete: index into Script::docs
  Query query = {};  // kLookup
  bool dirty = false;  // kLookup: a source holds a tombstoned document
  uint32_t sources = 0;  // kLookup: frozen shards + memtable
};

struct Script {
  std::vector<std::string> docs;  // base documents first
  std::vector<Op> ops;            // after the base load
};

// Builds the script by simulating the family's shape alongside it.
Script MakeScript(uint64_t seed) {
  Script script;
  const std::string corpus =
      GenerateDna(seed, (kBaseDocs + kInserts) * uint64_t{kDocMax});
  Rng rng(Mix(seed, 0x1d));
  uint64_t at = 0;
  for (uint32_t i = 0; i < kBaseDocs + kInserts; ++i) {
    const uint64_t len = rng.Between(kDocMin, kDocMax);
    script.docs.push_back(corpus.substr(at, len));
    at += len;
  }

  std::vector<bool> live(script.docs.size(), false);
  for (uint32_t i = 0; i < kBaseDocs; ++i) live[i] = true;
  std::vector<uint32_t> memtable;      // docs since the last flush
  std::vector<uint32_t> last_flushed;  // docs of the newest frozen shard
  uint32_t frozen = 1;                 // the compacted base
  bool dirty = false;
  uint32_t maintenance = 0;

  const auto random_live = [&](const std::vector<uint32_t>& from) {
    std::vector<uint32_t> candidates;
    for (const uint32_t d : from) {
      if (live[d]) candidates.push_back(d);
    }
    return candidates[rng.Below(candidates.size())];
  };
  const auto any_live = [&]() {
    uint32_t d = 0;
    do {
      d = static_cast<uint32_t>(rng.Below(kBaseDocs + kInserts));
    } while (!live[d]);
    return d;
  };
  const auto lookup = [&](bool ms) {
    Op op;
    op.type = Op::kLookup;
    op.dirty = dirty;
    op.sources = frozen + (memtable.empty() ? 0 : 1);
    const std::string& doc = script.docs[any_live()];
    if (ms) {
      std::string p = doc.substr(rng.Below(doc.size() - 32), 32);
      for (char& c : p) {
        if (rng.Chance(0.05)) c = "ACGT"[rng.Below(4)];
      }
      op.query = Query::MatchingStats(std::move(p));
    } else if (rng.Chance(0.5)) {
      op.query = Query::Contains(doc.substr(rng.Below(doc.size() - 20), 20));
    } else {
      std::string p(20, 'A');
      for (char& c : p) c = "ACGT"[rng.Below(4)];
      op.query = Query::Contains(std::move(p));
    }
    script.ops.push_back(std::move(op));
  };

  for (uint32_t i = 0; i < kInserts; ++i) {
    const uint32_t doc = kBaseDocs + i;
    script.ops.push_back({Op::kInsert, doc});
    live[doc] = true;
    memtable.push_back(doc);
    const uint32_t pos = i % kFlushEvery;
    const bool compaction_cycle = (maintenance + 1) % kCompactEvery == 0;
    if (pos == kMemDeleteAt) {
      const uint32_t victim = random_live(memtable);
      script.ops.push_back({Op::kDelete, victim});
      live[victim] = false;
      dirty = true;
    }
    if (pos == kFrozenDeleteAt && compaction_cycle && !last_flushed.empty()) {
      const uint32_t victim = random_live(last_flushed);
      script.ops.push_back({Op::kDelete, victim});
      live[victim] = false;
      dirty = true;
    }
    for (uint32_t l = 0; l < kLookups; ++l) lookup(l + 1 == kLookups);
    if (pos + 1 == kFlushEvery) {
      ++maintenance;
      std::vector<uint32_t> flushed;
      for (const uint32_t d : memtable) {
        if (live[d]) flushed.push_back(d);
      }
      memtable.clear();
      if (compaction_cycle) {
        script.ops.push_back({Op::kCompact});
        frozen = 1;
        dirty = false;
        last_flushed.clear();
      } else {
        script.ops.push_back({Op::kFlush});
        ++frozen;
        last_flushed = flushed;
        // Flush drops dead memtable documents with their tombstones; a
        // frozen tombstone would survive, but frozen deletes happen
        // only in compaction cycles.
        dirty = false;
      }
    }
  }
  return script;
}

// Bytes the family committed to its directory: every new image file
// plus every manifest rewrite (detected by inode/mtime/size change).
class WriteMeter {
 public:
  explicit WriteMeter(std::string dir) : dir_(std::move(dir)) {}

  void Scan() {
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      struct stat st {};
      if (::stat(entry.path().c_str(), &st) != 0) continue;
      const std::string name = entry.path().filename().string();
      if (name.find(".tmp") != std::string::npos) continue;
      const auto key = std::make_tuple(
          static_cast<uint64_t>(st.st_ino),
          static_cast<int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
              st.st_mtim.tv_nsec,
          static_cast<uint64_t>(st.st_size));
      auto [it, inserted] = seen_.try_emplace(name, key);
      if (inserted || it->second != key) {
        it->second = key;
        bytes_ += static_cast<uint64_t>(st.st_size);
      }
    }
  }
  uint64_t bytes() const { return bytes_; }

 private:
  std::string dir_;
  std::map<std::string, std::tuple<uint64_t, int64_t, uint64_t>> seen_;
  uint64_t bytes_ = 0;
};

struct RoundResult {
  double peak_rss_mb = 0;  // the process high-water mark after the round
  Sample setup;           // the base load, timed
  Sample rate;            // ops per second of timed op work, over the round
  double op_seconds = 0;  // sum of timed op durations
  uint64_t ops = 0;
  double maint_s = 0;
  std::vector<double> lookup_us, clean_us, dirty_us, insert_us, delete_us;
  std::vector<double> flush_ms, compact_ms, build_ms;
  std::vector<uint64_t> digests;  // per lookup, in script order
  uint64_t errors = 0;
  uint64_t wrong = 0;
  uint64_t checked = 0;
  uint64_t written_bytes = 0;
  uint64_t doc_bytes = 0;
  double bytes_per_char = 0;
};

// A freshly built oracle over the live documents, in doc-id order (the
// family's canonical layout).
uint64_t CheckAgainstOracle(const Script& script,
                            const std::vector<bool>& live,
                            const spine::shard::DynamicFamily& family,
                            const std::vector<const Op*>& lookups,
                            uint64_t* checked) {
  spine::GeneralizedSpineIndex fresh(spine::Alphabet::Dna());
  for (size_t d = 0; d < script.docs.size(); ++d) {
    if (live[d]) SPINE_CHECK(fresh.AddString(script.docs[d]).ok());
  }
  const spine::core::GeneralizedSpineAdapter oracle(fresh);
  uint64_t wrong = 0;
  const size_t stride = std::max<size_t>(1, lookups.size() / kCheckLookups);
  for (size_t i = 0; i < lookups.size(); i += stride) {
    const Query& query = lookups[i]->query;
    ++*checked;
    if (!family.Execute(query).SameAnswer(oracle.Execute(query))) ++wrong;
  }
  return wrong;
}

RoundResult RunRound(const Script& script, const std::string& dir,
                     bool check, Tracer* tracer, uint64_t round) {
  RoundResult out;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/fam.spinefam";
  spine::shard::DynamicFamily::Options options;
  options.flush_threshold_bytes = 0;  // background thread off
  options.compact_fanout = 0;

  std::unique_ptr<spine::shard::DynamicFamily> family;
  std::vector<uint32_t> ids(script.docs.size(), 0);
  out.setup = TimeSample([&] {
    auto created = spine::shard::DynamicFamily::Create(
        path, spine::Alphabet::Dna(), options);
    SPINE_CHECK(created.ok());
    family = std::move(created).value();
    for (uint32_t d = 0; d < kBaseDocs; ++d) {
      auto id = family->InsertDocument(script.docs[d]);
      SPINE_CHECK(id.ok());
      ids[d] = *id;
    }
    SPINE_CHECK(family->Compact().ok());
  });
  const uint64_t steal0 = StealTicks();
  const Clock::time_point round_start = Clock::now();

  WriteMeter meter(dir);
  meter.Scan();
  const uint64_t base_bytes = meter.bytes();
  std::vector<bool> live(script.docs.size(), false);
  for (uint32_t d = 0; d < kBaseDocs; ++d) live[d] = true;
  std::vector<const Op*> since_check;

  const auto timed = [&](const char* span_name, auto&& fn) {
    ScopedSpan span(tracer, span_name, round);
    const Clock::time_point t0 = Clock::now();
    fn();
    const double us = MicrosBetween(t0, Clock::now());
    out.op_seconds += us * 1e-6;
    ++out.ops;
    return us;
  };

  for (const Op& op : script.ops) {
    switch (op.type) {
      case Op::kInsert: {
        spine::Result<uint32_t> id = spine::Status::FailedPrecondition("not run");
        out.insert_us.push_back(timed("shard.insert", [&] {
          id = family->InsertDocument(script.docs[op.doc]);
        }));
        if (!id.ok()) {
          ++out.errors;
        } else {
          ids[op.doc] = *id;
        }
        live[op.doc] = true;
        out.doc_bytes += script.docs[op.doc].size();
        break;
      }
      case Op::kDelete: {
        spine::Status status;
        out.delete_us.push_back(timed("shard.delete", [&] {
          status = family->DeleteDocument(ids[op.doc]);
        }));
        if (!status.ok()) ++out.errors;
        live[op.doc] = false;
        meter.Scan();
        break;
      }
      case Op::kLookup: {
        QueryResult result;
        const double us =
            timed(op.dirty ? "shard.query.dirty" : "shard.query.clean",
                  [&] { result = family->Execute(op.query); });
        out.lookup_us.push_back(us);
        (op.dirty ? out.dirty_us : out.clean_us).push_back(us);
        out.digests.push_back(AnswerDigest(result));
        if (!result.ok()) ++out.errors;
        since_check.push_back(&op);
        break;
      }
      case Op::kFlush:
      case Op::kCompact: {
        if (check) {
          out.wrong += CheckAgainstOracle(script, live, *family, since_check,
                                          &out.checked);
        }
        since_check.clear();
        const bool compact = op.type == Op::kCompact;
        spine::Status status;
        const double us =
            timed(compact ? "shard.compact" : "shard.flush", [&] {
              status = compact ? family->Compact() : family->Flush();
            });
        if (!status.ok()) ++out.errors;
        out.maint_s += us * 1e-6;
        (compact ? out.compact_ms : out.flush_ms).push_back(us / 1000.0);
        meter.Scan();
        if (compact && tracer != nullptr) {
          // Replay: the compact build alone over the same live texts.
          ScopedSpan span(tracer, "compact.build", round);
          const Clock::time_point t0 = Clock::now();
          spine::GeneralizedCompactSpine rebuilt(spine::Alphabet::Dna());
          for (size_t d = 0; d < script.docs.size(); ++d) {
            if (live[d]) SPINE_CHECK(rebuilt.AddString(script.docs[d]).ok());
          }
          out.build_ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
        }
        break;
      }
    }
  }
  out.rate = {static_cast<double>(out.ops) / out.op_seconds,
              SecondsSince(round_start), StealTicks() - steal0};
  out.written_bytes = meter.bytes() - base_bytes;
  out.bytes_per_char = static_cast<double>(family->MemoryBytes()) /
                       static_cast<double>(family->size());
  family.reset();
  std::filesystem::remove_all(dir);
  out.peak_rss_mb = PeakRssMiB();
  return out;
}

struct Rounds {
  std::vector<RoundResult> rounds;
  double op_seconds = 0;
  uint64_t ops = 0;

  // Rounds the CPU-steal rule admits (LeastStolen).
  std::vector<const RoundResult*> Used() const {
    std::vector<Sample> rates;
    for (const RoundResult& r : rounds) rates.push_back(r.rate);
    const std::vector<bool> use = LeastStolen(rates);
    std::vector<const RoundResult*> used;
    for (size_t i = 0; i < rounds.size(); ++i) {
      if (use[i]) used.push_back(&rounds[i]);
    }
    return used;
  }
};

// The first round's lookup answers, and whether a round has been
// checked against the oracle yet.
struct Reference {
  std::vector<uint64_t> digests;
  bool oracle_checked = false;
};

// Rounds of the same script until `seconds` of wall time pass (at least
// two). The first round ever run fills `reference` unchecked; the next
// one is oracle-checked; every later round's lookups must match
// `reference`.
Rounds RunRounds(const Script& script, const std::string& dir, double seconds,
                 Tracer* tracer, Reference* reference, Outcome* outcome) {
  Rounds all;
  const Clock::time_point start = Clock::now();
  while (all.rounds.size() < 2 || SecondsSince(start) < seconds) {
    const bool first = reference->digests.empty();
    const bool check = !first && !reference->oracle_checked;
    RoundResult round = RunRound(script, dir, check, tracer,
                                 all.rounds.size());
    if (first) reference->digests = round.digests;
    if (check) {
      reference->oracle_checked = true;
      outcome->Note("oracle_checked", std::to_string(round.checked));
    }
    uint64_t mismatched = 0;
    for (size_t i = 0; i < round.digests.size(); ++i) {
      if (i >= reference->digests.size() ||
          round.digests[i] != reference->digests[i]) {
        ++mismatched;
      }
    }
    outcome->attempted += round.ops;
    outcome->failed += round.errors + round.wrong + mismatched;
    outcome->wrong += round.wrong + mismatched;
    all.op_seconds += round.op_seconds;
    all.ops += round.ops;
    all.rounds.push_back(std::move(round));
  }
  return all;
}

// One field's values pooled over the rounds the steal rule admits.
std::vector<double> Pool(const Rounds& all,
                         std::vector<double> RoundResult::*field) {
  std::vector<double> out;
  for (const RoundResult* r : all.Used()) {
    out.insert(out.end(), (r->*field).begin(), (r->*field).end());
  }
  return out;
}

}  // namespace

Outcome RunIngestMixed(const Args& args) {
  Outcome outcome;
  WorkDir workdir(args.workdir);
  const Script script = MakeScript(args.seed);
  const std::string dir = workdir.File("family");
  Reference reference;

  if (!args.trace) {
    const Rounds all =
        RunRounds(script, dir, args.seconds, nullptr, &reference, &outcome);
    std::vector<Sample> setups;
    std::vector<double> round_rates;
    for (const RoundResult& r : all.rounds) {
      setups.push_back(r.setup);
      round_rates.push_back(r.rate.value);
    }
    // On a shared host every op runs up to ~35% slower for stretches of
    // seconds. A mean over the rounds moves in proportion to the share
    // of slow rounds, where a median over rounds jumps between the two
    // levels as that share passes a half. So ops_per_s is the used
    // rounds' ops over their op time, and p50_us is each round's median
    // lookup, averaged over the used rounds.
    uint64_t ops = 0;
    double op_seconds = 0;
    std::vector<double> round_p50;
    for (const RoundResult* r : all.Used()) {
      ops += r->ops;
      op_seconds += r->op_seconds;
      round_p50.push_back(Median(r->lookup_us));
    }
    outcome.Add("setup_s", CleanMedian(setups), "s");
    outcome.Add("ops_per_s", static_cast<double>(ops) / op_seconds, "1/s");
    outcome.Add("p50_us", Mean(round_p50), "us");
    // Every round repeats the first one's work; later rounds only add
    // allocator history (see MemoryPeak) and, in the second, the
    // oracle's index.
    outcome.Add("peak_rss_mb", all.rounds.front().peak_rss_mb, "MiB");
    outcome.Add("bytes_per_char", all.rounds.front().bytes_per_char, "B/char",
                true);
    outcome.Note("rounds", std::to_string(all.rounds.size()));
    outcome.Note("rounds_used", std::to_string(all.Used().size()));
    outcome.Note("round_rates", FormatList(round_rates));
    outcome.Note("round_p50_us", FormatList(round_p50));
    return outcome;
  }

  // --- traced run -----------------------------------------------------------
  Tracer tracer;
  const Rounds plain =
      RunRounds(script, dir, args.seconds / 2, nullptr, &reference, &outcome);
  const Rounds traced =
      RunRounds(script, dir, args.seconds / 2, &tracer, &reference, &outcome);
  const RoundResult& first = traced.rounds.front();

  outcome.Add("shard.insert_us", Median(Pool(traced, &RoundResult::insert_us)),
              "us");
  outcome.Add("shard.delete_us", Median(Pool(traced, &RoundResult::delete_us)),
              "us");
  outcome.Add("shard.flush_ms", Median(Pool(traced, &RoundResult::flush_ms)),
              "ms");
  outcome.Add("shard.compact_ms",
              Median(Pool(traced, &RoundResult::compact_ms)), "ms");
  outcome.Add("compact.build_ms", Median(Pool(traced, &RoundResult::build_ms)),
              "ms");
  {
    std::vector<double> maint;
    for (const RoundResult& r : traced.rounds) maint.push_back(r.maint_s);
    outcome.Add("shard.maint_s", Median(maint), "s");
  }
  outcome.Add("storage.write_amp",
              static_cast<double>(first.written_bytes) /
                  static_cast<double>(first.doc_bytes),
              "ratio", true);
  {
    uint64_t lookups = 0, dirty = 0, sources = 0;
    for (const Op& op : script.ops) {
      if (op.type != Op::kLookup) continue;
      ++lookups;
      dirty += op.dirty ? 1 : 0;
      sources += op.sources;
    }
    outcome.Add("shard.sources_per_query",
                static_cast<double>(sources) / static_cast<double>(lookups),
                "count", true);
    outcome.Add("shard.dirty_query_share",
                static_cast<double>(dirty) / static_cast<double>(lookups),
                "ratio", true);
  }
  outcome.Add("shard.query_us.clean",
              Median(Pool(traced, &RoundResult::clean_us)), "us");
  outcome.Add("shard.query_us.dirty",
              Median(Pool(traced, &RoundResult::dirty_us)), "us");
  outcome.Add("read.p99_us",
              Quantile(Pool(traced, &RoundResult::lookup_us), 0.99), "us");
  const double per_op_plain = plain.op_seconds / static_cast<double>(plain.ops);
  const double per_op_traced =
      traced.op_seconds / static_cast<double>(traced.ops);
  outcome.Add("trace.overhead_pct",
              100.0 * (per_op_traced - per_op_plain) / per_op_plain, "%");
  // Span self times agree with the op timers by construction here (ops
  // are leaves); the span dump is the per-op record.
  if (!args.trace_path.empty()) tracer.WriteJsonl(args.trace_path);
  return outcome;
}

}  // namespace spinebench
