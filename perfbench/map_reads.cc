// map_reads: an in-process engine::QueryEngine (`spine batch` defaults,
// two worker threads, one caller) mapping unique simulated reads against
// a ~2M-char DNA reference held as a shard::ShardedIndex of four shards.
//
// Read classes: 100-bp reads with 0-2 substitutions (kMismatch k=2),
// 100-bp reads with one indel (kEditDistance d=2), 36-bp reads with 0-2
// substitutions (kMismatch k=2; short seeds, more candidates) and random
// 100-mers that map nowhere (kUnmappableShare). No measured read set
// fixes the other shares: the three mappable classes get equal shares
// and the substitution count is uniform over 0-2, both assumptions.
// Every read is fresh, so the result cache never hits. A fixed, seeded
// sample of reads is checked against the naive oracle (an O(n*m) scan
// with no index).

#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "common/check.h"
#include "common/rng.h"
#include "compact/compact_spine.h"
#include "core/adapters.h"
#include "core/approx.h"
#include "engine/query_engine.h"
#include "plan/planner.h"
#include "shard/sharded_index.h"

namespace spinebench {
namespace {

using spine::Query;
using spine::QueryKind;
using spine::QueryResult;
using spine::Rng;

constexpr uint64_t kReferenceLen = 2'000'000;
constexpr uint32_t kShards = 4;
constexpr int kSetupRepeats = 5;
constexpr double kWindowSeconds = 1.0;
constexpr uint32_t kEngineThreads = 2;
constexpr uint32_t kBatch = 2;          // reads per ExecuteBatch call
constexpr uint32_t kReplayReads = 48;   // fixed traced-replay sample
constexpr uint32_t kOracleReads = 8;   // oracle-checked reads per class
constexpr double kUnmappableShare = 0.1;

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng rng(a * 0x9e3779b97f4a7c15ull ^ (b + 0x2545f4914f6cdd1dull));
  return rng.Next();
}

char OtherBase(char c, Rng& rng) {
  static constexpr char kBases[] = "ACGT";
  char b = c;
  while (b == c) b = kBases[rng.Below(4)];
  return b;
}

enum class ReadClass { kSubstituted, kIndel, kShort, kRandom };

struct Read {
  Query query;
  ReadClass klass = ReadClass::kSubstituted;
};

// Read j is a pure function of (seed, j).
Read MakeRead(const std::string& reference, uint64_t seed, uint64_t j) {
  Rng rng(Mix(seed, j));
  const double r = rng.NextDouble();
  Read read;
  const auto substitute = [&rng](std::string s) {
    const uint64_t edits = rng.Below(3);  // 0..2 substitutions
    for (uint64_t e = 0; e < edits; ++e) {
      const uint64_t at = rng.Below(s.size());
      s[at] = OtherBase(s[at], rng);
    }
    return s;
  };
  const double mappable = (1 - kUnmappableShare) / 3;  // per class
  if (r < mappable) {
    read.klass = ReadClass::kSubstituted;
    read.query = Query::Mismatch(
        substitute(reference.substr(rng.Below(reference.size() - 100), 100)),
        2);
  } else if (r < 2 * mappable) {
    read.klass = ReadClass::kIndel;
    std::string s = reference.substr(rng.Below(reference.size() - 101), 101);
    const uint64_t at = 10 + rng.Below(80);
    if (rng.Chance(0.5)) {
      s.erase(at, 1);  // deletion: 100 bp
    } else {
      s.insert(s.begin() + static_cast<int64_t>(at), "ACGT"[rng.Below(4)]);
      s.resize(100);   // insertion, trimmed back to 100 bp
    }
    read.query = Query::EditDistance(std::move(s), 2);
  } else if (r < 3 * mappable) {
    read.klass = ReadClass::kShort;
    read.query = Query::Mismatch(
        substitute(reference.substr(rng.Below(reference.size() - 36), 36)),
        2);
  } else {
    read.klass = ReadClass::kRandom;
    std::string s(100, 'A');
    for (char& c : s) c = "ACGT"[rng.Below(4)];
    read.query = Query::Mismatch(std::move(s), 2);
  }
  return read;
}

// Forwards the search interface of core/search.h to one compact shard
// and counts LinkLel calls. Run through the library's own approximate
// generics, the count is the number of backbone nodes the seed scans
// (GenericFindAll) walk: nothing else in those generics reads LinkLel,
// and the shard's internal calls do not pass through here. Forwarding
// MatchVertebraRun and PrefetchNode keeps the generics on the same
// kernel-accelerated path the shard takes.
class CountingShard {
 public:
  explicit CountingShard(const spine::CompactSpineIndex& inner)
      : inner_(inner) {}

  const spine::Alphabet& alphabet() const { return inner_.alphabet(); }
  uint64_t size() const { return inner_.size(); }
  spine::Code CodeAt(uint64_t i) const { return inner_.CodeAt(i); }
  spine::NodeId LinkDest(spine::NodeId i) const { return inner_.LinkDest(i); }
  uint32_t LinkLel(spine::NodeId i) const {
    ++link_lels_;
    return inner_.LinkLel(i);
  }
  spine::StepResult Step(spine::NodeId node, spine::Code c, uint32_t pathlen,
                         spine::SearchStats* stats) const {
    return inner_.Step(node, c, pathlen, stats);
  }
  uint32_t MatchVertebraRun(spine::NodeId node,
                            const spine::kernel::EncodedPattern& pattern,
                            size_t pattern_pos) const {
    return inner_.MatchVertebraRun(node, pattern, pattern_pos);
  }
  void PrefetchNode(spine::NodeId node) const { inner_.PrefetchNode(node); }

  uint64_t link_lels() const { return link_lels_; }

 private:
  const spine::CompactSpineIndex& inner_;
  mutable uint64_t link_lels_ = 0;
};

struct Setup {
  std::string reference;
  std::unique_ptr<spine::shard::ShardedIndex> index;
};

Setup Prepare(uint64_t seed) {
  Setup setup;
  setup.reference = GenerateDna(seed, kReferenceLen);
  spine::shard::ShardedIndex::Options options;
  options.shards = kShards;
  options.build_threads = kEngineThreads;
  auto built = spine::shard::ShardedIndex::Build(spine::Alphabet::Dna(),
                                                 setup.reference, options);
  SPINE_CHECK(built.ok());
  setup.index = std::move(built).value();
  return setup;
}

struct LoopResult {
  uint64_t reads = 0;
  uint64_t errors = 0;
  WindowRecorder::Summary summary;  // latency: each read's batch wall time
  std::vector<uint64_t> digests;    // per read, in order
  std::vector<uint64_t> per_thread_nodes;
};

// One caller submitting kBatch fresh reads at a time until `seconds`
// pass. Reads [first, first + reads) of the seeded stream.
LoopResult MapLoop(spine::engine::QueryEngine& engine, const Setup& setup,
                   uint64_t seed, uint64_t first, double seconds,
                   Tracer* tracer) {
  LoopResult loop;
  loop.per_thread_nodes.assign(engine.thread_count(), 0);
  WindowRecorder windows(kWindowSeconds);
  const Clock::time_point start = Clock::now();
  windows.Start(start);
  uint64_t j = first;
  while (SecondsSince(start) < seconds) {
    std::vector<Query> batch;
    for (uint32_t b = 0; b < kBatch; ++b) {
      batch.push_back(MakeRead(setup.reference, seed, j + b).query);
    }
    spine::engine::BatchStats stats;
    const Clock::time_point t0 = Clock::now();
    std::vector<QueryResult> results;
    {
      ScopedSpan span(tracer, "engine.execute_batch", j);
      results = engine.ExecuteBatch(*setup.index, batch, &stats);
    }
    const Clock::time_point done = Clock::now();
    const double us = MicrosBetween(t0, done);
    for (const QueryResult& result : results) {
      windows.Record(done, us);
      loop.digests.push_back(AnswerDigest(result));
      if (!result.ok()) ++loop.errors;
    }
    for (size_t t = 0; t < stats.per_thread.size() &&
                       t < loop.per_thread_nodes.size();
         ++t) {
      loop.per_thread_nodes[t] += stats.per_thread[t].nodes_checked;
    }
    j += kBatch;
  }
  loop.reads = j - first;
  windows.Finish(Clock::now());
  loop.summary = windows.Summarize();
  return loop;
}

// Independent edit-distance oracle over the whole reference, with the
// kind's hit semantics: for every start s, the fewest edits of any
// window T[s, s+L), ties to the shortest L, reported when <= d. Run as
// a Sellers DP over the reversed strings (a free window end becomes a
// free start), minimising (edits, window length) lexicographically,
// with Ukkonen's cutoff so only rows that can still reach <= d are
// touched: O(n * d) expected instead of the naive backend's per-start
// banded alignment.
std::vector<spine::Hit> EditOracle(const std::string& text,
                                   const std::string& pattern, uint32_t d) {
  struct Cell {
    uint32_t cost;
    uint32_t len;
    bool operator<(const Cell& o) const {
      return cost != o.cost ? cost < o.cost : len < o.len;
    }
  };
  const uint32_t m = static_cast<uint32_t>(pattern.size());
  const uint64_t n = text.size();
  const Cell kFar{d + 1, 0};
  std::vector<Cell> prev(m + 1, kFar);
  std::vector<Cell> next(m + 1, kFar);
  for (uint32_t j = 0; j <= std::min(m, d); ++j) prev[j] = {j, 0};
  uint32_t last = std::min(m, d);  // deepest row with cost <= d
  std::vector<spine::Hit> hits;
  for (uint64_t i = 1; i <= n; ++i) {
    const char t = text[n - i];  // i-th character of the reversed text
    next[0] = {0, 0};
    const uint32_t limit = std::min(m, last + 1);
    for (uint32_t j = 1; j <= limit; ++j) {
      const char p = pattern[m - j];
      Cell best{prev[j - 1].cost + (p == t ? 0u : 1u), prev[j - 1].len + 1};
      best = std::min(best, Cell{prev[j].cost + 1, prev[j].len + 1});
      best = std::min(best, Cell{next[j - 1].cost + 1, next[j - 1].len});
      if (best.cost > d) best = kFar;
      next[j] = best;
    }
    for (uint32_t j = limit + 1; j <= m; ++j) next[j] = kFar;
    last = 0;
    for (uint32_t j = limit; j > 0; --j) {
      if (next[j].cost <= d) {
        last = j;
        break;
      }
    }
    if (next[m].cost <= d) {
      hits.push_back({static_cast<uint32_t>(n - i), next[m].len,
                      next[m].cost});
    }
    std::swap(prev, next);
  }
  std::reverse(hits.begin(), hits.end());
  return hits;
}

// Checks a fixed sample of the loop's reads against oracles that use no
// index: the first kOracleReads reads of each kMismatch class against
// the naive backend's O(n*m) scan, the first kOracleReads indel reads
// against EditOracle. Returns the wrong count; `checked` counts the
// reads compared.
uint64_t CheckAgainstOracle(const Setup& setup, uint64_t seed, uint64_t first,
                            const LoopResult& loop, uint64_t* checked) {
  const spine::core::NaiveTextAdapter naive(spine::Alphabet::Dna(),
                                            setup.reference);
  uint32_t taken[4] = {0, 0, 0, 0};
  uint64_t wrong = 0;
  for (uint64_t i = 0; i < loop.digests.size(); ++i) {
    const Read read = MakeRead(setup.reference, seed, first + i);
    uint32_t& used = taken[static_cast<int>(read.klass)];
    if (used >= kOracleReads) continue;
    ++used;
    ++*checked;
    QueryResult expected;
    if (read.klass == ReadClass::kIndel) {
      expected.hits = EditOracle(setup.reference, read.query.pattern,
                                 read.query.max_errors);
      expected.found = !expected.hits.empty();
    } else {
      expected = naive.Execute(read.query);
    }
    if (AnswerDigest(expected) != loop.digests[i]) ++wrong;
  }
  return wrong;
}

}  // namespace

Outcome RunMapReads(const Args& args) {
  Outcome outcome;
  std::vector<Sample> setup_s;
  MemoryPeak memory;
  Setup setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup = Setup();
    setup_s.push_back(TimeSample([&] { setup = Prepare(args.seed); }));
    if (r == 0) memory.AfterFirstSetup();
  }
  memory.AfterSetups();
  spine::engine::QueryEngine engine(
      {.threads = kEngineThreads, .cache_bytes = uint64_t{16} << 20});

  uint64_t checked = 0;
  const auto account = [&](const LoopResult& loop, uint64_t first) {
    outcome.attempted += loop.reads;
    outcome.failed += loop.errors;
    const uint64_t wrong =
        CheckAgainstOracle(setup, args.seed, first, loop, &checked);
    outcome.wrong += wrong;
    outcome.failed += wrong;
  };

  if (!args.trace) {
    const LoopResult loop =
        MapLoop(engine, setup, args.seed, 0, args.seconds, nullptr);
    const double peak_rss = memory.Now();
    account(loop, 0);
    outcome.Add("setup_s", CleanMedian(setup_s), "s");
    outcome.Add("ops_per_s", loop.summary.ops_per_s, "1/s");
    outcome.Add("p50_us", loop.summary.p50_us, "us");
    outcome.Add("peak_rss_mb", peak_rss, "MiB");
    outcome.Add("bytes_per_char",
                static_cast<double>(setup.index->MemoryBytes()) /
                    static_cast<double>(setup.index->size()),
                "B/char", true);
    outcome.Note("reads", std::to_string(loop.reads));
    outcome.Note("windows_used", std::to_string(loop.summary.used));
    outcome.Note("windows", std::to_string(loop.summary.windows));
    outcome.Note("window_steal", FormatList(loop.summary.steals));
    outcome.Note("oracle_checked", std::to_string(checked));
    return outcome;
  }

  // --- traced run -----------------------------------------------------------
  Tracer tracer;
  const LoopResult plain =
      MapLoop(engine, setup, args.seed, 0, args.seconds / 2, nullptr);
  account(plain, 0);
  const uint64_t traced_first = uint64_t{1} << 32;
  const spine::obs::MetricsSnapshot before =
      spine::obs::Registry::Default().Snapshot();
  const LoopResult traced = MapLoop(engine, setup, args.seed, traced_first,
                                    args.seconds / 2, &tracer);
  const spine::obs::MetricsSnapshot after =
      spine::obs::Registry::Default().Snapshot();
  account(traced, traced_first);

  const uint64_t engine_queries = CounterDelta(before, after, "engine.queries");
  outcome.Add("engine.cache_hit_ratio",
              engine_queries == 0
                  ? 0
                  : static_cast<double>(
                        CounterDelta(before, after, "engine.cache_hits")) /
                        static_cast<double>(engine_queries),
              "ratio");
  outcome.Add("engine.failed",
              static_cast<double>(CounterDelta(before, after, "engine.failed")),
              "count");
  outcome.Add("engine.retries",
              static_cast<double>(CounterDelta(before, after, "engine.retries")),
              "count");
  outcome.Add("engine.exec_us",
              HistogramMeanDelta(before, after, "engine.exec_us"), "us");
  outcome.Add("engine.queue_wait_us",
              HistogramMeanDelta(before, after, "engine.queue_wait_us"), "us");
  {
    uint64_t max_nodes = 0;
    uint64_t total = 0;
    for (const uint64_t n : traced.per_thread_nodes) {
      max_nodes = std::max(max_nodes, n);
      total += n;
    }
    const double mean = static_cast<double>(total) /
                        static_cast<double>(traced.per_thread_nodes.size());
    outcome.Add("engine.worker_imbalance",
                mean > 0 ? static_cast<double>(max_nodes) / mean : 0, "ratio");
  }
  const double p50_plain = plain.summary.p50_us;
  const double p50_traced = traced.summary.p50_us;
  outcome.Add("trace.overhead_pct",
              p50_plain > 0 ? 100.0 * (p50_traced - p50_plain) / p50_plain : 0,
              "%");
  outcome.Add("read.p99_us", traced.summary.p99_us, "us");

  // Replay of a fixed read sample, one layer call at a time, each span a
  // child of the read's root: the family's Execute (fan-out + merge),
  // then per shard the approximate Execute and, replayed after it, the
  // seed FindAlls it plans (plan::PlanApprox / SeedBoundaries) through
  // Index::Execute. Verification is the approximate call's time minus
  // its seeds'.
  const uint32_t shards = setup.index->shard_count();
  std::vector<std::unique_ptr<spine::core::CompactSpineAdapter>> adapters;
  for (uint32_t s = 0; s < shards; ++s) {
    adapters.push_back(std::make_unique<spine::core::CompactSpineAdapter>(
        setup.index->shard(s)));
  }
  const auto timed = [&tracer](const char* name, uint64_t id, int64_t root,
                               auto&& fn) {
    const int64_t span = tracer.Begin(name, id, root);
    fn();
    tracer.End(span);
    return MicrosBetween(tracer.spans()[span].start, tracer.spans()[span].end);
  };
  std::vector<double> family_us, seed_us, verify_us, residual;
  uint64_t scan_nodes = 0, candidates = 0, verified = 0;
  uint64_t shard_calls = 0, seeded = 0, fanout = 0;
  const spine::obs::MetricsSnapshot r0 =
      spine::obs::Registry::Default().Snapshot();
  for (uint32_t j = 0; j < kReplayReads; ++j) {
    const Query query = MakeRead(setup.reference, args.seed, j).query;
    const int64_t root = tracer.Begin("read", j);
    spine::obs::TraceContext family_context;
    const double family_time = timed("shard.execute", j, root, [&] {
      (void)setup.index->Execute(query, &family_context);
    });
    fanout += family_context.NoteValue("shard_fanout");
    double approx_total = 0;
    double seed_total = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      const spine::core::CompactSpineAdapter& shard = *adapters[s];
      spine::obs::TraceContext context;
      QueryResult local;
      approx_total += timed("core.approx", j, root,
                            [&] { local = shard.Execute(query, &context); });
      // The shard's own record of the planner's decision: the seed
      // length it chose, 0 on the scan path.
      ++shard_calls;
      const bool used_seeds = context.NoteValue("approx_seed_len") > 0;
      seeded += used_seeds ? 1 : 0;
      // The walk, counted by running the library's generic again on the
      // counting wrapper (untimed); its hits must equal the shard's.
      CountingShard counting(setup.index->shard(s));
      spine::ApproxSearchStats approx;
      const std::vector<spine::ApproxHit> hits =
          query.kind == QueryKind::kMismatch
              ? spine::GenericFindMismatch(counting, query.pattern,
                                           query.max_errors, nullptr, &approx)
              : spine::GenericFindEditDistance(counting, query.pattern,
                                               query.max_errors, nullptr,
                                               &approx);
      std::vector<spine::Hit> as_hits;
      for (const spine::ApproxHit& hit : hits) {
        as_hits.push_back({hit.pos, hit.length, hit.errors});
      }
      if (as_hits != local.hits) {
        ++outcome.wrong;
        ++outcome.failed;
      }
      scan_nodes += counting.link_lels();
      candidates += approx.candidates;
      verified += approx.verified;
      if (!used_seeds) continue;
      const uint32_t m = static_cast<uint32_t>(query.pattern.size());
      const spine::plan::ApproxPlan plan = spine::plan::PlanApprox(
          shard.size(), shard.alphabet().size(), m, query.max_errors, true);
      for (uint32_t p = 0; p < plan.piece_count; ++p) {
        const auto [begin, end] =
            spine::plan::SeedBoundaries(m, plan.piece_count, p);
        seed_total += timed("core.approx.seed", j, root, [&] {
          (void)shard.Execute(
              Query::FindAll(query.pattern.substr(begin, end - begin)));
        });
      }
    }
    tracer.End(root);
    family_us.push_back(family_time);
    seed_us.push_back(seed_total);
    verify_us.push_back(approx_total - seed_total);
    residual.push_back(100.0 * (family_time - approx_total) / family_time);
  }
  const spine::obs::MetricsSnapshot r1 =
      spine::obs::Registry::Default().Snapshot();
  const double reads = kReplayReads;
  outcome.Add("plan.seeded_share",
              static_cast<double>(seeded) / static_cast<double>(shard_calls),
              "ratio", true);
  outcome.Add("core.approx.seed_us", Median(seed_us), "us");
  outcome.Add("core.approx.verify_us", Median(verify_us), "us");
  outcome.Add("core.approx.exec_us", Median(family_us), "us");
  outcome.Add("core.approx.residual_pct", Median(residual), "%");
  outcome.Add("core.approx.scan_nodes",
              static_cast<double>(scan_nodes) / reads, "count", true);
  outcome.Add("core.approx.candidates",
              static_cast<double>(candidates) / reads, "count", true);
  outcome.Add("core.approx.useful_ratio",
              candidates > 0 ? static_cast<double>(verified) /
                                   static_cast<double>(candidates)
                             : 0,
              "ratio", true);
  outcome.Add("shard.fanout", static_cast<double>(fanout) / reads, "count",
              true);
  outcome.Add("shard.merge_us", HistogramMeanDelta(r0, r1, "shard.merge_us"),
              "us");

  if (!args.trace_path.empty()) tracer.WriteJsonl(args.trace_path);
  return outcome;
}

}  // namespace spinebench
