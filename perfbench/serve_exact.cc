// serve_exact: an in-process serve::Server over a ~4M-char DNA compact
// image (saved by set-up, reopened through the BackendRegistry with
// mmap), driven by a closed loop of exact O(m) queries over loopback TCP.
//
// Closed loop: one client connection keeps kOutstanding binary-frame
// requests in flight (below queue_cap, so admission can shed nothing by
// construction) and sends the next request only when a response
// arrives. Every response is checked after the timed phase against
// Index::Execute on the same image.
//
// The traffic mix is the repository's own, not a measured one:
//   - query shapes and kind weights are bench/bench_serve.cc's O(m)
//     kinds in equal shares: contains on a 20-mer slice with its middle
//     base changed (mostly a miss partway through the walk; a hit where
//     a near-copy exists), maximal matches >= 16 on 120-mer slices,
//     matching statistics on 96-mer slices;
//   - popularity is bench/bench_engine_throughput.cc's skewed workload:
//     95% of requests repeat one of 64 hot queries (uniformly), which
//     the 16 MiB result cache serves after warm-up; the rest are fresh.
// How real clients mix kinds and repeat queries is unknown; both are
// assumptions, and they set engine.cache_hit_ratio.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/check.h"
#include "common/rng.h"
#include "compact/compact_spine.h"
#include "compact/serializer.h"
#include "core/registry.h"
#include "core/wire.h"
#include "engine/query_engine.h"
#include "kernel/kernel.h"
#include "serve/client.h"
#include "serve/server.h"

namespace spinebench {
namespace {

using spine::Query;
using spine::QueryKind;
using spine::QueryResult;
using spine::Rng;

constexpr uint64_t kTextLen = 4'000'000;
constexpr int kSetupRepeats = 5;
constexpr uint32_t kEngineThreads = 1;
constexpr uint32_t kOutstanding = 32;  // per connection; queue_cap is 64
constexpr uint32_t kHotPool = 64;      // bench_engine_throughput's skew
constexpr double kHotShare = 0.95;
constexpr uint32_t kWarmupRequests = 150'000;
constexpr double kWindowSeconds = 0.5;
constexpr uint32_t kSample = 4096;     // fixed direct-execute sample
constexpr uint32_t kTraceEvery = 64;   // traced loop: round trips spanned
// Request streams: each loop draws its own, so the answer check and the
// replay can regenerate any request from (seed, stream, j).
constexpr uint64_t kStreamTimed = 0;
constexpr uint64_t kStreamTraced = 1;
constexpr uint64_t kStreamWarmup = 2;

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng rng(a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull));
  return rng.Next();
}

// One exact O(m) query in bench_serve's shapes, the three kinds in
// equal shares (maximal matches report first occurrences only).
Query MakeQuery(const std::string& text, Rng& rng) {
  switch (rng.Below(3)) {
    case 0: {
      std::string pattern = text.substr(rng.Below(text.size() - 20), 20);
      pattern[10] = pattern[10] == 'A' ? 'C' : 'A';
      return Query::Contains(std::move(pattern));
    }
    case 1:
      return Query::MaximalMatches(
          text.substr(rng.Below(text.size() - 120), 120), 16);
    default:
      return Query::MatchingStats(
          text.substr(rng.Below(text.size() - 96), 96));
  }
}

struct Setup {
  std::string text;
  std::unique_ptr<spine::core::Index> index;  // mmap-opened image
  std::vector<Query> hot;
  std::vector<uint64_t> hot_digest;
  double open_ms = 0;
  uint64_t memory_bytes = 0;  // the built index's footprint
};

// Generates the corpus, builds and saves the compact image, reopens it
// through the registry with mmap and answers the hot pool on it.
Setup Prepare(uint64_t seed, const std::string& image_path) {
  Setup setup;
  setup.text = GenerateDna(seed, kTextLen);
  {
    spine::CompactSpineIndex built(spine::Alphabet::Dna());
    SPINE_CHECK(built.AppendString(setup.text).ok());
    SPINE_CHECK(spine::SaveCompactSpine(built, image_path).ok());
    setup.memory_bytes = built.MemoryBytes();
  }
  spine::core::OpenOptions open;
  open.mode = spine::core::OpenMode::kMmap;
  const Clock::time_point t0 = Clock::now();
  auto opened = spine::core::BackendRegistry::Default().Open(image_path, open);
  setup.open_ms = MicrosBetween(t0, Clock::now()) / 1000.0;
  SPINE_CHECK(opened.ok());
  setup.index = std::move(opened).value();

  Rng rng(Mix(seed, 0x407));
  for (uint32_t i = 0; i < kHotPool; ++i) {
    setup.hot.push_back(MakeQuery(setup.text, rng));
    setup.hot_digest.push_back(
        AnswerDigest(setup.index->Execute(setup.hot.back())));
  }
  return setup;
}

// Request j of stream `stream` is a pure function of (seed, stream, j),
// so the answer check can regenerate it after the run.
struct Request {
  Query query;
  int64_t hot = -1;  // hot-pool index, -1 for a fresh query
};

Request MakeRequest(const Setup& setup, uint64_t seed, uint64_t stream,
                    uint64_t j) {
  Rng rng(Mix(Mix(seed, stream), j));
  Request request;
  if (rng.Chance(kHotShare)) {
    request.hot = static_cast<int64_t>(rng.Below(kHotPool));
    request.query = setup.hot[static_cast<size_t>(request.hot)];
  } else {
    request.query = MakeQuery(setup.text, rng);
  }
  return request;
}

uint64_t RequestId(uint64_t stream, uint64_t j) { return (stream << 32) | j; }

struct LoopResult {
  std::vector<uint64_t> digests;  // per completed request, in order
  uint64_t errors = 0;            // non-kOk verdicts / transport failures
  WindowRecorder::Summary summary;
  // Traced loops: (j, send, receive) of every kTraceEvery-th request.
  std::vector<std::tuple<uint64_t, Clock::time_point, Clock::time_point>>
      sampled;
};

// One connection's closed loop on the calling thread: kOutstanding
// requests in flight, the next one sent as each response arrives, until
// `seconds` pass (or `max_requests` were sent). The server answers in
// request order.
LoopResult ClosedLoop(const Setup& setup, uint64_t seed, uint16_t port,
                      uint64_t stream, double seconds, uint64_t max_requests,
                      bool sample) {
  LoopResult out;
  auto client = spine::serve::Client::Connect("127.0.0.1", port);
  SPINE_CHECK(client.ok());
  WindowRecorder windows(kWindowSeconds);
  std::vector<Clock::time_point> sent_at(kOutstanding);
  uint64_t next = 0;
  uint64_t received = 0;
  const auto send = [&]() {
    spine::core::wire::QueryRequest request;
    request.id = RequestId(stream, next);
    request.query = MakeRequest(setup, seed, stream, next).query;
    sent_at[next % kOutstanding] = Clock::now();
    if (!client->Send(request).ok()) return false;
    ++next;
    return true;
  };
  // Sized by the bound, so that the warm-up's vector, alive while its
  // memory is sampled, is no larger than it needs to be.
  out.digests.reserve(std::min<uint64_t>(max_requests, 1 << 23));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  windows.Start(start);
  for (uint32_t i = 0; i < kOutstanding && next < max_requests; ++i) {
    if (!send()) ++out.errors;
  }
  Clock::time_point now = start;
  while (received < next) {
    auto response = client->ReceiveResponse();
    now = Clock::now();
    if (!response.ok()) {
      out.errors += next - received;
      break;
    }
    const uint64_t j = response->id & 0xffffffffu;
    if (j != received) ++out.errors;  // out-of-order reply
    const Clock::time_point sent = sent_at[received % kOutstanding];
    windows.Record(now, MicrosBetween(sent, now));
    out.digests.push_back(AnswerDigest(response->result));
    if (!response->result.ok()) ++out.errors;
    if (sample && received % kTraceEvery == 0) {
      out.sampled.emplace_back(received, sent, now);
    }
    ++received;
    if (now < deadline && next < max_requests && !send()) ++out.errors;
  }
  windows.Finish(now);
  out.summary = windows.Summarize();
  return out;
}

// Checks every response of `loop` against Index::Execute on the image
// (hot requests against the set-up answers), on kEngineThreads threads
// while the server idles. Returns the wrong count.
uint64_t CheckAnswers(const Setup& setup, uint64_t seed, uint64_t stream,
                      const LoopResult& loop) {
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kEngineThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t bad = 0;
      for (uint64_t j = t; j < loop.digests.size(); j += kEngineThreads) {
        const Request request = MakeRequest(setup, seed, stream, j);
        const uint64_t expected =
            request.hot >= 0
                ? setup.hot_digest[static_cast<size_t>(request.hot)]
                : AnswerDigest(setup.index->Execute(request.query));
        if (expected != loop.digests[j]) ++bad;
      }
      wrong += bad;
    });
  }
  for (std::thread& t : threads) t.join();
  return wrong.load();
}

spine::serve::Options ServerOptions() {
  spine::serve::Options options;  // `spine serve` defaults ...
  options.threads = kEngineThreads;
  options.cache_bytes = uint64_t{16} << 20;  // ... incl. --cache-mb=16
  return options;
}

}  // namespace

Outcome RunServeExact(const Args& args) {
  Outcome outcome;
  WorkDir workdir(args.workdir);
  const std::string image = workdir.File("serve.spine");

  std::vector<Sample> setup_s;
  std::vector<double> open_ms;
  Setup setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup = Setup();
    setup_s.push_back(TimeSample([&] { setup = Prepare(args.seed, image); }));
    open_ms.push_back(setup.open_ms);
  }

  spine::serve::Server server(*setup.index, ServerOptions());
  SPINE_CHECK(server.Start().ok());
  const uint16_t port = server.port();

  // Warm-up: puts the hot pool in the result cache and brings the
  // connection, pool and page cache to steady state. Fixed work, so the
  // memory sampled after it is the same work on every run.
  const LoopResult warm = ClosedLoop(setup, args.seed, port, kStreamWarmup,
                                     1e9, kWarmupRequests, false);
  // The serving process's memory: the live resident set at steady state
  // (mapped image, text, cache, buffers). Set-up's build peak is left
  // out: building the image is not part of serving it, and that peak
  // stepped between 43 and 57 MiB from seed to seed.
  const double peak_rss = LiveRssMiB();
  outcome.wrong += CheckAnswers(setup, args.seed, kStreamWarmup, warm);

  const auto account = [&](const LoopResult& loop, uint64_t stream) {
    outcome.attempted += loop.digests.size();
    outcome.failed += loop.errors;
    const uint64_t wrong = CheckAnswers(setup, args.seed, stream, loop);
    outcome.wrong += wrong;
    outcome.failed += wrong;
  };

  if (!args.trace) {
    const LoopResult loop = ClosedLoop(setup, args.seed, port, kStreamTimed,
                                       args.seconds, UINT64_MAX, false);
    account(loop, kStreamTimed);
    server.Stop();
    outcome.Add("setup_s", CleanMedian(setup_s), "s");
    outcome.Add("ops_per_s", loop.summary.ops_per_s, "1/s");
    outcome.Add("p50_us", loop.summary.p50_us, "us");
    outcome.Add("peak_rss_mb", peak_rss, "MiB");
    outcome.Add("bytes_per_char",
                static_cast<double>(setup.memory_bytes) /
                    static_cast<double>(setup.index->size()),
                "B/char", true);
    outcome.Note("requests", std::to_string(loop.digests.size()));
    outcome.Note("windows_used", std::to_string(loop.summary.used));
    outcome.Note("windows", std::to_string(loop.summary.windows));
    outcome.Note("window_rates", FormatList(loop.summary.rates));
    outcome.Note("window_steal", FormatList(loop.summary.steals));
    std::vector<double> setups;
    for (const Sample& sample : setup_s) setups.push_back(sample.value);
    outcome.Note("setup_s_all", FormatList(setups));
    outcome.Note("server_shed", std::to_string(server.stats().shed));
    return outcome;
  }

  // --- traced run -----------------------------------------------------------
  Tracer tracer;
  // Untraced then traced halves of the same closed loop: the p50 gap is
  // the tracing overhead.
  const LoopResult plain = ClosedLoop(setup, args.seed, port, kStreamTimed,
                                      args.seconds / 2, UINT64_MAX, false);
  account(plain, kStreamTimed);
  const spine::obs::MetricsSnapshot before =
      spine::obs::Registry::Default().Snapshot();
  const LoopResult traced = ClosedLoop(setup, args.seed, port, kStreamTraced,
                                       args.seconds / 2, UINT64_MAX, true);
  const spine::obs::MetricsSnapshot after =
      spine::obs::Registry::Default().Snapshot();
  account(traced, kStreamTraced);
  server.Stop();

  // Round-trip spans of the sampled requests, then their in-process
  // replay under the same id: wire -> ExecuteBatch -> Index::Execute.
  spine::engine::QueryEngine replay_engine(
      {.threads = 1, .cache_bytes = uint64_t{16} << 20});
  TracedIndex traced_index(*setup.index, &tracer);
  std::vector<double> round_trip;
  std::vector<double> overhead;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  {
    const uint64_t stream = kStreamTraced;
    for (const auto& [j, sent, received] : traced.sampled) {
      const uint64_t id = RequestId(stream, j);
      tracer.Record("serve.round_trip", id, -1, sent, received);
      const Request request = MakeRequest(setup, args.seed, stream, j);
      if (request.hot >= 0) {
        // The server answered it from its warm cache: fill the replay
        // engine's cache first (untraced) so the replay is a hit too.
        traced_index.set_request(id, -1);
        (void)replay_engine.ExecuteBatch(traced_index, {request.query});
      }
      const int64_t root = tracer.Begin("replay", id);
      spine::core::wire::QueryRequest wire_request{id, request.query};
      std::string frame;
      {
        ScopedSpan s(&tracer, "core.wire.encode", id, root);
        spine::core::wire::AppendRequestFrame(wire_request, &frame);
      }
      spine::core::wire::QueryRequest decoded;
      {
        ScopedSpan s(&tracer, "core.wire.decode", id, root);
        spine::core::wire::Frame f;
        size_t consumed = 0;
        SPINE_CHECK(spine::core::wire::ExtractFrame(frame, &f, &consumed).ok());
        decoded = spine::core::wire::DecodeRequest(f.payload).value();
      }
      std::vector<QueryResult> results;
      {
        ScopedSpan s(&tracer, "engine.execute_batch", id, root);
        traced_index.set_request(id, s.index());
        results = replay_engine.ExecuteBatch(traced_index, {decoded.query});
      }
      std::string reply;
      {
        ScopedSpan s(&tracer, "core.wire.encode", id, root);
        spine::core::wire::AppendResponseFrame({id, results[0]}, &reply);
      }
      {
        ScopedSpan s(&tracer, "core.wire.decode", id, root);
        spine::core::wire::Frame f;
        size_t consumed = 0;
        SPINE_CHECK(spine::core::wire::ExtractFrame(reply, &f, &consumed).ok());
        SPINE_CHECK(spine::core::wire::DecodeResponse(f.payload).ok());
      }
      tracer.End(root);
    }
  }
  // Per-request stage sums: the replay root's children by name.
  {
    const std::vector<double> self = tracer.SelfMicros();
    const auto& spans = tracer.spans();
    std::vector<double> engine_self;
    std::vector<double> exec_us;
    std::vector<double> miss_exec_us;  // replays that reached the backend
    double rt_us = 0;
    double enc = 0, dec = 0, eng = 0, exe = 0;
    bool executed = false;
    int64_t current_root = -1;
    const auto flush = [&]() {
      if (current_root < 0) return;
      encode_us.push_back(enc);
      decode_us.push_back(dec);
      engine_self.push_back(eng);
      exec_us.push_back(exe);
      if (executed) miss_exec_us.push_back(exe);
      overhead.push_back(rt_us - (enc + dec + eng + exe));
      round_trip.push_back(rt_us);
    };
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string_view name = spans[i].name;
      const double us = MicrosBetween(spans[i].start, spans[i].end);
      if (name == "serve.round_trip") {
        flush();
        current_root = -1;
        rt_us = us;
        enc = dec = eng = exe = 0;
        executed = false;
      } else if (name == "replay") {
        current_root = static_cast<int64_t>(i);
      } else if (current_root >= 0 && name == "core.wire.encode") {
        enc += us;
      } else if (current_root >= 0 && name == "core.wire.decode") {
        dec += us;
      } else if (current_root >= 0 && name == "engine.execute_batch") {
        eng += self[i];
      } else if (current_root >= 0 && name == "core.execute") {
        exe += us;
        executed = true;
      }
    }
    flush();
    const double rt50 = Median(round_trip);
    const double stages50 = Median(encode_us) + Median(decode_us) +
                            Median(engine_self) + Median(exec_us) +
                            Median(overhead);
    outcome.Add("serve.overhead_us", Median(overhead), "us");
    outcome.Add("serve.round_trip_us", rt50, "us");
    // serve.overhead_us is each request's round trip minus its replayed
    // stages, so this residual only measures how far the sum of the
    // stage medians falls from the median round trip.
    outcome.Add("serve.attribution_residual_pct",
                rt50 > 0 ? 100.0 * (rt50 - stages50) / rt50 : 0, "%");
    outcome.Add("engine.self_us", Median(engine_self), "us");
    outcome.Add("core.execute_us", Median(miss_exec_us), "us");
    outcome.Add("core.wire.encode_us", Median(encode_us), "us");
    outcome.Add("core.wire.decode_us", Median(decode_us), "us");
    // The check that can fail: the replay's backend time per cache miss
    // against the server's own engine.exec_us timer over the same loop,
    // two independent measurements of one stage. A large gap means the
    // replay does not represent what the server ran.
    const double server_exec =
        HistogramMeanDelta(before, after, "engine.exec_us");
    outcome.Add("serve.replay_exec_gap_pct",
                server_exec > 0
                    ? 100.0 * (Mean(miss_exec_us) - server_exec) / server_exec
                    : 0,
                "%");
  }

  outcome.Add("serve.queue_wait_us",
              HistogramMeanDelta(before, after, "serve.queue_wait_us"), "us");
  outcome.Add("engine.queue_wait_us",
              HistogramMeanDelta(before, after, "engine.queue_wait_us"), "us");
  outcome.Add("engine.exec_us",
              HistogramMeanDelta(before, after, "engine.exec_us"), "us");
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
  outcome.Add("serve.shed",
              static_cast<double>(CounterDelta(before, after, "serve.shed")),
              "count");
  outcome.Add("serve.deadline_exceeded",
              static_cast<double>(
                  CounterDelta(before, after, "serve.deadline_exceeded")),
              "count");

  // Direct Index::Execute over the fixed sample (the first kSample
  // requests of each timed stream): per-kind time, exact work counters,
  // exact wire sizes and kernel bytes.
  std::vector<Query> sample;
  for (uint32_t j = 0; j < kSample; ++j) {
    sample.push_back(MakeRequest(setup, args.seed, kStreamTimed, j).query);
  }
  const std::string bytes_counter =
      std::string("kernel.") +
      spine::kernel::KindName(spine::kernel::ActiveKind()) +
      ".bytes_compared";
  spine::SearchStats work;
  std::vector<double> exec_by_kind[3];
  uint64_t req_bytes = 0;
  uint64_t resp_bytes = 0;
  const spine::obs::MetricsSnapshot k0 =
      spine::obs::Registry::Default().Snapshot();
  for (size_t i = 0; i < sample.size(); ++i) {
    const Query& query = sample[i];
    const Clock::time_point t0 = Clock::now();
    const QueryResult result = setup.index->Execute(query);
    const double us = MicrosBetween(t0, Clock::now());
    work.Add(result.stats);
    const int kind = query.kind == QueryKind::kContains         ? 0
                     : query.kind == QueryKind::kMatchingStats ? 1
                                                                : 2;
    exec_by_kind[kind].push_back(us);
    std::string frame;
    spine::core::wire::AppendRequestFrame({i, query}, &frame);
    req_bytes += frame.size();
    frame.clear();
    spine::core::wire::AppendResponseFrame({i, result}, &frame);
    resp_bytes += frame.size();
  }
  const spine::obs::MetricsSnapshot k1 =
      spine::obs::Registry::Default().Snapshot();
  const double n = static_cast<double>(sample.size());
  outcome.Add("core.exec_us.contains", Median(exec_by_kind[0]), "us");
  outcome.Add("core.exec_us.ms", Median(exec_by_kind[1]), "us");
  outcome.Add("core.exec_us.match", Median(exec_by_kind[2]), "us");
  outcome.Add("core.nodes_checked", static_cast<double>(work.nodes_checked) / n,
              "count", true);
  outcome.Add("core.link_traversals",
              static_cast<double>(work.link_traversals) / n, "count", true);
  outcome.Add("core.chain_hops", static_cast<double>(work.chain_hops) / n,
              "count", true);
  outcome.Add("core.wire.req_bytes", static_cast<double>(req_bytes) / n, "B",
              true);
  outcome.Add("core.wire.resp_bytes", static_cast<double>(resp_bytes) / n,
              "B", true);
  outcome.Add("kernel.bytes_compared",
              static_cast<double>(CounterDelta(k0, k1, bytes_counter)) / n,
              "B", true);

  // The mmap fence: the same queries on the mapped image and on a
  // heap-opened copy, interleaved; the mean gap is the fence's price.
  {
    spine::core::OpenOptions heap_open;
    heap_open.mode = spine::core::OpenMode::kHeap;
    auto heap = spine::core::BackendRegistry::Default().Open(image, heap_open);
    SPINE_CHECK(heap.ok());
    std::vector<double> gap;
    for (int pass = 0; pass < 3; ++pass) {
      for (const Query& query : sample) {
        const Clock::time_point t0 = Clock::now();
        const QueryResult a = setup.index->Execute(query);
        const Clock::time_point t1 = Clock::now();
        const QueryResult b = (*heap)->Execute(query);
        const Clock::time_point t2 = Clock::now();
        if (!a.SameAnswer(b)) ++outcome.wrong;
        gap.push_back(MicrosBetween(t0, t1) - MicrosBetween(t1, t2));
      }
    }
    outcome.Add("storage.fence_us", Mean(gap), "us");
  }
  outcome.Add("storage.open_ms", Median(open_ms), "ms");

  const double p50_plain = plain.summary.p50_us;
  const double p50_traced = traced.summary.p50_us;
  outcome.Add("trace.overhead_pct",
              p50_plain > 0 ? 100.0 * (p50_traced - p50_plain) / p50_plain : 0,
              "%");
  outcome.Add("read.p99_us", traced.summary.p99_us, "us");

  if (!args.trace_path.empty()) tracer.WriteJsonl(args.trace_path);
  return outcome;
}

}  // namespace spinebench
