// Shared plumbing of spinebench, the spine benchmark: arguments, timing,
// summary statistics, the in-memory span recorder of the traced run,
// the result report and the noise diagnostics.
//
// Every workload runs in this one process against the library built
// from the repository's src/ tree. Workloads see only inputs generated
// from --seed; the same seed always yields the same inputs.

#ifndef SPINEBENCH_BENCH_H_
#define SPINEBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "core/index.h"
#include "core/query.h"
#include "obs/metrics.h"

namespace spinebench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";  // working files, removed at exit
  std::string trace_path;                     // span dump of the traced run
};

// One reported number. `exact` marks the deterministic work counters:
// they repeat bit for bit at one seed (tests assert it).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool exact = false;
};

// What a workload hands back to main(): the answer-check verdict, the
// operation counts and the metrics of the requested mode (end-to-end
// untraced, per-layer traced).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors and wrong answers alike
  uint64_t wrong = 0;   // the wrong answers among `failed`
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  // diagnostics

  void Add(std::string name, double value, std::string unit,
           bool exact = false) {
    metrics.push_back({std::move(name), value, std::move(unit), exact});
  }
  void Note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
};

// --- summary statistics ------------------------------------------------------

// Linear interpolation between order statistics (q in [0, 1]); 0 for an
// empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// Shortest round-trip decimal form of a number, and a JSON array of them.
std::string FormatNumber(double value);
std::string FormatList(const std::vector<double>& values);

// Mean of a registry histogram's observations between two snapshots
// (its buckets grow x4, so the mean is the sharper number).
double HistogramMeanDelta(const spine::obs::MetricsSnapshot& before,
                          const spine::obs::MetricsSnapshot& after,
                          const std::string& name);
uint64_t CounterDelta(const spine::obs::MetricsSnapshot& before,
                      const spine::obs::MetricsSnapshot& after,
                      const std::string& name);

// --- inputs --------------------------------------------------------------------

// `length` bases of DNA from `seed`, shaped like seq::GenerateSequence's
// defaults (~90% of the text in approximate copies of earlier segments)
// but over one fixed Markov chain. GenerateSequence draws a fresh chain
// per seed, so its entropy, and with it every index cost, shifts from
// seed to seed; this text has the same statistics under every seed.
std::string GenerateDna(uint64_t seed, uint64_t length);

// --- answer digests ----------------------------------------------------------

// FNV-1a over a result's payload (verdict, hits, matching statistics);
// equal digests <=> QueryResult::SameAnswer up to hash collisions.
uint64_t AnswerDigest(const spine::QueryResult& result);

// --- spans of the traced run -------------------------------------------------

// Spans recorded by the benchmark around its calls into each layer:
// name, start, end and parent; spans of one request share its id. Kept
// in memory and written once, at exit. Untraced code passes a null
// Tracer*, which records nothing and costs one branch per span.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    uint64_t id = 0;      // request id shared by one request's spans
    int64_t parent = -1;  // index into spans(), -1 for a root
    Clock::time_point start;
    Clock::time_point end;
  };

  const std::deque<Span>& spans() const { return spans_; }

  int64_t Begin(const char* name, uint64_t id, int64_t parent = -1);
  void End(int64_t span);
  // A span measured elsewhere (e.g. a round trip timed by a client).
  int64_t Record(const char* name, uint64_t id, int64_t parent,
                 Clock::time_point start, Clock::time_point end);

  // Per span: its duration minus the part its children cover.
  std::vector<double> SelfMicros() const;

  // One JSON object per line: {"id","name","parent","start_us","end_us"}.
  bool WriteJsonl(const std::string& path) const;

 private:
  // A deque, so that recording a span never copies the earlier ones:
  // a vector's regrowth would land inside the span being opened.
  std::deque<Span> spans_;
};

// Cost of recording one span (Begin + End), in nanoseconds, measured on
// a throwaway tracer: the per-span price behind trace.overhead_pct.
double SpanCostNs();

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t id,
             int64_t parent = -1)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, id, parent) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

// Forwards to an index and records a span around every Execute, so a
// replay through the engine shows the backend call as the engine
// span's child. Single-threaded use only (the tracer is not locked).
class TracedIndex final : public spine::core::Index {
 public:
  TracedIndex(const spine::core::Index& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void set_request(uint64_t id, int64_t parent) {
    id_ = id;
    parent_ = parent;
  }

  spine::core::IndexKind kind() const override { return inner_.kind(); }
  spine::core::Capabilities capabilities() const override {
    spine::core::Capabilities caps = inner_.capabilities();
    caps.concurrent_reads = false;  // the tracer is single-threaded
    return caps;
  }
  const spine::Alphabet& alphabet() const override {
    return inner_.alphabet();
  }
  uint64_t size() const override { return inner_.size(); }
  spine::QueryResult Execute(
      const spine::Query& query, spine::obs::TraceContext* trace = nullptr,
      const spine::CancelToken* cancel = nullptr) const override {
    ScopedSpan span(tracer_, "core.execute", id_, parent_);
    return inner_.Execute(query, trace, cancel);
  }
  spine::Status VerifyStructure() const override {
    return inner_.VerifyStructure();
  }
  uint64_t MemoryBytes() const override { return inner_.MemoryBytes(); }

 private:
  const spine::core::Index& inner_;
  Tracer* tracer_;
  uint64_t id_ = 0;
  int64_t parent_ = -1;
};

// --- windows and CPU steal ---------------------------------------------------

// Machine-wide CPU steal (time the hypervisor ran someone else on our
// virtual CPUs), in clock ticks, from /proc/stat; 0 where unavailable.
uint64_t StealTicks();
// The steal share (of the machine's CPU time) a clean sample stays within.
inline constexpr double kStealShare = 0.02;

// Repeated measurements of one phase (windows, set-ups, script rounds):
// each value with the seconds it spanned and the steal ticks meanwhile.
struct Sample {
  double value = 0;
  double seconds = 0;
  uint64_t steal = 0;
};
// Which samples to use: those whose steal rate stays within kStealShare
// of the machine's CPU time, or, when that leaves fewer than a quarter
// of them, every sample at or below the lower quartile of steal rate.
std::vector<bool> LeastStolen(const std::vector<Sample>& samples);
// Median value over the samples LeastStolen admits.
double CleanMedian(const std::vector<Sample>& samples);

// Splits a timed phase into windows of fixed length, as seen by the one
// thread that completes operations, and records the machine's CPU steal
// in each. On a shared host a window in which the hypervisor ran someone
// else on our CPUs measures the neighbours, not the program (the closed
// loop loses half its rate at ~10% steal), so the summary keeps only the
// windows LeastStolen admits. Diagnostics report how many it kept.
class WindowRecorder {
 public:
  explicit WindowRecorder(double window_s) : window_s_(window_s) {}

  void Start(Clock::time_point now);
  // One completed operation and its latency.
  void Record(Clock::time_point now, double latency_us);
  void Finish(Clock::time_point now);

  struct Summary {
    double ops_per_s = 0;  // median over the used windows
    double p50_us = 0;     // quantiles over the used windows' operations
    double p99_us = 0;
    uint64_t ops = 0;      // operations in the used windows
    uint32_t windows = 0;
    uint32_t used = 0;
    std::vector<double> rates;   // every window's rate, for diagnostics
    std::vector<double> steals;  // ... and its steal ticks
  };
  Summary Summarize() const;

 private:
  struct Window {
    double seconds = 0;
    uint64_t steal = 0;
    std::vector<float> latency_us;
  };
  void Close(Clock::time_point now);

  double window_s_;
  Clock::time_point window_start_;
  uint64_t steal_start_ = 0;
  std::vector<float> current_;
  std::vector<Window> windows_;
};

// Runs `fn`, returning its duration in seconds and the steal meanwhile.
template <typename Fn>
Sample TimeSample(Fn&& fn) {
  const uint64_t steal = StealTicks();
  const Clock::time_point t0 = Clock::now();
  fn();
  const double seconds = SecondsSince(t0);
  return {seconds, seconds, StealTicks() - steal};
}

// --- process diagnostics -----------------------------------------------------

struct ProcessSample {
  uint64_t steal_ticks = 0;  // machine-wide, from /proc/stat
  double cpu_s = 0;          // this process, user + system
  uint64_t involuntary_switches = 0;
};
ProcessSample SampleProcess();
double PeakRssMiB();     // high-water mark of the resident set
double CurrentRssMiB();  // resident set now
// The resident set after returning free heap memory to the system
// (malloc_trim): the live memory, without freed buffers whose reuse
// depends on allocation history and thread timing.
double LiveRssMiB();

// Peak memory as a user of one set-up sees it. Repeating a set-up (for
// a steady setup_s) leaves freed buffers in glibc's heap whose reuse
// depends on allocation history, so the process high-water mark would
// depend on the repeat count. This keeps the high-water mark after the
// first set-up, returns free heap memory to the system once the repeats
// are done, and reports the larger of that mark and the resident set at
// the workload's steady state (Now()).
class MemoryPeak {
 public:
  void AfterFirstSetup() { setup_peak_ = PeakRssMiB(); }
  void AfterSetups();  // malloc_trim
  double Now() const { return std::max(setup_peak_, CurrentRssMiB()); }

 private:
  double setup_peak_ = 0;
};

// --- workloads ---------------------------------------------------------------

Outcome RunServeExact(const Args& args);
Outcome RunMapReads(const Args& args);
Outcome RunIngestMixed(const Args& args);

// Creates (and on destruction removes) a private working directory
// under args.workdir.
class WorkDir {
 public:
  explicit WorkDir(const std::string& root);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  std::string path_;
};

}  // namespace spinebench

#endif  // SPINEBENCH_BENCH_H_
