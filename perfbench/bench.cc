#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"

namespace spinebench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string FormatNumber(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

std::string FormatList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += FormatNumber(values[i]);
  }
  return out + "]";
}

double HistogramMeanDelta(const spine::obs::MetricsSnapshot& before,
                          const spine::obs::MetricsSnapshot& after,
                          const std::string& name) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0;
  uint64_t count = a->second.count;
  double sum = a->second.sum;
  const auto b = before.histograms.find(name);
  if (b != before.histograms.end()) {
    count -= b->second.count;
    sum -= b->second.sum;
  }
  return count == 0 ? 0 : sum / static_cast<double>(count);
}

uint64_t CounterDelta(const spine::obs::MetricsSnapshot& before,
                      const spine::obs::MetricsSnapshot& after,
                      const std::string& name) {
  return after.counter(name) - before.counter(name);
}

std::string GenerateDna(uint64_t seed, uint64_t length) {
  static constexpr char kBases[] = "ACGT";
  // Fixed order-1 chain, the shape of a typical seq::GenerateSequence
  // row (two preferred successors; ~1.7 bits per base): the successor of
  // base b is (b + k + 1) % 4 with probability kStep[k].
  static constexpr double kStep[4] = {0.42, 0.38, 0.11, 0.09};
  spine::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5851f42d4c957f2dull);
  std::string out;
  out.reserve(length);
  uint32_t prev = static_cast<uint32_t>(rng.Below(4));
  while (out.size() < length) {
    // As seq::GenerateSequence's defaults: before each base, with
    // probability 1/200 copy an earlier segment of geometric length
    // (mean 2000) with 1% substitutions, so ~90% of the text is copies.
    if (out.size() > 64 && rng.Below(200) == 0) {
      const double u = rng.NextDouble();
      uint64_t len = static_cast<uint64_t>(std::log1p(-u) /
                                           std::log1p(-1.0 / 2000.0));
      len = std::clamp<uint64_t>(len, 1, out.size());
      const uint64_t start = rng.Below(out.size() - len + 1);
      for (uint64_t i = 0; i < len && out.size() < length; ++i) {
        const char c = out[start + i];
        out.push_back(rng.Chance(0.01) ? kBases[rng.Below(4)] : c);
      }
      continue;
    }
    double u = rng.NextDouble();
    uint32_t k = 0;
    while (k < 3 && u >= kStep[k]) u -= kStep[k++];
    prev = (prev + k + 1) % 4;
    out.push_back(kBases[prev]);
  }
  return out;
}

uint64_t AnswerDigest(const spine::QueryResult& result) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<uint64_t>(result.status_code));
  mix(result.found ? 1 : 0);
  mix(result.hits.size());
  for (const spine::Hit& hit : result.hits) {
    mix(hit.pos);
    mix(hit.length);
    mix(hit.query_pos);
  }
  mix(result.matching_stats.size());
  for (const uint32_t v : result.matching_stats) mix(v);
  return h;
}

int64_t Tracer::Begin(const char* name, uint64_t id, int64_t parent) {
  const Clock::time_point now = Clock::now();
  return Record(name, id, parent, now, now);
}

void Tracer::End(int64_t span) {
  spans_[static_cast<size_t>(span)].end = Clock::now();
}

int64_t Tracer::Record(const char* name, uint64_t id, int64_t parent,
                       Clock::time_point start, Clock::time_point end) {
  spans_.push_back({name, id, parent, start, end});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::SelfMicros() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (const size_t c : children[i]) {
      cover.emplace_back(std::max(spans_[c].start, span.start),
                         std::min(spans_[c].end, span.end));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    Clock::time_point reach = span.start;
    for (const auto& [s, e] : cover) {
      const Clock::time_point from = std::max(s, reach);
      if (e > from) {
        covered += MicrosBetween(from, e);
        reach = e;
      }
    }
    self[i] = MicrosBetween(span.start, span.end) - covered;
  }
  return self;
}

double SpanCostNs() {
  constexpr int kSpans = 100'000;
  Tracer tracer;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&tracer, "calibration", static_cast<uint64_t>(i));
  }
  return MicrosBetween(t0, Clock::now()) * 1000.0 / kSpans;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point epoch =
      spans_.empty() ? Clock::now() : spans_.front().start;
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"span\":%zu,\"id\":%llu,\"name\":\"%s\",\"parent\":%lld,"
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  i, static_cast<unsigned long long>(span.id), span.name,
                  static_cast<long long>(span.parent),
                  MicrosBetween(epoch, span.start),
                  MicrosBetween(epoch, span.end));
    out << line;
  }
  return static_cast<bool>(out);
}

uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  // cpu  user nice system idle iowait irq softirq steal ...
  uint64_t fields[8] = {};
  if (!(stat >> label) || label != "cpu") return 0;
  for (uint64_t& f : fields) stat >> f;
  return fields[7];
}

std::vector<bool> LeastStolen(const std::vector<Sample>& samples) {
  static const double ticks_per_s =
      static_cast<double>(::sysconf(_SC_CLK_TCK)) *
      static_cast<double>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  std::vector<double> rates;
  for (const Sample& s : samples) {
    rates.push_back(static_cast<double>(s.steal) / std::max(s.seconds, 1e-9));
  }
  const double clean = kStealShare * ticks_per_s;
  const size_t clean_count = static_cast<size_t>(std::count_if(
      rates.begin(), rates.end(), [clean](double r) { return r <= clean; }));
  const double limit = 4 * clean_count >= rates.size()
                           ? clean
                           : std::max(clean, Quantile(rates, 0.25));
  std::vector<bool> use;
  for (const double r : rates) use.push_back(r <= limit);
  return use;
}

double CleanMedian(const std::vector<Sample>& samples) {
  const std::vector<bool> use = LeastStolen(samples);
  std::vector<double> values;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (use[i]) values.push_back(samples[i].value);
  }
  return Median(values);
}

void WindowRecorder::Start(Clock::time_point now) {
  window_start_ = now;
  steal_start_ = StealTicks();
  current_.clear();
  windows_.clear();
}

void WindowRecorder::Record(Clock::time_point now, double latency_us) {
  if (std::chrono::duration<double>(now - window_start_).count() >=
      window_s_) {
    Close(now);
  }
  current_.push_back(static_cast<float>(latency_us));
}

void WindowRecorder::Finish(Clock::time_point now) {
  if (!current_.empty()) Close(now);
}

void WindowRecorder::Close(Clock::time_point now) {
  const uint64_t steal = StealTicks();
  Window window;
  window.seconds = std::chrono::duration<double>(now - window_start_).count();
  window.steal = steal - steal_start_;
  window.latency_us = std::move(current_);
  windows_.push_back(std::move(window));
  current_.clear();
  window_start_ = now;
  steal_start_ = steal;
}

WindowRecorder::Summary WindowRecorder::Summarize() const {
  Summary summary;
  summary.windows = static_cast<uint32_t>(windows_.size());
  std::vector<Sample> samples;
  for (const Window& w : windows_) {
    samples.push_back({static_cast<double>(w.latency_us.size()) / w.seconds,
                       w.seconds, w.steal});
    summary.rates.push_back(samples.back().value);
    summary.steals.push_back(static_cast<double>(w.steal));
  }
  const std::vector<bool> use = LeastStolen(samples);
  std::vector<double> rates;
  std::vector<double> latency;
  for (size_t i = 0; i < windows_.size(); ++i) {
    if (!use[i]) continue;
    rates.push_back(samples[i].value);
    latency.insert(latency.end(), windows_[i].latency_us.begin(),
                   windows_[i].latency_us.end());
    summary.ops += windows_[i].latency_us.size();
  }
  summary.used = static_cast<uint32_t>(rates.size());
  summary.ops_per_s = Median(rates);
  summary.p50_us = Quantile(latency, 0.5);
  summary.p99_us = Quantile(latency, 0.99);
  return summary;
}

ProcessSample SampleProcess() {
  ProcessSample sample;
  sample.steal_ticks = StealTicks();
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    sample.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
                   static_cast<double>(usage.ru_stime.tv_sec) +
                   1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                              usage.ru_stime.tv_usec);
    sample.involuntary_switches = static_cast<uint64_t>(usage.ru_nivcsw);
  }
  return sample;
}

double PeakRssMiB() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMiB() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double LiveRssMiB() {
  ::malloc_trim(0);
  return CurrentRssMiB();
}

void MemoryPeak::AfterSetups() { ::malloc_trim(0); }

WorkDir::WorkDir(const std::string& root) {
  path_ = root + "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace spinebench
