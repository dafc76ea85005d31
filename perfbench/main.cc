// spinebench: one process, three seeded workloads over the spine library.
//
//   spinebench --workload serve_exact|map_reads|ingest_mixed --seed N
//              --seconds S --trace 0|1 [--workdir DIR] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 is the
// separate traced run that reports the per-layer metrics. The last line
// of standard output is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// preceded by one {"diagnostics":{..}} line (noise evidence, not gated).
// Exit code 0 only when every answer checked out.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "common/check.h"
#include "kernel/kernel.h"

namespace spinebench {
namespace {

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports untraced (BENCHMARK.json
// "end_to_end"), and the per-layer metrics of the traced run
// ("per_layer"): a layer absent from a workload's path reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"ops_per_s", "1/s"},
    {"p50_us", "us"},        {"peak_rss_mb", "MiB"},
    {"bytes_per_char", "B/char"},
};
constexpr MetricSpec kPerLayer[] = {
    {"serve.overhead_us", "us"},
    {"serve.round_trip_us", "us"},
    {"serve.attribution_residual_pct", "%"},
    {"serve.replay_exec_gap_pct", "%"},
    {"serve.queue_wait_us", "us"},
    {"engine.queue_wait_us", "us"},
    {"engine.exec_us", "us"},
    {"engine.self_us", "us"},
    {"core.execute_us", "us"},
    {"core.wire.encode_us", "us"},
    {"core.wire.decode_us", "us"},
    {"core.wire.req_bytes", "B"},
    {"core.wire.resp_bytes", "B"},
    {"engine.cache_hit_ratio", "ratio"},
    {"core.exec_us.contains", "us"},
    {"core.exec_us.ms", "us"},
    {"core.exec_us.match", "us"},
    {"core.nodes_checked", "count"},
    {"core.link_traversals", "count"},
    {"core.chain_hops", "count"},
    {"kernel.bytes_compared", "B"},
    {"storage.open_ms", "ms"},
    {"storage.fence_us", "us"},
    {"plan.seeded_share", "ratio"},
    {"core.approx.exec_us", "us"},
    {"core.approx.seed_us", "us"},
    {"core.approx.verify_us", "us"},
    {"core.approx.residual_pct", "%"},
    {"core.approx.scan_nodes", "count"},
    {"core.approx.candidates", "count"},
    {"core.approx.useful_ratio", "ratio"},
    {"shard.fanout", "count"},
    {"shard.merge_us", "us"},
    {"engine.worker_imbalance", "ratio"},
    {"shard.insert_us", "us"},
    {"shard.delete_us", "us"},
    {"shard.flush_ms", "ms"},
    {"shard.compact_ms", "ms"},
    {"shard.maint_s", "s"},
    {"compact.build_ms", "ms"},
    {"storage.write_amp", "ratio"},
    {"shard.sources_per_query", "count"},
    {"shard.dirty_query_share", "ratio"},
    {"shard.query_us.clean", "us"},
    {"shard.query_us.dirty", "us"},
    {"engine.failed", "count"},
    {"engine.retries", "count"},
    {"serve.shed", "count"},
    {"serve.deadline_exceeded", "count"},
    {"read.p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.span_ns", "ns"},
};

// Orders the workload's metrics by the canonical list of the mode. A
// missing end-to-end metric or an unlisted name is a bug here.
template <size_t N>
std::vector<Metric> Canonical(const std::vector<Metric>& reported,
                              const MetricSpec (&specs)[N], bool fill_zero) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const auto it = std::find_if(
        reported.begin(), reported.end(),
        [&spec](const Metric& m) { return m.name == spec.name; });
    if (it == reported.end()) {
      SPINE_CHECK_MSG(fill_zero, spec.name);
      out.push_back({spec.name, 0, spec.unit, false});
      continue;
    }
    SPINE_CHECK_MSG(it->unit == spec.unit, spec.name);
    out.push_back(*it);
  }
  for (const Metric& m : reported) {
    const bool listed =
        std::any_of(std::begin(specs), std::end(specs),
                    [&m](const MetricSpec& s) { return m.name == s.name; });
    SPINE_CHECK_MSG(listed, m.name.c_str());
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--trace-out") {
      args->trace_path = value;
    } else {
      return false;
    }
  }
  return (argc - 1) % 2 == 0 && !args->workload.empty();
}

}  // namespace
}  // namespace spinebench

int main(int argc, char** argv) {
  using namespace spinebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: spinebench --workload serve_exact|map_reads|"
                 "ingest_mixed --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR] [--trace-out FILE]\n");
    return 2;
  }
  Outcome (*run)(const Args&) = nullptr;
  if (args.workload == "serve_exact") run = RunServeExact;
  if (args.workload == "map_reads") run = RunMapReads;
  if (args.workload == "ingest_mixed") run = RunIngestMixed;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const ProcessSample before = SampleProcess();
  const Clock::time_point start = Clock::now();
  Outcome outcome = run(args);
  const ProcessSample after = SampleProcess();
  if (args.trace) outcome.Add("trace.span_ns", SpanCostNs(), "ns");
  outcome.metrics = args.trace
                        ? Canonical(outcome.metrics, kPerLayer, true)
                        : Canonical(outcome.metrics, kEndToEnd, false);

  std::string diag = "{\"diagnostics\":{";
  diag += "\"workload\":" + Quote(args.workload);
  diag += ",\"seed\":" + std::to_string(args.seed);
  diag += ",\"trace\":" + std::string(args.trace ? "1" : "0");
  diag += ",\"wall_s\":" + FormatNumber(SecondsSince(start));
  diag += ",\"cpu_s\":" + FormatNumber(after.cpu_s - before.cpu_s);
  diag += ",\"steal_ticks\":" +
          std::to_string(after.steal_ticks - before.steal_ticks);
  diag += ",\"involuntary_switches\":" +
          std::to_string(after.involuntary_switches -
                         before.involuntary_switches);
  diag += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  diag += ",\"kernel\":" +
          Quote(spine::kernel::KindName(spine::kernel::ActiveKind()));
  diag += ",\"build_type\":" + Quote(SPINEBENCH_BUILD_TYPE);
#if defined(SPINE_OBS_DISABLED)
  diag += ",\"obs\":\"off\"";
#else
  diag += ",\"obs\":\"on\"";
#endif
  diag += ",\"wrong_answers\":" + std::to_string(outcome.wrong);
  for (const auto& [key, value] : outcome.notes) {
    diag += "," + Quote(key) + ":" + value;
  }
  diag += ",\"exact\":[";
  bool first = true;
  for (const Metric& metric : outcome.metrics) {
    if (!metric.exact) continue;
    diag += (first ? "" : ",") + Quote(metric.name);
    first = false;
  }
  diag += "]}}";
  std::printf("%s\n", diag.c_str());

  const bool correct = outcome.wrong == 0 && outcome.attempted > 0;
  std::string result = "{\"correct\":";
  result += correct ? "true" : "false";
  result += ",\"attempted\":" + std::to_string(outcome.attempted);
  result += ",\"failed\":" + std::to_string(outcome.failed);
  result += ",\"metrics\":{";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& metric = outcome.metrics[i];
    if (i > 0) result += ",";
    result += Quote(metric.name) + ":{\"value\":" +
              FormatNumber(metric.value) + ",\"unit\":" + Quote(metric.unit) +
              "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct && outcome.failed == 0 ? 0 : 1;
}
