#include "tools/cli.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "align/aligner.h"
#include "common/cancel.h"
#include "common/timer.h"
#include "compact/compact_spine.h"
#include "compact/generalized_compact.h"
#include "compact/serializer.h"
#include "core/adapters.h"
#include "core/index.h"
#include "core/matcher.h"
#include "core/query.h"
#include "core/registry.h"
#include "core/wire.h"
#include "engine/query_engine.h"
#include "kernel/kernel.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "seq/fasta.h"
#include "seq/generator.h"
#include "serve/server.h"
#include "shard/dynamic_family.h"
#include "shard/sharded_index.h"
#include "storage/page_file.h"

namespace spine::cli {

int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return kExitOk;
    case StatusCode::kIoError:
      return kExitIoError;
    case StatusCode::kCorruption:
      return kExitCorruption;
    case StatusCode::kInvalidArgument:
      return kExitInvalidArgument;
    case StatusCode::kNotFound:
      return kExitNotFound;
    case StatusCode::kResourceExhausted:
      return kExitResourceExhausted;
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
      return kExitPrecondition;
    case StatusCode::kOverloaded:
      return kExitOverloaded;
    case StatusCode::kProtocolError:
      return kExitProtocolError;
    case StatusCode::kDeadlineExceeded:
      return kExitDeadlineExceeded;
    case StatusCode::kCancelled:
      return kExitCancelled;
  }
  return kExitIoError;
}

namespace {

constexpr const char* kUsage =
    "usage: spine_tool <command> [args]\n"
    "commands:\n"
    "  build <input.fa> <index.spine> [--alphabet=dna|protein|ascii]\n"
    "        [--shards=K] [--max-pattern=M]\n"
    "      --shards=K builds a sharded family instead: a .spinefam\n"
    "      manifest plus K per-shard compact images built in parallel;\n"
    "      --max-pattern (default 1024) bounds queryable pattern length\n"
    "  gbuild <input.fa> <index.spineg> [--alphabet=dna|protein|ascii]\n"
    "      index EVERY record of a multi-FASTA file together\n"
    "  gquery <index.spineg> <pattern>\n"
    "  query <index> <pattern> [--kind=K] [--errors=N] [--min-len=N]\n"
    "        [--deadline-ms=N]\n"
    "      --kind is one of findall (default), contains, match, ms,\n"
    "      mismatch, edit; the approximate kinds take --errors=N (the\n"
    "      k-mismatch / edit-distance budget, docs/QUERIES.md)\n"
    "  batch <index> <patterns.txt> [--threads=N] [--cache-mb=M] "
    "[--min-len=N] [--deadline-ms=N] [--trace]\n"
    "      run a batch of queries concurrently; each line of patterns.txt\n"
    "      is 'PATTERN' or 'KIND PATTERN' with KIND one of findall,\n"
    "      contains, match, ms, mismatch, edit; the approximate kinds\n"
    "      take a KIND:ERRORS budget suffix ('mismatch:2 abra');\n"
    "      KIND@MS sets a per-line deadline, and --deadline-ms sets the\n"
    "      default for lines without one\n"
    "  serve <artifact> [--port=N] [--host=ADDR] [--threads=N]\n"
    "        [--queue-cap=N] [--max-inflight=N] [--max-connections=N]\n"
    "        [--cache-mb=M] [--min-len=N] [--trace]\n"
    "        [--default-deadline-ms=N] [--max-deadline-ms=N]\n"
    "        [--idle-timeout-ms=N] [--read-timeout-ms=N]\n"
    "      serve queries over TCP: the length-prefixed binary protocol\n"
    "      of core/wire.h with a JSON-lines fallback (docs/SERVING.md);\n"
    "      --port=0 picks an ephemeral port and prints it; SIGTERM or\n"
    "      SIGINT drains gracefully (stop accepting, answer everything\n"
    "      already accepted, flush stats); serving a dynamic family also\n"
    "      accepts insert/delete/compact/reload mutations on the wire,\n"
    "      and SIGHUP reopens the family from its on-disk manifest\n"
    "  add <family.spinefam> [document] [--file=PATH]\n"
    "        [--alphabet=dna|protein|ascii]\n"
    "      insert one document into a dynamic family (created on first\n"
    "      use; docs/LIFECYCLE.md), flush it durable, print the doc id\n"
    "  rm <family.spinefam> <doc-id>\n"
    "      tombstone one document: it stops matching immediately and is\n"
    "      physically dropped at the next compact\n"
    "  compact <family.spinefam>\n"
    "      merge every frozen shard into one compact image, dropping\n"
    "      tombstoned documents and their tombstones\n"
    "  lrs <index.spine>\n"
    "  stats <index> [--json]\n"
    "      index statistics; --json emits the versioned stats snapshot\n"
    "  search <index.spine> <query.fa> [--min-len=N]\n"
    "  align <reference.fa> <query.fa> [--min-anchor=N] [--mum]\n"
    "  generate <output.fa> [--length=N] [--seed=S] "
    "[--alphabet=dna|protein]\n"
    "  verify <artifact>\n"
    "      check integrity of any index artifact: magic/version,\n"
    "      checksums, structural invariants\n"
    "query, batch, stats and verify open any artifact kind (compact or\n"
    "generalized image, disk index page file, .spinefam shard family) by\n"
    "sniffing its magic; --backend=NAME overrides the sniff\n"
    "every artifact-opening command accepts --open=heap|mmap|mmap-noverify\n"
    "(default heap, or $SPINE_OPEN): mmap serves straight from a page-cache\n"
    "mapping (zero-copy, checksum verified at open); mmap-noverify skips\n"
    "the checksum for constant-time opens of trusted artifacts\n"
    "build, query and batch accept --stats-json[=FILE]: after the\n"
    "command finishes, dump a versioned JSON snapshot of all runtime\n"
    "metrics (plus a command-specific section) to stdout or FILE\n"
    "every command accepts --kernel=scalar|swar|sse2|avx2|auto to force\n"
    "the string-comparison kernel (default: best supported by the CPU;\n"
    "the SPINE_KERNEL env var sets the same override, flag wins)\n"
    "exit codes: 0 ok, 1 I/O error, 2 usage error, 3 corruption detected,\n"
    "            4 invalid argument, 5 not found, 6 resource exhausted,\n"
    "            7 precondition/range error, 8 overloaded, 9 protocol\n"
    "            error, 10 deadline exceeded, 11 cancelled (the one\n"
    "            table is ExitCode in tools/cli.h)\n";

// Splits args into positionals and --key=value / --flag options.
struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
};

ParsedArgs Parse(const std::vector<std::string>& args, size_t skip) {
  ParsedArgs parsed;
  for (size_t i = skip; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) == 0) {
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        parsed.options[arg.substr(2)] = "true";
      } else {
        parsed.options[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      parsed.positional.push_back(arg);
    }
  }
  return parsed;
}

std::optional<uint64_t> OptionU64(const ParsedArgs& args,
                                  const std::string& key) {
  auto it = args.options.find(key);
  if (it == args.options.end()) return std::nullopt;
  char* end = nullptr;
  uint64_t value = std::strtoull(it->second.c_str(), &end, 10);
  if (end == it->second.c_str()) return std::nullopt;
  return value;
}

Result<Alphabet> AlphabetFromName(const std::string& name) {
  if (name == "dna") return Alphabet::Dna();
  if (name == "protein") return Alphabet::Protein();
  if (name == "ascii") return Alphabet::Ascii();
  return Status::InvalidArgument("unknown alphabet '" + name +
                                 "' (use dna, protein or ascii)");
}

Result<std::string> LoadFirstSequence(const std::string& path,
                                      std::ostream& out) {
  Result<std::vector<seq::FastaRecord>> records = seq::ReadFasta(path);
  if (!records.ok()) return records.status();
  if (records->empty()) {
    return Status::InvalidArgument(path + " contains no FASTA records");
  }
  if (records->size() > 1) {
    out << "note: " << path << " has " << records->size()
        << " records; using the first (" << (*records)[0].id << ")\n";
  }
  return std::move((*records)[0].sequence);
}

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status.ToString() << "\n";
  return ExitCodeFor(status.code());
}

// Exit path for commands whose answer is a statusful QueryResult (a
// sharded index rejecting an overlong pattern, a disk backend hitting
// a fault): the per-query error maps onto the same exit-code table.
int FailResult(std::ostream& err, const QueryResult& result) {
  err << "error: " << result.error << "\n";
  return ExitCodeFor(result.status_code);
}

// The one place the CLI turns a path into a live index: the backend
// registry sniffs the artifact's magic, or --backend=NAME forces a
// specific opener. Every reading command (query, batch, stats, verify)
// goes through here, so they all accept every artifact kind.
Result<std::unique_ptr<core::Index>> OpenIndex(const ParsedArgs& args,
                                               const std::string& path) {
  // --open=heap|mmap|mmap-noverify picks the open path; the flag wins
  // over $SPINE_OPEN (which DefaultOpenOptions already resolved).
  core::OpenOptions open_options = core::DefaultOpenOptions();
  if (auto it = args.options.find("open"); it != args.options.end()) {
    Result<core::OpenOptions> parsed = core::ParseOpenSpec(it->second);
    if (!parsed.ok()) return parsed.status();
    open_options = *parsed;
  }
  if (auto it = args.options.find("backend"); it != args.options.end()) {
    return core::BackendRegistry::Default().OpenAs(it->second, path,
                                                   open_options);
  }
  return core::BackendRegistry::Default().Open(path, open_options);
}

// The versioned stats snapshot emitted by `stats --json` and by the
// --stats-json flag on build/query/batch (schema documented in
// docs/OBSERVABILITY.md):
//   {"schema_version": N, "command": "...",
//    "metrics": {"counters": ..., "gauges": ..., "histograms": ...},
//    "<command>": {...command-specific section...}}
std::string StatsSnapshotJson(
    std::string_view command,
    const std::function<void(obs::JsonWriter&)>& extra) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("schema_version");
  json.Value(obs::kStatsSchemaVersion);
  json.Key("command");
  json.Value(command);
  json.Key("kernel");
  json.Value(kernel::KindName(kernel::ActiveKind()));
  json.Key("metrics");
  json.RawValue(obs::Registry::ToJson(obs::Registry::Default().Snapshot()));
  if (extra) extra(json);
  json.EndObject();
  return std::move(json).Finish();
}

// Honors --stats-json[=FILE] if present: bare flag dumps to stdout,
// FILE writes the snapshot there. Returns 0, or an exit code when the
// file cannot be written.
int EmitStatsJson(const ParsedArgs& args, std::ostream& out,
                  std::ostream& err, std::string_view command,
                  const std::function<void(obs::JsonWriter&)>& extra) {
  auto it = args.options.find("stats-json");
  if (it == args.options.end()) return 0;
  const std::string doc = StatsSnapshotJson(command, extra);
  if (it->second == "true") {  // bare --stats-json
    out << doc << "\n";
    return 0;
  }
  std::ofstream file(it->second, std::ios::trunc);
  if (!file) {
    return Fail(err, Status::IoError("cannot open " + it->second +
                                     " for writing"));
  }
  file << doc << "\n";
  if (!file.good()) {
    return Fail(err, Status::IoError("failed writing " + it->second));
  }
  return 0;
}

int CmdBuild(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "build requires <input.fa> <index.spine>\n";
    return kExitUsage;
  }
  std::string alphabet_name = "dna";
  if (auto it = args.options.find("alphabet"); it != args.options.end()) {
    alphabet_name = it->second;
  }
  Result<Alphabet> alphabet = AlphabetFromName(alphabet_name);
  if (!alphabet.ok()) return Fail(err, alphabet.status());
  Result<std::string> sequence = LoadFirstSequence(args.positional[0], out);
  if (!sequence.ok()) return Fail(err, sequence.status());

  // --shards=K: build a sharded family (K per-shard compact images +
  // a .spinefam manifest) instead of one monolithic image.
  if (std::optional<uint64_t> shards = OptionU64(args, "shards")) {
    shard::ShardedIndex::Options options;
    options.shards = static_cast<uint32_t>(*shards);
    options.max_pattern = static_cast<uint32_t>(
        OptionU64(args, "max-pattern").value_or(shard::kDefaultMaxPattern));
    WallTimer timer;
    Result<std::unique_ptr<shard::ShardedIndex>> family =
        shard::ShardedIndex::Build(*alphabet, *sequence, options);
    if (!family.ok()) return Fail(err, family.status());
    Status status = (*family)->Save(args.positional[1]);
    if (!status.ok()) return Fail(err, status);
    const double secs = timer.ElapsedSeconds();
    out << "indexed " << (*family)->size() << " characters in " << secs
        << " s across " << (*family)->shard_count()
        << " shard(s) (max pattern " << (*family)->max_pattern() << ") -> "
        << args.positional[1] << "\n";
    return EmitStatsJson(args, out, err, "build",
                         [&](obs::JsonWriter& json) {
                           json.Key("build");
                           json.BeginObject();
                           json.Key("characters");
                           json.Value((*family)->size());
                           json.Key("seconds");
                           json.Value(secs);
                           json.Key("shards");
                           json.Value(
                               static_cast<uint64_t>((*family)->shard_count()));
                           json.Key("max_pattern");
                           json.Value(
                               static_cast<uint64_t>((*family)->max_pattern()));
                           json.Key("output");
                           json.Value(args.positional[1]);
                           json.EndObject();
                         });
  }

  WallTimer timer;
  CompactSpineIndex index(*alphabet);
  Status status = index.AppendString(*sequence);
  if (!status.ok()) return Fail(err, status);
  status = SaveCompactSpine(index, args.positional[1]);
  if (!status.ok()) return Fail(err, status);
  const double secs = timer.ElapsedSeconds();
  out << "indexed " << index.size() << " characters in " << secs << " s ("
      << index.LogicalBytes().BytesPerChar(index.size())
      << " bytes/char) -> " << args.positional[1] << "\n";
  return EmitStatsJson(args, out, err, "build", [&](obs::JsonWriter& json) {
    json.Key("build");
    json.BeginObject();
    json.Key("characters");
    json.Value(static_cast<uint64_t>(index.size()));
    json.Key("seconds");
    json.Value(secs);
    json.Key("bytes_per_char");
    json.Value(index.LogicalBytes().BytesPerChar(index.size()));
    json.Key("output");
    json.Value(args.positional[1]);
    json.EndObject();
  });
}

int CmdGBuild(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "gbuild requires <input.fa> <index.spineg>\n";
    return kExitUsage;
  }
  std::string alphabet_name = "dna";
  if (auto it = args.options.find("alphabet"); it != args.options.end()) {
    alphabet_name = it->second;
  }
  Result<Alphabet> alphabet = AlphabetFromName(alphabet_name);
  if (!alphabet.ok()) return Fail(err, alphabet.status());
  Result<std::vector<seq::FastaRecord>> records =
      seq::ReadFasta(args.positional[0]);
  if (!records.ok()) return Fail(err, records.status());
  if (records->empty()) {
    return Fail(err, Status::InvalidArgument(args.positional[0] +
                                             " contains no FASTA records"));
  }
  WallTimer timer;
  GeneralizedCompactSpine index(*alphabet);
  for (seq::FastaRecord& record : *records) {
    Status status = index.AddString(record.sequence, record.id);
    if (!status.ok()) {
      return Fail(err, Status::InvalidArgument("record " + record.id + ": " +
                                               status.ToString()));
    }
  }
  Status status = index.Save(args.positional[1]);
  if (!status.ok()) return Fail(err, status);
  out << "indexed " << index.string_count() << " records ("
      << index.total_characters() << " characters incl. separators) in "
      << timer.ElapsedSeconds() << " s -> " << args.positional[1] << "\n";
  return 0;
}

int CmdGQuery(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "gquery requires <index.spineg> <pattern>\n";
    return kExitUsage;
  }
  Result<GeneralizedCompactSpine> index =
      GeneralizedCompactSpine::Load(args.positional[0]);
  if (!index.ok()) return Fail(err, index.status());
  auto hits = index->FindAll(args.positional[1]);
  out << hits.size() << " occurrence(s)\n";
  for (const auto& hit : hits) {
    out << "  " << index->StringName(hit.string_id) << " @ " << hit.offset
        << "\n";
  }
  return 0;
}

int CmdQuery(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "query requires <index> <pattern>\n";
    return kExitUsage;
  }
  Result<std::unique_ptr<core::Index>> index =
      OpenIndex(args, args.positional[0]);
  if (!index.ok()) return Fail(err, index.status());
  Query query = Query::FindAll(args.positional[1]);
  if (auto it = args.options.find("kind"); it != args.options.end()) {
    const std::optional<QueryKind> kind = core::wire::KindFromName(it->second);
    if (!kind) {
      return Fail(err, Status::InvalidArgument("unknown query kind '" +
                                               it->second + "'"));
    }
    query.kind = *kind;
  }
  query.min_len = std::max<uint32_t>(
      1, static_cast<uint32_t>(OptionU64(args, "min-len").value_or(1)));
  query.max_errors =
      static_cast<uint32_t>(OptionU64(args, "errors").value_or(0));
  query.deadline_ms =
      static_cast<uint32_t>(OptionU64(args, "deadline-ms").value_or(0));
  // The single-query path has no engine to pin the budget, so pin it
  // here: the deadline covers exactly the Execute call.
  std::optional<CancelToken> cancel;
  if (query.deadline_ms > 0) {
    cancel.emplace(Deadline::AfterMs(query.deadline_ms));
  }
  QueryResult result =
      (*index)->Execute(query, nullptr, cancel ? &*cancel : nullptr);
  if (!result.ok()) return FailResult(err, result);
  // The same renderer the batch printer and the serve clients use:
  // one human form per answer, defined once in core/wire.h.
  core::wire::PrintResultSummary(out, query, result,
                                 std::numeric_limits<size_t>::max());
  out << "\n";
  return EmitStatsJson(args, out, err, "query", [&](obs::JsonWriter& json) {
    json.Key("query");
    json.BeginObject();
    json.Key("backend");
    json.Value((*index)->Name());
    json.Key("pattern");
    json.Value(args.positional[1]);
    json.Key("occurrences");
    json.Value(static_cast<uint64_t>(result.hits.size()));
    json.Key("nodes_checked");
    json.Value(result.stats.nodes_checked);
    json.Key("link_traversals");
    json.Value(result.stats.link_traversals);
    json.Key("chain_hops");
    json.Value(result.stats.chain_hops);
    json.EndObject();
  });
}

// One result line of batch output: "[i] KIND PATTERN: <summary>", the
// summary rendered by the shared core/wire.h printer.
void PrintBatchResult(std::ostream& out, size_t idx, const Query& query,
                      const QueryResult& result) {
  out << "[" << idx << "] " << QueryKindName(query.kind) << " "
      << query.pattern << ": ";
  core::wire::PrintResultSummary(out, query, result);
  out << "\n";
}

int CmdBatch(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "batch requires <index> <patterns.txt>\n";
    return kExitUsage;
  }
  Result<std::unique_ptr<core::Index>> index =
      OpenIndex(args, args.positional[0]);
  if (!index.ok()) return Fail(err, index.status());

  std::ifstream file(args.positional[1]);
  if (!file) {
    return Fail(err, Status::IoError("cannot open " + args.positional[1]));
  }
  const uint32_t min_len =
      std::max<uint32_t>(1, static_cast<uint32_t>(
                                OptionU64(args, "min-len").value_or(10)));
  // Batch-wide default budget; a per-line KIND@MS suffix wins.
  const uint32_t default_deadline_ms =
      static_cast<uint32_t>(OptionU64(args, "deadline-ms").value_or(0));
  std::vector<Query> queries;
  std::string line;
  while (std::getline(file, line)) {
    if (std::optional<Query> query = core::wire::ParseQueryText(line, min_len)) {
      if (query->deadline_ms == 0) query->deadline_ms = default_deadline_ms;
      queries.push_back(*std::move(query));
    }
  }
  if (queries.empty()) {
    return Fail(err, Status::InvalidArgument(args.positional[1] +
                                             " contains no queries"));
  }

  const uint32_t threads = static_cast<uint32_t>(
      OptionU64(args, "threads")
          .value_or(std::max(1u, std::thread::hardware_concurrency())));
  const uint64_t cache_mb = OptionU64(args, "cache-mb").value_or(16);
  engine::QueryEngine query_engine({.threads = threads,
                                    .cache_bytes = cache_mb << 20,
                                    .tracing =
                                        args.options.count("trace") > 0});

  WallTimer timer;
  engine::BatchStats stats;
  std::vector<QueryResult> results =
      query_engine.ExecuteBatch(**index, queries, &stats);
  const double secs = timer.ElapsedSeconds();

  for (size_t i = 0; i < queries.size(); ++i) {
    PrintBatchResult(out, i, queries[i], results[i]);
  }
  out << queries.size() << " quer(ies) on " << query_engine.thread_count()
      << " thread(s) in " << secs << " s ("
      << static_cast<uint64_t>(queries.size() / std::max(secs, 1e-9))
      << " q/s), cache hits " << stats.cache_hits << "/" << stats.queries
      << ", " << stats.search.nodes_checked << " nodes checked";
  if (stats.failed > 0) out << ", " << stats.failed << " FAILED";
  if (stats.deadline_exceeded > 0) {
    out << " (" << stats.deadline_exceeded << " deadline-exceeded)";
  }
  out << "\n";
  return EmitStatsJson(args, out, err, "batch", [&](obs::JsonWriter& json) {
    json.Key("batch");
    json.BeginObject();
    json.Key("backend");
    json.Value((*index)->Name());
    json.Key("queries");
    json.Value(stats.queries);
    json.Key("executed");
    json.Value(stats.executed);
    json.Key("cache_hits");
    json.Value(stats.cache_hits);
    // The engine is this command's own, so its cache saw only this batch.
    json.Key("cache_promotions");
    json.Value(query_engine.cache().counters().promotions);
    json.Key("failed");
    json.Value(stats.failed);
    json.Key("retries");
    json.Value(stats.retries);
    json.Key("deadline_exceeded");
    json.Value(stats.deadline_exceeded);
    json.Key("cancelled");
    json.Value(stats.cancelled);
    json.Key("seconds");
    json.Value(secs);
    json.Key("threads");
    json.Value(query_engine.thread_count());
    json.Key("nodes_checked");
    json.Value(stats.search.nodes_checked);
    json.Key("link_traversals");
    json.Value(stats.search.link_traversals);
    json.Key("chain_hops");
    json.Value(stats.search.chain_hops);
    if (!stats.traces.empty()) {
      json.Key("traces");
      json.BeginArray();
      for (const obs::TraceContext& trace : stats.traces) {
        json.RawValue(trace.ToJson());
      }
      json.EndArray();
    }
    json.EndObject();
  });
}

// SIGTERM/SIGINT handlers may run on any thread, so they only flip this
// flag; the serve command's main loop notices and performs the actual
// drain from normal (signal-safe-free) context.
volatile std::sig_atomic_t g_drain_requested = 0;

void OnDrainSignal(int) { g_drain_requested = 1; }

// SIGHUP asks a serve over a dynamic family to reopen from its on-disk
// manifest (same flag discipline as the drain signals).
volatile std::sig_atomic_t g_reload_requested = 0;

void OnReloadSignal(int) { g_reload_requested = 1; }

int CmdServe(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "serve requires <artifact>\n";
    return kExitUsage;
  }
  const uint64_t port = OptionU64(args, "port").value_or(0);
  if (port > 65535) {
    return Fail(err, Status::InvalidArgument("port " + std::to_string(port) +
                                             " out of range (0..65535)"));
  }
  Result<std::unique_ptr<core::Index>> index =
      OpenIndex(args, args.positional[0]);
  if (!index.ok()) return Fail(err, index.status());

  serve::Options options;
  options.port = static_cast<uint16_t>(port);
  if (auto it = args.options.find("host"); it != args.options.end()) {
    options.host = it->second;
  }
  options.threads =
      static_cast<uint32_t>(OptionU64(args, "threads").value_or(0));
  options.queue_cap = static_cast<uint32_t>(
      OptionU64(args, "queue-cap").value_or(options.queue_cap));
  options.max_inflight = static_cast<uint32_t>(
      OptionU64(args, "max-inflight").value_or(options.max_inflight));
  options.max_connections = static_cast<uint32_t>(
      OptionU64(args, "max-connections").value_or(options.max_connections));
  options.cache_bytes = OptionU64(args, "cache-mb").value_or(16) << 20;
  options.retry_limit = static_cast<uint32_t>(
      OptionU64(args, "retry-limit").value_or(options.retry_limit));
  options.retry_backoff_us = static_cast<uint32_t>(
      OptionU64(args, "retry-backoff-us").value_or(options.retry_backoff_us));
  options.tracing = args.options.count("trace") > 0;
  options.default_deadline_ms = static_cast<uint32_t>(
      OptionU64(args, "default-deadline-ms")
          .value_or(options.default_deadline_ms));
  options.max_deadline_ms = static_cast<uint32_t>(
      OptionU64(args, "max-deadline-ms").value_or(options.max_deadline_ms));
  options.idle_timeout_ms = static_cast<uint32_t>(
      OptionU64(args, "idle-timeout-ms").value_or(options.idle_timeout_ms));
  options.read_timeout_ms = static_cast<uint32_t>(
      OptionU64(args, "read-timeout-ms").value_or(options.read_timeout_ms));
  options.write_timeout_ms = static_cast<uint32_t>(
      OptionU64(args, "write-timeout-ms").value_or(options.write_timeout_ms));
  options.slow_query_ms = static_cast<uint32_t>(
      OptionU64(args, "slow-query-ms").value_or(options.slow_query_ms));
  if (options.queue_cap == 0 || options.max_inflight == 0 ||
      options.max_connections == 0) {
    return Fail(err, Status::InvalidArgument(
                         "queue-cap, max-inflight and max-connections "
                         "must be positive"));
  }

  // A dynamic family is served mutable: the wire accepts lifecycle
  // verbs against it, and SIGHUP reopens it from the manifest.
  auto* mutable_index = dynamic_cast<core::MutableIndex*>(index->get());
  options.mutable_index = mutable_index;

  serve::Server server(**index, options);
  Status status = server.Start();
  if (!status.ok()) return Fail(err, status);
  out << "serving " << (*index)->Name() << " (" << (*index)->size()
      << " characters) at " << options.host << ":" << server.port()
      << " — SIGTERM/SIGINT to drain"
      << (mutable_index != nullptr ? ", SIGHUP to reload" : "") << "\n";
  out.flush();

  g_drain_requested = 0;
  g_reload_requested = 0;
  struct sigaction action {};
  action.sa_handler = OnDrainSignal;
  struct sigaction old_term {}, old_int {};
  sigaction(SIGTERM, &action, &old_term);
  sigaction(SIGINT, &action, &old_int);
  struct sigaction reload_action {};
  reload_action.sa_handler = OnReloadSignal;
  struct sigaction old_hup {};
  sigaction(SIGHUP, &reload_action, &old_hup);
  while (g_drain_requested == 0) {
    if (g_reload_requested != 0) {
      g_reload_requested = 0;
      if (mutable_index != nullptr) {
        Status reloaded = mutable_index->Reload();
        if (reloaded.ok()) {
          out << "reloaded from manifest: generation "
              << mutable_index->generation_version() << ", "
              << mutable_index->live_documents() << " live document(s)\n";
        } else {
          out << "reload failed (old generation keeps serving): "
              << reloaded.ToString() << "\n";
        }
      } else {
        out << "SIGHUP ignored: backend '" << (*index)->Name()
            << "' is not reloadable\n";
      }
      out.flush();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  out << "draining...\n";
  out.flush();
  server.Stop();
  sigaction(SIGTERM, &old_term, nullptr);
  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGHUP, &old_hup, nullptr);

  const serve::ServerStats final_stats = server.stats();
  out << "drained: " << final_stats.queries << " quer(ies) answered, "
      << final_stats.shed << " shed, " << final_stats.connections_accepted
      << " connection(s), " << final_stats.bytes_in << " B in / "
      << final_stats.bytes_out << " B out\n";
  return EmitStatsJson(args, out, err, "serve", [&](obs::JsonWriter& json) {
    json.Key("serve");
    json.BeginObject();
    json.Key("backend");
    json.Value((*index)->Name());
    json.Key("characters");
    json.Value((*index)->size());
    json.Key("connections_accepted");
    json.Value(final_stats.connections_accepted);
    json.Key("queries");
    json.Value(final_stats.queries);
    json.Key("shed");
    json.Value(final_stats.shed);
    json.Key("protocol_errors");
    json.Value(final_stats.protocol_errors);
    json.Key("deadline_exceeded");
    json.Value(final_stats.deadline_exceeded);
    json.Key("cancelled");
    json.Value(final_stats.cancelled);
    json.Key("idle_closed");
    json.Value(final_stats.idle_closed);
    json.Key("mutations");
    json.Value(final_stats.mutations);
    json.Key("bytes_in");
    json.Value(final_stats.bytes_in);
    json.Key("bytes_out");
    json.Value(final_stats.bytes_out);
    json.EndObject();
  });
}

// add / rm / compact: the document lifecycle against a dynamic family
// (shard::DynamicFamily, docs/LIFECYCLE.md).

Result<shard::DynamicFamily::Options> FamilyOptions(const ParsedArgs& args) {
  core::OpenOptions open_options = core::DefaultOpenOptions();
  if (auto it = args.options.find("open"); it != args.options.end()) {
    Result<core::OpenOptions> parsed = core::ParseOpenSpec(it->second);
    if (!parsed.ok()) return parsed.status();
    open_options = *parsed;
  }
  shard::DynamicFamily::Options family_options;
  family_options.open = open_options;
  return family_options;
}

int CmdAdd(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.empty() || args.positional.size() > 2) {
    err << "add requires <family.spinefam> [document] (or --file=PATH)\n";
    return kExitUsage;
  }
  const std::string& path = args.positional[0];
  std::string document;
  auto file_it = args.options.find("file");
  if (file_it != args.options.end()) {
    if (args.positional.size() == 2) {
      err << "add takes either a document argument or --file, not both\n";
      return kExitUsage;
    }
    std::ifstream in(file_it->second, std::ios::binary);
    if (!in) {
      return Fail(err, Status::IoError("cannot open " + file_it->second));
    }
    std::ostringstream text;
    text << in.rdbuf();
    document = std::move(text).str();
    // Trailing newlines from text files would trip the reserved-
    // separator check; inner ones are a real error and still rejected.
    while (!document.empty() &&
           (document.back() == '\n' || document.back() == '\r')) {
      document.pop_back();
    }
  } else if (args.positional.size() == 2) {
    document = args.positional[1];
  } else {
    err << "add requires a document argument or --file=PATH\n";
    return kExitUsage;
  }

  Result<shard::DynamicFamily::Options> family_options = FamilyOptions(args);
  if (!family_options.ok()) return Fail(err, family_options.status());
  std::unique_ptr<shard::DynamicFamily> family;
  if (std::ifstream(path).good()) {
    Result<std::unique_ptr<shard::DynamicFamily>> opened =
        shard::DynamicFamily::Open(path, *family_options);
    if (!opened.ok()) return Fail(err, opened.status());
    family = std::move(*opened);
  } else {
    std::string alphabet_name = "ascii";
    if (auto it = args.options.find("alphabet"); it != args.options.end()) {
      alphabet_name = it->second;
    }
    Result<Alphabet> alphabet = AlphabetFromName(alphabet_name);
    if (!alphabet.ok()) return Fail(err, alphabet.status());
    Result<std::unique_ptr<shard::DynamicFamily>> created =
        shard::DynamicFamily::Create(path, *alphabet, *family_options);
    if (!created.ok()) return Fail(err, created.status());
    family = std::move(*created);
    out << "created " << path << " (" << alphabet->name() << ")\n";
  }
  Result<uint32_t> doc_id = family->InsertDocument(document);
  if (!doc_id.ok()) return Fail(err, doc_id.status());
  // The CLI process exits right after, so flush: an unflushed memtable
  // is volatile by contract.
  Status flushed = family->Flush();
  if (!flushed.ok()) return Fail(err, flushed);
  out << "doc " << *doc_id << " added (" << document.size()
      << " chars); generation " << family->generation_version() << ", "
      << family->frozen_shard_count() << " shard(s), "
      << family->live_documents() << " live document(s)\n";
  return 0;
}

int CmdRm(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "rm requires <family.spinefam> <doc-id>\n";
    return kExitUsage;
  }
  char* end = nullptr;
  const uint64_t doc_id =
      std::strtoull(args.positional[1].c_str(), &end, 10);
  if (end == args.positional[1].c_str() || *end != '\0' ||
      doc_id > std::numeric_limits<uint32_t>::max()) {
    return Fail(err, Status::InvalidArgument("bad doc id '" +
                                             args.positional[1] + "'"));
  }
  Result<shard::DynamicFamily::Options> family_options = FamilyOptions(args);
  if (!family_options.ok()) return Fail(err, family_options.status());
  Result<std::unique_ptr<shard::DynamicFamily>> family =
      shard::DynamicFamily::Open(args.positional[0], *family_options);
  if (!family.ok()) return Fail(err, family.status());
  Status status = (*family)->DeleteDocument(static_cast<uint32_t>(doc_id));
  if (!status.ok()) return Fail(err, status);
  out << "doc " << doc_id << " deleted; generation "
      << (*family)->generation_version() << ", "
      << (*family)->tombstone_count() << " tombstone(s), "
      << (*family)->live_documents() << " live document(s)\n";
  return 0;
}

int CmdCompact(const ParsedArgs& args, std::ostream& out,
               std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "compact requires <family.spinefam>\n";
    return kExitUsage;
  }
  Result<shard::DynamicFamily::Options> family_options = FamilyOptions(args);
  if (!family_options.ok()) return Fail(err, family_options.status());
  Result<std::unique_ptr<shard::DynamicFamily>> family =
      shard::DynamicFamily::Open(args.positional[0], *family_options);
  if (!family.ok()) return Fail(err, family.status());
  const uint32_t shards_before = (*family)->frozen_shard_count();
  const uint32_t tombstones_before = (*family)->tombstone_count();
  Status status = (*family)->Compact();
  if (!status.ok()) return Fail(err, status);
  out << "compacted " << shards_before << " -> "
      << (*family)->frozen_shard_count() << " shard(s), dropped "
      << tombstones_before << " tombstone(s); generation "
      << (*family)->generation_version() << ", "
      << (*family)->live_documents() << " live document(s)\n";
  return 0;
}

int CmdLrs(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "lrs requires <index.spine>\n";
    return kExitUsage;
  }
  Result<CompactSpineIndex> index = LoadCompactSpine(args.positional[0]);
  if (!index.ok()) return Fail(err, index.status());
  RepeatedSubstring lrs = LongestRepeatedSubstring(*index);
  out << "longest repeated substring: length " << lrs.length;
  if (lrs.length > 0) {
    std::string repeated;
    for (uint32_t i = lrs.first_end - lrs.length; i < lrs.first_end; ++i) {
      repeated.push_back(index->CharAt(i));
    }
    out << " \"" << (repeated.size() <= 60 ? repeated
                                            : repeated.substr(0, 60) + "...")
        << "\" first ending at " << lrs.first_end;
  }
  out << "\n";
  return 0;
}

int CmdStats(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "stats requires <index>\n";
    return kExitUsage;
  }
  Result<std::unique_ptr<core::Index>> opened =
      OpenIndex(args, args.positional[0]);
  if (!opened.ok()) return Fail(err, opened.status());
  const core::Index& index = **opened;
  const bool want_json = args.options.count("json") > 0;

  // The compact image keeps its detailed layout breakdown; other
  // backends report the generic interface view.
  if (const auto* adapter =
          dynamic_cast<const core::CompactSpineAdapter*>(&index)) {
    const CompactSpineIndex& compact = adapter->backend();
    auto breakdown = compact.LogicalBytes();
    auto fanouts = compact.FanoutCountsWithExtribs();
    if (want_json) {
      out << StatsSnapshotJson("stats", [&](obs::JsonWriter& json) {
        json.Key("index");
        json.BeginObject();
        json.Key("backend");
        json.Value(index.Name());
        json.Key("open_mode");
        json.Value(index.open_mode());
        json.Key("alphabet");
        json.Value(compact.alphabet().name());
        json.Key("characters");
        json.Value(static_cast<uint64_t>(compact.size()));
        json.Key("max_lel");
        json.Value(static_cast<uint64_t>(compact.max_lel()));
        json.Key("max_pt");
        json.Value(static_cast<uint64_t>(compact.max_pt()));
        json.Key("max_prt");
        json.Value(static_cast<uint64_t>(compact.max_prt()));
        json.Key("extribs");
        json.Value(static_cast<uint64_t>(compact.extrib_count()));
        json.Key("bytes_per_char");
        json.Value(breakdown.BytesPerChar(compact.size()));
        json.Key("fanout");
        json.BeginArray();
        for (int k = 0; k < 6; ++k) {
          json.Value(static_cast<uint64_t>(fanouts[k]));
        }
        json.EndArray();
        json.EndObject();
      }) << "\n";
      return 0;
    }
    out << "open mode       : " << index.open_mode() << "\n"
        << "alphabet        : " << compact.alphabet().name() << "\n"
        << "characters      : " << compact.size() << "\n"
        << "max LEL/PT/PRT  : " << compact.max_lel() << " / "
        << compact.max_pt() << " / " << compact.max_prt() << "\n"
        << "extribs         : " << compact.extrib_count() << "\n"
        << "bytes per char  : " << breakdown.BytesPerChar(compact.size())
        << "\n"
        << "fan-out 1..4+   :";
    for (int k = 0; k < 6; ++k) out << " " << fanouts[k];
    out << "\n";
    return 0;
  }

  const auto* family = dynamic_cast<const shard::ShardedIndex*>(&index);
  const auto* dynamic = dynamic_cast<const shard::DynamicFamily*>(&index);
  if (want_json) {
    out << StatsSnapshotJson("stats", [&](obs::JsonWriter& json) {
      json.Key("index");
      json.BeginObject();
      json.Key("backend");
      json.Value(index.Name());
      json.Key("open_mode");
      json.Value(index.open_mode());
      json.Key("alphabet");
      json.Value(index.alphabet().name());
      json.Key("characters");
      json.Value(index.size());
      if (family != nullptr) {
        json.Key("shards");
        json.Value(static_cast<uint64_t>(family->shard_count()));
        json.Key("max_pattern");
        json.Value(static_cast<uint64_t>(family->max_pattern()));
      }
      if (dynamic != nullptr) {
        json.Key("generation");
        json.Value(dynamic->generation_version());
        json.Key("shards");
        json.Value(static_cast<uint64_t>(dynamic->frozen_shard_count()));
        json.Key("memtable_documents");
        json.Value(static_cast<uint64_t>(dynamic->memtable_documents()));
        json.Key("tombstones");
        json.Value(static_cast<uint64_t>(dynamic->tombstone_count()));
        json.Key("live_documents");
        json.Value(static_cast<uint64_t>(dynamic->live_documents()));
      }
      json.Key("memory_bytes");
      json.Value(index.MemoryBytes());
      json.EndObject();
    }) << "\n";
    return 0;
  }
  out << "backend         : " << index.Name() << "\n"
      << "open mode       : " << index.open_mode() << "\n"
      << "alphabet        : " << index.alphabet().name() << "\n"
      << "characters      : " << index.size() << "\n";
  if (family != nullptr) {
    out << "shards          : " << family->shard_count() << "\n"
        << "max pattern     : " << family->max_pattern() << "\n";
  }
  if (dynamic != nullptr) {
    out << "generation      : " << dynamic->generation_version() << "\n"
        << "frozen shards   : " << dynamic->frozen_shard_count() << "\n"
        << "memtable docs   : " << dynamic->memtable_documents() << "\n"
        << "tombstones      : " << dynamic->tombstone_count() << "\n"
        << "live documents  : " << dynamic->live_documents() << "\n";
  }
  out << "memory bytes    : " << index.MemoryBytes() << "\n";
  return 0;
}

int CmdSearch(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "search requires <index.spine> <query.fa>\n";
    return kExitUsage;
  }
  Result<CompactSpineIndex> index = LoadCompactSpine(args.positional[0]);
  if (!index.ok()) return Fail(err, index.status());
  Result<std::string> query = LoadFirstSequence(args.positional[1], out);
  if (!query.ok()) return Fail(err, query.status());
  uint32_t min_len =
      static_cast<uint32_t>(OptionU64(args, "min-len").value_or(20));
  if (min_len == 0) min_len = 1;

  WallTimer timer;
  QueryResult result = ExecuteQuery(
      *index,
      Query::MaximalMatches(*query, min_len, /*expand_occurrences=*/true));
  // Hits arrive grouped: all occurrences of one maximal match are
  // consecutive and share (query_pos, length).
  std::vector<std::pair<size_t, size_t>> groups;  // [begin, end) into hits
  for (size_t i = 0; i < result.hits.size();) {
    size_t j = i;
    while (j < result.hits.size() &&
           result.hits[j].query_pos == result.hits[i].query_pos &&
           result.hits[j].length == result.hits[i].length) {
      ++j;
    }
    groups.emplace_back(i, j);
    i = j;
  }
  out << groups.size() << " maximal match(es) >= " << min_len
      << " chars in " << timer.ElapsedSeconds() << " s ("
      << result.stats.nodes_checked << " nodes checked)\n";
  for (const auto& [begin, end] : groups) {
    const Hit& first = result.hits[begin];
    out << "query[" << first.query_pos << ".."
        << first.query_pos + first.length << ") len " << first.length
        << " at";
    for (size_t i = begin; i < end && i < begin + 16; ++i) {
      out << " " << result.hits[i].pos;
    }
    if (end - begin > 16) {
      out << " (+" << end - begin - 16 << " more)";
    }
    out << "\n";
  }
  return 0;
}

int CmdAlign(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "align requires <reference.fa> <query.fa>\n";
    return kExitUsage;
  }
  Result<std::string> reference = LoadFirstSequence(args.positional[0], out);
  if (!reference.ok()) return Fail(err, reference.status());
  Result<std::string> query = LoadFirstSequence(args.positional[1], out);
  if (!query.ok()) return Fail(err, query.status());

  align::AlignOptions options;
  options.min_anchor_len =
      static_cast<uint32_t>(OptionU64(args, "min-anchor").value_or(20));
  options.unique_anchors_only = args.options.count("mum") > 0;

  WallTimer timer;
  Result<align::AlignmentResult> result =
      align::AlignSequences(*reference, *query, options);
  if (!result.ok()) return Fail(err, result.status());
  out << "aligned in " << timer.ElapsedSeconds() << " s\n"
      << "anchors   : " << result->chain.anchors.size() << "\n"
      << "anchored  : " << result->anchored_bases << " bases\n"
      << "gap edits : " << result->gap_edits << "\n"
      << "coverage  : " << result->QueryCoverage(query->size()) * 100.0
      << "%\n"
      << "identity  : " << result->Identity() * 100.0 << "%\n";
  return 0;
}

int CmdGenerate(const ParsedArgs& args, std::ostream& out,
                std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "generate requires <output.fa>\n";
    return kExitUsage;
  }
  std::string alphabet_name = "dna";
  if (auto it = args.options.find("alphabet"); it != args.options.end()) {
    alphabet_name = it->second;
  }
  Result<Alphabet> alphabet = AlphabetFromName(alphabet_name);
  if (!alphabet.ok()) return Fail(err, alphabet.status());
  if (alphabet->kind() != Alphabet::Kind::kDna &&
      alphabet->kind() != Alphabet::Kind::kProtein) {
    return Fail(err, Status::InvalidArgument(
                         "generate supports dna or protein alphabets"));
  }
  seq::GeneratorOptions options;
  options.length = OptionU64(args, "length").value_or(1'000'000);
  options.seed = OptionU64(args, "seed").value_or(1);
  std::string sequence = seq::GenerateSequence(*alphabet, options);
  seq::FastaRecord record;
  record.id = "synthetic";
  record.comment = "spine_tool generate length=" +
                   std::to_string(options.length) +
                   " seed=" + std::to_string(options.seed);
  record.sequence = std::move(sequence);
  Status status = seq::WriteFasta(args.positional[0], {record});
  if (!status.ok()) return Fail(err, status);
  out << "wrote " << options.length << " " << alphabet->name()
      << " characters to " << args.positional[0] << "\n";
  return 0;
}

// `spine verify`: integrity check without modifying anything. Artifact
// dispatch is the registry's (core/registry.h) — the same magic sniff
// every other command uses — with one extra page-file pre-pass:
//   compact / generalized images — whole-image checksum + structural
//       Validate (both run inside the registry open)
//   page files — superblock, then a full page-checksum scan BEFORE the
//       registry open, so a sidecar-less file still gets page-level
//       checks; with a sidecar the disk index is opened and
//       structurally verified
//   .spinefam — manifest + per-shard-file checksums (inside Load) plus
//       the family's structural self-check
// Exit codes follow the table in kUsage: 3 means corruption detected.
int CmdVerify(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "verify requires <artifact>\n";
    return kExitUsage;
  }
  const std::string& path = args.positional[0];
  Result<uint32_t> magic = core::BackendRegistry::SniffMagic(path);
  if (!magic.ok()) return Fail(err, magic.status());

  if (*magic == core::kPageFileMagic) {
    uint64_t pages = 0;
    {
      Result<storage::PageFile> file =
          storage::PageFile::Open(path, storage::PageFile::SyncMode::kNone);
      if (!file.ok()) return Fail(err, file.status());
      pages = file->page_count();
      std::vector<uint8_t> page(storage::kPageSize);
      for (uint64_t p = 0; p < pages; ++p) {
        Status status = file->ReadPage(p, page.data());
        if (status.ok()) status = storage::VerifyPageChecksum(p, page.data());
        // VerifyPageChecksum already names the page in its message.
        if (!status.ok()) return Fail(err, status);
      }
    }
    out << "superblock OK, " << pages << " page checksum(s) OK\n";

    // A disk index leaves a metadata sidecar next to the page file;
    // without one there is no index to reopen, and the page-level
    // verdict above is all there is.
    Result<uint32_t> meta =
        core::BackendRegistry::SniffMagic(path + ".meta");
    if (!meta.ok()) {
      if (meta.status().code() == StatusCode::kIoError) {
        out << "no metadata sidecar (" << path
            << ".meta); page-level checks only\n";
        return 0;
      }
      return Fail(err, Status::Corruption(path + ".meta is truncated"));
    }
  }

  Result<std::unique_ptr<core::Index>> opened = OpenIndex(args, path);
  if (!opened.ok()) return Fail(err, opened.status());
  const core::Index& index = **opened;
  Status status = index.VerifyStructure();
  if (!status.ok()) return Fail(err, status);

  const core::BackendInfo* info =
      core::BackendRegistry::Default().FindByKind(index.kind());
  out << (info != nullptr ? info->artifact : index.Name()) << " OK: "
      << index.size() << " characters";
  switch (index.kind()) {
    case core::IndexKind::kCompactSpine:
    case core::IndexKind::kGeneralizedCompact:
      out << ", alphabet " << index.alphabet().name()
          << ", checksum and structure verified";
      break;
    case core::IndexKind::kDiskSpine:
      out << ", structure verified";
      break;
    case core::IndexKind::kDiskSuffixTree: {
      const auto& tree =
          static_cast<const core::DiskSuffixTreeAdapter&>(index);
      out << ", " << tree.backend().node_count() << " node(s)";
      break;
    }
    case core::IndexKind::kSharded: {
      const auto& family = static_cast<const shard::ShardedIndex&>(index);
      out << ", " << family.shard_count()
          << " shard(s), manifest and shard checksums verified";
      break;
    }
    case core::IndexKind::kDynamic: {
      const auto& family = static_cast<const shard::DynamicFamily&>(index);
      out << ", generation " << family.generation_version() << ", "
          << family.frozen_shard_count() << " shard(s), "
          << family.live_documents()
          << " live document(s), manifest and shard checksums verified";
      break;
    }
    default:
      break;
  }
  out << "\n";
  return 0;
}

}  // namespace

int Run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return kExitUsage;
  }
  const std::string& command = args[0];
  ParsedArgs parsed = Parse(args, 1);
  if (auto it = parsed.options.find("kernel"); it != parsed.options.end()) {
    Status forced = kernel::ForceByName(it->second);
    if (!forced.ok()) {
      err << "--kernel: " << forced.message() << "\n";
      return ExitCodeFor(forced.code());
    }
  }
  if (command == "build") return CmdBuild(parsed, out, err);
  if (command == "gbuild") return CmdGBuild(parsed, out, err);
  if (command == "gquery") return CmdGQuery(parsed, out, err);
  if (command == "query") return CmdQuery(parsed, out, err);
  if (command == "batch") return CmdBatch(parsed, out, err);
  if (command == "serve") return CmdServe(parsed, out, err);
  if (command == "add") return CmdAdd(parsed, out, err);
  if (command == "rm") return CmdRm(parsed, out, err);
  if (command == "compact") return CmdCompact(parsed, out, err);
  if (command == "lrs") return CmdLrs(parsed, out, err);
  if (command == "stats") return CmdStats(parsed, out, err);
  if (command == "search") return CmdSearch(parsed, out, err);
  if (command == "align") return CmdAlign(parsed, out, err);
  if (command == "generate") return CmdGenerate(parsed, out, err);
  if (command == "verify") return CmdVerify(parsed, out, err);
  if (command == "help" || command == "--help") {
    out << kUsage;
    return 0;
  }
  err << "unknown command '" << command << "'\n" << kUsage;
  return kExitUsage;
}

}  // namespace spine::cli
