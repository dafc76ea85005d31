// Tests for the spine_tool CLI (via the cli library, no subprocesses).

#include "tools/cli.h"

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace spine::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunCli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  int code = Run(args, out, err);
  return {code, out.str(), err.str()};
}

using spine::test::TempPath;
using spine::test::WriteFile;

TEST(CliTest, NoArgsPrintsUsage) {
  CliResult result = RunCli({});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  CliResult result = RunCli({"help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("build"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  CliResult result = RunCli({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, BuildQueryStatsRoundTrip) {
  const std::string fasta = TempPath("cli_data.fa");
  const std::string index = TempPath("cli_data.spine");
  WriteFile(fasta, ">seq test\nACGTACGTAC\nGTACGT\n");

  CliResult build = RunCli({"build", fasta, index});
  ASSERT_EQ(build.code, 0) << build.err;
  EXPECT_NE(build.out.find("indexed 16 characters"), std::string::npos);

  CliResult query = RunCli({"query", index, "ACGT"});
  ASSERT_EQ(query.code, 0) << query.err;
  EXPECT_NE(query.out.find("4 occurrence(s) 0 4 8 12"), std::string::npos);

  CliResult none = RunCli({"query", index, "TTTT"});
  ASSERT_EQ(none.code, 0);
  EXPECT_NE(none.out.find("0 occurrence(s)"), std::string::npos);

  CliResult stats = RunCli({"stats", index});
  ASSERT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("characters      : 16"), std::string::npos);
  EXPECT_NE(stats.out.find("alphabet        : dna"), std::string::npos);
}

TEST(CliTest, BuildRejectsBadInputs) {
  // Exit codes follow the documented mapping: 1 I/O, 2 usage,
  // 3 corruption, 4 invalid argument.
  EXPECT_EQ(RunCli({"build", "/nonexistent.fa", TempPath("x.spine")}).code,
            1);
  const std::string fasta = TempPath("cli_bad.fa");
  WriteFile(fasta, ">seq\nACGTX\n");
  EXPECT_EQ(RunCli({"build", fasta, TempPath("x.spine")}).code, 4);
  EXPECT_EQ(RunCli({"build", fasta, TempPath("x.spine"),
                    "--alphabet=klingon"})
                .code,
            4);
  EXPECT_EQ(RunCli({"build", fasta}).code, 2);  // missing positional
  const std::string empty_fa = TempPath("cli_empty.fa");
  WriteFile(empty_fa, "");
  EXPECT_EQ(RunCli({"build", empty_fa, TempPath("x.spine")}).code, 4);
  // A malformed FASTA (header with no id) is corruption: exit 3.
  const std::string bad_header = TempPath("cli_noid.fa");
  WriteFile(bad_header, ">\nACGT\n");
  EXPECT_EQ(RunCli({"build", bad_header, TempPath("x.spine")}).code, 3);
}

TEST(CliTest, ProteinAlphabetBuild) {
  const std::string fasta = TempPath("cli_protein.fa");
  const std::string index = TempPath("cli_protein.spine");
  WriteFile(fasta, ">p\nMKVLAWGH\n");
  CliResult build = RunCli({"build", fasta, index, "--alphabet=protein"});
  ASSERT_EQ(build.code, 0) << build.err;
  CliResult query = RunCli({"query", index, "VLAW"});
  EXPECT_NE(query.out.find("1 occurrence(s) 2"), std::string::npos);
}

TEST(CliTest, SearchFindsMaximalMatches) {
  const std::string data_fa = TempPath("cli_search_data.fa");
  const std::string query_fa = TempPath("cli_search_query.fa");
  const std::string index = TempPath("cli_search.spine");
  WriteFile(data_fa, ">d\nACGTACGGTACTGACGTT\n");
  WriteFile(query_fa, ">q\nGGTACTG\n");
  ASSERT_EQ(RunCli({"build", data_fa, index}).code, 0);
  CliResult search = RunCli({"search", index, query_fa, "--min-len=5"});
  ASSERT_EQ(search.code, 0) << search.err;
  EXPECT_NE(search.out.find("1 maximal match(es)"), std::string::npos);
  EXPECT_NE(search.out.find("len 7"), std::string::npos);
}

TEST(CliTest, AlignReportsIdentity) {
  const std::string ref_fa = TempPath("cli_align_ref.fa");
  const std::string query_fa = TempPath("cli_align_query.fa");
  // Identical sequences -> 100% coverage and identity.
  WriteFile(ref_fa, ">r\nACGTACGGTACTGACGTTACGTACGGTACTGACGTT\n");
  WriteFile(query_fa, ">q\nACGTACGGTACTGACGTTACGTACGGTACTGACGTT\n");
  CliResult align =
      RunCli({"align", ref_fa, query_fa, "--min-anchor=10"});
  ASSERT_EQ(align.code, 0) << align.err;
  EXPECT_NE(align.out.find("coverage  : 100%"), std::string::npos);
  EXPECT_NE(align.out.find("identity  : 100%"), std::string::npos);
  // MUM flag parses.
  EXPECT_EQ(RunCli({"align", ref_fa, query_fa, "--mum"}).code, 0);
}

TEST(CliTest, GenerateWritesFasta) {
  const std::string out_fa = TempPath("cli_gen.fa");
  CliResult gen =
      RunCli({"generate", out_fa, "--length=5000", "--seed=3"});
  ASSERT_EQ(gen.code, 0) << gen.err;
  // Round-trip: build an index from the generated file.
  CliResult build = RunCli({"build", out_fa, TempPath("cli_gen.spine")});
  EXPECT_EQ(build.code, 0) << build.err;
  EXPECT_NE(build.out.find("indexed 5000 characters"), std::string::npos);
  // Byte alphabet is rejected for generation.
  EXPECT_EQ(RunCli({"generate", out_fa, "--alphabet=byte"}).code, 4);
}

TEST(CliTest, ApproxFindsNearMatches) {
  const std::string fasta = TempPath("cli_approx.fa");
  const std::string index = TempPath("cli_approx.spine");
  WriteFile(fasta, ">d\nAAAATCGAAAA\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);
  // "TAGA" matches "TCGA" at position 4 with one substitution.
  CliResult approx =
      RunCli({"query", index, "TAGA", "--kind=edit", "--errors=1"});
  ASSERT_EQ(approx.code, 0) << approx.err;
  EXPECT_NE(approx.out.find("1 hit(s) within 1 edit(s) 4:4:1"),
            std::string::npos)
      << approx.out;
  // Zero-edit search of an absent pattern finds nothing.
  CliResult none =
      RunCli({"query", index, "TAGA", "--kind=edit", "--errors=0"});
  ASSERT_EQ(none.code, 0) << none.err;
  EXPECT_NE(none.out.find("0 hit(s)"), std::string::npos);
  // A budget at or past the pattern length names no window: an empty
  // answer, not an error (core/query.h).
  CliResult degenerate =
      RunCli({"query", index, "TA", "--kind=edit", "--errors=2"});
  ASSERT_EQ(degenerate.code, 0) << degenerate.err;
  EXPECT_NE(degenerate.out.find("0 hit(s) within 2 edit(s)"),
            std::string::npos);
  EXPECT_EQ(RunCli({"query", index}).code, 2);
}

TEST(CliTest, HammingAndLrsCommands) {
  const std::string fasta = TempPath("cli_ham.fa");
  const std::string index = TempPath("cli_ham.spine");
  WriteFile(fasta, ">d\nACGTACGTTTTT\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);

  CliResult hamming =
      RunCli({"query", index, "ACGA", "--kind=mismatch", "--errors=1"});
  ASSERT_EQ(hamming.code, 0) << hamming.err;
  // "ACGT" at 0 and 4 are within one mismatch of "ACGA".
  EXPECT_NE(hamming.out.find("2 hit(s) within 1 mismatch(es) 0:1 4:1"),
            std::string::npos)
      << hamming.out;

  CliResult lrs = RunCli({"lrs", index});
  ASSERT_EQ(lrs.code, 0) << lrs.err;
  // Longest repeated substring of ACGTACGTTTTT is "ACGT" (length 4).
  EXPECT_NE(lrs.out.find("length 4"), std::string::npos);
  EXPECT_NE(lrs.out.find("\"ACGT\""), std::string::npos);
  EXPECT_EQ(RunCli({"lrs"}).code, 2);
}

TEST(CliTest, GeneralizedBuildAndQuery) {
  const std::string fasta = TempPath("cli_multi.fa");
  const std::string index = TempPath("cli_multi.spineg");
  WriteFile(fasta, ">chrA first\nACGTACGT\n>chrB second\nTTACGTT\n");
  CliResult build = RunCli({"gbuild", fasta, index});
  ASSERT_EQ(build.code, 0) << build.err;
  EXPECT_NE(build.out.find("indexed 2 records"), std::string::npos);

  CliResult query = RunCli({"gquery", index, "ACGT"});
  ASSERT_EQ(query.code, 0) << query.err;
  EXPECT_NE(query.out.find("3 occurrence(s)"), std::string::npos);
  EXPECT_NE(query.out.find("chrA @ 0"), std::string::npos);
  EXPECT_NE(query.out.find("chrB @ 2"), std::string::npos);

  // A single-record index file is not a generalized index.
  EXPECT_EQ(RunCli({"gquery", "/nonexistent.spineg", "A"}).code, 1);
  EXPECT_EQ(RunCli({"gbuild", fasta}).code, 2);
}

TEST(CliTest, BatchRunsHeterogeneousQueries) {
  const std::string fasta = TempPath("cli_batch.fa");
  const std::string index = TempPath("cli_batch.spine");
  const std::string patterns = TempPath("cli_batch.txt");
  WriteFile(fasta, ">seq\nACGTACGTACGTACGT\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);
  WriteFile(patterns,
            "# comment line\n"
            "ACGT\n"
            "contains TTTT\n"
            "findall GTAC\n"
            "match ACGTACGT\n"
            "ms ACGTTT\n"
            "\n");

  CliResult batch =
      RunCli({"batch", index, patterns, "--threads=2", "--min-len=4"});
  ASSERT_EQ(batch.code, 0) << batch.err;
  EXPECT_NE(batch.out.find("[0] findall ACGT: 4 occurrence(s) 0 4 8 12"),
            std::string::npos);
  EXPECT_NE(batch.out.find("[1] contains TTTT: no"), std::string::npos);
  EXPECT_NE(batch.out.find("[2] findall GTAC: 3 occurrence(s) 2 6 10"),
            std::string::npos);
  EXPECT_NE(batch.out.find("[3] match ACGTACGT: 1 match(es) "
                           "query[0..8)@0"),
            std::string::npos);
  EXPECT_NE(batch.out.find("[4] ms ACGTTT: n=6 max=4"), std::string::npos);
  EXPECT_NE(batch.out.find("5 quer(ies) on 2 thread(s)"), std::string::npos);

  // Identical batches at different thread counts produce identical
  // per-query output lines.
  CliResult batch8 = RunCli({"batch", index, patterns, "--threads=8",
                             "--min-len=4", "--cache-mb=1"});
  ASSERT_EQ(batch8.code, 0) << batch8.err;
  for (int i = 0; i < 5; ++i) {
    const std::string tag = "[" + std::to_string(i) + "]";
    size_t a = batch.out.find(tag);
    size_t b = batch8.out.find(tag);
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    EXPECT_EQ(batch.out.substr(a, batch.out.find('\n', a) - a),
              batch8.out.substr(b, batch8.out.find('\n', b) - b));
  }

  // Bad invocations.
  EXPECT_EQ(RunCli({"batch", index}).code, 2);
  EXPECT_EQ(RunCli({"batch", index, "/nonexistent.txt"}).code, 1);
  const std::string empty_patterns = TempPath("cli_batch_empty.txt");
  WriteFile(empty_patterns, "# nothing\n");
  EXPECT_EQ(RunCli({"batch", index, empty_patterns}).code, 4);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Parses the JSON document embedded in CLI output (the snapshot is the
// first '{' through the end of the stream).
Result<obs::JsonValue> ParseTrailingJson(const std::string& out) {
  const size_t brace = out.find('{');
  if (brace == std::string::npos) {
    return Status::InvalidArgument("no JSON object in output");
  }
  return obs::ParseJson(std::string_view(out).substr(brace));
}

TEST(CliTest, StatsJsonEmitsVersionedSnapshot) {
  const std::string fasta = TempPath("cli_sj.fa");
  const std::string index = TempPath("cli_sj.spine");
  WriteFile(fasta, ">seq\nACGTACGTACGTACGT\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);

  CliResult stats = RunCli({"stats", index, "--json"});
  ASSERT_EQ(stats.code, 0) << stats.err;
  Result<obs::JsonValue> doc = obs::ParseJson(
      stats.out.substr(0, stats.out.find_last_not_of('\n') + 1));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << stats.out;
  EXPECT_DOUBLE_EQ(doc->Find("schema_version")->number,
                   static_cast<double>(obs::kStatsSchemaVersion));
  EXPECT_EQ(doc->Find("command")->string_value, "stats");
  // The metrics section always carries the three maps, populated or not.
  const obs::JsonValue* metrics = doc->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->Find("counters")->is_object());
  EXPECT_TRUE(metrics->Find("gauges")->is_object());
  EXPECT_TRUE(metrics->Find("histograms")->is_object());
  const obs::JsonValue* section = doc->Find("index");
  ASSERT_NE(section, nullptr);
  EXPECT_DOUBLE_EQ(section->Find("characters")->number, 16.0);
  EXPECT_EQ(section->Find("alphabet")->string_value, "dna");
  EXPECT_EQ(section->Find("fanout")->array.size(), 6u);
}

TEST(CliTest, StatsJsonFlagWritesFileOnBuildAndStdoutOnQuery) {
  const std::string fasta = TempPath("cli_sjf.fa");
  const std::string index = TempPath("cli_sjf.spine");
  const std::string json_file = TempPath("cli_sjf_build.json");
  WriteFile(fasta, ">seq\nACGTACGTACGTACGT\n");

  CliResult build =
      RunCli({"build", fasta, index, "--stats-json=" + json_file});
  ASSERT_EQ(build.code, 0) << build.err;
  // The human-readable line still prints; the snapshot goes to the file.
  EXPECT_NE(build.out.find("indexed 16 characters"), std::string::npos);
  Result<obs::JsonValue> doc = ParseTrailingJson(Slurp(json_file));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("command")->string_value, "build");
  EXPECT_DOUBLE_EQ(doc->Find("build")->Find("characters")->number, 16.0);
  EXPECT_GE(doc->Find("build")->Find("seconds")->number, 0.0);

  // Bare --stats-json appends the snapshot to stdout after the text.
  CliResult query = RunCli({"query", index, "ACGT", "--stats-json"});
  ASSERT_EQ(query.code, 0) << query.err;
  EXPECT_NE(query.out.find("4 occurrence(s)"), std::string::npos);
  Result<obs::JsonValue> qdoc = ParseTrailingJson(query.out);
  ASSERT_TRUE(qdoc.ok()) << qdoc.status().ToString() << "\n" << query.out;
  EXPECT_EQ(qdoc->Find("command")->string_value, "query");
  EXPECT_DOUBLE_EQ(qdoc->Find("query")->Find("occurrences")->number, 4.0);
#if !defined(SPINE_OBS_DISABLED)
  // The process-wide registry saw the core matcher counters.
  const obs::JsonValue* counters = qdoc->Find("metrics")->Find("counters");
  ASSERT_NE(counters->Find("core.vertebra_steps"), nullptr);
  EXPECT_GT(counters->Find("core.vertebra_steps")->number, 0.0);
#endif

  // An unwritable destination is an I/O error (exit 1), and failing
  // commands keep their exit codes (no snapshot written).
  EXPECT_EQ(RunCli({"query", index, "ACGT",
                    "--stats-json=/nonexistent-dir/x.json"})
                .code,
            1);
  const std::string bad_fa = TempPath("cli_sjf_bad.fa");
  WriteFile(bad_fa, ">seq\nACGTX\n");
  const std::string never = TempPath("cli_sjf_never.json");
  EXPECT_EQ(RunCli({"build", bad_fa, index, "--stats-json=" + never}).code,
            4);
  EXPECT_TRUE(Slurp(never).empty());
}

TEST(CliTest, BatchTraceEmitsPerQueryTraces) {
  const std::string fasta = TempPath("cli_trace.fa");
  const std::string index = TempPath("cli_trace.spine");
  const std::string patterns = TempPath("cli_trace.txt");
  WriteFile(fasta, ">seq\nACGTACGTACGTACGT\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);
  WriteFile(patterns, "ACGT\ncontains TTTT\nms ACGTTT\n");

  CliResult batch = RunCli({"batch", index, patterns, "--threads=2",
                            "--trace", "--stats-json"});
  ASSERT_EQ(batch.code, 0) << batch.err;
  Result<obs::JsonValue> doc = ParseTrailingJson(batch.out);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << batch.out;
  const obs::JsonValue* section = doc->Find("batch");
  ASSERT_NE(section, nullptr);
  EXPECT_DOUBLE_EQ(section->Find("queries")->number, 3.0);
#if defined(SPINE_OBS_DISABLED)
  // Capture sites compiled out: tracing yields nothing.
  EXPECT_EQ(section->Find("traces"), nullptr);
#else
  const obs::JsonValue* traces = section->Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_TRUE(traces->is_array());
  ASSERT_EQ(traces->array.size(), 3u);
  for (const obs::JsonValue& trace : traces->array) {
    // Every query got an exec span, a queue-wait span and work notes.
    EXPECT_GE(trace.Find("spans")->Find("exec_us")->number, 0.0);
    EXPECT_GE(trace.Find("spans")->Find("queue_wait_us")->number, 0.0);
    ASSERT_NE(trace.Find("notes")->Find("cache_hit"), nullptr);
    ASSERT_NE(trace.Find("notes")->Find("nodes_checked"), nullptr);
  }
#endif
  // Without --trace the traces key stays absent.
  CliResult plain =
      RunCli({"batch", index, patterns, "--threads=2", "--stats-json"});
  ASSERT_EQ(plain.code, 0) << plain.err;
  Result<obs::JsonValue> pdoc = ParseTrailingJson(plain.out);
  ASSERT_TRUE(pdoc.ok());
  EXPECT_EQ(pdoc->Find("batch")->Find("traces"), nullptr);
}

TEST(CliTest, BatchStatsJsonReportsCacheAdmission) {
  const std::string fasta = TempPath("cli_admit.fa");
  const std::string index = TempPath("cli_admit.spine");
  const std::string patterns = TempPath("cli_admit.txt");
  WriteFile(fasta, ">seq\nACGTACGTACGTACGT\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);
  // Stored on probation, promoted by the first repeat, then protected.
  WriteFile(patterns, "ACGT\nACGT\nACGT\ncontains TTTT\n");

  CliResult batch = RunCli({"batch", index, patterns, "--threads=1",
                            "--cache-mb=16", "--stats-json"});
  ASSERT_EQ(batch.code, 0) << batch.err;
  Result<obs::JsonValue> doc = ParseTrailingJson(batch.out);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << batch.out;
  const obs::JsonValue* section = doc->Find("batch");
  ASSERT_NE(section, nullptr);
  EXPECT_DOUBLE_EQ(section->Find("cache_hits")->number, 2.0);
  EXPECT_DOUBLE_EQ(section->Find("cache_promotions")->number, 1.0);
}

TEST(CliTest, QueryOnMissingIndexFails) {
  EXPECT_EQ(RunCli({"query", "/nonexistent.spine", "ACGT"}).code, 1);
  EXPECT_EQ(RunCli({"stats", "/nonexistent.spine"}).code, 1);
}

TEST(CliTest, VerifyAcceptsHealthyImage) {
  const std::string fasta = TempPath("cli_verify.fa");
  const std::string index = TempPath("cli_verify.spine");
  WriteFile(fasta, ">seq\nACGTACGGTACGTTACGATTACGT\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);
  CliResult verify = RunCli({"verify", index});
  EXPECT_EQ(verify.code, 0) << verify.err;
  EXPECT_NE(verify.out.find("compact image OK"), std::string::npos);
  // Usage errors.
  EXPECT_EQ(RunCli({"verify"}).code, 2);
  // Missing file is an I/O error, not corruption.
  EXPECT_EQ(RunCli({"verify", "/nonexistent.spine"}).code, 1);
}

TEST(CliTest, VerifyDetectsBitFlippedImageWithExitCode3) {
  const std::string fasta = TempPath("cli_verify_bad.fa");
  const std::string index = TempPath("cli_verify_bad.spine");
  WriteFile(fasta, ">seq\nACGTACGGTACGTTACGATTACGT\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);
  // Flip one payload bit somewhere past the header.
  std::string image;
  {
    std::ifstream in(index, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    image = buf.str();
  }
  ASSERT_GT(image.size(), 40u);
  image[image.size() / 2] = static_cast<char>(image[image.size() / 2] ^ 0x02);
  {
    std::ofstream out(index, std::ios::binary | std::ios::trunc);
    out << image;
  }
  CliResult verify = RunCli({"verify", index});
  EXPECT_EQ(verify.code, 3) << verify.out << verify.err;
  EXPECT_NE(verify.err.find("error:"), std::string::npos);

  // A file that is no known artifact at all is also corruption.
  const std::string garbage = TempPath("cli_verify_garbage.bin");
  WriteFile(garbage, "definitely not an index");
  EXPECT_EQ(RunCli({"verify", garbage}).code, 3);
}

// --open=mmap threads through every artifact-opening command (PR 8):
// same answers, same exit codes, and the open mode is reported.
TEST(CliTest, OpenFlagSelectsMmapPathWithIdenticalBehavior) {
  const std::string fasta = TempPath("cli_mmap.fa");
  const std::string index = TempPath("cli_mmap.spine");
  WriteFile(fasta, ">seq\nACGTACGGTACGTTACGATTACGTACGGT\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);

  // A healthy artifact verifies under every open path.
  for (const char* spec :
       {"--open=heap", "--open=mmap", "--open=mmap-noverify"}) {
    CliResult verify = RunCli({"verify", index, spec});
    EXPECT_EQ(verify.code, 0) << spec << ": " << verify.err;
  }
  // Query output is byte-identical across open paths.
  CliResult heap_query = RunCli({"query", index, "ACGT"});
  CliResult mmap_query = RunCli({"query", index, "ACGT", "--open=mmap"});
  ASSERT_EQ(heap_query.code, 0);
  ASSERT_EQ(mmap_query.code, 0);
  EXPECT_EQ(heap_query.out, mmap_query.out);
  // The stats snapshot names the open path that produced it.
  CliResult stats = RunCli({"stats", index, "--open=mmap", "--json"});
  ASSERT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("\"open_mode\":\"mmap\""), std::string::npos)
      << stats.out;
  // A bad spec is rejected up front, before touching the artifact.
  EXPECT_EQ(RunCli({"verify", index, "--open=mmap-eager"}).code, 4);
  EXPECT_EQ(RunCli({"query", index, "ACGT", "--open="}).code, 4);
}

TEST(CliTest, VerifyOpenMmapKeepsTheExitCodeContract) {
  const std::string fasta = TempPath("cli_mmap_bad.fa");
  const std::string index = TempPath("cli_mmap_bad.spine");
  WriteFile(fasta, ">seq\nACGTACGGTACGTTACGATTACGT\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);
  EXPECT_EQ(RunCli({"verify", index, "--open=mmap"}).code, 0);

  // Missing file stays an I/O error under mmap.
  EXPECT_EQ(RunCli({"verify", "/nonexistent.spine", "--open=mmap"}).code, 1);

  // Bit-flipped payload: the mapped CRC pass catches it, exit 3.
  std::string image;
  {
    std::ifstream in(index, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    image = buf.str();
  }
  ASSERT_GT(image.size(), 40u);
  std::string flipped = image;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x10);
  WriteFile(index, flipped);
  CliResult verify = RunCli({"verify", index, "--open=mmap"});
  EXPECT_EQ(verify.code, 3) << verify.out << verify.err;

  // Truncation is caught on the mmap path too.
  WriteFile(index, image.substr(0, image.size() / 2));
  EXPECT_EQ(RunCli({"verify", index, "--open=mmap"}).code, 3);
}

// The exit-code table (ExitCode in cli.h) is a stable contract: every
// StatusCode maps to exactly the documented number, including the
// serving-layer codes. Scripts match on these, so a renumbering must
// fail loudly here.
TEST(CliTest, ExitCodeTableIsTotalAndStable) {
  EXPECT_EQ(ExitCodeFor(StatusCode::kOk), 0);
  EXPECT_EQ(ExitCodeFor(StatusCode::kIoError), 1);
  // 2 is kExitUsage: malformed command lines only, never a StatusCode.
  EXPECT_EQ(ExitCodeFor(StatusCode::kCorruption), 3);
  EXPECT_EQ(ExitCodeFor(StatusCode::kInvalidArgument), 4);
  EXPECT_EQ(ExitCodeFor(StatusCode::kNotFound), 5);
  EXPECT_EQ(ExitCodeFor(StatusCode::kResourceExhausted), 6);
  EXPECT_EQ(ExitCodeFor(StatusCode::kOutOfRange), 7);
  EXPECT_EQ(ExitCodeFor(StatusCode::kFailedPrecondition), 7);
  EXPECT_EQ(ExitCodeFor(StatusCode::kOverloaded), 8);
  EXPECT_EQ(ExitCodeFor(StatusCode::kProtocolError), 9);
  EXPECT_EQ(ExitCodeFor(StatusCode::kDeadlineExceeded), 10);
  EXPECT_EQ(ExitCodeFor(StatusCode::kCancelled), 11);

  EXPECT_EQ(ExitCodeFor(StatusCode::kOk), kExitOk);
  EXPECT_EQ(ExitCodeFor(StatusCode::kOverloaded), kExitOverloaded);
  EXPECT_EQ(ExitCodeFor(StatusCode::kProtocolError), kExitProtocolError);
  EXPECT_EQ(ExitCodeFor(StatusCode::kDeadlineExceeded), kExitDeadlineExceeded);
  EXPECT_EQ(ExitCodeFor(StatusCode::kCancelled), kExitCancelled);

  // The usage text documents the same table.
  CliResult help = RunCli({"help"});
  EXPECT_NE(help.out.find("8 overloaded"), std::string::npos);
  EXPECT_NE(help.out.find("9 protocol"), std::string::npos);
  EXPECT_NE(help.out.find("10 deadline"), std::string::npos);
  EXPECT_NE(help.out.find("11 cancelled"), std::string::npos);
}

// `query --deadline-ms` enforces the budget on the direct (no-engine)
// path: a generous budget answers normally, exit code 0.
TEST(CliTest, QueryDeadlineFlagIsAcceptedAndGenerousBudgetSucceeds) {
  const std::string fasta = TempPath("cli_dl.fa");
  const std::string index = TempPath("cli_dl.spine");
  WriteFile(fasta, ">seq\nACGTACGGTACGTTACGATTACGT\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);
  CliResult result = RunCli({"query", index, "ACGT", "--deadline-ms=60000"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("occurrence"), std::string::npos) << result.out;
}

TEST(CliTest, ServeValidatesItsArguments) {
  CliResult missing = RunCli({"serve"});
  EXPECT_EQ(missing.code, kExitUsage);
  EXPECT_NE(missing.err.find("serve requires"), std::string::npos);

  const std::string fasta = TempPath("cli_serve.fa");
  const std::string index = TempPath("cli_serve.spine");
  WriteFile(fasta, ">s\nACGTACGTACGTACGT\n");
  ASSERT_EQ(RunCli({"build", fasta, index}).code, 0);

  EXPECT_EQ(RunCli({"serve", index, "--port=70000"}).code,
            kExitInvalidArgument);
  EXPECT_EQ(RunCli({"serve", index, "--host=not.an.address"}).code,
            kExitInvalidArgument);
  EXPECT_EQ(RunCli({"serve", index, "--queue-cap=0"}).code,
            kExitInvalidArgument);
  EXPECT_EQ(RunCli({"serve", TempPath("cli_serve_missing.spine")}).code,
            kExitIoError);

  // Usage mentions serve and points at the protocol spec.
  CliResult help = RunCli({"help"});
  EXPECT_NE(help.out.find("serve <artifact>"), std::string::npos);
  EXPECT_NE(help.out.find("SERVING.md"), std::string::npos);
}

}  // namespace
}  // namespace spine::cli
