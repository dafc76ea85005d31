// spine_fuzz: time-bounded randomized cross-validation harness.
//
// Repeatedly generates random strings (biased toward small alphabets,
// which maximize rib/extrib density), builds the reference and compact
// SPINE indexes plus the suffix-tree and DAWG baselines, and checks
// LEL values, all-occurrence sets and maximal matches against the
// brute-force oracle. Exits non-zero on the first divergence, printing
// a reproducer.
//
//   $ ./tools/spine_fuzz [seconds] [seed]
//   $ ./tools/spine_fuzz manifest [seconds] [seed]
//   $ ./tools/spine_fuzz frames [seconds] [seed]
//
// The default mode interleaves every phase; `manifest` mode spends the
// whole budget corrupting .spinefam families (truncations, bit flips,
// byte overwrites in the manifest and in shard files) and demands that
// ShardedIndex::Load rejects each with kCorruption — never a crash,
// never a silently wrong index. `frames` mode corrupts serving-wire
// byte streams and JSON lines (core/wire.h) the same way and demands
// every mutation is either decoded consistently or rejected with
// kProtocolError — never a crash, never a silently misread envelope.
//
// This is the harness that found the paper's extrib PRT ambiguity
// (DESIGN.md §5); it runs for 2 seconds in CI.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "compact/compact_spine.h"
#include "compact/serializer.h"
#include "core/matcher.h"
#include "core/spine_index.h"
#include "core/wire.h"
#include "dawg/suffix_automaton.h"
#include "naive/naive_index.h"
#include "shard/dynamic_family.h"
#include "shard/sharded_index.h"
#include "storage/mmap_region.h"
#include "suffix_tree/st_matcher.h"
#include "suffix_tree/suffix_tree.h"

#include <unistd.h>

namespace {

int Fail(const std::string& what, const std::string& s,
         const std::string& pattern) {
  std::fprintf(stderr, "FUZZ FAILURE: %s\n  string : %s\n  pattern: %s\n",
               what.c_str(), s.c_str(), pattern.c_str());
  return 1;
}

// Applies one random truncation / bit flip / byte overwrite to `bytes`.
void MutateBytes(spine::Rng& rng, std::string* bytes) {
  switch (rng.Below(3)) {
    case 0:  // truncation (including an empty file)
      bytes->resize(rng.Below(bytes->size() + 1));
      break;
    case 1:  // single bit flip
      if (!bytes->empty()) {
        size_t pos = rng.Below(bytes->size());
        (*bytes)[pos] = static_cast<char>(
            static_cast<unsigned char>((*bytes)[pos]) ^ (1u << rng.Below(8)));
      }
      break;
    default:  // random byte overwrite
      if (!bytes->empty()) {
        (*bytes)[rng.Below(bytes->size())] =
            static_cast<char>(rng.Below(256));
      }
      break;
  }
}

// Image-robustness phase: serialize the index, corrupt the bytes, and
// demand that the memory loader either rejects the image with a clean
// Status or yields an index that still answers correctly — it must
// never crash and never silently return a broken index. Every image is
// opened twice, from an 8-aligned heap buffer (a heap open) and from a
// mapping (an mmap open): both must reach the same verdict and, when
// both load, the same answers. Every image that loads must save back to
// exactly its input bytes, since saved bytes are canonical.
int FuzzSerializedImage(spine::Rng& rng, const spine::CompactSpineIndex& index,
                        const std::string& s, uint64_t* checks) {
  using namespace spine;
  const auto save = [](const CompactSpineIndex& loaded) {
    std::ostringstream out;
    return SaveCompactSpineToStream(loaded, out).ok() ? out.str()
                                                      : std::string();
  };
  const std::string image = save(index);
  if (image.empty()) return Fail("image save failed", s, "");
  const std::string mmap_path =
      (std::filesystem::temp_directory_path() /
       ("spine_fuzz_img_" + std::to_string(::getpid()) + ".tmp"))
          .string();
  for (int trial = 0; trial < 7; ++trial) {
    ++*checks;
    // The first trial opens the image as saved.
    std::string mutated = image;
    if (trial > 0) MutateBytes(rng, &mutated);
    std::vector<uint64_t> heap(mutated.size() / 8 + 1);
    std::memcpy(heap.data(), mutated.data(), mutated.size());
    Result<CompactSpineIndex> loaded = LoadCompactSpineFromMemory(
        reinterpret_cast<const uint8_t*>(heap.data()), mutated.size(),
        /*verify=*/true, nullptr);
    const StatusCode heap_code =
        loaded.ok() ? StatusCode::kOk : loaded.status().code();

    {
      std::ofstream out(mmap_path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    StatusCode mmap_code = StatusCode::kOk;
    Result<CompactSpineIndex> mapped = Status::OK();
    auto region = storage::MmapRegion::Map(mmap_path);
    if (!region.ok()) {
      mmap_code = region.status().code();
    } else {
      mapped = LoadCompactSpineFromMemory((*region)->data(), (*region)->size(),
                                          /*verify=*/true, *region);
      if (!mapped.ok()) mmap_code = mapped.status().code();
    }
    if (mmap_code != heap_code) {
      std::fprintf(stderr, "  heap verdict: %d  mmap verdict: %d\n",
                   static_cast<int>(heap_code), static_cast<int>(mmap_code));
      return Fail("heap/mmap image verdicts diverge", s, "");
    }
    if (!loaded.ok()) continue;  // clean rejection is a pass (both paths)
    // The image loaded (unmutated, or a mutation that restored the
    // original bytes); whatever came back must still answer correctly —
    // on both open paths — and save back to the bytes it came from.
    std::string pattern = s.substr(0, std::min<size_t>(s.size(), 4));
    if (loaded->FindAll(pattern) != naive::FindAllOccurrences(s, pattern)) {
      return Fail("mutated image loaded but answers wrong", s, pattern);
    }
    if (mapped->FindAll(pattern) != loaded->FindAll(pattern)) {
      return Fail("mmap-opened mutated image answers differently", s, pattern);
    }
    if (save(*loaded) != mutated || save(*mapped) != mutated) {
      return Fail("loaded image does not save back to its bytes", s, "");
    }
  }
  std::filesystem::remove(mmap_path);
  return 0;
}

// Manifest-robustness phase: save a sharded family, corrupt the
// manifest or one shard file on disk, and demand that
// ShardedIndex::Load rejects the family with kCorruption. Loading an
// untouched family (a mutation that happened to be the identity) must
// still succeed.
int FuzzShardManifest(spine::Rng& rng, const std::string& s,
                      const std::filesystem::path& dir, uint64_t* checks) {
  using namespace spine;
  auto family = shard::ShardedIndex::Build(
      Alphabet::Dna(), s,
      {.shards = 1 + static_cast<uint32_t>(rng.Below(4)),
       .max_pattern = 4 + static_cast<uint32_t>(rng.Below(60))});
  if (!family.ok()) return Fail("shard build failed", s, "");
  const std::string path = (dir / "family.spinefam").string();
  if (!(*family)->Save(path).ok()) return Fail("shard save failed", s, "");

  std::vector<std::string> files = {path};
  for (uint32_t i = 0; i < (*family)->shard_count(); ++i) {
    files.push_back(path + ".shard" + std::to_string(i));
  }
  const auto read_all = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const auto write_all = [](const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << bytes;
  };
  for (int trial = 0; trial < 6; ++trial) {
    ++*checks;
    const std::string& victim = files[rng.Below(files.size())];
    const std::string original = read_all(victim);
    std::string mutated = original;
    MutateBytes(rng, &mutated);
    write_all(victim, mutated);
    auto loaded = shard::ShardedIndex::Load(path);
    write_all(victim, original);
    if (mutated == original) {
      if (!loaded.ok()) return Fail("pristine family rejected", s, "");
      continue;
    }
    if (loaded.ok()) {
      return Fail("corrupt family (" + victim + ") loaded silently", s, "");
    }
    if (loaded.status().code() != StatusCode::kCorruption) {
      return Fail("corrupt family yielded '" + loaded.status().ToString() +
                      "' instead of kCorruption",
                  s, "");
    }
  }
  return 0;
}

// Dynamic-manifest robustness phase (the lifecycle PR): build a
// DynamicFamily — several flushed documents across several generations,
// sometimes a durable tombstone — then corrupt the v2 manifest (the
// generation pointer, shard list and tombstone set) or one shard image
// on disk, and demand that DynamicFamily::Open rejects the family with
// kCorruption — never a crash, never a torn or silently wrong load.
// Reopening an untouched family (an identity mutation) must succeed.
int FuzzDynamicManifest(spine::Rng& rng, const std::string& s,
                        const std::filesystem::path& dir, uint64_t* checks) {
  using namespace spine;
  const std::string path = (dir / "dynamic.spinefam").string();
  // Fresh ground each round: generations leave uniquely named shard
  // images (<manifest>.g<version>) behind.
  {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("dynamic.spinefam", 0) == 0) {
        std::error_code remove_ec;
        std::filesystem::remove(entry.path(), remove_ec);
      }
    }
  }
  shard::DynamicFamily::Options options;
  options.open.verify = true;
  {
    auto family =
        shard::DynamicFamily::Create(path, Alphabet::Dna(), options);
    if (!family.ok()) return Fail("dynamic create failed", s, "");
    const uint32_t docs = 2 + static_cast<uint32_t>(rng.Below(3));
    for (uint32_t d = 0; d < docs; ++d) {
      const std::string doc =
          s.substr(rng.Below(s.size()), 1 + rng.Below(24));
      if (!(*family)->InsertDocument(doc).ok()) {
        return Fail("dynamic insert failed", s, doc);
      }
      // Flushing between inserts leaves several frozen shards (and
      // shard image files) for the corruption loop to aim at.
      if (rng.Chance(0.6) && !(*family)->Flush().ok()) {
        return Fail("dynamic flush failed", s, "");
      }
    }
    if (!(*family)->Flush().ok()) return Fail("dynamic flush failed", s, "");
    if (rng.Chance(0.5)) {
      // A durable tombstone exercises the manifest's tombstone set.
      (void)(*family)->DeleteDocument(static_cast<uint32_t>(rng.Below(docs)));
    }
  }

  std::vector<std::string> files = {path};
  {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("dynamic.spinefam.g", 0) == 0) {
        files.push_back(entry.path().string());
      }
    }
  }
  const auto read_all = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const auto write_all = [](const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << bytes;
  };
  for (int trial = 0; trial < 6; ++trial) {
    ++*checks;
    const std::string& victim = files[rng.Below(files.size())];
    const std::string original = read_all(victim);
    std::string mutated = original;
    MutateBytes(rng, &mutated);
    write_all(victim, mutated);
    auto loaded = shard::DynamicFamily::Open(path, options);
    write_all(victim, original);
    if (mutated == original) {
      if (!loaded.ok()) return Fail("pristine dynamic family rejected", s, "");
      continue;
    }
    if (loaded.ok()) {
      return Fail("corrupt dynamic family (" + victim + ") loaded silently",
                  s, "");
    }
    if (loaded.status().code() != StatusCode::kCorruption) {
      return Fail("corrupt dynamic family yielded '" +
                      loaded.status().ToString() + "' instead of kCorruption",
                  s, "");
    }
  }
  return 0;
}

// Wire-envelope robustness phase (the serving PR): build valid binary
// frames and JSON lines out of random queries and answers, corrupt them
// with MutateBytes / pure junk, and demand that the core/wire.h
// decoders either reject cleanly with kProtocolError or decode into a
// value whose re-encoding decodes back identically — never a crash,
// never a silently misread envelope.
int FuzzWireFrames(spine::Rng& rng, uint64_t* checks) {
  using namespace spine;
  namespace wire = core::wire;
  const char* letters = "ACGT";

  const auto random_pattern = [&](uint64_t max_len) {
    std::string p;
    const uint64_t len = rng.Below(max_len + 1);
    for (uint64_t i = 0; i < len; ++i) p.push_back(letters[rng.Below(4)]);
    return p;
  };
  const auto random_request = [&] {
    wire::QueryRequest request;
    request.id = rng.Next();
    request.query.kind = static_cast<QueryKind>(rng.Below(6));
    request.query.pattern = random_pattern(24);
    request.query.min_len = 1 + static_cast<uint32_t>(rng.Below(8));
    request.query.expand_occurrences = rng.Chance(0.5);
    // Deadlines (PR 7): zero (absent), small, and full-range values all
    // flow through the round-trip invariants below in both dialects.
    request.query.deadline_ms =
        rng.Chance(0.3) ? 0
        : rng.Chance(0.5)
            ? 1 + static_cast<uint32_t>(rng.Below(10000))
            : static_cast<uint32_t>(rng.Next());
    // Error budgets (the approximate-query PR): zero, small — often
    // larger than the pattern — and full-range values, on every kind
    // (the binary tail carries max_errors unconditionally, and a
    // budget on an exact kind is legal on the wire; the engine just
    // ignores it).
    request.query.max_errors =
        rng.Chance(0.4) ? 0
        : rng.Chance(0.5) ? 1 + static_cast<uint32_t>(rng.Below(32))
                          : static_cast<uint32_t>(rng.Next());
    return request;
  };
  const auto random_response = [&] {
    wire::QueryResponse response;
    response.id = rng.Next();
    response.result.status_code = static_cast<StatusCode>(rng.Below(10));
    response.result.found = rng.Chance(0.5);
    for (uint64_t i = rng.Below(4); i > 0; --i) {
      response.result.hits.push_back(
          {static_cast<uint32_t>(rng.Below(1000)),
           static_cast<uint32_t>(rng.Below(100)),
           static_cast<uint32_t>(rng.Below(100))});
    }
    for (uint64_t i = rng.Below(4); i > 0; --i) {
      response.result.matching_stats.push_back(
          static_cast<uint32_t>(rng.Below(50)));
    }
    if (response.result.status_code != StatusCode::kOk) {
      response.result.error = "fuzz error " + std::to_string(rng.Below(100));
    }
    return response;
  };

  // The invariant every decoded value must satisfy: encode it again,
  // extract and decode the re-encoded frame, and land on the same
  // value. Catches any drift between the encoder and the decoder that
  // a mutated-but-accepted payload could otherwise smuggle through.
  const auto request_roundtrips = [&](const wire::QueryRequest& request) {
    std::string bytes;
    wire::AppendRequestFrame(request, &bytes);
    wire::Frame frame;
    size_t consumed = 0;
    if (!wire::ExtractFrame(bytes, &frame, &consumed).ok() || consumed == 0) {
      return false;
    }
    auto again = wire::DecodeRequest(frame.payload);
    return again.ok() && *again == request;
  };
  const auto response_roundtrips = [&](const wire::QueryResponse& response) {
    std::string bytes;
    wire::AppendResponseFrame(response, &bytes);
    wire::Frame frame;
    size_t consumed = 0;
    if (!wire::ExtractFrame(bytes, &frame, &consumed).ok() || consumed == 0) {
      return false;
    }
    auto again = wire::DecodeResponse(frame.payload);
    return again.ok() && again->id == response.id &&
           again->result.SameAnswer(response.result) &&
           again->result.error == response.result.error;
  };

  // Lifecycle verbs (the dynamic-index PR) get the same treatment as
  // queries: random valid envelopes, mutation, and the round-trip
  // invariant on anything the decoder accepts.
  const auto random_mutate = [&] {
    wire::MutateRequest request;
    request.id = rng.Next();
    request.op = static_cast<wire::MutateOp>(1 + rng.Below(4));
    if (request.op == wire::MutateOp::kInsert) {
      request.document = random_pattern(24);
    }
    if (request.op == wire::MutateOp::kDelete) {
      request.doc_id = static_cast<uint32_t>(rng.Below(1000));
    }
    return request;
  };
  const auto random_mutate_response = [&] {
    wire::MutateResponse response;
    response.id = rng.Next();
    response.op = static_cast<wire::MutateOp>(1 + rng.Below(4));
    response.doc_id = static_cast<uint32_t>(rng.Below(1000));
    response.status = static_cast<StatusCode>(rng.Below(10));
    if (response.status != StatusCode::kOk) {
      response.error = "fuzz mutate error " + std::to_string(rng.Below(100));
    }
    response.generation = rng.Below(1000);
    return response;
  };
  const auto mutate_roundtrips = [&](const wire::MutateRequest& request) {
    std::string bytes;
    wire::AppendMutateFrame(request, &bytes);
    wire::Frame frame;
    size_t consumed = 0;
    if (!wire::ExtractFrame(bytes, &frame, &consumed).ok() || consumed == 0) {
      return false;
    }
    auto again = wire::DecodeMutate(frame.payload);
    return again.ok() && *again == request;
  };
  const auto mutate_response_roundtrips =
      [&](const wire::MutateResponse& response) {
        std::string bytes;
        wire::AppendMutateResponseFrame(response, &bytes);
        wire::Frame frame;
        size_t consumed = 0;
        if (!wire::ExtractFrame(bytes, &frame, &consumed).ok() ||
            consumed == 0) {
          return false;
        }
        auto again = wire::DecodeMutateResponse(frame.payload);
        return again.ok() && *again == response;
      };

  // --- binary stream: 1..4 valid frames, then 1..3 mutations ---------------
  std::string stream;
  for (uint64_t i = 1 + rng.Below(4); i > 0; --i) {
    switch (rng.Below(7)) {
      case 0: wire::AppendRequestFrame(random_request(), &stream); break;
      case 1: wire::AppendResponseFrame(random_response(), &stream); break;
      case 2: wire::AppendStatsRequestFrame(&stream); break;
      case 3:
        wire::AppendStatsResponseFrame("{\"schema_version\":1}", &stream);
        break;
      case 4: wire::AppendMutateFrame(random_mutate(), &stream); break;
      case 5:
        wire::AppendMutateResponseFrame(random_mutate_response(), &stream);
        break;
      default:
        wire::AppendErrorFrame({rng.Next(), StatusCode::kOverloaded,
                                "fuzz overload"},
                               &stream);
        break;
    }
  }
  if (rng.Chance(0.2)) {  // sometimes fuzz pure junk instead
    stream.resize(rng.Below(64));
    for (char& c : stream) c = static_cast<char>(rng.Below(256));
  } else {
    for (uint64_t i = 1 + rng.Below(3); i > 0; --i) MutateBytes(rng, &stream);
  }

  // Consume the stream exactly the way serve/server.cc does.
  std::string_view buffer(stream);
  while (!buffer.empty()) {
    ++*checks;
    wire::Frame frame;
    size_t consumed = 0;
    Status status = wire::ExtractFrame(buffer, &frame, &consumed);
    if (!status.ok()) {
      if (status.code() != StatusCode::kProtocolError) {
        return Fail("frame rejection used '" + status.ToString() +
                        "' instead of kProtocolError",
                    "", "");
      }
      break;  // clean rejection: the connection would close here
    }
    if (consumed == 0) break;  // partial tail: the server would read more
    switch (frame.type) {
      case wire::FrameType::kQuery: {
        auto decoded = wire::DecodeRequest(frame.payload);
        if (!decoded.ok() &&
            decoded.status().code() != StatusCode::kProtocolError) {
          return Fail("request decode used '" + decoded.status().ToString() +
                          "' instead of kProtocolError",
                      "", "");
        }
        if (decoded.ok() && !request_roundtrips(*decoded)) {
          return Fail("mutated request decoded but does not round-trip", "",
                      decoded->query.pattern);
        }
        break;
      }
      case wire::FrameType::kResponse: {
        auto decoded = wire::DecodeResponse(frame.payload);
        if (!decoded.ok() &&
            decoded.status().code() != StatusCode::kProtocolError) {
          return Fail("response decode used '" + decoded.status().ToString() +
                          "' instead of kProtocolError",
                      "", "");
        }
        if (decoded.ok() && !response_roundtrips(*decoded)) {
          return Fail("mutated response decoded but does not round-trip", "",
                      "");
        }
        break;
      }
      case wire::FrameType::kStats:
        break;  // empty payload by construction; nothing to decode
      case wire::FrameType::kStatsResponse:
        if (auto decoded = wire::DecodeStatsResponse(frame.payload);
            !decoded.ok() &&
            decoded.status().code() != StatusCode::kProtocolError) {
          return Fail("stats decode used '" + decoded.status().ToString() +
                          "' instead of kProtocolError",
                      "", "");
        }
        break;
      case wire::FrameType::kMutate: {
        auto decoded = wire::DecodeMutate(frame.payload);
        if (!decoded.ok() &&
            decoded.status().code() != StatusCode::kProtocolError) {
          return Fail("mutate decode used '" + decoded.status().ToString() +
                          "' instead of kProtocolError",
                      "", "");
        }
        if (decoded.ok() && !mutate_roundtrips(*decoded)) {
          return Fail("mutated mutate frame decoded but does not round-trip",
                      "", decoded->document);
        }
        break;
      }
      case wire::FrameType::kMutateResponse: {
        auto decoded = wire::DecodeMutateResponse(frame.payload);
        if (!decoded.ok() &&
            decoded.status().code() != StatusCode::kProtocolError) {
          return Fail("mutate response decode used '" +
                          decoded.status().ToString() +
                          "' instead of kProtocolError",
                      "", "");
        }
        if (decoded.ok() && !mutate_response_roundtrips(*decoded)) {
          return Fail(
              "mutated mutate response decoded but does not round-trip", "",
              "");
        }
        break;
      }
      case wire::FrameType::kError:
        if (auto decoded = wire::DecodeError(frame.payload);
            !decoded.ok() &&
            decoded.status().code() != StatusCode::kProtocolError) {
          return Fail("error decode used '" + decoded.status().ToString() +
                          "' instead of kProtocolError",
                      "", "");
        }
        break;
    }
    buffer.remove_prefix(consumed);
  }

  // --- deadline_ms hostile inputs (PR 7) -----------------------------------
  // Junk, overflow and zero deadlines must yield either a valid request
  // (clamped to uint32) or kProtocolError — never UB, never a hang.
  for (int trial = 0; trial < 3; ++trial) {
    ++*checks;
    static const char* kHostileDeadlines[] = {
        "0",      "4294967295", "4294967296",          "18446744073709551616",
        "1e300",  "-1",         "-4294967295",         "0.5",
        "\"5\"",  "null",       "[1]",                 "1e-300",
    };
    const char* hostile =
        kHostileDeadlines[rng.Below(std::size(kHostileDeadlines))];
    std::string line =
        "{\"v\":1,\"type\":\"query\",\"id\":1,\"pattern\":\"ACG\","
        "\"deadline_ms\":";
    line += hostile;
    line += "}";
    auto parsed = wire::ParseRequestJson(line);
    if (!parsed.ok()) {
      if (parsed.status().code() != StatusCode::kProtocolError) {
        return Fail("hostile deadline rejection used '" +
                        parsed.status().ToString() +
                        "' instead of kProtocolError",
                    "", line);
      }
    } else if (!request_roundtrips(*parsed)) {
      return Fail("hostile deadline parsed but does not round-trip", "", line);
    }
    // Binary: both legacy tails must still decode — dropping the
    // trailing max_errors word (pre-approx shape) keeps the deadline
    // and yields max_errors == 0; dropping deadline + max_errors
    // (pre-deadline shape) yields zero for both. Any other tail length
    // must be rejected as kProtocolError.
    wire::QueryRequest request = random_request();
    std::string bytes;
    wire::AppendRequestFrame(request, &bytes);
    wire::Frame frame;
    size_t consumed = 0;
    if (!wire::ExtractFrame(bytes, &frame, &consumed).ok()) {
      return Fail("valid request frame failed to extract", "", "");
    }
    std::string payload(frame.payload);
    std::string pre_approx = payload.substr(0, payload.size() - 4);
    auto pre_approx_decoded = wire::DecodeRequest(pre_approx);
    if (!pre_approx_decoded.ok() ||
        pre_approx_decoded->query.deadline_ms != request.query.deadline_ms ||
        pre_approx_decoded->query.max_errors != 0 ||
        pre_approx_decoded->query.pattern != request.query.pattern) {
      return Fail("pre-approx request payload no longer decodes", "",
                  request.query.pattern);
    }
    std::string pre_deadline = payload.substr(0, payload.size() - 8);
    auto pre_deadline_decoded = wire::DecodeRequest(pre_deadline);
    if (!pre_deadline_decoded.ok() ||
        pre_deadline_decoded->query.deadline_ms != 0 ||
        pre_deadline_decoded->query.max_errors != 0 ||
        pre_deadline_decoded->query.pattern != request.query.pattern) {
      return Fail("pre-deadline request payload no longer decodes", "",
                  request.query.pattern);
    }
    std::string odd_tail = payload + static_cast<char>(rng.Below(256));
    if (auto odd = wire::DecodeRequest(odd_tail); odd.ok()) {
      return Fail("request payload with trailing junk decoded silently", "",
                  request.query.pattern);
    }
  }

  // --- max_errors hostile inputs (the approximate-query PR) ---------------
  // Junk, overflow, negative, and larger-than-the-pattern error budgets
  // must yield either a valid request (clamped to uint32, round-trips)
  // or kProtocolError — never UB, never a partial parse.
  for (int trial = 0; trial < 3; ++trial) {
    ++*checks;
    static const char* kHostileErrors[] = {
        "0",     "2",           "7",          "4294967295",
        "4294967296",           "18446744073709551616",
        "-1",    "-2147483648", "1e300",      "0.5",
        "\"2\"", "null",        "[2]",        "1e-300",
    };
    const char* hostile =
        kHostileErrors[rng.Below(std::size(kHostileErrors))];
    std::string line =
        "{\"v\":1,\"type\":\"query\",\"id\":1,\"kind\":\"";
    line += rng.Chance(0.5) ? "mismatch" : "edit";
    line += "\",\"pattern\":\"ACG\",\"max_errors\":";
    line += hostile;
    line += "}";
    auto parsed = wire::ParseRequestJson(line);
    if (!parsed.ok()) {
      if (parsed.status().code() != StatusCode::kProtocolError) {
        return Fail("hostile max_errors rejection used '" +
                        parsed.status().ToString() +
                        "' instead of kProtocolError",
                    "", line);
      }
    } else if (!request_roundtrips(*parsed)) {
      return Fail("hostile max_errors parsed but does not round-trip", "",
                  line);
    }
  }

  // --- query text: approximate kinds and hostile suffixes ------------------
  // Well-formed "KIND:ERRORS[@MS] PATTERN" lines must parse to exactly
  // the requested query; hostile suffixes (negative, overflow,
  // non-digit, budget on an exact kind) must never crash, and whatever
  // does parse must survive a canonical re-render round-trip.
  for (int trial = 0; trial < 4; ++trial) {
    ++*checks;
    const bool edit = rng.Chance(0.5);
    const uint32_t errors = static_cast<uint32_t>(rng.Below(6));
    const uint32_t deadline = static_cast<uint32_t>(rng.Below(500));
    const std::string pattern = "A" + random_pattern(7);
    std::string line = edit ? "edit" : "mismatch";
    line += ":" + std::to_string(errors);
    if (deadline > 0) line += "@" + std::to_string(deadline);
    line += " " + pattern;
    std::optional<Query> query = wire::ParseQueryText(line, 1);
    if (!query ||
        query->kind != (edit ? QueryKind::kEditDistance
                             : QueryKind::kMismatch) ||
        query->pattern != pattern || query->max_errors != errors ||
        query->deadline_ms != deadline) {
      return Fail("canonical approx query text did not parse", "", line);
    }
    static const char* kHostileSuffixes[] = {
        ":-1",  ":18446744073709551616", ":2x", ":",  ":@", "::2",
        ":2@",  ":99999999999@99999999999",
    };
    std::string hostile_kind = edit ? "edit" : "mismatch";
    if (rng.Chance(0.3)) hostile_kind = "findall";  // budget on exact kind
    std::string hostile_line =
        hostile_kind + kHostileSuffixes[rng.Below(std::size(kHostileSuffixes))] +
        " " + pattern;
    std::optional<Query> hostile = wire::ParseQueryText(hostile_line, 1);
    if (hostile && (hostile->kind == QueryKind::kMismatch ||
                    hostile->kind == QueryKind::kEditDistance)) {
      // Saturating budgets are the only accepted approx parse; it must
      // re-render and re-parse to the same query.
      std::string rerender =
          std::string(hostile->kind == QueryKind::kEditDistance ? "edit"
                                                                : "mismatch") +
          ":" + std::to_string(hostile->max_errors) + " " + hostile->pattern;
      std::optional<Query> again = wire::ParseQueryText(rerender, 1);
      if (!again || again->kind != hostile->kind ||
          again->pattern != hostile->pattern ||
          again->max_errors != hostile->max_errors) {
        return Fail("hostile approx query text does not round-trip", "",
                    hostile_line);
      }
    }
  }

  // --- JSON lines: mutate valid encodings, then parse ----------------------
  for (int trial = 0; trial < 4; ++trial) {
    ++*checks;
    const bool is_request = rng.Chance(0.5);
    std::string line = is_request ? wire::RequestToJson(random_request())
                                  : wire::ResponseToJson(random_response());
    MutateBytes(rng, &line);
    if (is_request) {
      auto parsed = wire::ParseRequestJson(line);
      if (!parsed.ok() &&
          parsed.status().code() != StatusCode::kProtocolError) {
        return Fail("JSON request rejection used '" +
                        parsed.status().ToString() +
                        "' instead of kProtocolError",
                    "", line);
      }
      if (parsed.ok()) {
        auto again = wire::ParseRequestJson(wire::RequestToJson(*parsed));
        if (!again.ok() || !(*again == *parsed)) {
          return Fail("mutated JSON request parsed but does not round-trip",
                      "", line);
        }
      }
    } else {
      auto parsed = wire::ParseResponseJson(line);
      if (!parsed.ok() &&
          parsed.status().code() != StatusCode::kProtocolError) {
        return Fail("JSON response rejection used '" +
                        parsed.status().ToString() +
                        "' instead of kProtocolError",
                    "", line);
      }
      if (parsed.ok()) {
        auto again = wire::ParseResponseJson(wire::ResponseToJson(*parsed));
        if (!again.ok() || again->id != parsed->id ||
            !again->result.SameAnswer(parsed->result)) {
          return Fail("mutated JSON response parsed but does not round-trip",
                      "", line);
        }
      }
    }
  }

  // --- JSON mutate envelopes: same discipline ------------------------------
  for (int trial = 0; trial < 3; ++trial) {
    ++*checks;
    const bool is_request = rng.Chance(0.5);
    std::string line =
        is_request ? wire::MutateToJson(random_mutate())
                   : wire::MutateResponseToJson(random_mutate_response());
    MutateBytes(rng, &line);
    if (is_request) {
      auto parsed = wire::ParseMutateJson(line);
      if (!parsed.ok() &&
          parsed.status().code() != StatusCode::kProtocolError) {
        return Fail("JSON mutate rejection used '" +
                        parsed.status().ToString() +
                        "' instead of kProtocolError",
                    "", line);
      }
      if (parsed.ok()) {
        auto again = wire::ParseMutateJson(wire::MutateToJson(*parsed));
        if (!again.ok() || !(*again == *parsed)) {
          return Fail("mutated JSON mutate parsed but does not round-trip",
                      "", line);
        }
      }
    } else {
      auto parsed = wire::ParseMutateResponseJson(line);
      if (!parsed.ok() &&
          parsed.status().code() != StatusCode::kProtocolError) {
        return Fail("JSON mutate response rejection used '" +
                        parsed.status().ToString() +
                        "' instead of kProtocolError",
                    "", line);
      }
      if (parsed.ok()) {
        auto again = wire::ParseMutateResponseJson(
            wire::MutateResponseToJson(*parsed));
        if (!again.ok() || !(*again == *parsed)) {
          return Fail(
              "mutated JSON mutate response parsed but does not round-trip",
              "", line);
        }
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spine;
  const bool manifest_mode =
      argc > 1 && std::strcmp(argv[1], "manifest") == 0;
  const bool frames_mode = argc > 1 && std::strcmp(argv[1], "frames") == 0;
  const int arg0 = (manifest_mode || frames_mode) ? 2 : 1;
  double budget_seconds = argc > arg0 ? std::atof(argv[arg0]) : 2.0;
  uint64_t seed =
      argc > arg0 + 1 ? std::strtoull(argv[arg0 + 1], nullptr, 10) : 20260706;
  if (budget_seconds <= 0) budget_seconds = 2.0;

  const std::filesystem::path fuzz_dir =
      std::filesystem::temp_directory_path() /
      ("spine_fuzz_" + std::to_string(seed));
  std::filesystem::create_directories(fuzz_dir);
  struct DirCleanup {
    std::filesystem::path path;
    ~DirCleanup() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } cleanup{fuzz_dir};

  Rng rng(seed);
  const char* letters = "ACGT";
  WallTimer timer;
  uint64_t rounds = 0, checks = 0;

  while (timer.ElapsedSeconds() < budget_seconds) {
    ++rounds;
    uint32_t sigma = 2 + static_cast<uint32_t>(rng.Below(3));
    uint32_t length = 2 + static_cast<uint32_t>(rng.Below(160));
    std::string s;
    for (uint32_t i = 0; i < length; ++i) {
      s.push_back(letters[rng.Below(sigma)]);
    }

    if (manifest_mode) {
      if (int rc = FuzzShardManifest(rng, s, fuzz_dir, &checks); rc != 0) {
        return rc;
      }
      if (int rc = FuzzDynamicManifest(rng, s, fuzz_dir, &checks); rc != 0) {
        return rc;
      }
      continue;
    }
    if (frames_mode) {
      if (int rc = FuzzWireFrames(rng, &checks); rc != 0) return rc;
      continue;
    }

    SpineIndex reference(Alphabet::Dna());
    CompactSpineIndex compact(Alphabet::Dna());
    SuffixTree tree(Alphabet::Dna());
    SuffixAutomaton dawg(Alphabet::Dna());
    if (!reference.AppendString(s).ok() || !compact.AppendString(s).ok() ||
        !tree.AppendString(s).ok() || !dawg.AppendString(s).ok()) {
      return Fail("append failed", s, "");
    }
    if (!reference.Validate().ok() || !compact.Validate().ok() ||
        !tree.Validate().ok() || !dawg.Validate().ok()) {
      return Fail("validation failed", s, "");
    }

    // LEL oracle.
    for (uint32_t i = 1; i <= length; ++i) {
      ++checks;
      uint32_t expected = naive::LongestEarlierSuffix(s, i);
      if (reference.LinkLel(i) != expected || compact.LinkLel(i) != expected) {
        return Fail("LEL mismatch at node " + std::to_string(i), s, "");
      }
    }

    // Occurrence sets across implementations.
    for (int trial = 0; trial < 30; ++trial) {
      ++checks;
      std::string pattern;
      if (trial % 2 == 0) {
        uint32_t start = static_cast<uint32_t>(rng.Below(length));
        pattern = s.substr(start, 1 + rng.Below(10));
      } else {
        for (uint32_t i = 0; i < 1 + rng.Below(8); ++i) {
          pattern.push_back(letters[rng.Below(sigma)]);
        }
      }
      auto expected = naive::FindAllOccurrences(s, pattern);
      if (reference.FindAll(pattern) != expected ||
          compact.FindAll(pattern) != expected ||
          tree.FindAll(pattern) != expected ||
          dawg.FindAll(pattern) != expected) {
        return Fail("occurrence mismatch", s, pattern);
      }
    }

    // Serialized-image robustness (PR 2).
    if (int rc = FuzzSerializedImage(rng, compact, s, &checks); rc != 0) {
      return rc;
    }

    // Sharded-family manifest robustness (PR 4); cheaper than the
    // other phases, so a third of the rounds is plenty.
    if (rounds % 3 == 0) {
      if (int rc = FuzzShardManifest(rng, s, fuzz_dir, &checks); rc != 0) {
        return rc;
      }
    }

    // Dynamic-family v2 manifest robustness (the lifecycle PR), on its
    // own third of the rounds.
    if (rounds % 3 == 1) {
      if (int rc = FuzzDynamicManifest(rng, s, fuzz_dir, &checks); rc != 0) {
        return rc;
      }
    }

    // Serving-wire envelope robustness; cheap enough for every round.
    if (int rc = FuzzWireFrames(rng, &checks); rc != 0) {
      return rc;
    }

    // Maximal matches: SPINE vs suffix tree vs oracle.
    std::string query;
    uint32_t query_len = 1 + static_cast<uint32_t>(rng.Below(100));
    for (uint32_t i = 0; i < query_len; ++i) {
      query.push_back(letters[rng.Below(sigma)]);
    }
    ++checks;
    auto expected = naive::MaximalMatches(s, query, 2);
    auto spine_matches = GenericFindMaximalMatches(compact, query, 2);
    auto st_matches = GenericStFindMaximalMatches(tree, query, 2, nullptr);
    if (spine_matches.size() != expected.size() ||
        st_matches.size() != expected.size()) {
      return Fail("maximal match count mismatch", s, query);
    }
    for (size_t k = 0; k < expected.size(); ++k) {
      if (spine_matches[k].query_pos != expected[k].query_pos ||
          spine_matches[k].length != expected[k].length ||
          st_matches[k].query_pos != expected[k].query_pos ||
          st_matches[k].length != expected[k].length) {
        return Fail("maximal match content mismatch", s, query);
      }
    }
  }

  std::printf("fuzz OK: %llu rounds, %llu checks in %.1f s (seed %llu)\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(checks),
              timer.ElapsedSeconds(), static_cast<unsigned long long>(seed));
  return 0;
}
