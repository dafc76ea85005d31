// Tests for the compact (Section 5) SPINE layout: node-by-node
// equivalence with the reference implementation, search parity, label
// overflow handling, fan-out migration across rib tables, space
// accounting and the prefix-partitioning property.

#include "compact/compact_spine.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.h"
#include "compact/serializer.h"
#include "core/adapters.h"
#include "core/registry.h"
#include "kernel/kernel.h"
#include "core/spine_index.h"
#include "naive/naive_index.h"
#include "seq/generator.h"
#include "storage/mmap_region.h"
#include "test_util.h"

namespace spine {
namespace {

using spine::test::RandomString;

// Asserts that the compact index represents exactly the same logical
// structure as the reference index.
void ExpectEquivalent(const SpineIndex& ref, const CompactSpineIndex& compact) {
  ASSERT_EQ(ref.size(), compact.size());
  const NodeId n = static_cast<NodeId>(ref.size());
  for (NodeId i = 1; i <= n; ++i) {
    ASSERT_EQ(compact.LinkDest(i), ref.LinkDest(i)) << "node " << i;
    ASSERT_EQ(compact.LinkLel(i), ref.LinkLel(i)) << "node " << i;
  }
  for (NodeId i = 0; i <= n; ++i) {
    std::vector<CompactSpineIndex::RibView> got = compact.RibsAt(i);
    std::sort(got.begin(), got.end(),
              [](const auto& a, const auto& b) { return a.cl < b.cl; });
    std::vector<CompactSpineIndex::RibView> want;
    for (uint32_t c = 0; c < ref.alphabet().size(); ++c) {
      const SpineIndex::Rib* rib = ref.FindRib(i, static_cast<Code>(c));
      if (rib != nullptr) {
        want.push_back({static_cast<Code>(c), rib->dest, rib->pt});
      }
    }
    ASSERT_EQ(got.size(), want.size()) << "rib count at node " << i;
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].cl, want[k].cl) << "node " << i;
      EXPECT_EQ(got[k].dest, want[k].dest) << "node " << i;
      EXPECT_EQ(got[k].pt, want[k].pt) << "node " << i;
    }
    const SpineIndex::Extrib* ext = ref.FindExtrib(i);
    auto compact_ext = compact.ExtribAt(i);
    ASSERT_EQ(compact_ext.has_value(), ext != nullptr) << "node " << i;
    if (ext != nullptr) {
      EXPECT_EQ(compact_ext->dest, ext->dest) << "node " << i;
      EXPECT_EQ(compact_ext->pt, ext->pt) << "node " << i;
      EXPECT_EQ(compact_ext->prt, ext->prt) << "node " << i;
      EXPECT_EQ(compact_ext->parent_dest, ext->parent_dest) << "node " << i;
    }
  }
}

TEST(CompactSpineTest, EquivalentToReferenceOnPaperExample) {
  SpineIndex ref(Alphabet::Dna());
  CompactSpineIndex compact(Alphabet::Dna());
  ASSERT_TRUE(ref.AppendString("aaccacaaca").ok());
  ASSERT_TRUE(compact.AppendString("aaccacaaca").ok());
  ASSERT_TRUE(compact.Validate().ok());
  ExpectEquivalent(ref, compact);
}

struct EquivCase {
  uint32_t sigma;
  uint32_t length;
  uint64_t seed;
};

class CompactEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(CompactEquivalenceTest, StructureAndSearchMatchReference) {
  const EquivCase param = GetParam();
  Rng rng(param.seed);
  std::string s = RandomString(rng, param.length, param.sigma);
  Alphabet alphabet =
      param.sigma <= 4 ? Alphabet::Dna() : Alphabet::Protein();
  SpineIndex ref(alphabet);
  CompactSpineIndex compact(alphabet);
  ASSERT_TRUE(ref.AppendString(s).ok());
  ASSERT_TRUE(compact.AppendString(s).ok());
  Status valid = compact.Validate();
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  ExpectEquivalent(ref, compact);

  for (int trial = 0; trial < 150; ++trial) {
    std::string pattern;
    if (trial % 2 == 0) {
      uint32_t start = static_cast<uint32_t>(rng.Below(param.length));
      uint32_t len = 1 + static_cast<uint32_t>(rng.Below(
                             std::min<uint32_t>(16, param.length - start)));
      pattern = s.substr(start, len);
    } else {
      pattern = RandomString(rng, 1 + rng.Below(8), param.sigma);
    }
    ASSERT_EQ(compact.FindAll(pattern), ref.FindAll(pattern))
        << "string " << s << " pattern " << pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomStrings, CompactEquivalenceTest,
    ::testing::Values(EquivCase{2, 40, 71}, EquivCase{2, 150, 72},
                      EquivCase{2, 400, 73}, EquivCase{3, 200, 74},
                      EquivCase{4, 300, 75}, EquivCase{4, 1000, 76},
                      EquivCase{16, 400, 77}, EquivCase{19, 600, 78}),
    [](const ::testing::TestParamInfo<EquivCase>& info) {
      return "sigma" + std::to_string(info.param.sigma) + "_len" +
             std::to_string(info.param.length) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(CompactSpineTest, ProteinHighFanoutSpillsToBigEntries) {
  // A protein string engineered so one node accumulates many ribs: many
  // distinct characters each following the prefix "AA".
  std::string s;
  const std::string residues = "CDEFGHIKLMNPQRSTVWY";
  for (char r : residues) {
    s += "AA";
    s += r;
  }
  SpineIndex ref(Alphabet::Protein());
  CompactSpineIndex compact(Alphabet::Protein());
  ASSERT_TRUE(ref.AppendString(s).ok());
  ASSERT_TRUE(compact.AppendString(s).ok());
  ASSERT_TRUE(compact.Validate().ok());
  ExpectEquivalent(ref, compact);
  // Fan-out beyond 4 must exist (the node for prefix "AA"-context).
  EXPECT_GT(compact.FanoutCounts()[4], 0u);
}

TEST(CompactSpineTest, LabelOverflowBeyond16Bits) {
  // A run of 70,000 identical characters drives LEL up to 69,999, well
  // past the 16-bit label range; then a 'C' plants ribs with large PTs
  // along the whole link chain, and a repeat exercises their retrieval.
  constexpr uint32_t kRun = 70'000;
  std::string s(kRun, 'A');
  s += 'C';
  s += "AAAAAC";
  CompactSpineIndex compact(Alphabet::Dna());
  ASSERT_TRUE(compact.AppendString(s).ok());
  ASSERT_TRUE(compact.Validate().ok());
  EXPECT_GT(compact.max_lel(), 0xffffu);
  EXPECT_GT(compact.max_pt(), 0xffffu);
  // LEL values follow the run structure exactly.
  EXPECT_EQ(compact.LinkLel(kRun), kRun - 1);
  EXPECT_EQ(compact.LinkDest(kRun), kRun - 1);
  // Searches crossing the overflowed labels still work.
  EXPECT_TRUE(compact.Contains(std::string(kRun, 'A') + "C"));
  EXPECT_TRUE(compact.Contains("AAAAAC"));
  EXPECT_FALSE(compact.Contains(std::string(kRun + 1, 'A')));
  EXPECT_FALSE(compact.Contains("CC"));
  // The big-PT rib at the deep node is traversable at a deep pathlen.
  std::string deep = std::string(66'000, 'A') + "C";
  EXPECT_TRUE(compact.Contains(deep));
}

TEST(CompactSpineTest, FanoutMigrationAcrossRibTables) {
  // DNA string where some node gains ribs one at a time (RT1 -> RT2 ->
  // RT3), exercising entry migration and free-list recycling.
  std::string s = "TTATTCTTGTTT";  // after "TT": A, C, G, T follow
  SpineIndex ref(Alphabet::Dna());
  CompactSpineIndex compact(Alphabet::Dna());
  ASSERT_TRUE(ref.AppendString(s).ok());
  ASSERT_TRUE(compact.AppendString(s).ok());
  ASSERT_TRUE(compact.Validate().ok());
  ExpectEquivalent(ref, compact);
  auto counts = compact.FanoutCounts();
  uint64_t with_edges = counts[0] + counts[1] + counts[2] + counts[3];
  EXPECT_GT(with_edges, 0u);
}

TEST(CompactSpineTest, RejectsForeignCharacters) {
  CompactSpineIndex compact(Alphabet::Dna());
  EXPECT_FALSE(compact.Append('z').ok());
  EXPECT_EQ(compact.size(), 0u);
}

TEST(CompactSpineTest, SpaceAccountingIsPlausible) {
  seq::GeneratorOptions options;
  options.length = 200'000;
  options.seed = 5;
  std::string s = seq::GenerateSequence(Alphabet::Dna(), options);
  CompactSpineIndex compact(Alphabet::Dna());
  ASSERT_TRUE(compact.AppendString(s).ok());
  auto breakdown = compact.LogicalBytes();
  double per_char = breakdown.BytesPerChar(compact.size());
  // The paper's headline: < 12 bytes per indexed character. Leave a
  // little slack for the synthetic data's repeat profile.
  EXPECT_LT(per_char, 13.0) << per_char;
  EXPECT_GT(per_char, 6.0) << per_char;  // LT alone is 6 B/char
  // Logical size is a lower bound on the real allocation.
  EXPECT_LE(breakdown.Total(), compact.MemoryBytes());
}

TEST(CompactSpineTest, PrefixPartitioning) {
  // Section 2.7: the index of a prefix is the initial fragment of the
  // index — nodes <= k keep their links, and their ribs/extribs
  // restricted to destinations <= k are exactly the prefix's edges.
  Rng rng(321);
  std::string s = RandomString(rng, 300, 4);
  CompactSpineIndex full(Alphabet::Dna());
  ASSERT_TRUE(full.AppendString(s).ok());
  for (uint32_t k : {37u, 120u, 299u}) {
    CompactSpineIndex prefix(Alphabet::Dna());
    ASSERT_TRUE(prefix.AppendString(std::string_view(s).substr(0, k)).ok());
    for (NodeId i = 1; i <= k; ++i) {
      ASSERT_EQ(prefix.LinkDest(i), full.LinkDest(i)) << i;
      ASSERT_EQ(prefix.LinkLel(i), full.LinkLel(i)) << i;
    }
    for (NodeId i = 0; i <= k; ++i) {
      auto full_ribs = full.RibsAt(i);
      auto prefix_ribs = prefix.RibsAt(i);
      // Drop full-index ribs that extend beyond the prefix.
      full_ribs.erase(
          std::remove_if(full_ribs.begin(), full_ribs.end(),
                         [&](const auto& rib) { return rib.dest > k; }),
          full_ribs.end());
      auto by_cl = [](const auto& a, const auto& b) { return a.cl < b.cl; };
      std::sort(full_ribs.begin(), full_ribs.end(), by_cl);
      std::sort(prefix_ribs.begin(), prefix_ribs.end(), by_cl);
      ASSERT_EQ(prefix_ribs.size(), full_ribs.size()) << "node " << i;
      for (size_t r = 0; r < full_ribs.size(); ++r) {
        EXPECT_EQ(prefix_ribs[r].cl, full_ribs[r].cl);
        EXPECT_EQ(prefix_ribs[r].dest, full_ribs[r].dest);
        EXPECT_EQ(prefix_ribs[r].pt, full_ribs[r].pt);
      }
    }
  }
}

// Long patterns through the packed-label bulk comparison: >one-page
// (4 KiB) runs whose 2-bit DNA codes span many 64-bit words, and 5-bit
// protein codes that straddle word boundaries (64/5 is not integral, so
// every word boundary splits a code). Results must match the reference
// index and the text oracle under every dispatch level.
TEST(CompactSpineTest, LongPatternsStraddleWordBoundariesUnderEveryKernel) {
  struct Case {
    const Alphabet& alphabet;
    std::string text;
  };
  Rng rng(246);
  const Case cases[] = {
      {Alphabet::Dna(), spine::test::TestCorpus(12'000, /*seed=*/9)},
      {Alphabet::Protein(), RandomString(rng, 12'000, 19)},
  };
  for (const Case& c : cases) {
    CompactSpineIndex compact(c.alphabet);
    ASSERT_TRUE(compact.AppendString(c.text).ok());
    SpineIndex reference(c.alphabet);
    ASSERT_TRUE(reference.AppendString(c.text).ok());

    // Hit: spans the 4 KiB mark. Near miss: same, with the final
    // character flipped so the mismatch sits at the very tail of the
    // last comparison block.
    const std::string hit = c.text.substr(3'000, 4'097);
    std::string near_miss = hit;
    near_miss.back() = near_miss.back() == 'A' ? 'C' : 'A';
    const bool near_miss_present = c.text.find(near_miss) != std::string::npos;

    for (const kernel::Kind kind : kernel::SupportedKinds()) {
      ASSERT_TRUE(kernel::Force(kind).ok());
      const std::string tag =
          std::string(c.alphabet.name()) + "/" + kernel::KindName(kind);
      EXPECT_EQ(compact.FindFirstEnd(hit), reference.FindFirstEnd(hit)) << tag;
      EXPECT_EQ(compact.FindAll(hit), spine::test::OracleFindAll(c.text, hit))
          << tag;
      EXPECT_TRUE(compact.Contains(hit)) << tag;
      EXPECT_EQ(compact.Contains(near_miss), near_miss_present) << tag;
      EXPECT_EQ(compact.FindAll(near_miss),
                spine::test::OracleFindAll(c.text, near_miss))
          << tag;
    }
  }
  (void)kernel::ForceByName("auto");
}

TEST(SerializerTest, RoundTrip) {
  Rng rng(654);
  std::string s = RandomString(rng, 2000, 4);
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(s).ok());

  const std::string path = ::testing::TempDir() + "/spine_roundtrip.idx";
  Status save = SaveCompactSpine(index, path);
  ASSERT_TRUE(save.ok()) << save.ToString();

  Result<CompactSpineIndex> loaded = LoadCompactSpine(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), index.size());
  for (NodeId i = 1; i <= index.size(); ++i) {
    ASSERT_EQ(loaded->LinkDest(i), index.LinkDest(i));
    ASSERT_EQ(loaded->LinkLel(i), index.LinkLel(i));
  }
  // The index is self-contained: the string reconstructs from labels.
  for (uint64_t i = 0; i < index.size(); ++i) {
    ASSERT_EQ(loaded->CharAt(i), index.CharAt(i));
  }
  for (int trial = 0; trial < 50; ++trial) {
    uint32_t start = static_cast<uint32_t>(rng.Below(s.size() - 8));
    std::string pattern = s.substr(start, 1 + rng.Below(8));
    ASSERT_EQ(loaded->FindAll(pattern), index.FindAll(pattern));
  }
}

TEST(SerializerTest, RoundTripProteinWithBigEntries) {
  std::string s;
  const std::string residues = "CDEFGHIKLMNPQRSTVWY";
  for (char r : residues) {
    s += "AA";
    s += r;
  }
  CompactSpineIndex index(Alphabet::Protein());
  ASSERT_TRUE(index.AppendString(s).ok());
  const std::string path = ::testing::TempDir() + "/spine_protein.idx";
  ASSERT_TRUE(SaveCompactSpine(index, path).ok());
  Result<CompactSpineIndex> loaded = LoadCompactSpine(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->Contains("AAC"));
  EXPECT_TRUE(loaded->Contains("CAAD"));
  EXPECT_FALSE(loaded->Contains("CC"));
}

TEST(SerializerTest, RejectsCorruptFiles) {
  const std::string path = ::testing::TempDir() + "/spine_bad.idx";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "this is not an index";
  }
  Result<CompactSpineIndex> loaded = LoadCompactSpine(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(LoadCompactSpine("/nonexistent/path.idx").ok());
}

TEST(SerializerTest, RejectsTruncatedFiles) {
  std::string s = "ACGTACGTACGGTA";
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(s).ok());
  const std::string path = ::testing::TempDir() + "/spine_trunc.idx";
  ASSERT_TRUE(SaveCompactSpine(index, path).ok());
  // Truncate the file to half.
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    contents = buf.str();
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  Result<CompactSpineIndex> loaded = LoadCompactSpine(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// Every corruption class returns kCorruption through a clean Status —
// the loader must never abort or throw (PR 2 satellite).
class SerializerCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CompactSpineIndex index(Alphabet::Dna());
    ASSERT_TRUE(index.AppendString("ACGTACGGTACGTTACGATT").ok());
    std::ostringstream out;
    ASSERT_TRUE(SaveCompactSpineToStream(index, out).ok());
    image_ = out.str();
  }

  // A heap open: the bytes in an 8-aligned buffer, parsed in place.
  StatusCode LoadCodeFor(const std::string& bytes) {
    std::vector<uint64_t> buffer(bytes.size() / 8 + 1);
    std::memcpy(buffer.data(), bytes.data(), bytes.size());
    Result<CompactSpineIndex> loaded = LoadCompactSpineFromMemory(
        reinterpret_cast<const uint8_t*>(buffer.data()), bytes.size(),
        /*verify=*/true, nullptr);
    return loaded.ok() ? StatusCode::kOk : loaded.status().code();
  }

  std::string image_;
};

TEST_F(SerializerCorruptionTest, BadMagic) {
  std::string bad = image_;
  bad[0] = static_cast<char>(bad[0] ^ 0xff);
  EXPECT_EQ(LoadCodeFor(bad), StatusCode::kCorruption);
}

TEST_F(SerializerCorruptionTest, WrongVersion) {
  std::string bad = image_;
  bad[4] = static_cast<char>(bad[4] + 1);  // version field follows magic
  EXPECT_EQ(LoadCodeFor(bad), StatusCode::kCorruption);
}

TEST_F(SerializerCorruptionTest, TruncatedAtEveryPrefix) {
  // Every truncation point fails cleanly, including the empty file.
  for (size_t len = 0; len < image_.size(); len += 7) {
    EXPECT_EQ(LoadCodeFor(image_.substr(0, len)), StatusCode::kCorruption)
        << "truncated to " << len << " of " << image_.size();
  }
}

TEST_F(SerializerCorruptionTest, SingleBitPayloadFlipCaughtByChecksum) {
  // Flip one bit in every byte position past the header; the image
  // CRC32C footer guarantees any single-bit error is rejected.
  for (size_t pos = 8; pos < image_.size(); pos += 11) {
    std::string bad = image_;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x08);
    EXPECT_EQ(LoadCodeFor(bad), StatusCode::kCorruption)
        << "bit flip at byte " << pos << " was not rejected";
  }
}

// --- zero-copy mmap open path (PR 8) ----------------------------------------

// Loads `bytes` through the borrow-from-mapping deserializer (written
// to a file and mapped, so the data is page-aligned exactly as the
// registry's mmap open sees it) and returns the verdict code.
StatusCode MmapLoadCodeFor(const std::string& bytes, const std::string& path) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto region = storage::MmapRegion::Map(path);
  if (!region.ok()) return region.status().code();
  Result<CompactSpineIndex> loaded = LoadCompactSpineFromMemory(
      (*region)->data(), (*region)->size(), /*verify=*/true, *region);
  return loaded.ok() ? StatusCode::kOk : loaded.status().code();
}

// The identical-verdict property the image-mode fuzzer leans on: for
// any mutation of a valid image — truncations at every prefix, bit
// flips through header, payload AND the CRC footer itself — the mmap
// path returns exactly the verdict the heap path returns.
TEST_F(SerializerCorruptionTest, MmapVerdictMatchesHeapOnEveryMutation) {
  const std::string path =
      ::testing::TempDir() + "/spine_mmap_verdict.idx";
  // The pristine image loads on both paths.
  ASSERT_EQ(LoadCodeFor(image_), StatusCode::kOk);
  ASSERT_EQ(MmapLoadCodeFor(image_, path), StatusCode::kOk);
  for (size_t len = 0; len < image_.size(); len += 5) {
    const std::string bad = image_.substr(0, len);
    EXPECT_EQ(MmapLoadCodeFor(bad, path), LoadCodeFor(bad))
        << "verdicts diverge on truncation to " << len;
  }
  for (size_t pos = 0; pos < image_.size(); pos += 9) {
    std::string bad = image_;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x04);
    EXPECT_EQ(MmapLoadCodeFor(bad, path), LoadCodeFor(bad))
        << "verdicts diverge on bit flip at byte " << pos;
  }
  // The footer specifically: flipping any of the last 4 bytes breaks
  // the stored CRC, and both paths must say kCorruption.
  for (size_t i = 1; i <= 4; ++i) {
    std::string bad = image_;
    bad[bad.size() - i] = static_cast<char>(bad[bad.size() - i] ^ 0xff);
    EXPECT_EQ(LoadCodeFor(bad), StatusCode::kCorruption);
    EXPECT_EQ(MmapLoadCodeFor(bad, path), StatusCode::kCorruption);
  }
}

// Trailing garbage after the footer is tolerated identically (the
// shard loader relies on this when images are CRC-pinned by size).
TEST_F(SerializerCorruptionTest, MmapToleratesTrailingBytesLikeHeap) {
  const std::string path = ::testing::TempDir() + "/spine_mmap_trail.idx";
  std::string padded = image_ + std::string(13, '\0');
  EXPECT_EQ(LoadCodeFor(padded), StatusCode::kOk);
  EXPECT_EQ(MmapLoadCodeFor(padded, path), StatusCode::kOk);
}

// mmap-noverify still rejects images whose geometry is wrong (bounds
// checks are never skipped), via the registry's open path.
// Byte offsets of the flat tables in a saved compact image: each is an
// 8-aligned u64 element count followed by the elements.
struct ImageTables {
  size_t lt_word = 0;
  std::array<size_t, 4> rt = {};
  std::array<size_t, 4> rt_free = {};
};

ImageTables FindTables(const std::string& image) {
  ImageTables tables;
  size_t pos = 24;  // magic, version, kind, size, pad
  const auto skip = [&](size_t element_bytes) {
    pos = (pos + 7) / 8 * 8;
    const size_t at = pos;
    uint64_t count = 0;
    std::memcpy(&count, image.data() + pos, sizeof(count));
    pos += 8 + count * element_bytes;
    return at;
  };
  skip(8);  // CL words
  tables.lt_word = skip(4);
  skip(2);  // LEL
  skip(4);  // root ribs
  for (size_t k = 0; k < 4; ++k) tables.rt[k] = skip(1);
  for (size_t k = 0; k < 4; ++k) tables.rt_free[k] = skip(4);
  return tables;
}

// The checks Append relies on to stay in bounds on an image nothing else
// verified: every rib points downstream and every free RT slot lies in
// its table. Each fault is caught by Validate() alone (the unverified
// memory load skips it and the checksum).
TEST(SerializerTest, ValidateRejectsUpstreamRibsAndStrayFreeSlots) {
  Rng rng(404);
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(RandomString(rng, 3000, 4)).ok());
  std::ostringstream out;
  ASSERT_TRUE(SaveCompactSpineToStream(index, out).ok());
  const std::string image = out.str();
  const ImageTables tables = FindTables(image);

  const auto validate = [](const std::string& bytes) {
    std::vector<uint64_t> buffer(bytes.size() / 8 + 1);
    std::memcpy(buffer.data(), bytes.data(), bytes.size());
    Result<CompactSpineIndex> loaded = LoadCompactSpineFromMemory(
        reinterpret_cast<const uint8_t*>(buffer.data()), bytes.size(),
        /*verify=*/false, nullptr);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? loaded->Validate() : loaded.status();
  };
  ASSERT_TRUE(validate(image).ok());

  // The first class-1 node's rib, pointed back at the node itself.
  std::string upstream = image;
  uint32_t node = 1;
  uint32_t word = 0;
  for (;; ++node) {
    ASSERT_LE(node, index.size());
    std::memcpy(&word, image.data() + tables.lt_word + 8 + 4 * node, 4);
    if ((word >> 29) == 1) break;
  }
  const size_t rib = tables.rt[0] + 8 + (word & ((1u << 27) - 1)) * 11 + 4;
  std::memcpy(upstream.data() + rib, &node, 4);
  const Status upstream_status = validate(upstream);
  EXPECT_EQ(upstream_status.code(), StatusCode::kCorruption);
  EXPECT_NE(upstream_status.message().find("rib not downstream"),
            std::string::npos)
      << upstream_status.ToString();

  // A free RT1 slot one past the table.
  uint64_t free_slots = 0;
  std::memcpy(&free_slots, image.data() + tables.rt_free[0], 8);
  ASSERT_GT(free_slots, 0u);  // class 1 -> 2 migrations freed RT1 slots
  uint64_t rt1_bytes = 0;
  std::memcpy(&rt1_bytes, image.data() + tables.rt[0], 8);
  std::string stray = image;
  const uint32_t past = static_cast<uint32_t>(rt1_bytes / 11);
  std::memcpy(stray.data() + tables.rt_free[0] + 8, &past, 4);
  const Status stray_status = validate(stray);
  EXPECT_EQ(stray_status.code(), StatusCode::kCorruption);
  EXPECT_NE(stray_status.message().find("free slot"), std::string::npos)
      << stray_status.ToString();
}

TEST(SerializerTest, MmapNoverifySkipsChecksumButKeepsBounds) {
  Rng rng(991);
  std::string s = RandomString(rng, 1200, 4);
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(s).ok());
  const std::string path = ::testing::TempDir() + "/spine_noverify.idx";
  ASSERT_TRUE(SaveCompactSpine(index, path).ok());

  Result<core::OpenOptions> noverify = core::ParseOpenSpec("mmap-noverify");
  ASSERT_TRUE(noverify.ok());
  auto opened = core::BackendRegistry::Default().Open(path, *noverify);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  QueryResult result = (*opened)->Execute(Query::FindAll(s.substr(30, 6)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.hits.size(),
            spine::test::OracleFindAll(s, s.substr(30, 6)).size());

  // A truncated image still fails cleanly without the checksum pass.
  const std::string short_path =
      ::testing::TempDir() + "/spine_noverify_short.idx";
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    std::ofstream out(short_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }
  auto truncated =
      core::BackendRegistry::Default().Open(short_path, *noverify);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);
}

// The shrink race: artifact validated at open, file truncated while
// the index is live. The next query and the next verify both surface a
// clean kIoError from the mapping fence — never SIGBUS, never a wrong
// answer.
TEST(SerializerTest, MmapShrinkBetweenOpenAndQueryIsCleanIoError) {
  Rng rng(313);
  std::string s = RandomString(rng, 4000, 4);
  CompactSpineIndex index(Alphabet::Dna());
  ASSERT_TRUE(index.AppendString(s).ok());
  const std::string path = ::testing::TempDir() + "/spine_shrink.idx";
  ASSERT_TRUE(SaveCompactSpine(index, path).ok());

  Result<core::OpenOptions> mmap = core::ParseOpenSpec("mmap");
  ASSERT_TRUE(mmap.ok());
  auto opened = core::BackendRegistry::Default().Open(path, *mmap);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Query query = Query::FindAll(s.substr(100, 8));
  ASSERT_TRUE((*opened)->Execute(query).ok());

  std::filesystem::resize_file(path, 64);
  QueryResult after = (*opened)->Execute(query);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status_code, StatusCode::kIoError);
  Status verify = (*opened)->VerifyStructure();
  ASSERT_FALSE(verify.ok());
  EXPECT_EQ(verify.code(), StatusCode::kIoError);
  // The error is a verdict, not a latch: asking again gives the same
  // clean answer (no crash, no stale success).
  EXPECT_EQ((*opened)->Execute(query).status_code, StatusCode::kIoError);
}

}  // namespace
}  // namespace spine
