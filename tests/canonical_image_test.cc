// Canonical image bytes. Saving an opened compact or generalized image
// writes back exactly the bytes that were opened, on every open path.
// Images whose side-map records (fan-out spills, extribs) come in
// another order, such as images saved in hash-map order, still open,
// answer alike and save back canonically.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/rng.h"
#include "compact/generalized_compact.h"
#include "compact/serializer.h"
#include "core/adapters.h"
#include "core/query.h"
#include "core/registry.h"
#include "test_util.h"

namespace spine::test {
namespace {

using core::BackendRegistry;
using core::ParseOpenSpec;

constexpr const char* kOpenSpecs[] = {"heap", "mmap", "mmap-noverify"};

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string CompactBytes(const CompactSpineIndex& index) {
  std::ostringstream out;
  EXPECT_TRUE(SaveCompactSpineToStream(index, out).ok());
  return out.str();
}

// A saved image, the text it indexes (documents joined by the
// separator for a collection) and where its compact image starts.
struct Image {
  std::string name;
  std::string path;
  std::string bytes;
  std::string text;
  size_t compact_offset = 0;
};

Image DnaCompact(const ScopedTempDir& dir) {
  Image image{"dna", dir.File("dna.spine"), "", TestCorpus(30000, 11), 0};
  CompactSpineIndex index(Alphabet::Dna());
  EXPECT_TRUE(index.AppendString(image.text).ok());
  EXPECT_GT(index.extrib_count(), 1u);
  EXPECT_TRUE(SaveCompactSpine(index, image.path).ok());
  image.bytes = ReadBytes(image.path);
  return image;
}

Image ProteinCompact(const ScopedTempDir& dir) {
  Rng rng(2204);
  Image image{"protein", dir.File("protein.spine"), "",
              RandomProtein(rng, 6000), 0};
  CompactSpineIndex index(Alphabet::Protein());
  EXPECT_TRUE(index.AppendString(image.text).ok());
  EXPECT_GT(index.FanoutCounts()[4], 1u);  // fan-out spills
  EXPECT_GT(index.extrib_count(), 1u);
  EXPECT_TRUE(SaveCompactSpine(index, image.path).ok());
  image.bytes = ReadBytes(image.path);
  return image;
}

Image DnaCollection(const ScopedTempDir& dir) {
  Rng rng(60);
  Image image{"collection", dir.File("collection.spineg"), "", "", 0};
  GeneralizedCompactSpine index(Alphabet::Dna());
  for (int d = 0; d < 60; ++d) {
    const std::string doc =
        RandomDna(rng, 200 + static_cast<uint32_t>(rng.Below(800)));
    EXPECT_TRUE(index.AddString(doc, "doc-" + std::to_string(d)).ok());
    image.text += doc + GeneralizedCompactSpine::kSeparator;
  }
  EXPECT_GT(index.underlying().extrib_count(), 1u);
  EXPECT_TRUE(index.Save(image.path).ok());
  image.bytes = ReadBytes(image.path);
  // The embedded compact image closes the file.
  image.compact_offset =
      image.bytes.size() - CompactBytes(index.underlying()).size();
  return image;
}

// The bytes an opened image saves.
std::string Resave(const core::Index& index, const std::string& path) {
  if (const auto* compact =
          dynamic_cast<const core::CompactSpineAdapter*>(&index)) {
    EXPECT_TRUE(SaveCompactSpine(compact->backend(), path).ok());
  } else {
    const auto* generalized =
        dynamic_cast<const core::GeneralizedCompactAdapter*>(&index);
    if (generalized == nullptr) {
      ADD_FAILURE() << "not a compact image";
      return {};
    }
    EXPECT_TRUE(generalized->backend().Save(path).ok());
  }
  return ReadBytes(path);
}

// Reverses the record order inside the spill and extrib sections of the
// compact image at `base` and rewrites its CRC32C footer, giving the
// bytes of the same index saved from maps that iterate the other way.
std::string ReverseSideMaps(std::string image, size_t base) {
  const auto u64_at = [&image](size_t pos) {
    uint64_t value = 0;
    std::memcpy(&value, image.data() + pos, sizeof(value));
    return value;
  };
  const auto reverse_records = [&image](size_t begin,
                                        std::vector<size_t> sizes) {
    std::vector<std::string> records;
    size_t end = begin;
    for (const size_t size : sizes) {
      records.push_back(image.substr(end, size));
      end += size;
    }
    std::reverse(records.begin(), records.end());
    std::string reversed;
    for (const std::string& record : records) reversed += record;
    image.replace(begin, end - begin, reversed);
    return end;
  };
  // Magic, version, kind and size, padded; then the 8-aligned flat
  // tables, each a u64 count and its elements: CL words, LT words,
  // LELs, root ribs, the four RT classes and their four free lists.
  size_t pos = base + 24;
  for (const size_t element_bytes : {8, 4, 2, 4, 1, 1, 1, 1, 4, 4, 4, 4}) {
    pos = base + (pos - base + 7) / 8 * 8;
    pos += 8 + u64_at(pos) * element_bytes;
  }
  // Spill records: node, link, rib count and 7-byte ribs.
  std::vector<size_t> sizes;
  size_t at = pos + 8;
  for (uint64_t i = 0; i < u64_at(pos); ++i) {
    sizes.push_back(16 + 7 * u64_at(at + 8));
    at += sizes.back();
  }
  pos = reverse_records(pos + 8, sizes);
  // Extrib records: node and a 13-byte entry.
  sizes.assign(u64_at(pos), 17);
  reverse_records(pos + 8, sizes);
  const size_t footer = image.size() - sizeof(uint32_t);
  const uint32_t crc = Crc32c(image.data() + base, footer - base);
  std::memcpy(image.data() + footer, &crc, sizeof(crc));
  return image;
}

std::vector<Query> Queries(const std::string& text) {
  std::vector<Query> queries;
  for (size_t start = 0; start + 12 < text.size();
       start += text.size() / 25) {
    queries.push_back(Query::FindAll(text.substr(start, 6)));
    queries.push_back(Query::MatchingStats(text.substr(start, 12)));
  }
  return queries;
}

TEST(CanonicalImageTest, SaveOfAnOpenedImageIsItsBytes) {
  ScopedTempDir dir("canonical_resave");
  for (const Image& image :
       {DnaCompact(dir), ProteinCompact(dir), DnaCollection(dir)}) {
    for (const char* spec : kOpenSpecs) {
      const std::string tag = image.name + "/" + spec;
      auto opened =
          BackendRegistry::Default().Open(image.path, *ParseOpenSpec(spec));
      ASSERT_TRUE(opened.ok()) << tag << ": " << opened.status().ToString();
      EXPECT_TRUE(Resave(**opened, dir.File("resaved")) == image.bytes)
          << tag;
    }
  }
}

TEST(CanonicalImageTest, SideMapsInAnyOrderStillOpen) {
  ScopedTempDir dir("canonical_reordered");
  for (const Image& image :
       {DnaCompact(dir), ProteinCompact(dir), DnaCollection(dir)}) {
    const std::string reordered =
        ReverseSideMaps(image.bytes, image.compact_offset);
    ASSERT_EQ(reordered.size(), image.bytes.size());
    ASSERT_TRUE(reordered != image.bytes) << image.name;
    const std::string path = dir.File("reordered-" + image.name);
    WriteFile(path, reordered);

    auto canonical = BackendRegistry::Default().Open(image.path, {});
    ASSERT_TRUE(canonical.ok()) << canonical.status().ToString();
    const std::vector<Query> queries = Queries(image.text);
    for (const char* spec : kOpenSpecs) {
      const std::string tag = image.name + "/" + spec;
      auto opened = BackendRegistry::Default().Open(path, *ParseOpenSpec(spec));
      ASSERT_TRUE(opened.ok()) << tag << ": " << opened.status().ToString();
      EXPECT_TRUE((*opened)->VerifyStructure().ok()) << tag;
      for (const Query& query : queries) {
        const QueryResult want = (*canonical)->Execute(query);
        EXPECT_TRUE((*opened)->Execute(query).SameAnswer(want))
            << tag << ": " << query.pattern;
      }
      EXPECT_TRUE(Resave(**opened, dir.File("resaved")) == image.bytes)
          << tag;
    }
  }
}

// A clone of an image opened from another side-map order, extended,
// saves the bytes of a rebuild: Save, not Clone, fixes the order.
TEST(CanonicalImageTest, ReorderedImageExtendsToTheBytesOfARebuild) {
  ScopedTempDir dir("canonical_extend");
  const Image image = ProteinCompact(dir);
  const std::string path = dir.File("reordered.spine");
  WriteFile(path, ReverseSideMaps(image.bytes, 0));
  Rng rng(2205);
  const std::string tail = RandomProtein(rng, 3000);
  CompactSpineIndex rebuilt(Alphabet::Protein());
  ASSERT_TRUE(rebuilt.AppendString(image.text + tail).ok());

  Result<CompactSpineIndex> opened = LoadCompactSpine(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  CompactSpineIndex extended = opened->Clone();
  ASSERT_TRUE(extended.AppendString(tail).ok());
  EXPECT_TRUE(CompactBytes(extended) == CompactBytes(rebuilt));
}

// A heap open holds the whole image in one buffer its tables borrow
// from, so it reports the image's bytes on top of what an mmap open of
// the same file reports.
TEST(CanonicalImageTest, HeapOpenCountsTheImageBuffer) {
  ScopedTempDir dir("canonical_memory");
  for (const Image& image : {DnaCompact(dir), DnaCollection(dir)}) {
    auto heap = BackendRegistry::Default().Open(image.path, {});
    auto mapped =
        BackendRegistry::Default().Open(image.path, *ParseOpenSpec("mmap"));
    ASSERT_TRUE(heap.ok() && mapped.ok()) << image.name;
    EXPECT_GE((*heap)->MemoryBytes(), image.bytes.size()) << image.name;
    EXPECT_EQ((*heap)->MemoryBytes() - (*mapped)->MemoryBytes(),
              image.bytes.size())
        << image.name;
  }
}

}  // namespace
}  // namespace spine::test
