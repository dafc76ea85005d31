#include "compact/generalized_compact.h"

#include <algorithm>
#include <fstream>
#include <optional>

#include "common/check.h"
#include "common/serde.h"
#include "compact/serializer.h"
#include "core/matcher.h"
#include "storage/mmap_region.h"

namespace spine {

namespace {
constexpr uint32_t kGenMagic = 0x53504e47;  // "SPNG"
// v2: the outer header (boundaries + names) carries its own CRC32C
// footer, and a zero pad puts the embedded compact image at an
// 8-aligned file offset so the zero-copy loader can borrow from it.
constexpr uint32_t kGenVersion = 2;
}  // namespace

GeneralizedCompactSpine::GeneralizedCompactSpine(const Alphabet& alphabet)
    : user_alphabet_(alphabet), index_(Alphabet::Ascii()) {}

Status GeneralizedCompactSpine::AddString(std::string_view s,
                                          std::string name) {
  // Validate and canonicalize (the user alphabet may fold case; the
  // inner ASCII index is byte-exact).
  std::string canonical;
  canonical.reserve(s.size() + 1);
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == kSeparator) {
      return Status::InvalidArgument("string contains the separator");
    }
    Code code = user_alphabet_.Encode(s[i]);
    if (code == kInvalidCode) {
      return Status::InvalidArgument(
          "character at offset " + std::to_string(i) + " is not in the " +
          user_alphabet_.name() + " alphabet");
    }
    canonical.push_back(user_alphabet_.Decode(code));
  }
  SPINE_RETURN_IF_ERROR(index_.AppendString(canonical));
  Status status = index_.Append(kSeparator);
  SPINE_CHECK(status.ok());
  boundaries_.push_back(static_cast<uint32_t>(index_.size()));
  names_.push_back(name.empty() ? "string-" + std::to_string(names_.size())
                                : std::move(name));
  return Status::OK();
}

GeneralizedCompactSpine GeneralizedCompactSpine::Clone() const {
  GeneralizedCompactSpine copy(user_alphabet_);
  copy.index_ = index_.Clone();
  copy.boundaries_ = boundaries_;
  copy.names_ = names_;
  return copy;
}

uint32_t GeneralizedCompactSpine::StringLength(uint32_t id) const {
  SPINE_CHECK(id < boundaries_.size());
  uint32_t start = id == 0 ? 0 : boundaries_[id - 1];
  return boundaries_[id] - start - 1;  // minus the separator
}

std::string GeneralizedCompactSpine::StringText(uint32_t id) const {
  SPINE_CHECK(id < boundaries_.size());
  const uint32_t start = id == 0 ? 0 : boundaries_[id - 1];
  const uint32_t length = StringLength(id);
  std::string text;
  text.reserve(length);
  for (uint32_t i = 0; i < length; ++i) {
    text.push_back(index_.CharAt(start + i));
  }
  return text;
}

bool GeneralizedCompactSpine::MapPosition(uint32_t global, Hit* hit) const {
  auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), global);
  if (it == boundaries_.end()) return false;
  uint32_t id = static_cast<uint32_t>(it - boundaries_.begin());
  hit->string_id = id;
  hit->offset = global - (id == 0 ? 0 : boundaries_[id - 1]);
  return true;
}

namespace {

// Canonicalizes a query through the user alphabet; nullopt if any
// character is invalid (such a query can never match).
std::optional<std::string> Canonicalize(const Alphabet& alphabet,
                                        std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == GeneralizedCompactSpine::kSeparator) return std::nullopt;
    Code code = alphabet.Encode(c);
    if (code == kInvalidCode) return std::nullopt;
    out.push_back(alphabet.Decode(code));
  }
  return out;
}

}  // namespace

bool GeneralizedCompactSpine::Contains(std::string_view pattern) const {
  auto canonical = Canonicalize(user_alphabet_, pattern);
  return canonical.has_value() && index_.Contains(*canonical);
}

std::vector<GeneralizedCompactSpine::Hit> GeneralizedCompactSpine::FindAll(
    std::string_view pattern) const {
  std::vector<Hit> hits;
  auto canonical = Canonicalize(user_alphabet_, pattern);
  if (!canonical.has_value() || canonical->empty()) return hits;
  for (uint32_t global : index_.FindAll(*canonical)) {
    Hit hit;
    if (MapPosition(global, &hit)) hits.push_back(hit);
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.string_id != b.string_id ? a.string_id < b.string_id
                                      : a.offset < b.offset;
  });
  return hits;
}

std::vector<GeneralizedCompactSpine::CollectionMatch>
GeneralizedCompactSpine::MatchAgainst(std::string_view query,
                                      uint32_t min_len) const {
  std::vector<CollectionMatch> out;
  if (min_len == 0) return out;
  auto canonical = Canonicalize(user_alphabet_, query);
  if (!canonical.has_value()) return out;
  auto matches = GenericFindMaximalMatches(index_, *canonical, min_len);
  auto expanded = GenericCollectAllOccurrences(index_, matches);
  out.reserve(expanded.size());
  for (const MatchOccurrences& occ : expanded) {
    CollectionMatch match;
    match.query_pos = occ.match.query_pos;
    match.length = occ.match.length;
    for (uint32_t global : occ.data_positions) {
      Hit hit;
      if (MapPosition(global, &hit)) match.hits.push_back(hit);
    }
    std::sort(match.hits.begin(), match.hits.end(),
              [](const Hit& a, const Hit& b) {
                return a.string_id != b.string_id ? a.string_id < b.string_id
                                                  : a.offset < b.offset;
              });
    out.push_back(std::move(match));
  }
  return out;
}

Status GeneralizedCompactSpine::Save(const std::string& path,
                                     FileChecksum* written) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  serde::CrcStreambuf counted(file.rdbuf());
  std::ostream out(&counted);
  serde::Writer w(out);
  w.Pod(kGenMagic);
  w.Pod(kGenVersion);
  w.Pod(static_cast<uint32_t>(user_alphabet_.kind()));
  w.Vec(boundaries_);
  w.Pod<uint64_t>(names_.size());
  for (const std::string& name : names_) {
    w.Pod<uint32_t>(static_cast<uint32_t>(name.size()));
    w.Bytes(name.data(), name.size());
  }
  // Close the outer header with its own checksum, padded so the inner
  // image (self-checksummed) starts at an 8-aligned file offset.
  w.AlignForFooter8();
  w.WriteCrcFooter();
  SPINE_RETURN_IF_ERROR(SaveCompactSpineToStream(index_, out));
  out.flush();
  if (!out) return Status::IoError("write failure on " + path);
  if (written != nullptr) *written = counted.checksum();
  return Status::OK();
}

Result<GeneralizedCompactSpine> GeneralizedCompactSpine::Load(
    const std::string& path) {
  Result<storage::ImageBytes> image =
      storage::MapOrReadImage(path, /*map=*/false);
  if (!image.ok()) return image.status();
  Result<GeneralizedCompactSpine> loaded =
      LoadFromMemory(image->data, image->size, /*verify=*/true,
                     std::move(image->keepalive));
  if (!loaded.ok()) {
    return Status(loaded.status().code(),
                  path + ": " + loaded.status().message());
  }
  return loaded;
}

Result<GeneralizedCompactSpine> GeneralizedCompactSpine::LoadFromMemory(
    const uint8_t* data, uint64_t size, bool verify,
    std::shared_ptr<const void> keepalive) {
  serde::MapReader r(data, size, /*verify_crc=*/verify);
  uint32_t magic = 0, version = 0, kind = 0;
  if (!r.Pod(&magic) || magic != kGenMagic) {
    return Status::Corruption("bad generalized-index magic");
  }
  if (!r.Pod(&version) || version != kGenVersion) {
    return Status::Corruption("unsupported generalized-index version");
  }
  if (!r.Pod(&kind)) return Status::Corruption("bad alphabet kind");
  Result<Alphabet> alphabet = Alphabet::FromKindCode(kind);
  if (!alphabet.ok()) return alphabet.status();
  if (alphabet->kind() == Alphabet::Kind::kByte) {
    return Status::Corruption("bad alphabet kind");
  }
  // The outer header (boundaries and names) is parsed and copied.
  GeneralizedCompactSpine generalized(*alphabet);
  if (!r.Vec(&generalized.boundaries_)) {
    return Status::Corruption("truncated boundaries");
  }
  uint64_t name_count = 0;
  if (!r.Pod(&name_count) || name_count != generalized.boundaries_.size()) {
    return Status::Corruption("name/boundary count mismatch");
  }
  for (uint64_t i = 0; i < name_count; ++i) {
    uint32_t length = 0;
    if (!r.Pod(&length) || length > 4096) {
      return Status::Corruption("bad name length");
    }
    std::string name(length, '\0');
    if (length > 0 && !r.Bytes(name.data(), length)) {
      return Status::Corruption("truncated name");
    }
    generalized.names_.push_back(std::move(name));
  }
  if (!r.AlignForFooter8()) {
    return Status::Corruption("bad header padding");
  }
  if (!r.VerifyCrcFooter()) {
    return Status::Corruption("header checksum mismatch");
  }
  // The inner image starts here, at an 8-aligned offset by
  // construction; borrow it in place.
  uint64_t inner_start = r.offset();
  Result<CompactSpineIndex> inner = LoadCompactSpineFromMemory(
      data + inner_start, size - inner_start, verify, std::move(keepalive));
  if (!inner.ok()) return inner.status();
  if (inner->alphabet().kind() != Alphabet::Kind::kAscii) {
    return Status::Corruption("inner index alphabet mismatch");
  }
  if (!generalized.boundaries_.empty() &&
      generalized.boundaries_.back() != inner->size()) {
    return Status::Corruption("boundaries inconsistent with index size");
  }
  generalized.index_ = std::move(inner).value();
  return generalized;
}

}  // namespace spine
