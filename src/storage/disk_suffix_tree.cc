#include "storage/disk_suffix_tree.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/check.h"
#include "common/serde.h"

namespace spine::storage {

namespace {
constexpr uint32_t kTreeMetaMagic = 0x53544d44;  // "STMD"
constexpr uint32_t kTreeMetaVersion = 2;         // v2: CRC32C footer
}  // namespace

DiskSuffixTree::DiskSuffixTree(const Alphabet& alphabet, PageFile file,
                               const Options& options)
    : alphabet_(alphabet),
      file_(std::move(file)),
      pool_(&file_, options.pool_frames, options.policy),
      text_(&pool_, &allocator_, alphabet.bits_per_code()),
      nodes_(&pool_, &allocator_) {}

Result<std::unique_ptr<DiskSuffixTree>> DiskSuffixTree::Create(
    const Alphabet& alphabet, const std::string& path,
    const Options& options) {
  Result<PageFile> file =
      PageFile::Create(path, options.sync_mode, options.backend);
  if (!file.ok()) return file.status();
  std::unique_ptr<DiskSuffixTree> tree(
      new DiskSuffixTree(alphabet, std::move(file).value(), options));
  tree->meta_path_ = path + ".meta";
  tree->nodes_.Append(Node{});  // root
  if (tree->pool_.has_error()) return tree->pool_.ConsumeError();
  return tree;
}

Status DiskSuffixTree::Checkpoint() {
  SPINE_RETURN_IF_ERROR(pool_.FlushAll());
  SPINE_RETURN_IF_ERROR(file_.Sync());
  std::ofstream out(meta_path_, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + meta_path_ + ": " +
                           std::strerror(errno));
  }
  serde::Writer w(out);
  w.Pod(kTreeMetaMagic);
  w.Pod(kTreeMetaVersion);
  w.Pod(static_cast<uint32_t>(alphabet_.kind()));
  w.Pod<uint64_t>(allocator_.allocated());
  w.Pod<uint64_t>(text_.size());
  w.Vec(text_.page_table());
  w.Pod<uint64_t>(nodes_.size());
  w.Vec(nodes_.page_table());
  w.Pod(active_node_);
  w.Pod(active_edge_);
  w.Pod(active_length_);
  w.Pod(remainder_);
  w.Pod(need_suffix_link_);
  w.WriteCrcFooter();
  out.flush();
  if (!out) {
    return Status::IoError("write failure on " + meta_path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<std::unique_ptr<DiskSuffixTree>> DiskSuffixTree::Open(
    const std::string& path, const Options& options) {
  std::ifstream in(path + ".meta", std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path + ".meta: " +
                           std::strerror(errno));
  }
  serde::Reader r(in);
  uint32_t magic = 0, version = 0, kind = 0;
  if (!r.Pod(&magic) || magic != kTreeMetaMagic) {
    return Status::Corruption("bad metadata magic in " + path + ".meta");
  }
  if (!r.Pod(&version) || version != kTreeMetaVersion) {
    return Status::Corruption("unsupported metadata version");
  }
  if (!r.Pod(&kind)) return Status::Corruption("bad alphabet kind");
  Result<Alphabet> alphabet = Alphabet::FromKindCode(kind);
  if (!alphabet.ok()) return alphabet.status();
  if (alphabet->kind() == Alphabet::Kind::kByte) {
    return Status::Corruption("bad alphabet kind");
  }
  Result<PageFile> file =
      PageFile::Open(path, options.sync_mode, options.backend);
  if (!file.ok()) return file.status();
  std::unique_ptr<DiskSuffixTree> tree(
      new DiskSuffixTree(*alphabet, std::move(file).value(), options));
  tree->meta_path_ = path + ".meta";

  auto corrupt = [&](const char* what) {
    return Status::Corruption(std::string("truncated metadata (") + what +
                              ") in " + path + ".meta");
  };
  uint64_t allocated = 0, size = 0;
  std::vector<uint64_t> table;
  if (!r.Pod(&allocated)) return corrupt("allocator");
  tree->allocator_.Restore(allocated);
  if (!r.Pod(&size) || !r.Vec(&table)) return corrupt("text");
  SPINE_RETURN_IF_ERROR(tree->text_.Restore(size, std::move(table)));
  if (!r.Pod(&size) || !r.Vec(&table)) return corrupt("nodes");
  SPINE_RETURN_IF_ERROR(tree->nodes_.Restore(size, std::move(table)));
  if (!r.Pod(&tree->active_node_) || !r.Pod(&tree->active_edge_) ||
      !r.Pod(&tree->active_length_) || !r.Pod(&tree->remainder_) ||
      !r.Pod(&tree->need_suffix_link_)) {
    return corrupt("construction state");
  }
  if (!r.VerifyCrcFooter()) {
    return Status::Corruption("metadata checksum mismatch in " + path +
                              ".meta");
  }
  if (tree->active_node_ >= tree->nodes_.size()) {
    return Status::Corruption("active node out of range");
  }
  if (tree->allocator_.allocated() != tree->file_.page_count()) {
    return Status::Corruption(
        path + ": metadata names " +
        std::to_string(tree->allocator_.allocated()) +
        " pages but the page file holds " +
        std::to_string(tree->file_.page_count()));
  }
  return tree;
}

uint32_t DiskSuffixTree::NewNode(uint32_t start, uint32_t end) {
  return static_cast<uint32_t>(
      nodes_.Append(Node{start, end, kRoot, kNoNode32, kNoNode32, kNoNode32}));
}

void DiskSuffixTree::AddChild(uint32_t parent, uint32_t child) {
  Node p = nodes_.Get(parent);
  Node ch = nodes_.Get(child);
  ch.next_sibling = p.first_child;
  p.first_child = child;
  nodes_.Set(child, ch);
  nodes_.Set(parent, p);
}

void DiskSuffixTree::ReplaceChild(uint32_t parent, uint32_t old_child,
                                  uint32_t new_child) {
  Node p = nodes_.Get(parent);
  Node oldn = nodes_.Get(old_child);
  if (p.first_child == old_child) {
    p.first_child = new_child;
    nodes_.Set(parent, p);
  } else {
    uint32_t cur = p.first_child;
    while (true) {
      if (pool_.has_error()) return;  // zeroed reads would loop forever
      Node n = nodes_.Get(cur);
      if (n.next_sibling == old_child) {
        n.next_sibling = new_child;
        nodes_.Set(cur, n);
        break;
      }
      SPINE_DCHECK(n.next_sibling != kNoNode32);
      cur = n.next_sibling;
    }
  }
  Node newn = nodes_.Get(new_child);
  newn.next_sibling = oldn.next_sibling;
  nodes_.Set(new_child, newn);
  oldn.next_sibling = kNoNode32;
  nodes_.Set(old_child, oldn);
}

uint32_t DiskSuffixTree::FindChild(uint32_t parent, Code c,
                                   SearchStats* stats) const {
  uint32_t child = nodes_.Get(parent).first_child;
  while (child != kNoNode32) {
    if (pool_.has_error()) return kNoNode32;  // zeroed links would cycle
    if (stats != nullptr) ++stats->nodes_checked;
    Node n = nodes_.Get(child);
    if (text_.Get(n.start) == c && !pool_.has_error()) return child;
    child = n.next_sibling;
  }
  return kNoNode32;
}

Status DiskSuffixTree::Append(char ch) {
  Code c = alphabet_.Encode(ch);
  if (c == kInvalidCode) {
    return Status::InvalidArgument(
        std::string("character '") + ch + "' is not in the " +
        alphabet_.name() + " alphabet");
  }
  ExtendWithCode(c);
  if (pool_.has_error()) return pool_.ConsumeError();
  return Status::OK();
}

Status DiskSuffixTree::AppendString(std::string_view s) {
  for (char ch : s) {
    SPINE_RETURN_IF_ERROR(Append(ch));
  }
  return Status::OK();
}

void DiskSuffixTree::ExtendWithCode(Code c) {
  text_.Append(c);
  const uint32_t pos = static_cast<uint32_t>(text_.size() - 1);
  need_suffix_link_ = kNoNode32;
  ++remainder_;

  auto add_suffix_link = [&](uint32_t node) {
    if (need_suffix_link_ != kNoNode32) {
      Node n = nodes_.Get(need_suffix_link_);
      n.suffix_link = node;
      nodes_.Set(need_suffix_link_, n);
    }
    need_suffix_link_ = node;
  };

  while (remainder_ > 0) {
    if (pool_.has_error()) return;  // bail; Append surfaces the latch
    if (active_length_ == 0) active_edge_ = pos;
    uint32_t child = FindChild(active_node_, text_.Get(active_edge_), nullptr);
    if (child == kNoNode32) {
      uint32_t leaf = NewNode(pos, kOpenEnd);
      Node leafn = nodes_.Get(leaf);
      leafn.suffix_index = pos + 1 - remainder_;
      nodes_.Set(leaf, leafn);
      AddChild(active_node_, leaf);
      add_suffix_link(active_node_);
    } else {
      uint32_t edge_len = EdgeLength(child);
      if (active_length_ >= edge_len) {
        active_edge_ += edge_len;
        active_length_ -= edge_len;
        active_node_ = child;
        continue;
      }
      Node childn = nodes_.Get(child);
      if (text_.Get(childn.start + active_length_) == c) {
        ++active_length_;
        add_suffix_link(active_node_);
        break;
      }
      uint32_t split = NewNode(childn.start, childn.start + active_length_);
      ReplaceChild(active_node_, child, split);
      childn = nodes_.Get(child);
      childn.start += active_length_;
      nodes_.Set(child, childn);
      AddChild(split, child);
      uint32_t leaf = NewNode(pos, kOpenEnd);
      Node leafn = nodes_.Get(leaf);
      leafn.suffix_index = pos + 1 - remainder_;
      nodes_.Set(leaf, leafn);
      AddChild(split, leaf);
      add_suffix_link(split);
    }
    --remainder_;
    if (active_node_ == kRoot && active_length_ > 0) {
      --active_length_;
      active_edge_ = pos - remainder_ + 1;
    } else if (active_node_ != kRoot) {
      active_node_ = nodes_.Get(active_node_).suffix_link;
    }
  }
}

bool DiskSuffixTree::Contains(std::string_view pattern,
                              SearchStats* stats) const {
  if (pattern.empty()) return true;
  uint32_t node = kRoot;
  size_t i = 0;
  while (i < pattern.size()) {
    if (pool_.has_error()) return false;  // caller consumes the latch
    Code c = alphabet_.Encode(pattern[i]);
    if (c == kInvalidCode) return false;
    uint32_t child = FindChild(node, c, stats);
    if (child == kNoNode32) return false;
    Node childn = nodes_.Get(child);
    uint32_t end = childn.end == kOpenEnd
                       ? static_cast<uint32_t>(text_.size())
                       : childn.end;
    for (uint32_t k = childn.start; k < end && i < pattern.size(); ++k, ++i) {
      Code pc = alphabet_.Encode(pattern[i]);
      if (pc == kInvalidCode || text_.Get(k) != pc) return false;
    }
    node = child;
  }
  return true;
}

std::vector<uint32_t> DiskSuffixTree::FindAll(std::string_view pattern,
                                              SearchStats* stats) const {
  std::vector<uint32_t> out;
  if (pattern.empty() || pattern.size() > text_.size()) return out;
  uint32_t node = kRoot;
  size_t i = 0;
  while (i < pattern.size()) {
    if (pool_.has_error()) return out;  // caller consumes the latch
    Code c = alphabet_.Encode(pattern[i]);
    if (c == kInvalidCode) return out;
    uint32_t child = FindChild(node, c, stats);
    if (child == kNoNode32) return out;
    Node childn = nodes_.Get(child);
    uint32_t end = childn.end == kOpenEnd
                       ? static_cast<uint32_t>(text_.size())
                       : childn.end;
    for (uint32_t k = childn.start; k < end && i < pattern.size(); ++k, ++i) {
      Code pc = alphabet_.Encode(pattern[i]);
      if (pc == kInvalidCode || text_.Get(k) != pc) return out;
    }
    node = child;
  }
  CollectLeaves(node, &out);
  // Occurrences covered only by still-implicit suffixes (see the
  // in-memory SuffixTree::FindAll).
  const uint32_t n = static_cast<uint32_t>(text_.size());
  const uint32_t m = static_cast<uint32_t>(pattern.size());
  for (uint32_t j = n - remainder_; j + m <= n && !pool_.has_error(); ++j) {
    bool match = true;
    for (uint32_t k = 0; k < m; ++k) {
      if (text_.Get(j + k) != alphabet_.Encode(pattern[k])) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(j);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void DiskSuffixTree::CollectLeaves(uint32_t id,
                                   std::vector<uint32_t>* out) const {
  Node root = nodes_.Get(id);
  if (root.first_child == kNoNode32) {
    if (root.suffix_index != kNoNode32) out->push_back(root.suffix_index);
    return;
  }
  std::vector<uint32_t> stack = {root.first_child};
  while (!stack.empty()) {
    if (pool_.has_error()) return;  // zeroed links would cycle
    uint32_t cur = stack.back();
    stack.pop_back();
    for (uint32_t id2 = cur; id2 != kNoNode32 && !pool_.has_error();) {
      Node n = nodes_.Get(id2);
      if (n.first_child == kNoNode32) {
        if (n.suffix_index != kNoNode32) out->push_back(n.suffix_index);
      } else {
        stack.push_back(n.first_child);
      }
      id2 = n.next_sibling;
    }
  }
}

}  // namespace spine::storage
