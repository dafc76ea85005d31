// The fan-out/merge core both shard families answer through.
//
// A family is a list of sources, each a SPINE index over part of the
// family's text, described as plain data:
//
//   index      the source's CompactSpineIndex (a ShardedIndex shard, a
//              DynamicFamily frozen shard) or SpineIndex (the
//              DynamicFamily memtable);
//   runs       the local positions the family owns, each run with its
//              family offset: one per core range of a ShardedIndex
//              shard, one per live visible document of a DynamicFamily
//              source. A local occurrence is *admitted* iff its start
//              lies in a run, and then maps to run offset + distance
//              into the run (a binary search, no callback);
//   clean      every occurrence the index holds is an occurrence in the
//              family text (a shard's overlap margin repeats its
//              neighbour's text; a tombstoned or not-yet-visible
//              document does not), so existence and matching
//              statistics need no admission, and its unadmitted
//              occurrences (the margin) follow its admitted ones, so
//              its first occurrence stands for all of them;
//   size       the index size the runs describe: an index that has
//              grown past it since (the memtable, appended to in place)
//              holds documents the family cannot see, and the core
//              treats it as dirty;
//   separator  the document separator the approximate kinds never
//              cross, if the source indexes separated documents.
//
// Sources come in family order: every admitted position of source i
// precedes every admitted position of source i + 1. Per kind:
//
//   contains   OR over sources, stopping at the first hit: a clean
//              source answers with GenericFindFirstEnd, a dirty one
//              with its first admitted GenericFindAll hit;
//   findall    per-source GenericFindAll, admitted, concatenated in
//              source order (hence ascending);
//   ms         the elementwise max of per-source matching statistics
//              when every source is clean (a matching substring of a
//              clean source occurs in the family); otherwise the
//              incremental scan over `contains`, valid because
//              ms[q+1] >= ms[q] - 1 over any string set;
//   match      derived from the merged statistics where ms[q] >=
//              min_len and ms[q-1] <= ms[q]; each match's first
//              occurrence is the first source's first admitted one (as
//              for contains), its expanded occurrences as for findall;
//   mismatch/  per-source core/approx.h generics with the source's
//   edit       separator, hits admitted by window start and
//              concatenated in source order.
//
// Admission by start is exact as long as every window starting in a
// run lies inside the source: ShardedIndex::Execute enforces that with
// its overlap-margin admission, and a DynamicFamily window never
// crosses its document's separator. The caller keeps its own admission
// (fences, margins, reserved bytes) and any lock the sources need.
//
// One logical query records one RecordQueryObs and, for the
// approximate kinds, one RecordApproxObs. shard.merge_us times each
// step that combines per-source answers once every source has
// answered: the admission and concatenation of occurrence and
// approximate hit lists, and the elementwise max of statistics. A
// fired token turns whatever the walks left into its verdict, never a
// partial kOk.

#ifndef SPINE_SHARD_FAN_OUT_H_
#define SPINE_SHARD_FAN_OUT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/cancel.h"
#include "compact/compact_spine.h"
#include "core/query.h"
#include "core/spine_index.h"
#include "obs/trace.h"

namespace spine::shard {

// Local positions [begin, end) of a source are family positions
// [offset, offset + end - begin).
struct SourceRun {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t offset = 0;
};

struct Source {
  std::variant<const CompactSpineIndex*, const SpineIndex*> index;
  std::vector<SourceRun> runs;  // ascending, disjoint
  bool clean = true;
  uint64_t size = 0;
  std::optional<char> separator;
};

// Answers `query` over `sources` (see the header note).
QueryResult ExecuteFanOut(std::span<const Source> sources, const Query& query,
                          obs::TraceContext* trace,
                          const CancelToken* cancel);

}  // namespace spine::shard

#endif  // SPINE_SHARD_FAN_OUT_H_
