// Query planner for the approximate kinds (kMismatch, kEditDistance).
//
// Seed-and-extend rests on the pigeonhole principle: a window matching
// the pattern with at most k errors must contain at least one of k+1
// pattern pieces exactly (substitutions and indels both consume whole
// pieces). The planner decides, from index statistics alone, whether
// locating those exact seeds through the SPINE backbone beats a flat
// O(n*m) verification scan:
//
//   expected candidates per seed  ~  n / sigma^seed_len
//   seed path cost                ~  pieces * seed_len       (first ends)
//                                    + (n - first) * c_walk  (one scan)
//                                    + pieces * E[cand] * m  (verify)
//   scan path cost                ~  n * m        (mismatch; edit adds
//                                                  a band factor)
//
// The middle term is core/search.h's single backbone scan from the
// earliest piece's first occurrence to node n, serving every piece;
// c_walk is one label-window probe per node on packed backbones. It is
// a fixed O(n) floor with a small constant, so the decision compares
// only the expected candidates against the scan (seeds must promise
// under n / 4 of them).
//
// The planner is deliberately dependency-light (no core/ includes): it
// consumes plain numbers so the engine, the shard merger, benches and
// tests can all interrogate it without layering cycles — the
// surface-vs-execution split realm-core uses for its query planner.
//
// Determinism matters: the same inputs always produce the same plan, so
// differential tests can pin down which path produced an answer and
// bench runs can log the chosen seed length per point.

#ifndef SPINE_PLAN_PLANNER_H_
#define SPINE_PLAN_PLANNER_H_

#include <cstdint>
#include <utility>

namespace spine::plan {

// The execution strategy for one approximate query.
struct ApproxPlan {
  // True: locate `piece_count` exact seeds via the index backbone and
  // verify only around their occurrences. False: verify every text
  // window (the O(n*m) fallback every backend can run).
  bool use_seeds = false;
  // Number of pattern pieces (budget + 1) when seeding.
  uint32_t piece_count = 0;
  // Length of the SHORTEST piece — the planner's cost proxy, logged by
  // bench_approx per point.
  uint32_t seed_len = 0;

  bool operator==(const ApproxPlan&) const = default;
};

// Picks the strategy for a pattern of `pattern_len` with `budget`
// allowed errors against `text_len` indexed characters over an
// alphabet of `sigma` symbols. `backend_seedable` is false for
// backends that cannot run the backbone seed lookup (suffix trees, the
// naive oracle); they always get the scan plan.
ApproxPlan PlanApprox(uint64_t text_len, uint32_t sigma,
                      uint32_t pattern_len, uint32_t budget,
                      bool backend_seedable);

// Half-open [begin, end) of piece `piece` (0-based) when a pattern of
// `m` characters splits into `pieces` near-equal parts. The same
// arithmetic as the extender: begin = piece*m/pieces, so earlier
// pieces are never longer than later ones and the shortest piece has
// m/pieces characters.
std::pair<uint32_t, uint32_t> SeedBoundaries(uint32_t m, uint32_t pieces,
                                             uint32_t piece);

}  // namespace spine::plan

#endif  // SPINE_PLAN_PLANNER_H_
