// CommonSortOptions: algorithm-level knobs shared by every sorting entry
// point (NexSortOptions, KeyPathSortOptions inherit it). Deliberately small:
// resource plumbing — tracer, cache, parallelism, sort memory — is NOT here;
// it lives in SortEnvOptions (src/env/sort_env.h), which describes the
// execution environment a job runs in rather than what the job computes.
#pragma once

#include "core/order_spec.h"
#include "sort/run_formation.h"

namespace nexsort {

struct CommonSortOptions {
  /// Ordering criterion for every sibling list.
  OrderSpec order;

  /// Run-formation strategy for every external sort this job performs.
  /// Output bytes are identical under either policy; only run boundaries
  /// (and therefore merge-pass I/O) change.
  RunFormationPolicy run_formation = RunFormationPolicy::kQuicksortChunks;

  /// Depth-limited sorting (paper Section 3.2): sort children of elements
  /// at levels [1, depth_limit] only; 0 sorts head-to-toe.
  int depth_limit = 0;

  /// Compaction (Section 3.2): intern tag/attribute names as integers.
  bool use_dictionary = true;
};

}  // namespace nexsort
