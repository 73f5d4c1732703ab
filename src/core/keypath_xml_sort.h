// The paper's external-merge-sort baseline (Section 1): sort the document's
// key-path representation (Table 1) with external merge sort. A driver over
// NEXSORT's own key-path sort: the scan feeds every unit to one
// ExternalSubtreeSorter, whose final merge streams to the XML emitter.
#pragma once

#include <memory>

#include "cache/buffer_pool.h"
#include "core/common_options.h"
#include "core/subtree_sorter.h"
#include "env/sort_env.h"
#include "extmem/stream.h"
#include "sort/sorted_stream.h"
#include "util/status.h"

namespace nexsort {

/// Algorithm knobs only (all inherited); resource plumbing is SortEnvOptions.
struct KeyPathSortOptions : CommonSortOptions {};

struct KeyPathSortStats {
  SubtreeSortStats sort;  // the one key-path sort: runs and merge passes
};

/// One-document sorter running inside a SortEnv, like NexSorter. Complex
/// ordering criteria are not supported: the streaming key-path conversion
/// requires every ancestor's key to be known at its start tag.
class KeyPathXmlSorter {
 public:
  /// Run in a new session of `env` (must outlive the sorter) or `session`.
  KeyPathXmlSorter(SortEnv* env, KeyPathSortOptions options)
      : KeyPathXmlSorter(env->NewSession(), std::move(options)) {}
  KeyPathXmlSorter(SortEnv::Session session, KeyPathSortOptions options);

  /// Sort `input` (XML text) into `output` (XML text): SortStream + drain.
  [[nodiscard]] Status Sort(ByteSource* input, ByteSink* output) {
    ASSIGN_OR_RETURN(std::unique_ptr<SortedStream> stream, SortStream(input));
    return DrainTo(stream.get(), output);
  }

  /// Runs the scan and the merge passes, then returns a stream that pulls
  /// the final merge through the XML emitter. Single use, like Sort.
  [[nodiscard]] StatusOr<std::unique_ptr<SortedStream>> SortStream(
      ByteSource* input);

  const KeyPathSortStats& stats() const { return stats_; }
  CacheStats cache_stats() const { return session_.env()->cache_stats(); }
  ParallelStats parallel_stats() const { return session_.parallel_stats(); }

 private:
  class OutputStream;

  SortEnv::Session session_;
  KeyPathSortOptions options_;
  NameDictionary dictionary_;
  SubtreeSortContext context_;
  bool used_ = false;
  KeyPathSortStats stats_;
};

}  // namespace nexsort
