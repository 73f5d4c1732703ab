// SortJob: one sort, merge or batch-update job, from its inputs to its
// output. It is the one job path: `xmlsort` runs a SortJob in a session of
// the env it built, `nexsortd` runs one per dispatched request in the
// session its scheduler made (docs/ARCHITECTURE.md, "One job").
//
// Every input and the output is either a file path or a caller-owned
// ByteSource / ByteSink. A path input is streamed from the file while the
// job runs, so nothing holds the document. A path output is written chunk
// by chunk to a staging file, which is renamed onto the path when the job
// succeeds and removed when it fails: a failed job leaves whatever was at
// the path untouched.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/nexsort.h"
#include "env/sort_env.h"
#include "extmem/stream.h"
#include "parallel/parallel.h"
#include "util/status.h"

namespace nexsort {

/// One input document: a file read when the job runs, or else a source.
struct SortJobInput {
  std::string path;
  ByteSource* source = nullptr;  // not owned; used when path is empty
};

/// Where the job's output goes: a file, a sink, or both (the sink then
/// sees every chunk the file gets).
struct SortJobOutput {
  std::string path;
  /// Where the file is written before the rename; empty means
  /// "<path>.staging", beside it. Must be on the path's file system.
  std::string staging_path;
  ByteSink* sink = nullptr;  // not owned
};

struct SortJobResult {
  /// Sort jobs: milliseconds from the job's start to its first sorted
  /// chunk; < 0 for other kinds and for empty output.
  double time_to_first_byte_ms = -1;
  double wall_ms = 0;
  uint64_t input_bytes = 0;  // read from every input
  uint64_t output_bytes = 0;
  NexSortStats nexsort;      // sort jobs only
  ParallelStats parallel;    // sort jobs only
};

struct SortJob {
  enum class Kind { kSort, kMerge, kBatchUpdate };
  Kind kind = Kind::kSort;

  /// The sort's options. Merge and batch-update jobs use only `order`.
  NexSortOptions options;

  /// Sort and batch-update jobs: exactly one (the document, or the base).
  /// Merge jobs: one or more documents already sorted by `order`, in merge
  /// order.
  std::vector<SortJobInput> inputs;

  /// Batch-update jobs: the updates document.
  std::string_view updates;

  SortJobOutput output;

  /// Run the job in `session`, filling *result. Single use of the session;
  /// the job object itself may run again.
  [[nodiscard]] Status Run(SortEnv::Session session,
                           SortJobResult* result) const;
};

}  // namespace nexsort
