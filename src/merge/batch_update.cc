#include "merge/batch_update.h"

#include <utility>

#include "extmem/stream.h"
#include "obs/tracer.h"
#include "util/status.h"

namespace nexsort {

Status ApplyBatchUpdates(ByteSource* base, std::string_view updates,
                         SortEnv* env, ByteSink* output,
                         const BatchUpdateOptions& options, MergeStats* stats) {
  return ApplyBatchUpdates(base, updates, env->NewSession(), output, options,
                           stats);
}

Status ApplyBatchUpdates(ByteSource* base, std::string_view updates,
                         SortEnv::Session session, ByteSink* output,
                         const BatchUpdateOptions& options, MergeStats* stats) {
  Tracer* tracer = session.tracer();
  // Step 1: sort the update batch by the base document's criterion.
  std::string sorted_updates;
  {
    ScopedSpan span(tracer, "sort_updates");
    NexSortOptions sort_options;
    sort_options.order = options.order;
    NexSorter sorter(std::move(session), std::move(sort_options));
    StringByteSource source(updates);
    StringByteSink sink(&sorted_updates);
    RETURN_IF_ERROR(sorter.Sort(&source, &sink));
  }

  // Step 2: one-pass merge with update semantics.
  MergeOptions merge_options;
  merge_options.order = options.order;
  merge_options.apply_update_ops = true;
  merge_options.op_attribute = options.op_attribute;
  merge_options.tracer = tracer;
  StringByteSource updates_source(sorted_updates);
  return StructuralMerge({base, &updates_source}, output, merge_options,
                         stats);
}

}  // namespace nexsort
