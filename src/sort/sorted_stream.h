// SortedStream: pull-based sorted output (docs/RUN_FORMATION.md). Eager
// sorting APIs materialize the whole output before the caller sees byte
// one; a SortedStream instead hands out sorted bytes incrementally as the
// final merge / output traversal produces them, so a serving layer
// (xmlsort --stream, nexsortd's stream job mode) measures time-to-first-
// byte instead of batch latency. Contract:
//
//  * Next() returns true and a non-empty chunk (valid until the next call)
//    while output remains, false exactly once at the end;
//  * the concatenation of all chunks is byte-identical to what the eager
//    API writes — streaming changes delivery, never content;
//  * completion work (final flush, metrics) happens inside the Next() that
//    returns false, so its errors surface to the caller;
//  * dropping the stream early (cancellation, error) releases every
//    resource through normal RAII unwind — no Finish call required.
#pragma once

#include <string_view>

#include "extmem/stream.h"
#include "util/status.h"

namespace nexsort {

/// Pull iterator over sorted output bytes.
class SortedStream {
 public:
  virtual ~SortedStream() = default;

  /// Produce the next chunk of sorted output. The view stays valid until
  /// the next call. Returns false when the stream is complete.
  [[nodiscard]] virtual StatusOr<bool> Next(std::string_view* chunk) = 0;
};

/// Append every remaining chunk of `stream` to `output`: the eager form of
/// a streaming sort.
[[nodiscard]] inline Status DrainTo(SortedStream* stream, ByteSink* output) {
  std::string_view chunk;
  while (true) {
    ASSIGN_OR_RETURN(bool more, stream->Next(&chunk));
    if (!more) return Status::OK();
    RETURN_IF_ERROR(output->Append(chunk));
  }
}

}  // namespace nexsort
