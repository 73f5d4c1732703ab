// SortedStream: pull-based sorted output (docs/RUN_FORMATION.md). Eager
// sorting APIs materialize the whole output before the caller sees byte
// one; a SortedStream instead hands out sorted bytes incrementally as the
// final merge / output traversal produces them, so a job (service/sort_job.h)
// streams its output to a file as it is produced and measures time to
// first byte as well as batch latency. Contract:
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

#include <chrono>
#include <string>
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

/// The sorters' output phases share this chunking: Next() fills a buffer
/// by calling Derived::Step() until the chunk reaches about kChunkTarget
/// bytes or Step() reports the end with EndSteps(), and runs
/// Derived::Complete() once, inside the Next() that follows the last step.
/// Errors are sticky. Derived (the final stream class, which makes Step and
/// Complete public) is called statically, so the per-unit loop costs no
/// indirect call.
template <typename Derived>
class ChunkedSortedStream : public SortedStream {
 public:
  [[nodiscard]] StatusOr<bool> Next(std::string_view* chunk) final {
    if (!status_.ok()) return status_;
    StatusOr<bool> more = Advance(chunk);
    if (!more.ok()) status_ = more.status();
    return more;
  }

 protected:
  ChunkedSortedStream() : sink_(&buffer_) {}
  ChunkedSortedStream(const ChunkedSortedStream&) = delete;  // sink_ -> buffer_
  ChunkedSortedStream& operator=(const ChunkedSortedStream&) = delete;

  /// The chunk being filled: where Step() writes its output.
  ByteSink* sink() { return &sink_; }

  /// What Step() returns when it has no output left.
  [[nodiscard]] Status EndSteps() {
    steps_done_ = true;
    return Status::OK();
  }

 private:
  /// Bounds how much work one Next() call batches; the emitters flush to
  /// the sink about a block at a time anyway.
  static constexpr size_t kChunkTarget = 4096;

  [[nodiscard]] StatusOr<bool> Advance(std::string_view* chunk) {
    Derived* stream = static_cast<Derived*>(this);
    if (done_) return false;
    buffer_.clear();
    while (!steps_done_ && buffer_.size() < kChunkTarget) {
      RETURN_IF_ERROR(stream->Step());
    }
    if (steps_done_ && !completed_) {
      RETURN_IF_ERROR(stream->Complete());
      completed_ = true;
    }
    if (buffer_.empty()) {
      done_ = true;
      return false;
    }
    *chunk = buffer_;
    return true;
  }

  std::string buffer_;
  StringByteSink sink_;
  Status status_;
  bool steps_done_ = false;  // Step() has no more output
  bool completed_ = false;   // Complete() has run
  bool done_ = false;        // the final false has been returned
};

/// Append every remaining chunk of `stream` to `output`: the one chunk
/// loop, behind every eager sort and every job. When `first_chunk` is
/// given, it receives the time the first chunk surfaced (left untouched
/// when the stream is empty).
[[nodiscard]] inline Status DrainTo(
    SortedStream* stream, ByteSink* output,
    std::chrono::steady_clock::time_point* first_chunk = nullptr) {
  std::string_view chunk;
  while (true) {
    ASSIGN_OR_RETURN(bool more, stream->Next(&chunk));
    if (!more) return Status::OK();
    if (first_chunk != nullptr) {
      *first_chunk = std::chrono::steady_clock::now();
      first_chunk = nullptr;
    }
    RETURN_IF_ERROR(output->Append(chunk));
  }
}

}  // namespace nexsort
