#include "service/sort_job.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "merge/batch_update.h"
#include "merge/structural_merge.h"
#include "sort/sorted_stream.h"

namespace nexsort {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Counts the bytes read through it into *bytes.
class CountingSource final : public ByteSource {
 public:
  CountingSource(ByteSource* inner, uint64_t* bytes)
      : inner_(inner), bytes_(bytes) {}

  [[nodiscard]] Status Read(char* buf, size_t n, size_t* out) override {
    RETURN_IF_ERROR(inner_->Read(buf, n, out));
    *bytes_ += *out;
    return Status::OK();
  }

 private:
  ByteSource* inner_;
  uint64_t* bytes_;
};

/// The job's output end: counts every chunk into *bytes and hands it to
/// the staging file and to the caller's sink, whichever are present.
class OutputSink final : public ByteSink {
 public:
  OutputSink(ByteSink* file, ByteSink* sink, uint64_t* bytes)
      : file_(file), sink_(sink), bytes_(bytes) {}

  [[nodiscard]] Status Append(std::string_view data) override {
    *bytes_ += data.size();
    if (file_ != nullptr) RETURN_IF_ERROR(file_->Append(data));
    if (sink_ != nullptr) RETURN_IF_ERROR(sink_->Append(data));
    return Status::OK();
  }

 private:
  ByteSink* file_;
  ByteSink* sink_;
  uint64_t* bytes_;
};

}  // namespace

Status SortJob::Run(SortEnv::Session session, SortJobResult* result) const {
  *result = SortJobResult();
  const Clock::time_point start = Clock::now();
  if (inputs.empty() || (kind != Kind::kMerge && inputs.size() != 1)) {
    return Status::InvalidArgument(
        "a merge job takes one or more inputs, any other job exactly one");
  }

  std::vector<std::unique_ptr<FileByteSource>> files;
  std::vector<CountingSource> counted;
  counted.reserve(inputs.size());
  std::vector<ByteSource*> sources;
  for (const SortJobInput& input : inputs) {
    ByteSource* source = input.source;
    if (!input.path.empty()) {
      ASSIGN_OR_RETURN(std::unique_ptr<FileByteSource> file,
                       FileByteSource::Open(input.path));
      files.push_back(std::move(file));
      source = files.back().get();
    }
    if (source == nullptr) {
      return Status::InvalidArgument("job input has no path and no source");
    }
    counted.emplace_back(source, &result->input_bytes);
    sources.push_back(&counted.back());
  }

  std::string staging;
  std::unique_ptr<FileByteSink> file;
  if (!output.path.empty()) {
    staging = output.staging_path.empty() ? output.path + ".staging"
                                          : output.staging_path;
    ASSIGN_OR_RETURN(file, FileByteSink::Open(staging));
  }
  OutputSink sink(file.get(), output.sink, &result->output_bytes);

  Status status;
  switch (kind) {
    case Kind::kSort: {
      NexSorter sorter(std::move(session), options);
      auto stream = sorter.SortStream(sources[0]);
      status = stream.status();
      if (status.ok()) {
        Clock::time_point first_chunk;
        status = DrainTo(stream.value().get(), &sink, &first_chunk);
        if (first_chunk != Clock::time_point()) {
          result->time_to_first_byte_ms = MsBetween(start, first_chunk);
        }
      }
      result->nexsort = sorter.stats();
      result->parallel = sorter.parallel_stats();
      break;
    }
    case Kind::kMerge: {
      // One streaming pass over pre-sorted inputs: no runs and no budget
      // blocks, so a merge job cancels only while queued.
      MergeOptions merge_options;
      merge_options.order = options.order;
      merge_options.tracer = session.tracer();
      status = StructuralMerge(sources, &sink, merge_options);
      break;
    }
    case Kind::kBatchUpdate: {
      BatchUpdateOptions update_options;
      update_options.order = options.order;
      status = ApplyBatchUpdates(sources[0], updates, std::move(session),
                                 &sink, update_options);
      break;
    }
  }

  if (file != nullptr) {
    Status closed = file->Close();
    if (status.ok()) status = closed;
    if (status.ok() && std::rename(staging.c_str(), output.path.c_str()) != 0) {
      status = Status::IOError("renaming staged output to " + output.path +
                               ": " + std::strerror(errno));
    }
    if (!status.ok()) std::remove(staging.c_str());
  }
  result->wall_ms = MsBetween(start, Clock::now());
  return status;
}

}  // namespace nexsort
