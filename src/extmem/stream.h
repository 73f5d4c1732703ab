// Buffered sequential byte streams over a BlockDevice, used to store and
// scan XML documents in external memory. A document occupies a ByteRange
// (a contiguous block extent); reading it through BlockStreamReader counts
// one I/O per block, which is the paper's "reading the input" cost O(N/B).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "util/status.h"

namespace nexsort {

/// Contiguous extent of bytes on a device, starting at a block boundary.
struct ByteRange {
  uint64_t first_block = 0;
  uint64_t byte_size = 0;
};

/// Minimal pull-based byte source; implemented by stream/run readers and by
/// in-memory strings so parsers are storage-agnostic.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Read up to `n` bytes into `buf`; *out receives the count (0 at EOF).
  [[nodiscard]] virtual Status Read(char* buf, size_t n, size_t* out) = 0;
};

/// ByteSource over an in-memory string (no I/O accounting).
class StringByteSource final : public ByteSource {
 public:
  explicit StringByteSource(std::string_view data) : data_(data) {}

  [[nodiscard]] Status Read(char* buf, size_t n, size_t* out) override;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Minimal push-based byte sink; implemented by stream/run writers and by
/// in-memory strings so serializers are storage-agnostic.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  [[nodiscard]] virtual Status Append(std::string_view data) = 0;
};

/// ByteSink appending to an in-memory string.
class StringByteSink final : public ByteSink {
 public:
  explicit StringByteSink(std::string* out) : out_(out) {}

  [[nodiscard]] Status Append(std::string_view data) override {
    out_->append(data);
    return Status::OK();
  }

 private:
  std::string* out_;
};

/// ByteSource over a file, read sequentially as the caller pulls (no I/O
/// accounting: documents are ordinary files, working storage is not).
class FileByteSource final : public ByteSource {
 public:
  /// Fails with IOError "cannot open <path>" when the file cannot be read.
  [[nodiscard]] static StatusOr<std::unique_ptr<FileByteSource>> Open(
      const std::string& path);
  ~FileByteSource() override { std::fclose(file_); }

  FileByteSource(const FileByteSource&) = delete;
  FileByteSource& operator=(const FileByteSource&) = delete;

  [[nodiscard]] Status Read(char* buf, size_t n, size_t* out) override;

  /// The file's size when it was opened.
  uint64_t size() const { return size_; }

 private:
  FileByteSource(std::FILE* file, uint64_t size) : file_(file), size_(size) {}

  std::FILE* file_;
  uint64_t size_;
};

/// ByteSink writing a file from its start (created or truncated), through
/// a 64 KiB buffer. Close() flushes and reports the last write error; a
/// sink destroyed unclosed closes without reporting.
class FileByteSink final : public ByteSink {
 public:
  [[nodiscard]] static StatusOr<std::unique_ptr<FileByteSink>> Open(
      const std::string& path);
  ~FileByteSink() override;

  FileByteSink(const FileByteSink&) = delete;
  FileByteSink& operator=(const FileByteSink&) = delete;

  [[nodiscard]] Status Append(std::string_view data) override;
  [[nodiscard]] Status Close();

 private:
  FileByteSink(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_;  // null once closed
  std::string path_;
};

/// Read the whole file at `path` into *out (IOError "cannot open <path>"
/// when it cannot be read).
[[nodiscard]] Status ReadFile(const std::string& path, std::string* out);

/// Appends bytes to a fresh extent on a device; one block buffered.
class BlockStreamWriter final : public ByteSink {
 public:
  BlockStreamWriter(BlockDevice* device, MemoryBudget* budget,
                    IoCategory category);

  const Status& init_status() const { return init_status_; }

  [[nodiscard]] Status Append(std::string_view data) override;

  /// Flush the final partial block and return the written extent.
  [[nodiscard]] Status Finish(ByteRange* range);

  uint64_t bytes_written() const { return byte_size_; }

 private:
  BlockDevice* device_;
  const IoCategory category_;
  BudgetReservation reservation_;
  Status init_status_;

  bool started_ = false;
  bool finished_ = false;
  uint64_t first_block_ = 0;
  uint64_t next_block_ = 0;
  uint64_t byte_size_ = 0;
  std::string buffer_;
};

/// Reads a ByteRange sequentially; one block buffered.
class BlockStreamReader final : public ByteSource {
 public:
  BlockStreamReader(BlockDevice* device, MemoryBudget* budget, ByteRange range,
                    IoCategory category);

  const Status& init_status() const { return init_status_; }

  [[nodiscard]] Status Read(char* buf, size_t n, size_t* out) override;

  uint64_t bytes_remaining() const { return range_.byte_size - position_; }

 private:
  BlockDevice* device_;
  const IoCategory category_;
  const ByteRange range_;
  BudgetReservation reservation_;
  Status init_status_;

  uint64_t position_ = 0;   // bytes consumed
  std::string buffer_;      // current block contents
  uint64_t buffer_start_ = UINT64_MAX;  // byte offset buffer_ begins at
};

/// Convenience: copy a whole string into a fresh extent on `device`.
[[nodiscard]] StatusOr<ByteRange> StoreBytes(BlockDevice* device, MemoryBudget* budget,
                               std::string_view data,
                               IoCategory category = IoCategory::kOther);

/// Convenience: read a whole extent back into a string.
[[nodiscard]] StatusOr<std::string> LoadBytes(BlockDevice* device, MemoryBudget* budget,
                                ByteRange range,
                                IoCategory category = IoCategory::kOther);

}  // namespace nexsort
