#include "extmem/stream.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/status.h"

namespace nexsort {

Status StringByteSource::Read(char* buf, size_t n, size_t* out) {
  size_t take = std::min(n, data_.size() - pos_);
  std::memcpy(buf, data_.data() + pos_, take);
  pos_ += take;
  *out = take;
  return Status::OK();
}

StatusOr<std::unique_ptr<FileByteSource>> FileByteSource::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  struct stat st{};
  if (file != nullptr &&
      (::fstat(::fileno(file), &st) != 0 || S_ISDIR(st.st_mode))) {
    std::fclose(file);
    file = nullptr;
  }
  if (file == nullptr) return Status::IOError("cannot open " + path);
  return std::unique_ptr<FileByteSource>(
      new FileByteSource(file, static_cast<uint64_t>(st.st_size)));
}

Status FileByteSource::Read(char* buf, size_t n, size_t* out) {
  *out = std::fread(buf, 1, n, file_);
  if (*out < n && std::ferror(file_)) {
    return Status::IOError(std::string("reading input: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status ReadFile(const std::string& path, std::string* out) {
  ASSIGN_OR_RETURN(std::unique_ptr<FileByteSource> file,
                   FileByteSource::Open(path));
  out->resize(file->size());
  size_t got = 0;
  RETURN_IF_ERROR(file->Read(out->data(), out->size(), &got));
  out->resize(got);
  return Status::OK();
}

StatusOr<std::unique_ptr<FileByteSink>> FileByteSink::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::setvbuf(file, nullptr, _IOFBF, 64 * 1024);
  return std::unique_ptr<FileByteSink>(new FileByteSink(file, path));
}

FileByteSink::~FileByteSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileByteSink::Append(std::string_view data) {
  if (file_ == nullptr) return Status::InvalidArgument("sink already closed");
  if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
    return Status::IOError("writing " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status FileByteSink::Close() {
  std::FILE* file = std::exchange(file_, nullptr);
  if (file != nullptr && std::fclose(file) != 0) {
    return Status::IOError("closing " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

BlockStreamWriter::BlockStreamWriter(BlockDevice* device, MemoryBudget* budget,
                                     IoCategory category)
    : device_(device), category_(category) {
  init_status_ = reservation_.Acquire(budget, 1);
  buffer_.reserve(device->block_size());
}

Status BlockStreamWriter::Append(std::string_view data) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  const size_t block_size = device_->block_size();
  size_t pos = 0;
  while (pos < data.size()) {
    size_t take = std::min(block_size - buffer_.size(), data.size() - pos);
    buffer_.append(data.data() + pos, take);
    pos += take;
    byte_size_ += take;
    if (buffer_.size() == block_size) {
      uint64_t id = 0;
      RETURN_IF_ERROR(device_->Allocate(1, &id));
      if (!started_) {
        first_block_ = id;
        started_ = true;
      }
      RETURN_IF_ERROR(device_->Write(id, buffer_.data(), category_));
      next_block_ = id + 1;
      buffer_.clear();
    }
  }
  return Status::OK();
}

Status BlockStreamWriter::Finish(ByteRange* range) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  finished_ = true;
  if (!buffer_.empty()) {
    buffer_.resize(device_->block_size(), '\0');
    uint64_t id = 0;
    RETURN_IF_ERROR(device_->Allocate(1, &id));
    if (!started_) {
      first_block_ = id;
      started_ = true;
    }
    RETURN_IF_ERROR(device_->Write(id, buffer_.data(), category_));
    buffer_.clear();
  }
  range->first_block = started_ ? first_block_ : 0;
  range->byte_size = byte_size_;
  reservation_.Reset();
  return Status::OK();
}

BlockStreamReader::BlockStreamReader(BlockDevice* device, MemoryBudget* budget,
                                     ByteRange range, IoCategory category)
    : device_(device), category_(category), range_(range) {
  init_status_ = reservation_.Acquire(budget, 1);
}

Status BlockStreamReader::Read(char* buf, size_t n, size_t* out) {
  const size_t block_size = device_->block_size();
  size_t done = 0;
  while (done < n && position_ < range_.byte_size) {
    uint64_t block_offset = position_ / block_size * block_size;
    if (block_offset != buffer_start_) {
      buffer_.resize(block_size);
      RETURN_IF_ERROR(device_->Read(range_.first_block + position_ / block_size,
                                    buffer_.data(), category_));
      buffer_start_ = block_offset;
    }
    uint64_t in_block = position_ - block_offset;
    uint64_t take = std::min<uint64_t>(
        {n - done, block_size - in_block, range_.byte_size - position_});
    std::memcpy(buf + done, buffer_.data() + in_block,
                static_cast<size_t>(take));
    done += static_cast<size_t>(take);
    position_ += take;
  }
  *out = done;
  return Status::OK();
}

StatusOr<ByteRange> StoreBytes(BlockDevice* device, MemoryBudget* budget,
                               std::string_view data, IoCategory category) {
  BlockStreamWriter writer(device, budget, category);
  RETURN_IF_ERROR(writer.init_status());
  RETURN_IF_ERROR(writer.Append(data));
  ByteRange range;
  RETURN_IF_ERROR(writer.Finish(&range));
  return range;
}

StatusOr<std::string> LoadBytes(BlockDevice* device, MemoryBudget* budget,
                                ByteRange range, IoCategory category) {
  BlockStreamReader reader(device, budget, range, category);
  RETURN_IF_ERROR(reader.init_status());
  std::string out(range.byte_size, '\0');
  size_t got = 0;
  RETURN_IF_ERROR(reader.Read(out.data(), out.size(), &got));
  if (got != out.size()) return Status::Corruption("short extent read");
  return out;
}

}  // namespace nexsort
