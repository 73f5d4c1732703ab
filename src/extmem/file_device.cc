#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "extmem/block_device.h"
#include "util/status.h"

namespace nexsort {

namespace {

/// Block device backed by a single file, addressed with pread/pwrite.
class FileBlockDevice final : public BlockDevice {
 public:
  FileBlockDevice(int fd, size_t block_size, DiskModel model)
      : BlockDevice(block_size, model), fd_(fd) {}

  ~FileBlockDevice() override {
    if (fd_ >= 0) ::close(fd_);
  }

 protected:
  Status DoRead(uint64_t block_id, char* buf, IoCategory) override {
    size_t want = block_size();
    off_t offset = static_cast<off_t>(block_id * want);
    size_t done = 0;
    while (done < want) {
      ssize_t n = ::pread(fd_, buf + done, want - done, offset + done);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("pread: ") + std::strerror(errno));
      }
      if (n == 0) {
        // Allocated-but-never-written tail of the file reads as zeros.
        std::memset(buf + done, 0, want - done);
        break;
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status DoWrite(uint64_t block_id, const char* buf, IoCategory) override {
    size_t want = block_size();
    off_t offset = static_cast<off_t>(block_id * want);
    size_t done = 0;
    while (done < want) {
      ssize_t n = ::pwrite(fd_, buf + done, want - done, offset + done);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("pwrite: ") + std::strerror(errno));
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status DoAllocate(uint64_t /*count*/) override {
    // The file grows on demand via pwrite; nothing to reserve.
    return Status::OK();
  }

 private:
  int fd_;
};

}  // namespace

StatusOr<std::unique_ptr<BlockDevice>> NewFileBlockDevice(
    const std::string& path, size_t block_size, DiskModel model) {
  // A stale file at `path` is unlinked rather than truncated in place:
  // truncating a large leftover work file costs seconds, dropping its
  // directory entry does not (and leaves other links to it untouched).
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("unlink " + path + ": " + std::strerror(errno));
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<BlockDevice>(
      new FileBlockDevice(fd, block_size, model));
}

}  // namespace nexsort
