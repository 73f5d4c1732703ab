#include "extmem/run_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "obs/tracer.h"
#include "util/dcheck.h"
#include "util/status.h"

namespace nexsort {

RunStore::RunStore(BlockDevice* device, MemoryBudget* budget)
    : device_(device), budget_(budget) {}

void RunStore::DcheckBalancedLocked() const {
#if NEXSORT_DCHECK_ENABLED
  uint64_t total = 0;
  for (const std::vector<uint64_t>& blocks : run_blocks_) {
    total += blocks.size();
  }
  NEXSORT_DCHECK_EQ(live_blocks_.load(std::memory_order_relaxed), total);
#endif
}

Status RunStore::AllocateBlock(uint64_t* id) {
  {
    MutexLock lock(&mutex_);
    if (!free_blocks_.empty()) {
      *id = free_blocks_.back();
      free_blocks_.pop_back();
      return Status::OK();
    }
  }
  return device_->Allocate(1, id);
}

Status RunStore::AllocateExtent(uint64_t count, std::vector<uint64_t>* out) {
  out->clear();
  {
    MutexLock lock(&mutex_);
    if (free_blocks_.size() >= count) {
      // Prefer a consecutive chunk of freed blocks: a long-lived store
      // (nexsortd) must not grow the device forever just because its runs
      // are placed. The free list is unsorted (LIFO scratch reuse), so
      // scan a sorted copy for a long-enough ascending chunk.
      std::vector<uint64_t> sorted = free_blocks_;
      std::sort(sorted.begin(), sorted.end());
      size_t chunk_start = 0;
      for (size_t i = 1; i <= sorted.size(); ++i) {
        if (i < sorted.size() && sorted[i] == sorted[i - 1] + 1) continue;
        if (i - chunk_start >= count) {
          out->assign(sorted.begin() + chunk_start,
                      sorted.begin() + chunk_start + count);
          break;
        }
        chunk_start = i;
      }
      if (!out->empty()) {
        const uint64_t lo = out->front();
        const uint64_t hi = out->back();
        free_blocks_.erase(
            std::remove_if(free_blocks_.begin(), free_blocks_.end(),
                           [lo, hi](uint64_t id) {
                             return id >= lo && id <= hi;
                           }),
            free_blocks_.end());
        return Status::OK();
      }
    }
  }
  uint64_t first = 0;
  RETURN_IF_ERROR(device_->Allocate(count, &first));
  out->resize(count);
  for (uint64_t i = 0; i < count; ++i) (*out)[i] = first + i;
  return Status::OK();
}

void RunStore::ReleaseBlocks(const uint64_t* ids, size_t count) {
  if (count == 0) return;
  MutexLock lock(&mutex_);
  free_blocks_.insert(free_blocks_.end(), ids, ids + count);
}

RunWriter RunStore::NewRun(IoCategory category, PlacementHint hint) {
  return RunWriter(this, category, hint);
}

RunReader RunStore::OpenRun(RunHandle handle, uint64_t offset,
                            IoCategory category) {
  TraceRunEvent(tracer_, RunEventKind::kReadBack, category, handle.byte_size,
                handle.id);
  return RunReader(this, handle, offset, category);
}

Status RunStore::SnapshotBlocks(RunHandle handle,
                                std::vector<uint64_t>* blocks) {
  MutexLock lock(&mutex_);
  if (!handle.valid() || handle.id >= run_blocks_.size()) {
    return Status::InvalidArgument("invalid run handle");
  }
  *blocks = run_blocks_[handle.id];
  return Status::OK();
}

Status RunStore::FreeRun(RunHandle handle) {
  {
    MutexLock lock(&mutex_);
    if (!handle.valid() || handle.id >= run_blocks_.size()) {
      return Status::InvalidArgument("invalid run handle");
    }
    std::vector<uint64_t>& blocks = run_blocks_[handle.id];
    live_blocks_.fetch_sub(blocks.size(), std::memory_order_relaxed);
    free_blocks_.insert(free_blocks_.end(), blocks.begin(), blocks.end());
    blocks.clear();
    run_bytes_[handle.id] = 0;
    runs_freed_.fetch_add(1, std::memory_order_relaxed);
    live_bytes_.fetch_sub(handle.byte_size, std::memory_order_relaxed);
    DcheckBalancedLocked();
  }
  TraceRunEvent(tracer_, RunEventKind::kFreed, IoCategory::kOther,
                handle.byte_size, handle.id);
  return Status::OK();
}

RunWriter::RunWriter(RunStore* store, IoCategory category, PlacementHint hint)
    : store_(store), category_(category), hint_(hint) {
  init_status_ = reservation_.Acquire(store->budget_, 1);
  buffer_.reserve(store->device_->block_size());
}

Status RunWriter::NextBlock(uint64_t* id) {
  if (hint_ == PlacementHint::kScratch) return store_->AllocateBlock(id);
  if (extent_used_ == extent_.size()) {
    RETURN_IF_ERROR(
        store_->AllocateExtent(RunStore::kPlacementExtentBlocks, &extent_));
    extent_used_ = 0;
  }
  *id = extent_[extent_used_++];
  return Status::OK();
}

Status RunWriter::Append(std::string_view data) {
  if (finished_) return Status::InvalidArgument("run writer finished");
  const size_t block_size = store_->device_->block_size();
  size_t pos = 0;
  while (pos < data.size()) {
    size_t take = std::min(block_size - buffer_.size(), data.size() - pos);
    buffer_.append(data.data() + pos, take);
    pos += take;
    byte_size_ += take;
    if (buffer_.size() == block_size) {
      uint64_t id = 0;
      RETURN_IF_ERROR(NextBlock(&id));
      RETURN_IF_ERROR(store_->device_->Write(id, buffer_.data(), category_));
      blocks_.push_back(id);
      buffer_.clear();
    }
  }
  return Status::OK();
}

Status RunWriter::Finish(RunHandle* handle) {
  if (finished_) return Status::InvalidArgument("run writer finished");
  finished_ = true;
  if (!buffer_.empty()) {
    buffer_.resize(store_->device_->block_size(), '\0');
    uint64_t id = 0;
    RETURN_IF_ERROR(NextBlock(&id));
    RETURN_IF_ERROR(store_->device_->Write(id, buffer_.data(), category_));
    blocks_.push_back(id);
    buffer_.clear();
  }
  if (extent_used_ < extent_.size()) {
    // Unused tail of the last placed extent goes back to the free list.
    store_->ReleaseBlocks(extent_.data() + extent_used_,
                          extent_.size() - extent_used_);
  }
  extent_.clear();
  extent_used_ = 0;
  {
    MutexLock lock(&store_->mutex_);
    handle->id = static_cast<uint32_t>(store_->run_blocks_.size());
    handle->byte_size = byte_size_;
    store_->live_blocks_.fetch_add(blocks_.size(),
                                   std::memory_order_relaxed);
    store_->run_blocks_.push_back(std::move(blocks_));
    store_->run_bytes_.push_back(byte_size_);
    store_->runs_created_.fetch_add(1, std::memory_order_relaxed);
    store_->finished_bytes_.fetch_add(byte_size_, std::memory_order_relaxed);
    store_->live_bytes_.fetch_add(byte_size_, std::memory_order_relaxed);
    store_->DcheckBalancedLocked();
  }
  reservation_.Reset();
  TraceRunEvent(store_->tracer_, RunEventKind::kCreated, category_,
                byte_size_, handle->id);
  return Status::OK();
}

RunReader::RunReader(RunStore* store, RunHandle handle, uint64_t offset,
                     IoCategory category)
    : store_(store), handle_(handle), category_(category), position_(offset) {
  init_status_ = reservation_.Acquire(store->budget_, 1);
  if (init_status_.ok()) {
    init_status_ = store_->SnapshotBlocks(handle, &blocks_);
    if (init_status_.ok() && offset > handle.byte_size) {
      init_status_ = Status::InvalidArgument("run offset past end");
    }
  }
}

Status RunReader::Read(char* buf, size_t n, size_t* out) {
  const size_t block_size = store_->device_->block_size();
  size_t done = 0;
  while (done < n && position_ < handle_.byte_size) {
    uint64_t block_index = position_ / block_size;
    if (block_index != buffer_index_) {
      buffer_.resize(block_size);
      RETURN_IF_ERROR(store_->device_->Read(blocks_[block_index],
                                            buffer_.data(), category_));
      buffer_index_ = block_index;
    }
    uint64_t in_block = position_ - block_index * block_size;
    uint64_t take = std::min<uint64_t>(
        {n - done, block_size - in_block, handle_.byte_size - position_});
    std::memcpy(buf + done, buffer_.data() + in_block,
                static_cast<size_t>(take));
    done += static_cast<size_t>(take);
    position_ += take;
  }
  *out = done;
  return Status::OK();
}

Status RunReader::ReadExact(char* buf, size_t n) {
  size_t got = 0;
  RETURN_IF_ERROR(Read(buf, n, &got));
  if (got != n) return Status::Corruption("short run read");
  return Status::OK();
}

namespace {

/// "<prefix>." if `name` is a scratch file of `prefix`; extracts its
/// instance field. Tolerates any seq/label content between the dots.
bool ParseScratchInstance(std::string_view name, std::string_view prefix,
                          uint64_t* instance) {
  constexpr std::string_view kSuffix = ".scratch";
  if (name.size() <= prefix.size() + 1 + kSuffix.size()) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  if (name[prefix.size()] != '.') return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  std::string_view rest = name.substr(prefix.size() + 1);
  size_t dot = rest.find('.');
  if (dot == std::string_view::npos || dot == 0) return false;
  uint64_t value = 0;
  for (char c : rest.substr(0, dot)) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *instance = value;
  return true;
}

}  // namespace

ScratchNamespace::ScratchNamespace(std::string directory, std::string prefix,
                                   uint64_t instance)
    : directory_(std::move(directory)),
      prefix_(std::move(prefix)),
      instance_(instance) {
  NEXSORT_DCHECK_MSG(!prefix_.empty() &&
                         prefix_.find('.') == std::string::npos,
                     "scratch prefix must be non-empty and dot-free");
}

ScratchNamespace::~ScratchNamespace() { RemoveAll(); }

std::string ScratchNamespace::NewPath(std::string_view label) {
  std::string clean;
  clean.reserve(label.size());
  for (char c : label) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '-' || c == '_';
    clean.push_back(ok ? c : '_');
  }
  if (clean.empty()) clean = "tmp";
  MutexLock lock(&mutex_);
  std::string path = directory_ + "/" + prefix_ + "." +
                     std::to_string(instance_) + "." +
                     std::to_string(next_seq_++) + "." + clean + ".scratch";
  issued_.push_back(path);
  return path;
}

Status ScratchNamespace::Remove(const std::string& path) {
  {
    MutexLock lock(&mutex_);
    auto it = std::find(issued_.begin(), issued_.end(), path);
    if (it == issued_.end()) {
      return Status::NotFound("not a path issued by this scratch namespace");
    }
    issued_.erase(it);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);  // absent file: remove() is a no-op
  if (ec) return Status::IOError("removing scratch file: " + ec.message());
  return Status::OK();
}

void ScratchNamespace::RemoveAll() {
  MutexLock lock(&mutex_);
  for (const std::string& path : issued_) {
    std::error_code ec;
    std::filesystem::remove(path, ec);  // best-effort; destructor path
  }
  issued_.clear();
}

uint64_t ScratchNamespace::live_paths() const {
  MutexLock lock(&mutex_);
  return issued_.size();
}

StatusOr<uint64_t> ScratchNamespace::SweepOrphans(const std::string& directory,
                                                  std::string_view prefix,
                                                  uint64_t exclude_instance) {
  std::error_code ec;
  std::filesystem::directory_iterator it(directory, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) return uint64_t{0};
    return Status::IOError("scanning scratch directory: " + ec.message());
  }
  uint64_t swept = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    uint64_t instance = 0;
    if (!ParseScratchInstance(entry.path().filename().string(), prefix,
                              &instance)) {
      continue;
    }
    if (instance == exclude_instance) continue;  // the live process's own
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path(), remove_ec) && !remove_ec) {
      ++swept;
    }
  }
  return swept;
}

}  // namespace nexsort
