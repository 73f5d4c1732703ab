#include "extmem/device_wrappers.h"

#include <chrono>
#include <memory>
#include <thread>

#include "extmem/block_device.h"
#include "util/dcheck.h"
#include "util/status.h"

namespace nexsort {

namespace {

/// Wrapper that charges a real wall-clock delay per access before
/// forwarding to the base device. The sleep happens with no lock held (the
/// BlockDevice accounting mutex is released around DoRead/DoWrite), so N
/// concurrent accesses overlap their waits like requests queued on an SSD.
/// This is what lets the overlap benchmarks demonstrate wall-clock wins on
/// a single-core host: the run prefetcher's I/O waits run concurrently
/// with the foreground merge.
class ThrottledBlockDevice final : public BlockDevice {
 public:
  ThrottledBlockDevice(BlockDevice* base, ThrottleModel model)
      : BlockDevice(base->block_size(), DiskModel{}, base->mutex_rank() - 1),
        base_(base),
        model_(model) {
    SyncNumBlocks(base_->num_blocks());
  }

 protected:
  Status DoRead(uint64_t block_id, char* buf, IoCategory category) override {
    Delay();
    return base_->Read(block_id, buf, category);
  }

  Status DoWrite(uint64_t block_id, const char* buf,
                 IoCategory category) override {
    Delay();
    return base_->Write(block_id, buf, category);
  }

  Status DoAllocate(uint64_t count) override {
    uint64_t first = 0;
    RETURN_IF_ERROR(base_->Allocate(count, &first));
    // Wrapper and base must agree on ids; nothing else may allocate on the
    // base while it is wrapped.
    NEXSORT_DCHECK_EQ(first, num_blocks());
    (void)first;
    return Status::OK();
  }

 private:
  void Delay() const {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        model_.AccessSeconds(block_size())));
  }

  BlockDevice* const base_;
  const ThrottleModel model_;
};

/// Transparent forwarder: no behavior of its own beyond the failure
/// injection every BlockDevice carries. Arming FailNextOps/FailAfterOps on
/// the wrapper fails operations at this layer — the base device (and any
/// layer below) never sees them — so fault placement composes with the
/// cache and the throttle in any stacking order.
class FaultInjectionBlockDevice final : public BlockDevice {
 public:
  explicit FaultInjectionBlockDevice(BlockDevice* base)
      : BlockDevice(base->block_size(), DiskModel{}, base->mutex_rank() - 1),
        base_(base) {
    SyncNumBlocks(base_->num_blocks());
  }

 protected:
  Status DoRead(uint64_t block_id, char* buf, IoCategory category) override {
    return base_->Read(block_id, buf, category);
  }

  Status DoWrite(uint64_t block_id, const char* buf,
                 IoCategory category) override {
    return base_->Write(block_id, buf, category);
  }

  Status DoAllocate(uint64_t count) override {
    uint64_t first = 0;
    RETURN_IF_ERROR(base_->Allocate(count, &first));
    // Wrapper and base must agree on ids; nothing else may allocate on the
    // base while it is wrapped.
    NEXSORT_DCHECK_EQ(first, num_blocks());
    (void)first;
    return Status::OK();
  }

 private:
  BlockDevice* const base_;
};

}  // namespace

std::unique_ptr<BlockDevice> NewThrottledBlockDevice(BlockDevice* base,
                                                     ThrottleModel model) {
  return std::make_unique<ThrottledBlockDevice>(base, model);
}

std::unique_ptr<BlockDevice> NewFaultInjectionBlockDevice(BlockDevice* base) {
  return std::make_unique<FaultInjectionBlockDevice>(base);
}

}  // namespace nexsort
