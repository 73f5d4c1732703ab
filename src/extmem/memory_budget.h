// MemoryBudget caps the internal memory available to an algorithm at M
// blocks, reproducing TPIE's adjustable application-memory limit that the
// paper's experiments rely on ("We use TPIE to set the application memory to
// be smaller than this amount in all experiments"). Every component that
// holds block-sized buffers resident (stacks, sort buffers, merge inputs)
// acquires them from the budget and releases them when done.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace nexsort {

/// Tracks block-granular memory use against a hard cap of M blocks.
///
/// Thread-safe: Acquire's check-then-add is one critical section (the
/// paper's hard cap must hold exactly even when concurrent jobs, the
/// prefetcher and the cache reserve at once), while the accessors read atomic
/// mirrors without taking the lock.
class MemoryBudget {
 public:
  /// `total_blocks` is M in the paper's notation.
  explicit MemoryBudget(uint64_t total_blocks);

  /// Debug builds verify every reservation was returned: blocks still in
  /// use at destruction mean some component leaked part of the M-block cap.
  ~MemoryBudget();

  /// Reserve `count` blocks; OutOfMemory if that would exceed the cap.
  [[nodiscard]] Status Acquire(uint64_t count);

  /// Return `count` previously acquired blocks. Releasing more than is in
  /// use is a caller bug: instead of wrapping `used_blocks_` (which would
  /// silently disable the cap), the release is clamped to what is in use,
  /// the incident is logged once, and release_underflows() records it.
  void Release(uint64_t count);

  /// Number of Release() calls that tried to return more blocks than were
  /// in use (0 in a correct program; asserted on by tests).
  uint64_t release_underflows() const {
    return release_underflows_.load(std::memory_order_relaxed);
  }

  uint64_t total_blocks() const { return total_blocks_; }
  uint64_t used_blocks() const {
    return used_blocks_.load(std::memory_order_relaxed);
  }
  uint64_t available_blocks() const { return total_blocks_ - used_blocks(); }

  /// High-water mark of blocks in use, for tests asserting an algorithm
  /// stayed inside its budget.
  uint64_t peak_blocks() const {
    return peak_blocks_.load(std::memory_order_relaxed);
  }

 private:
  const uint64_t total_blocks_;
  /// Serializes Acquire's check-then-add and Release's clamp; the fields
  /// below stay atomics (not NEXSORT_GUARDED_BY) because the accessors
  /// deliberately read them lock-free. // lint-ok: guarded-by
  Mutex mutex_{"MemoryBudget::mutex_", lock_rank::kMemoryBudget};
  std::atomic<uint64_t> used_blocks_{0};
  std::atomic<uint64_t> peak_blocks_{0};
  std::atomic<uint64_t> release_underflows_{0};
};

/// RAII reservation of budget blocks.
class BudgetReservation {
 public:
  BudgetReservation() = default;
  ~BudgetReservation() { Reset(); }

  BudgetReservation(const BudgetReservation&) = delete;
  BudgetReservation& operator=(const BudgetReservation&) = delete;
  BudgetReservation(BudgetReservation&& other) noexcept { *this = std::move(other); }
  BudgetReservation& operator=(BudgetReservation&& other) noexcept {
    if (this != &other) {
      Reset();
      budget_ = other.budget_;
      count_ = other.count_;
      other.budget_ = nullptr;
      other.count_ = 0;
    }
    return *this;
  }

  [[nodiscard]] Status Acquire(MemoryBudget* budget, uint64_t count) {
    Reset();
    RETURN_IF_ERROR(budget->Acquire(count));
    budget_ = budget;
    count_ = count;
    return Status::OK();
  }

  void Reset() {
    if (budget_ != nullptr) budget_->Release(count_);
    budget_ = nullptr;
    count_ = 0;
  }

  uint64_t count() const { return count_; }

 private:
  MemoryBudget* budget_ = nullptr;
  uint64_t count_ = 0;
};

}  // namespace nexsort
