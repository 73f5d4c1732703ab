// Fixed-size worker pool over a bounded task queue. Deliberately minimal:
// the sort pipeline needs "run this closure eventually, with back-pressure
// when workers fall behind", not futures or work stealing. Results and
// errors travel through the closures themselves.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "parallel/bounded_queue.h"

namespace nexsort {

class WorkerPool {
 public:
  /// Start `threads` workers. `threads == 0` is allowed and makes Submit
  /// run tasks inline on the caller — callers can treat a zero-size pool
  /// as "serial mode" without branching.
  explicit WorkerPool(size_t threads, size_t queue_capacity = 0);

  /// Closes the queue and joins all workers; queued tasks finish first.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueue a task. Blocks when the queue is full. With no worker threads
  /// the task runs synchronously here. Returns false if the pool is shut
  /// down (the task is not run).
  bool Submit(std::function<void()> task);

  size_t size() const { return workers_.size(); }

  /// Instantaneous load gauges for the telemetry sampler: tasks waiting
  /// in the queue, and workers currently executing one.
  size_t queue_depth() const { return tasks_.size(); }
  size_t busy_workers() const {
    return busy_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerMain();

  BoundedQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> busy_{0};
};

}  // namespace nexsort
