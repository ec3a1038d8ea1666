// Small synchronization primitives layered on WaitQueue.
#pragma once

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace mpiv::sim {

/// Level-triggered event: once set, waiters pass through immediately.
class OneShot {
 public:
  explicit OneShot(Engine& eng) : q_(eng) {}

  bool ready() const { return ready_; }
  void set() {
    ready_ = true;
    q_.wake_all();
  }
  void reset() { ready_ = false; }

  Task<void> wait() {
    while (!ready_) co_await q_.wait();
  }

 private:
  bool ready_ = false;
  WaitQueue q_;
};

/// Counts arrivals toward a (resettable) expected total.
class CountLatch {
 public:
  explicit CountLatch(Engine& eng) : q_(eng) {}

  void expect(std::size_t n) {
    expected_ = n;
    count_ = 0;
  }
  void arrive() {
    ++count_;
    if (count_ >= expected_) q_.wake_all();
  }
  std::size_t count() const { return count_; }

  Task<void> wait() {
    while (count_ < expected_) co_await q_.wait();
  }

 private:
  std::size_t expected_ = 0;
  std::size_t count_ = 0;
  WaitQueue q_;
};

}  // namespace mpiv::sim
