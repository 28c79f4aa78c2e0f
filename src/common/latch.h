#ifndef CHARIOTS_COMMON_LATCH_H_
#define CHARIOTS_COMMON_LATCH_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace chariots {

/// Single-use barrier: Wait() blocks until CountDown() has been called
/// `count` times.
class CountDownLatch {
 public:
  explicit CountDownLatch(int count) : count_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ > 0 && --count_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return count_ == 0; });
  }

  bool WaitFor(std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_;
};

}  // namespace chariots

#endif  // CHARIOTS_COMMON_LATCH_H_
