// D4: raw concurrency primitives outside the one blessed module
// (thread_pool).
#include <atomic>
#include <mutex>
#include <thread>

struct SneakyShared {
  std::mutex mu_;  // detlint-expect: D4
  std::atomic<int> hits_{0};  // detlint-expect: D4

  void poke() {
    std::thread t([this] {  // detlint-expect: D4
      const std::lock_guard<std::mutex> lock(mu_);  // detlint-expect: D4
      hits_.fetch_add(1);
    });
    t.join();
  }
};
