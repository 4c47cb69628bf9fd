#include "common/threading.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>
#include <vector>

namespace vero {
namespace {

// One ParallelFor call's shared state. It lives on the caller's stack. Pool
// threads reach it only through the queue and `active`, both guarded by the
// pool mutex, and the caller returns only after it has withdrawn its
// unclaimed helper slots and seen `active` drop to zero, so no helper
// touches it after the call returns.
struct Call {
  const std::function<void(size_t)>* fn;
  size_t n;
  std::atomic<size_t> next{0};
  size_t unclaimed = 0;  // Helper slots still queued.
  size_t active = 0;     // Helpers inside Drain.
  std::condition_variable done{};
};

// Claims and runs indices until none are left. noexcept: a throwing fn
// terminates rather than unwinding the caller's frame while helpers still
// point into it.
void Drain(Call& call) noexcept {
  for (;;) {
    const size_t i = call.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= call.n) return;
    (*call.fn)(i);
  }
}

// The process-wide helper pool behind ParallelFor.
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  // Offers `helpers` slots of `call` to the pool, drains it on the calling
  // thread, then withdraws the slots no helper took and waits for the
  // helpers that did.
  void Run(Call& call, size_t helpers) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Grows to max(hardware_concurrency, helpers + 1) - 1; never shrinks.
      const size_t want = std::max<size_t>(std::thread::hardware_concurrency(),
                                           helpers + 1) - 1;
      while (threads_.size() < want) {
        threads_.emplace_back([this] { HelperLoop(); });
      }
      call.unclaimed = helpers;
      queue_.push_back(&call);
    }
    for (size_t h = 0; h < helpers; ++h) work_cv_.notify_one();
    Drain(call);
    std::unique_lock<std::mutex> lock(mu_);
    if (call.unclaimed > 0) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), &call));
      call.unclaimed = 0;
    }
    call.done.wait(lock, [&] { return call.active == 0; });
  }

 private:
  void HelperLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shut down with no work left.
      Call* call = queue_.front();
      if (--call->unclaimed == 0) queue_.pop_front();
      ++call->active;
      lock.unlock();
      Drain(*call);
      lock.lock();
      // Notifying under mu_: the caller cannot return (and destroy `done`)
      // before this thread releases the mutex.
      if (--call->active == 0) call->done.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Call*> queue_;  // Calls with unclaimed slots, oldest first.
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace

void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn) {
  num_threads = std::min(num_threads, n);
  if (num_threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  static Pool pool;
  Call call{&fn, n};
  pool.Run(call, num_threads - 1);
}

}  // namespace vero
