#ifndef VERO_COMMON_THREADING_H_
#define VERO_COMMON_THREADING_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>

namespace vero {

/// Outcome of a timed barrier wait.
enum class BarrierWait {
  /// All participants arrived; this caller is the one serial participant of
  /// the cycle (may run a one-shot reduction step).
  kSerial,
  /// All participants arrived; some other caller is the serial participant.
  kFollower,
  /// The barrier was broken (a participant died or an earlier wait timed
  /// out); no rendezvous happened and none ever will.
  kBroken,
  /// This caller's wait expired before everyone arrived. The barrier is now
  /// broken for all participants (watchdog semantics).
  kTimeout,
};

/// Reusable cyclic barrier for a fixed number of participants.
///
/// Collectives in the simulated cluster rendezvous on this: a phase counter
/// makes the barrier safe for immediate reuse by the same group. The barrier
/// can be *broken* — by Break() (a participant declares itself dead) or by a
/// timed wait expiring — after which every current and future wait returns
/// immediately with kBroken instead of deadlocking on the missing peer.
class Barrier {
 public:
  explicit Barrier(size_t num_participants)
      : num_participants_(num_participants), waiting_(0), phase_(0) {}

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Blocks until all participants have arrived. Returns kSerial for
  /// exactly one caller per cycle (the "serial" participant, which can run a
  /// one-shot reduction step) and kFollower for the rest. Failure-aware:
  /// returns kBroken immediately if the barrier is already broken, and
  /// kTimeout (breaking the barrier for everyone) if all participants fail
  /// to arrive within `timeout_seconds`. A timeout of <= 0 waits forever
  /// (but still observes Break()).
  BarrierWait ArriveAndWaitFor(double timeout_seconds) {
    std::unique_lock<std::mutex> lock(mu_);
    if (broken_) return BarrierWait::kBroken;
    const uint64_t my_phase = phase_;
    if (++waiting_ == num_participants_) {
      waiting_ = 0;
      ++phase_;
      cv_.notify_all();
      return BarrierWait::kSerial;
    }
    const auto pred = [&] { return phase_ != my_phase || broken_; };
    if (timeout_seconds > 0) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration<double>(timeout_seconds);
      if (!cv_.wait_until(lock, deadline, pred)) {
        // Watchdog fired: a peer never showed up. Break the barrier so every
        // other waiter (current and future) unblocks too.
        broken_ = true;
        --waiting_;
        cv_.notify_all();
        return BarrierWait::kTimeout;
      }
    } else {
      cv_.wait(lock, pred);
    }
    if (phase_ != my_phase) return BarrierWait::kFollower;
    // Woken by breakage within the same phase: withdraw our arrival.
    --waiting_;
    return BarrierWait::kBroken;
  }

  /// Permanently breaks the barrier: every blocked and future wait returns
  /// kBroken. Called by a participant that exits the group (crash).
  void Break() {
    std::lock_guard<std::mutex> lock(mu_);
    broken_ = true;
    cv_.notify_all();
  }

  bool broken() const {
    std::lock_guard<std::mutex> lock(mu_);
    return broken_;
  }

  size_t num_participants() const { return num_participants_; }

 private:
  const size_t num_participants_;
  size_t waiting_;
  uint64_t phase_;
  bool broken_ = false;
  mutable std::mutex mu_;
  std::condition_variable cv_;
};

/// Runs fn(i) for every i in [0, n) on up to `num_threads` threads and
/// returns when all calls have finished. The caller runs as worker 0; the
/// others are helpers from one persistent, process-wide pool that
/// concurrent and nested calls share, so no thread is spawned per call.
/// Indices are claimed dynamically: each fn(i) must write a disjoint output
/// for the result to be schedule-independent. Idle helpers block, never
/// spin; the pool grows lazily to max(hardware_concurrency, largest
/// num_threads requested) - 1 helpers. num_threads <= 1 is the plain serial
/// loop and never touches the pool. On the parallel path a throwing fn
/// terminates the process.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn);

}  // namespace vero

#endif  // VERO_COMMON_THREADING_H_
