#ifndef CADRL_UTIL_TIME_SOURCE_H_
#define CADRL_UTIL_TIME_SOURCE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

namespace cadrl {
namespace util {

// Injectable clock for everything the serving layer times: admission
// deadlines, queue waits, retry backoff, breaker cooldowns (DESIGN.md
// §15). Production uses the process-wide RealTimeSource (the
// monotonic clock); tests and the overload harness substitute a
// VirtualTimeSource so time-driven behavior runs deterministically and
// instantly. The interface is deliberately tiny — a current-time read, a
// blocking sleep, and a timed condition-variable wait — because those are
// the only three ways the service consumes time.
//
// Instances are non-owning handles from the caller's point of view:
// whoever injects a TimeSource must keep it alive for the lifetime of the
// component holding it.
class TimeSource {
 public:
  using Clock = std::chrono::steady_clock;

  virtual ~TimeSource() = default;

  virtual Clock::time_point Now() const = 0;

  // Blocks the caller for `d` of this source's time. Virtual sources
  // advance the clock instead of blocking ("whoever sleeps, advances"), so
  // injected latency and retry backoff cost no wall time under test.
  virtual void SleepFor(Clock::duration d) = 0;

  // Waits on `cv` (with `lock` held, as std::condition_variable requires)
  // until notified or until Now() reaches `deadline`. May return
  // no_timeout spuriously — callers must re-check their predicate, exactly
  // as with a raw wait_until. Returns timeout only when the deadline has
  // truly passed in this source's time.
  virtual std::cv_status WaitUntil(std::condition_variable& cv,
                                   std::unique_lock<std::mutex>& lock,
                                   Clock::time_point deadline) = 0;
};

// The monotonic clock. Stateless; use the process-wide Get() instance
// instead of constructing one per component.
class RealTimeSource final : public TimeSource {
 public:
  Clock::time_point Now() const override { return Clock::now(); }
  void SleepFor(Clock::duration d) override;
  std::cv_status WaitUntil(std::condition_variable& cv,
                           std::unique_lock<std::mutex>& lock,
                           Clock::time_point deadline) override {
    return cv.wait_until(lock, deadline);
  }

  static RealTimeSource* Get();
};

// Manually driven clock for deterministic tests. Now() starts at a fixed
// epoch and moves only through Advance/AdvanceTo/SleepFor. Thread-safe: the
// position is a single atomic, so concurrent readers and advancers never
// tear, and time is monotone by construction (AdvanceTo never moves
// backwards).
//
// WaitUntil cannot park a thread until a *virtual* deadline — no scheduler
// exists to wake it when another thread advances the clock — so it waits in
// short real-time slices and re-checks the virtual deadline each slice.
// Combined with the spurious-wakeup contract of TimeSource::WaitUntil this
// keeps every caller live: a waiter whose virtual deadline never comes
// still re-evaluates its predicate a few thousand times per real second.
class VirtualTimeSource final : public TimeSource {
 public:
  // The epoch is arbitrary (virtual time is only ever compared to itself);
  // one hour past the clock's zero keeps derived arithmetic away from
  // time_point underflow.
  VirtualTimeSource()
      : epoch_(Clock::time_point{} + std::chrono::hours(1)) {}

  Clock::time_point Now() const override {
    return epoch_ + std::chrono::nanoseconds(
                        offset_ns_.load(std::memory_order_acquire));
  }

  void SleepFor(Clock::duration d) override {
    if (d > Clock::duration::zero()) Advance(d);
  }

  std::cv_status WaitUntil(std::condition_variable& cv,
                           std::unique_lock<std::mutex>& lock,
                           Clock::time_point deadline) override;

  // Moves the clock forward by `d` (ignored when non-positive).
  void Advance(Clock::duration d);

  // Moves the clock forward to `tp`; a no-op when already past it.
  void AdvanceTo(Clock::time_point tp);

 private:
  const Clock::time_point epoch_;
  std::atomic<int64_t> offset_ns_{0};
};

}  // namespace util
}  // namespace cadrl

#endif  // CADRL_UTIL_TIME_SOURCE_H_
