#ifndef CADRL_SERVE_ADMISSION_CONTROLLER_H_
#define CADRL_SERVE_ADMISSION_CONTROLLER_H_

#include <chrono>
#include <cstdint>
#include <mutex>

#include "util/latency_histogram.h"
#include "util/status.h"
#include "util/time_source.h"

namespace cadrl {
namespace serve {

// Adaptive admission knobs (DESIGN.md §15). Disabled by default: the
// deterministic serving suites rely on the fixed bounded queue being the
// only shed trigger, so AIMD is opt-in per service (the CLI and the
// overload harness turn it on).
struct AdmissionOptions {
  // Master switch for the whole subsystem: the AIMD concurrency gate,
  // queue-wait timeout shedding, and deadline-aware early shedding.
  bool enabled = false;

  // AIMD concurrency limit bounds and starting point (admitted requests in
  // flight: queued + executing).
  double initial_limit = 16.0;
  double min_limit = 2.0;
  double max_limit = 512.0;

  // Additive increase: each under-target primary sample taken while the
  // limit is the binding constraint grows it by additive_increase / limit
  // (≈ +additive_increase per limit's worth of completions, the classic
  // AIMD shape).
  double additive_increase = 1.0;

  // Multiplicative decrease applied when a window's p95 breaches the
  // target or a request's budget burns away in the queue.
  double decrease_factor = 0.7;

  // Primary-stage samples per p95 evaluation window.
  int window = 32;

  // Latency target for the primary stage (queue wait + execution). Zero
  // derives deadline_fraction * the service's default deadline: admission
  // aims to leave the other half of the budget as headroom for retries and
  // the degradation ladder.
  std::chrono::microseconds latency_target{0};
  double deadline_fraction = 0.5;

  // Minimum spacing between multiplicative decreases, so one burst of
  // overload signals costs one cut, not a collapse to min_limit. Zero
  // derives the latency target.
  std::chrono::microseconds decrease_cooldown{0};

  Status Validate() const;
};

// AIMD concurrency limiter + deadline-aware shed policy for
// serve::RecommendService (DESIGN.md §15). One instance per service;
// thread-safe. The service reports two latency streams into it:
//
//  - primary samples (admission -> primary-stage completion) drive the
//    limit: additive increase while p95 holds under the deadline-derived
//    target, multiplicative decrease when a window breaches it;
//  - floor samples (the popularity stage's execution time) feed the
//    early-shed gate: a request whose remaining budget cannot even cover
//    the cheapest ladder stage's observed p95 is answered through the
//    fallback at admission instead of queued.
//
// With `enabled == false` the controller still tracks in-flight counts and
// histograms (for metrics) but never rejects and never sheds.
class AdmissionController {
 public:
  // `default_deadline` is the service's default request budget, used to
  // derive the latency target when options.latency_target is zero. A null
  // `time_source` uses the monotonic clock (non-owning either way).
  AdmissionController(const AdmissionOptions& options,
                      std::chrono::microseconds default_deadline,
                      const util::TimeSource* time_source = nullptr);

  bool enabled() const { return options_.enabled; }

  // Admission gate: reserves an in-flight slot, refusing (enabled only)
  // when the AIMD limit is reached. Every true return must be paired with
  // one Release() when the request reaches its terminal answer.
  bool TryAcquire();
  void Release();

  // Deadline-aware early shed: true when `remaining` budget is already
  // gone or below the floor stage's observed p95 (enabled only; false
  // until the floor histogram has samples).
  bool ShouldShedEarly(util::TimeSource::Clock::duration remaining) const;

  // Primary-stage latency sample (admission -> stage completion, success
  // or failure — both consume capacity). Drives the AIMD loop.
  void OnPrimarySample(std::chrono::nanoseconds latency);

  // Ladder-floor (popularity) execution sample; feeds the early-shed gate.
  void OnFloorSample(std::chrono::nanoseconds latency);

  // A request's budget burned away waiting in the queue — the most direct
  // overload signal there is; cuts the limit, subject to the cooldown.
  void OnQueueTimeout();

  double limit() const;
  int inflight() const;
  std::chrono::microseconds latency_target() const { return target_; }

  struct Snapshot {
    double limit = 0.0;
    int inflight = 0;
    int64_t admitted = 0;
    int64_t rejected = 0;
    int64_t increases = 0;
    int64_t decreases = 0;
    int64_t breaches = 0;           // windows whose p95 crossed the target
    int64_t last_window_p95_us = 0;
    int64_t floor_p95_us = 0;
  };
  Snapshot snapshot() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  void DecreaseLocked();

  const AdmissionOptions options_;
  const std::chrono::microseconds target_;
  const std::chrono::microseconds cooldown_;
  const util::TimeSource* const time_;

  mutable std::mutex mu_;
  double limit_;
  int inflight_ = 0;
  int64_t admitted_ = 0;
  int64_t rejected_ = 0;
  int64_t increases_ = 0;
  int64_t decreases_ = 0;
  int64_t breaches_ = 0;
  int window_count_ = 0;
  int64_t last_window_p95_us_ = 0;
  util::TimeSource::Clock::time_point last_decrease_{};
  util::LatencyHistogram window_;  // reset at each window boundary

  // Lifetime floor-stage histogram; read lock-free by ShouldShedEarly on
  // the admission path.
  util::LatencyHistogram floor_;
};

}  // namespace serve
}  // namespace cadrl

#endif  // CADRL_SERVE_ADMISSION_CONTROLLER_H_
