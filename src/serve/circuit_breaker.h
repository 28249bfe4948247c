#ifndef CADRL_SERVE_CIRCUIT_BREAKER_H_
#define CADRL_SERVE_CIRCUIT_BREAKER_H_

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "util/time_source.h"

namespace cadrl {
namespace serve {

// Per-stage circuit breaker of the degradation ladder (DESIGN.md §11).
//
// State machine:
//
//            N consecutive failures
//   CLOSED ---------------------------> OPEN
//     ^                                  |
//     | probe succeeds         cooldown elapsed
//     |                                  v
//     +------------------------------ HALF-OPEN
//                 probe fails -> OPEN (again)
//
// Closed passes every request through; open rejects them instantly (the
// caller falls to the next ladder stage without paying the failing stage's
// latency); half-open admits exactly one probe whose outcome decides
// between closing and re-opening. A `failure_threshold <= 0` disables the
// breaker — it never opens, which the chaos determinism suite uses to keep
// per-request decisions independent of cross-request ordering.
//
// Time is read through the injected TimeSource so tests can drive the
// open -> half-open transition deterministically on a virtual clock and
// compare the recorded transition trace against a golden sequence.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  using Clock = util::TimeSource::Clock;

  // `cooldown` is how long an open breaker waits before admitting a
  // half-open probe. A null `time_source` uses the monotonic clock; the
  // source is non-owning and must outlive the breaker.
  CircuitBreaker(int failure_threshold, Clock::duration cooldown,
                 const util::TimeSource* time_source = nullptr);

  // True if the protected stage may be attempted now. Transitions
  // open -> half-open once the cooldown has elapsed; in half-open only the
  // single in-flight probe is admitted — concurrent callers racing for the
  // probe lose and fall to the next ladder stage.
  bool Allow();

  // Reports the outcome of an attempt admitted by Allow().
  void RecordSuccess();
  void RecordFailure();

  State state() const;
  int consecutive_failures() const;
  // Times the breaker has opened (closed/half-open -> open).
  int trips() const;

  // Every state transition since construction, oldest first, e.g.
  // {"closed->open", "open->half_open", "half_open->closed"}. The golden
  // trace the chaos suite locks in.
  std::vector<std::string> transitions() const;

  static const char* StateName(State state);

 private:
  void TransitionLocked(State next);
  Clock::time_point NowFor() const { return time_source_->Now(); }

  const int failure_threshold_;
  const Clock::duration cooldown_;
  const util::TimeSource* const time_source_;

  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int trips_ = 0;
  bool probe_in_flight_ = false;
  Clock::time_point opened_at_{};
  std::vector<std::string> transitions_;
};

}  // namespace serve
}  // namespace cadrl

#endif  // CADRL_SERVE_CIRCUIT_BREAKER_H_
