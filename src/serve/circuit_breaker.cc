#include "serve/circuit_breaker.h"

namespace cadrl {
namespace serve {

CircuitBreaker::CircuitBreaker(int failure_threshold, Clock::duration cooldown,
                               const util::TimeSource* time_source)
    : failure_threshold_(failure_threshold),
      cooldown_(cooldown),
      time_source_(time_source != nullptr ? time_source
                                          : util::RealTimeSource::Get()) {}

bool CircuitBreaker::Allow() {
  if (failure_threshold_ <= 0) return true;  // disabled
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen: {
      if (NowFor() - opened_at_ < cooldown_) return false;
      TransitionLocked(State::kHalfOpen);
      probe_in_flight_ = true;
      return true;
    }
    case State::kHalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  if (failure_threshold_ <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  if (state_ == State::kHalfOpen) {
    probe_in_flight_ = false;
    TransitionLocked(State::kClosed);
  }
}

void CircuitBreaker::RecordFailure() {
  if (failure_threshold_ <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++consecutive_failures_;
  if (state_ == State::kHalfOpen) {
    probe_in_flight_ = false;
    TransitionLocked(State::kOpen);
    ++trips_;
    opened_at_ = NowFor();
    return;
  }
  if (state_ == State::kClosed &&
      consecutive_failures_ >= failure_threshold_) {
    TransitionLocked(State::kOpen);
    ++trips_;
    opened_at_ = NowFor();
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

int CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consecutive_failures_;
}

int CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trips_;
}

std::vector<std::string> CircuitBreaker::transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transitions_;
}

const char* CircuitBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

void CircuitBreaker::TransitionLocked(State next) {
  transitions_.push_back(std::string(StateName(state_)) + "->" +
                         StateName(next));
  state_ = next;
}

}  // namespace serve
}  // namespace cadrl
