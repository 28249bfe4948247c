#include "serve/admission_controller.h"

#include <algorithm>

#include "util/logging.h"

namespace cadrl {
namespace serve {

Status AdmissionOptions::Validate() const {
  if (initial_limit < 1.0) {
    return Status::InvalidArgument("admission initial_limit must be >= 1");
  }
  if (min_limit < 1.0) {
    return Status::InvalidArgument("admission min_limit must be >= 1");
  }
  if (max_limit < min_limit) {
    return Status::InvalidArgument(
        "admission max_limit must be >= min_limit");
  }
  if (initial_limit < min_limit || initial_limit > max_limit) {
    return Status::InvalidArgument(
        "admission initial_limit must lie in [min_limit, max_limit]");
  }
  if (additive_increase <= 0.0) {
    return Status::InvalidArgument(
        "admission additive_increase must be > 0");
  }
  if (decrease_factor <= 0.0 || decrease_factor >= 1.0) {
    return Status::InvalidArgument(
        "admission decrease_factor must be in (0, 1)");
  }
  if (window < 1) {
    return Status::InvalidArgument("admission window must be >= 1");
  }
  if (latency_target.count() < 0) {
    return Status::InvalidArgument("admission latency_target must be >= 0");
  }
  if (deadline_fraction <= 0.0 || deadline_fraction > 1.0) {
    return Status::InvalidArgument(
        "admission deadline_fraction must be in (0, 1]");
  }
  if (decrease_cooldown.count() < 0) {
    return Status::InvalidArgument(
        "admission decrease_cooldown must be >= 0");
  }
  return Status::OK();
}

AdmissionController::AdmissionController(
    const AdmissionOptions& options,
    std::chrono::microseconds default_deadline,
    const util::TimeSource* time_source)
    : options_(options),
      target_(options.latency_target.count() > 0
                  ? options.latency_target
                  : std::chrono::microseconds(static_cast<int64_t>(
                        options.deadline_fraction *
                        static_cast<double>(default_deadline.count())))),
      cooldown_(options.decrease_cooldown.count() > 0
                    ? options.decrease_cooldown
                    : target_),
      time_(time_source != nullptr ? time_source : util::RealTimeSource::Get()),
      limit_(options.initial_limit) {
  CADRL_CHECK(options_.Validate().ok()) << options_.Validate().ToString();
}

bool AdmissionController::TryAcquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.enabled && inflight_ >= static_cast<int>(limit_)) {
    ++rejected_;
    return false;
  }
  ++inflight_;
  ++admitted_;
  return true;
}

void AdmissionController::Release() {
  std::lock_guard<std::mutex> lock(mu_);
  --inflight_;
  CADRL_CHECK_GE(inflight_, 0);
}

bool AdmissionController::ShouldShedEarly(
    util::TimeSource::Clock::duration remaining) const {
  if (!options_.enabled) return false;
  if (remaining <= util::TimeSource::Clock::duration::zero()) return true;
  const int64_t floor_p95 = floor_.PercentileUs(0.95);
  return remaining < std::chrono::microseconds(floor_p95);
}

void AdmissionController::OnPrimarySample(std::chrono::nanoseconds latency) {
  std::lock_guard<std::mutex> lock(mu_);
  window_.Record(latency);
  ++window_count_;
  // Additive increase only at the frontier — when in-flight load actually
  // presses against the limit. Growing an unloaded service's limit would
  // just store up a burst of doomed admissions for the next overload.
  if (latency <= target_ && 2 * inflight_ >= static_cast<int>(limit_) &&
      limit_ < options_.max_limit) {
    limit_ = std::min(options_.max_limit,
                      limit_ + options_.additive_increase / limit_);
    ++increases_;
  }
  if (window_count_ >= options_.window) {
    const int64_t p95 = window_.PercentileUs(0.95);
    last_window_p95_us_ = p95;
    window_.Reset();
    window_count_ = 0;
    if (p95 > target_.count()) {
      ++breaches_;
      const auto now = time_->Now();
      if (now - last_decrease_ >= cooldown_) {
        DecreaseLocked();
        last_decrease_ = now;
      }
    }
  }
}

void AdmissionController::OnFloorSample(std::chrono::nanoseconds latency) {
  floor_.Record(latency);
}

void AdmissionController::OnQueueTimeout() {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = time_->Now();
  if (now - last_decrease_ >= cooldown_) {
    DecreaseLocked();
    last_decrease_ = now;
  }
}

void AdmissionController::DecreaseLocked() {
  limit_ = std::max(options_.min_limit, limit_ * options_.decrease_factor);
  ++decreases_;
}

double AdmissionController::limit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return limit_;
}

int AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

AdmissionController::Snapshot AdmissionController::snapshot() const {
  Snapshot out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.limit = limit_;
    out.inflight = inflight_;
    out.admitted = admitted_;
    out.rejected = rejected_;
    out.increases = increases_;
    out.decreases = decreases_;
    out.breaches = breaches_;
    out.last_window_p95_us = last_window_p95_us_;
  }
  out.floor_p95_us = floor_.PercentileUs(0.95);
  return out;
}

}  // namespace serve
}  // namespace cadrl
