// Unit tests for the overload-control primitives (DESIGN.md §15): the
// power-of-two-bucket LatencyHistogram, the injectable TimeSource (real and
// virtual), deadline contexts on a virtual clock, and the AIMD
// AdmissionController's increase/decrease/cooldown/early-shed mechanics.
// The end-to-end behavior under sustained overload lives in
// overload_chaos_test.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/admission_controller.h"
#include "util/deadline.h"
#include "util/latency_histogram.h"
#include "util/time_source.h"

namespace cadrl {
namespace {

using serve::AdmissionController;
using serve::AdmissionOptions;
using util::LatencyHistogram;

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;

// ---------- LatencyHistogram ----------

TEST(LatencyHistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly 0us; bucket b >= 1 covers [2^(b-1), 2^b - 1].
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketOf(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1023), 10u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1024), 11u);
  // Huge samples clamp into the last bucket.
  EXPECT_EQ(LatencyHistogram::BucketOf(int64_t{1} << 62),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketUpperUs(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketUpperUs(1), 1);
  EXPECT_EQ(LatencyHistogram::BucketUpperUs(3), 7);
}

TEST(LatencyHistogramTest, PercentilesAreBucketUpperBounds) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.TotalCount(), 0);
  EXPECT_EQ(hist.PercentileUs(0.95), 0);  // empty -> 0

  // 90 fast samples (1us), 10 slow (100us -> bucket upper 127us).
  for (int i = 0; i < 90; ++i) hist.RecordUs(1);
  for (int i = 0; i < 10; ++i) hist.RecordUs(100);
  EXPECT_EQ(hist.TotalCount(), 100);
  EXPECT_EQ(hist.PercentileUs(0.5), 1);
  EXPECT_EQ(hist.PercentileUs(0.9), 1);
  EXPECT_EQ(hist.PercentileUs(0.95), 127);
  EXPECT_EQ(hist.PercentileUs(1.0), 127);

  hist.Reset();
  EXPECT_EQ(hist.TotalCount(), 0);
  EXPECT_EQ(hist.PercentileUs(0.95), 0);
}

TEST(LatencyHistogramTest, SubMicrosecondSamplesRoundUpToOneMicrosecond) {
  // The early-shed gate compares budgets against the floor stage's p95; a
  // fast-but-nonzero stage must never report 0.
  LatencyHistogram hist;
  hist.Record(nanoseconds{1});
  hist.Record(nanoseconds{999});
  hist.Record(nanoseconds{1000});
  EXPECT_EQ(hist.PercentileUs(1.0), 1);
  hist.Record(nanoseconds{0});  // true zero stays bucket 0
  EXPECT_EQ(hist.PercentileUs(0.25), 0);
}

// ---------- VirtualTimeSource ----------

TEST(VirtualTimeSourceTest, AdvanceAndSleepMoveTheClock) {
  util::VirtualTimeSource clock;
  const auto t0 = clock.Now();
  clock.Advance(milliseconds{5});
  EXPECT_EQ(clock.Now() - t0, milliseconds{5});
  // "Whoever sleeps, advances": SleepFor costs no wall time.
  clock.SleepFor(milliseconds{10});
  EXPECT_EQ(clock.Now() - t0, milliseconds{15});
  clock.SleepFor(milliseconds{-3});  // non-positive: no-op
  EXPECT_EQ(clock.Now() - t0, milliseconds{15});
  clock.AdvanceTo(t0 + milliseconds{20});
  EXPECT_EQ(clock.Now() - t0, milliseconds{20});
  clock.AdvanceTo(t0);  // never moves backwards
  EXPECT_EQ(clock.Now() - t0, milliseconds{20});
}

TEST(VirtualTimeSourceTest, WaitUntilRespectsVirtualDeadline) {
  util::VirtualTimeSource clock;
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);

  // Deadline already passed in virtual time: immediate timeout.
  EXPECT_EQ(clock.WaitUntil(cv, lock, clock.Now() - milliseconds{1}),
            std::cv_status::timeout);
  // Deadline in the virtual future: one bounded real-time slice, then
  // no_timeout (the contract allows spurious wakeups; callers re-check
  // their predicate).
  EXPECT_EQ(clock.WaitUntil(cv, lock, clock.Now() + std::chrono::hours{1}),
            std::cv_status::no_timeout);
  // Another thread advancing the clock past the deadline turns the next
  // slice into a timeout.
  const auto deadline = clock.Now() + milliseconds{1};
  std::thread advancer([&clock] { clock.Advance(milliseconds{2}); });
  advancer.join();
  EXPECT_EQ(clock.WaitUntil(cv, lock, deadline), std::cv_status::timeout);
}

TEST(VirtualTimeSourceTest, RequestContextDeadlinesRunOnTheVirtualClock) {
  util::VirtualTimeSource clock;
  RequestContext ctx = RequestContext::WithTimeout(milliseconds{10}, &clock);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_FALSE(ctx.expired());
  EXPECT_EQ(ctx.remaining(), milliseconds{10});
  clock.Advance(milliseconds{9});
  EXPECT_FALSE(ctx.expired());
  EXPECT_EQ(ctx.remaining(), milliseconds{1});
  clock.Advance(milliseconds{1});
  EXPECT_TRUE(ctx.expired());
  EXPECT_TRUE(ctx.Check().IsDeadlineExceeded());
}

// ---------- AdmissionController ----------

AdmissionOptions EnabledOptions() {
  AdmissionOptions o;
  o.enabled = true;
  o.initial_limit = 4.0;
  o.min_limit = 2.0;
  o.max_limit = 64.0;
  o.window = 4;
  return o;
}

TEST(AdmissionControllerTest, ValidateRejectsBadKnobs) {
  AdmissionOptions o = EnabledOptions();
  o.decrease_factor = 1.5;
  EXPECT_FALSE(o.Validate().ok());
  o = EnabledOptions();
  o.initial_limit = 100.0;  // above max_limit
  EXPECT_FALSE(o.Validate().ok());
  o = EnabledOptions();
  o.window = 0;
  EXPECT_FALSE(o.Validate().ok());
  EXPECT_TRUE(EnabledOptions().Validate().ok());
}

TEST(AdmissionControllerTest, TryAcquireEnforcesTheLimit) {
  util::VirtualTimeSource clock;
  AdmissionController ctl(EnabledOptions(), milliseconds{20}, &clock);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ctl.TryAcquire());
  EXPECT_FALSE(ctl.TryAcquire());  // limit 4 reached
  EXPECT_EQ(ctl.inflight(), 4);
  ctl.Release();
  EXPECT_TRUE(ctl.TryAcquire());
  const auto snap = ctl.snapshot();
  EXPECT_EQ(snap.admitted, 5);
  EXPECT_EQ(snap.rejected, 1);
}

TEST(AdmissionControllerTest, DisabledNeverRejectsButStillTracks) {
  util::VirtualTimeSource clock;
  AdmissionOptions o = EnabledOptions();
  o.enabled = false;
  AdmissionController ctl(o, milliseconds{20}, &clock);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ctl.TryAcquire());
  EXPECT_EQ(ctl.inflight(), 100);
  EXPECT_FALSE(ctl.ShouldShedEarly(microseconds{-1}));
  ctl.OnQueueTimeout();  // no decrease when disabled
  EXPECT_EQ(ctl.snapshot().decreases, 0);
}

TEST(AdmissionControllerTest, LatencyTargetDerivesFromDeadline) {
  util::VirtualTimeSource clock;
  AdmissionOptions o = EnabledOptions();
  o.deadline_fraction = 0.5;
  AdmissionController ctl(o, milliseconds{20}, &clock);
  EXPECT_EQ(ctl.latency_target(), milliseconds{10});
  o.latency_target = milliseconds{3};  // explicit target wins
  AdmissionController pinned(o, milliseconds{20}, &clock);
  EXPECT_EQ(pinned.latency_target(), milliseconds{3});
}

TEST(AdmissionControllerTest, AdditiveIncreaseOnlyAtTheFrontier) {
  util::VirtualTimeSource clock;
  AdmissionController ctl(EnabledOptions(), milliseconds{20}, &clock);
  // No in-flight load: under-target samples must NOT grow the limit.
  ctl.OnPrimarySample(milliseconds{1});
  EXPECT_DOUBLE_EQ(ctl.limit(), 4.0);

  // At the frontier (2 * inflight >= limit) under-target samples grow it
  // by additive_increase / limit each.
  EXPECT_TRUE(ctl.TryAcquire());
  EXPECT_TRUE(ctl.TryAcquire());
  ctl.OnPrimarySample(milliseconds{1});
  EXPECT_DOUBLE_EQ(ctl.limit(), 4.25);
  // Over-target samples never grow it.
  ctl.OnPrimarySample(milliseconds{15});
  EXPECT_DOUBLE_EQ(ctl.limit(), 4.25);
}

TEST(AdmissionControllerTest, WindowBreachDecreasesWithCooldown) {
  util::VirtualTimeSource clock;
  AdmissionOptions o = EnabledOptions();  // window = 4, target 10ms
  o.initial_limit = 8.0;
  AdmissionController ctl(o, milliseconds{20}, &clock);

  // One full window of over-target samples: p95 breaches -> x0.7.
  for (int i = 0; i < 4; ++i) ctl.OnPrimarySample(milliseconds{15});
  EXPECT_EQ(ctl.snapshot().breaches, 1);
  EXPECT_EQ(ctl.snapshot().decreases, 1);
  EXPECT_NEAR(ctl.limit(), 8.0 * 0.7, 1e-9);

  // A second breaching window inside the cooldown records the breach but
  // does not cut again.
  for (int i = 0; i < 4; ++i) ctl.OnPrimarySample(milliseconds{15});
  EXPECT_EQ(ctl.snapshot().breaches, 2);
  EXPECT_EQ(ctl.snapshot().decreases, 1);

  // After the cooldown (defaults to the latency target) it cuts again...
  clock.Advance(milliseconds{10});
  for (int i = 0; i < 4; ++i) ctl.OnPrimarySample(milliseconds{15});
  EXPECT_EQ(ctl.snapshot().decreases, 2);
  EXPECT_NEAR(ctl.limit(), 8.0 * 0.7 * 0.7, 1e-9);

  // ...but never below min_limit.
  for (int i = 0; i < 100; ++i) {
    clock.Advance(milliseconds{10});
    for (int j = 0; j < 4; ++j) ctl.OnPrimarySample(milliseconds{15});
  }
  EXPECT_DOUBLE_EQ(ctl.limit(), 2.0);
}

TEST(AdmissionControllerTest, QueueTimeoutCutsTheLimit) {
  util::VirtualTimeSource clock;
  AdmissionController ctl(EnabledOptions(), milliseconds{20}, &clock);
  ctl.OnQueueTimeout();
  EXPECT_NEAR(ctl.limit(), 4.0 * 0.7, 1e-9);
  ctl.OnQueueTimeout();  // inside cooldown: no second cut
  EXPECT_EQ(ctl.snapshot().decreases, 1);
}

TEST(AdmissionControllerTest, ShouldShedEarlyTracksTheFloorP95) {
  util::VirtualTimeSource clock;
  AdmissionController ctl(EnabledOptions(), milliseconds{20}, &clock);
  // Exhausted (or negative) budget always sheds.
  EXPECT_TRUE(ctl.ShouldShedEarly(microseconds{0}));
  EXPECT_TRUE(ctl.ShouldShedEarly(microseconds{-5}));
  // No floor samples yet: any positive budget passes.
  EXPECT_FALSE(ctl.ShouldShedEarly(microseconds{1}));
  // With an observed floor p95 (~127us bucket upper for 100us samples), a
  // budget below it sheds, at/above it passes.
  for (int i = 0; i < 20; ++i) ctl.OnFloorSample(microseconds{100});
  EXPECT_EQ(ctl.snapshot().floor_p95_us, 127);
  EXPECT_TRUE(ctl.ShouldShedEarly(microseconds{126}));
  EXPECT_FALSE(ctl.ShouldShedEarly(microseconds{127}));
  EXPECT_FALSE(ctl.ShouldShedEarly(milliseconds{5}));
}

}  // namespace
}  // namespace cadrl
