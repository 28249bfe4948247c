// The benchmark workloads. Each one stresses layers the other bypasses:
//
//   offline  fit at the bench budget, then blocking Recommend passes over
//            every user at 2 threads. Training layers (embed, core.cggnn,
//            rl, autograd) and the f32 heap request path do the work; the
//            serve layer, failpoints, int8 kernels and shards are bypassed.
//   reload   two small-budget fits compiled to int8 shard directories,
//            then seeded Poisson arrivals at a fixed rate against a
//            2-worker RecommendService with a 20 ms limit, timed from when
//            each request was due, while a reloader alternates the served
//            snapshot between the two directories. Rows are int8 over
//            mmap'ed shards, requests pass the serve layer and the
//            per-beam-element failpoint, a queue can build, and snapshot
//            writes run beside reads; training is idle.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "data/generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cadrl {
namespace perfbench {
namespace {

// Open-loop arrival rate of `reload`, fixed and never calibrated per run so
// a slower request path shows as latency and misses. A 2-worker service
// over int8 mapped shards completes about 550-700 requests/s on a shared
// 4-vCPU host depending on the host's load. At 200/s and above, five-run
// probes spread the median latency and the tail far more between runs
// (queueing amplifies the host's drift); 150/s keeps utilization near a
// quarter, where requests still queue behind each other and behind
// snapshot swaps.
constexpr double kOpenRatePerS = 150.0;
constexpr double kOpenLimitMs = 20.0;
constexpr auto kReloadPeriod = std::chrono::milliseconds(200);
constexpr int64_t kShardRows = 512;

std::atomic<uint64_t> g_request_ids{1};
uint64_t NextRequestId() {
  return g_request_ids.fetch_add(1, std::memory_order_relaxed);
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// Request-level outcome of a timed phase. Counts cover the whole phase; the
// latencies are every request's in reload and each user's fastest call in
// offline.
struct TimedStats {
  int64_t attempted = 0;
  int64_t failed = 0;  // no usable answer: error or shed (not a late answer)
  int64_t ok = 0;      // full answer within the workload's limit
  std::vector<double> latencies_ms;
};

void AddRequestMetrics(const TimedStats& t, Metrics* m) {
  m->Set("p50_ms", Percentile(t.latencies_ms, 0.50), "ms");
  m->Set("ok_share",
         t.attempted > 0 ? static_cast<double>(t.ok) /
                               static_cast<double>(t.attempted)
                         : 0.0,
         "share");
}

bool IsCompleteAnswer(const std::vector<eval::Recommendation>& recs) {
  if (recs.size() != static_cast<size_t>(kTopK)) return false;
  for (const auto& r : recs) {
    if (r.path.empty()) return false;
  }
  return true;
}

data::Dataset GenerateWorld(bool smoke) {
  ScopedSpan span("data.generate");
  return data::MustGenerateDataset(WorldConfig(smoke));
}

double FitOrThrow(core::CadrlRecommender* model, const data::Dataset& ds) {
  ScopedSpan span("core.fit");
  const auto t0 = Clock::now();
  const Status st = model->Fit(ds);
  if (!st.ok()) throw std::runtime_error("Fit failed: " + st.ToString());
  return SecondsSince(t0);
}

std::string RunDir(const RunOptions& o) {
  const std::string dir = o.work_dir + "/" + o.workload + "-seed" +
                          std::to_string(o.seed) + "-pid" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  return dir;
}

// Runs the timed phase untraced and, in a traced run, once more with
// spans on; returns the stats of the run whose metrics are reported and
// sets trace.overhead_frac from the p50 latency of the two.
template <typename Fn>
TimedStats TimedWithOverhead(const RunOptions& o, Metrics* layer, Fn run) {
  Tracer& tracer = Tracer::Instance();
  tracer.Enable(false);
  TimedStats plain = run();
  if (!o.trace) return plain;
  tracer.Enable(true);
  TimedStats traced = run();
  const double p0 = Percentile(plain.latencies_ms, 0.5);
  const double p1 = Percentile(traced.latencies_ms, 0.5);
  layer->Set("trace.overhead_frac", p0 > 0.0 ? p1 / p0 - 1.0 : 0.0, "share");
  return traced;
}

}  // namespace

// ---------------------------------------------------------------------------
// offline
// ---------------------------------------------------------------------------
RunReport RunOffline(const RunOptions& o) {
  RunReport report;
  Metrics& m = report.metrics;
  Tracer::Instance().Enable(o.trace);

  const auto setup_t0 = Clock::now();
  const data::Dataset ds = GenerateWorld(o.smoke);
  const core::CadrlOptions mo = ModelOptions(BenchBudget(o.smoke));
  core::CadrlRecommender model(mo);
  model.set_snapshot_precision(infer::Precision::kF32);
  const double fit_s = FitOrThrow(&model, ds);
  const double setup_s = SecondsSince(setup_t0);
  report.phases["setup"] = {1, 0};

  // Users in a seeded order; every pass walks all of them.
  std::vector<size_t> order(ds.users.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng(o.seed).Shuffle(&order);
  const int64_t n = static_cast<int64_t>(order.size());

  // Answers of the first pass; later passes must repeat them exactly.
  std::vector<std::vector<eval::Recommendation>> first(ds.users.size());
  std::vector<std::vector<eval::Recommendation>> pass_reference;
  bool have_first = false;
  CheckResult passes_equal;
  auto run = [&] {
    TimedStats t;
    ThreadPool pool(kWorkloadThreads);
    std::vector<double> lat(order.size());
    std::vector<double> best(order.size(), HUGE_VAL);
    std::vector<char> ok(order.size()), same(order.size());
    const auto t0 = Clock::now();
    for (int pass = 0; pass < 2 || SecondsSince(t0) < o.seconds; ++pass) {
      ScopedSpan pass_span("offline.pass");
      const bool store = !have_first;
      const Status st = pool.ParallelFor(0, n, 1, [&](int64_t i) {
        const size_t u = order[static_cast<size_t>(i)];
        std::vector<eval::Recommendation> rec;
        const auto c0 = Clock::now();
        {
          ScopedSpan span("core.recommend", NextRequestId());
          rec = model.Recommend(ds.users[u], kTopK);
        }
        lat[static_cast<size_t>(i)] = Ms(Clock::now() - c0);
        ok[static_cast<size_t>(i)] = IsCompleteAnswer(rec);
        if (store) {
          first[u] = std::move(rec);
        } else {
          same[static_cast<size_t>(i)] = SameAnswer(rec, pass_reference[u]);
        }
        return Status::OK();
      });
      if (!st.ok()) throw std::runtime_error(st.ToString());
      t.attempted += n;
      for (int64_t i = 0; i < n; ++i) {
        const size_t k = static_cast<size_t>(i);
        t.ok += ok[k];
        // Every pass repeats the same calls, and contention from other
        // tenants of a shared host only ever adds time, in bursts shorter
        // than a pass: each user's fastest call is the program's own cost.
        best[k] = std::min(best[k], lat[k]);
        if (!store) {
          ++passes_equal.checked;
          passes_equal.mismatches += same[k] ? 0 : 1;
        }
      }
      have_first = true;
      if (store) {
        pass_reference = first;
        if (o.force_mismatch) PerturbAnswers(&pass_reference);
      }
    }
    t.latencies_ms = best;
    return t;
  };
  const TimedStats timed = TimedWithOverhead(o, &m, run);
  report.phases["timed"] = {timed.attempted, timed.failed};
  report.attempted = timed.attempted;
  report.failed = timed.failed;
  Tracer::Instance().Enable(o.trace);

  // The 2-thread answers must equal a 1-thread reference on a user subset.
  CheckResult threads_equal;
  const size_t stride = o.smoke ? 2 : 10;
  std::vector<size_t> subset;
  for (size_t u = 0; u < ds.users.size(); u += stride) subset.push_back(u);
  std::vector<std::vector<eval::Recommendation>> serial(subset.size());
  for (size_t i = 0; i < subset.size(); ++i) {
    serial[i] = model.Recommend(ds.users[subset[i]], kTopK);
  }
  if (o.force_mismatch) PerturbAnswers(&serial);
  for (size_t i = 0; i < subset.size(); ++i) {
    ++threads_equal.checked;
    threads_equal.mismatches += SameAnswer(serial[i], first[subset[i]]) ? 0 : 1;
  }
  report.phases["reference"] = {static_cast<int64_t>(subset.size()), 0};
  report.checks["offline_threads_equal"] = threads_equal;
  report.checks["offline_passes_equal"] = passes_equal;

  m.Set("setup_s", setup_s, "s");
  m.Set("core.fit_s", fit_s, "s");
  AddQualityMetrics(ds, first, &m);
  AddRequestMetrics(timed, &m);
  if (o.trace) {
    ProbeContext ctx;
    ctx.options = &o;
    ctx.dataset = &ds;
    ctx.model = &model;
    ctx.model_options = mo;
    ctx.fit_s = fit_s;
    ctx.answers = &first;
    RunLayerProbes(ctx, &report);
  }
  AddServeLayerMetrics(nullptr, &m);
  m.Set("infer.shard_compile_ms", 0.0, "ms");
  m.Set("infer.shard_reload_ms", 0.0, "ms");
  m.Set("infer.shards_remapped_per_reload", 0.0, "count");
  m.Set("open.generator_lag_p99_ms", 0.0, "ms");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  return report;
}

// ---------------------------------------------------------------------------
// reload
// ---------------------------------------------------------------------------
RunReport RunReload(const RunOptions& o) {
  RunReport report;
  report.snapshot_precision = "int8";
  Metrics& m = report.metrics;
  Tracer::Instance().Enable(o.trace);
  const std::string run_dir = RunDir(o);
  const std::string dir_a = run_dir + "/snapshot-a";
  const std::string dir_b = run_dir + "/snapshot-b";

  const auto setup_t0 = Clock::now();
  const data::Dataset ds = GenerateWorld(o.smoke);
  baselines::RlBudget budget_a = SmallBudget(o.smoke);
  baselines::RlBudget budget_b = budget_a;
  budget_b.seed = budget_a.seed + 1;
  const core::CadrlOptions mo = ModelOptions(budget_a);
  core::CadrlRecommender model_a(mo);
  core::CadrlRecommender model_b(ModelOptions(budget_b));
  model_a.set_snapshot_precision(infer::Precision::kInt8);
  model_b.set_snapshot_precision(infer::Precision::kInt8);
  const double fit_a_s = FitOrThrow(&model_a, ds);
  FitOrThrow(&model_b, ds);
  std::vector<double> compile_ms;
  const std::pair<core::CadrlRecommender*, std::string> compiles[] = {
      {&model_a, dir_a}, {&model_b, dir_b}};
  for (const auto& [model, dir] : compiles) {
    ScopedSpan span("infer.shard_compile");
    const auto t0 = Clock::now();
    const Status st = model->CompileSnapshotToDir(dir, kShardRows, nullptr);
    if (!st.ok()) throw std::runtime_error("compile: " + st.ToString());
    compile_ms.push_back(Ms(Clock::now() - t0));
  }
  if (!model_a.ReloadFromShardDir(dir_a).ok()) {
    throw std::runtime_error("initial shard reload failed");
  }
  const double setup_s = SecondsSince(setup_t0);
  report.phases["setup"] = {1, 0};

  auto reference_a = ReferenceAnswers(&model_a, ds, kWorkloadThreads);
  auto reference_b = ReferenceAnswers(&model_b, ds, kWorkloadThreads);
  report.phases["reference"] = {2 * static_cast<int64_t>(ds.users.size()), 0};
  AddQualityMetrics(ds, reference_a, &m);
  if (o.force_mismatch) {
    PerturbAnswers(&reference_a);
    PerturbAnswers(&reference_b);
  }

  // Seeded Poisson schedule: arrival offsets and users.
  struct Arrival {
    double due_s;
    size_t user;
  };
  std::vector<Arrival> schedule;
  {
    Rng rng(o.seed);
    const int64_t num_users = static_cast<int64_t>(ds.users.size());
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.Uniform()) / kOpenRatePerS;
      if (t >= o.seconds) break;
      schedule.push_back({t, static_cast<size_t>(rng.UniformInt(num_users))});
    }
  }

  CheckResult matches;
  std::vector<double> lag_ms, reload_ms, remapped;
  PhaseCount reloads;
  std::unique_ptr<serve::RecommendService> last_service;
  auto run = [&] {
    serve::ServeOptions so;
    so.threads = kWorkloadThreads;
    auto service = std::make_unique<serve::RecommendService>(&model_a, ds, so);
    if (!service->Start().ok()) throw std::runtime_error("service start");
    if (!service->ReloadFromShardDir(dir_a).ok()) {
      throw std::runtime_error("shard reload failed");
    }
    lag_ms.clear();
    reload_ms.clear();
    remapped.clear();
    reloads = {};

    struct InFlight {
      size_t user;
      double lateness_ms;
      int64_t submit_ns;
      uint64_t request;
      std::future<serve::ServeResponse> response;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<InFlight> in_flight;
    bool generator_done = false;

    TimedStats t;
    Tracer& tracer = Tracer::Instance();
    const auto t0 = Clock::now();

    std::thread collector([&] {
      for (;;) {
        InFlight f;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !in_flight.empty() || generator_done; });
          if (in_flight.empty()) return;
          f = std::move(in_flight.front());
          in_flight.pop_front();
        }
        const serve::ServeResponse resp = f.response.get();
        const double latency = f.lateness_ms + resp.latency_ms;
        if (tracer.enabled()) {
          Span span;
          span.name = "open.request";
          span.id = tracer.NextId();
          span.request = f.request;
          span.start_ns = f.submit_ns - static_cast<int64_t>(f.lateness_ms * 1e6);
          span.end_ns = f.submit_ns + static_cast<int64_t>(resp.latency_ms * 1e6);
          tracer.Record(span);
        }
        ++t.attempted;
        const bool full =
            resp.status.ok() && resp.level == serve::DegradationLevel::kFull;
        const bool ok = full && latency <= kOpenLimitMs;
        if (!resp.status.ok()) ++t.failed;
        if (ok) ++t.ok;
        t.latencies_ms.push_back(latency);
        if (full) {
          ++matches.checked;
          const bool same = SameAnswer(resp.recs, reference_a[f.user]) ||
                            SameAnswer(resp.recs, reference_b[f.user]);
          matches.mismatches += same ? 0 : 1;
        }
      }
    });

    std::atomic<bool> stop_reloader{false};
    std::thread reloader([&] {
      int k = 0;
      auto next_at = Clock::now() + kReloadPeriod;
      while (!stop_reloader.load()) {
        std::this_thread::sleep_until(next_at);
        if (stop_reloader.load()) break;
        next_at += kReloadPeriod;
        const std::string& dir = (k++ % 2 == 0) ? dir_b : dir_a;
        const auto r0 = Clock::now();
        Status st;
        {
          ScopedSpan span("infer.shard_reload");
          st = service->ReloadFromShardDir(dir);
        }
        reload_ms.push_back(Ms(Clock::now() - r0));
        ++reloads.attempted;
        if (!st.ok()) {
          ++reloads.failed;
          continue;
        }
        remapped.push_back(model_a.ShardStatus().shards_remapped);
      }
    });

    for (const Arrival& a : schedule) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(a.due_s));
      std::this_thread::sleep_until(due);
      const auto now = Clock::now();
      const double lateness = Ms(now - due);
      lag_ms.push_back(lateness);
      serve::ServeRequest req;
      req.user = ds.users[a.user];
      req.k = kTopK;
      const double budget_ms = std::max(kOpenLimitMs - lateness, 0.001);
      req.timeout = std::chrono::microseconds(
          std::max<int64_t>(1, static_cast<int64_t>(budget_ms * 1000.0)));
      InFlight f;
      f.user = a.user;
      f.lateness_ms = lateness;
      f.submit_ns = tracer.enabled() ? tracer.NowNs() : 0;
      f.request = NextRequestId();
      f.response = service->Submit(req);
      {
        std::lock_guard<std::mutex> lock(mu);
        in_flight.push_back(std::move(f));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      generator_done = true;
    }
    cv.notify_one();
    collector.join();
    stop_reloader.store(true);
    reloader.join();
    service->Stop();
    last_service = std::move(service);
    return t;
  };
  const TimedStats timed = TimedWithOverhead(o, &m, run);
  report.phases["timed"] = {timed.attempted, timed.failed};
  report.phases["reload"] = reloads;
  report.attempted = timed.attempted;
  report.failed = timed.failed + reloads.failed;
  report.checks["reload_matches_a_or_b"] = matches;
  Tracer::Instance().Enable(o.trace);

  m.Set("setup_s", setup_s, "s");
  m.Set("core.fit_s", fit_a_s, "s");
  AddRequestMetrics(timed, &m);
  m.Set("open.generator_lag_p99_ms", Percentile(lag_ms, 0.99), "ms");
  AddServeLayerMetrics(last_service.get(), &m);
  last_service.reset();
  m.Set("infer.shard_compile_ms", Median(compile_ms), "ms");
  m.Set("infer.shard_reload_ms", Median(reload_ms), "ms");
  m.Set("infer.shards_remapped_per_reload", Median(remapped), "count");
  if (o.trace) {
    if (!model_a.ReloadFromShardDir(dir_a).ok()) {
      throw std::runtime_error("shard reload failed");
    }
    ProbeContext ctx;
    ctx.options = &o;
    ctx.dataset = &ds;
    ctx.model = &model_a;
    ctx.model_options = mo;
    ctx.fit_s = fit_a_s;
    ctx.answers = &reference_a;
    RunLayerProbes(ctx, &report);
  }
  std::filesystem::remove_all(run_dir);
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  return report;
}

}  // namespace perfbench
}  // namespace cadrl
