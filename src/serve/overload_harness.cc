#include "serve/overload_harness.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "util/logging.h"
#include "util/rng.h"

namespace cadrl {
namespace serve {

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A model whose *simulated* execution cost lives in the event loop, not
// here: the harness advances the virtual clock by the request's service
// time before PumpFinish, and this body only decides the outcome — full
// answer when the budget survived, the context's verdict otherwise.
class SimRecommender : public eval::Recommender {
 public:
  explicit SimRecommender(std::vector<kg::EntityId> items)
      : items_(std::move(items)) {
    CADRL_CHECK(!items_.empty());
  }

  std::string name() const override { return "sim"; }
  Status Fit(const data::Dataset&) override { return Status::OK(); }
  bool SupportsConcurrentInference() const override { return true; }

  std::vector<eval::Recommendation> Recommend(kg::EntityId user,
                                              int k) override {
    std::vector<eval::Recommendation> out;
    Recommend(user, k, RequestContext(), &out).ok();
    return out;
  }

  Status Recommend(kg::EntityId user, int k, const RequestContext& ctx,
                   std::vector<eval::Recommendation>* out) override {
    const Status status = ctx.Check();
    if (!status.ok()) return status;
    out->clear();
    const int n = std::min<int>(k, static_cast<int>(items_.size()));
    for (int i = 0; i < n; ++i) {
      eval::Recommendation rec;
      rec.item = items_[static_cast<size_t>(i)];
      rec.score = 1.0 - 0.01 * i;
      rec.path.user = user;
      out->push_back(std::move(rec));
    }
    return Status::OK();
  }

 private:
  const std::vector<kg::EntityId> items_;
};

}  // namespace

OverloadReport RunOverload(const OverloadOptions& options) {
  CADRL_CHECK_GT(options.workers, 0);
  CADRL_CHECK_GT(options.mean_service.count(), 0);
  CADRL_CHECK_GT(options.offered_multiplier, 0.0);

  const data::Dataset dataset =
      data::MustGenerateDataset(data::SyntheticConfig::Tiny());
  std::vector<kg::EntityId> items;
  for (const auto& train : dataset.train_items) {
    for (kg::EntityId item : train) {
      if (items.size() >= 32) break;
      items.push_back(item);
    }
  }
  SimRecommender model(std::move(items));

  util::VirtualTimeSource clock;

  ServeOptions serve_options;
  serve_options.threads = 1;  // unused: manual pump spawns no workers
  serve_options.queue_capacity = options.queue_capacity;
  serve_options.max_attempts = 1;
  serve_options.default_timeout =
      std::chrono::duration_cast<std::chrono::milliseconds>(options.deadline);
  serve_options.breaker_failure_threshold = 0;  // determinism: no breakers
  serve_options.seed = options.seed;
  serve_options.time_source = &clock;
  serve_options.manual_pump = true;
  serve_options.admission = options.admission;
  serve_options.admission.enabled = options.adaptive_admission;
  RecommendService service(&model, dataset, serve_options);
  CADRL_CHECK(service.Start().ok());

  // Open-loop Poisson arrivals at offered_multiplier x nominal capacity,
  // precomputed in integer nanoseconds from the seed alone.
  const double capacity_per_s =
      static_cast<double>(options.workers) * 1e6 /
      static_cast<double>(options.mean_service.count());
  const double offered_per_s = capacity_per_s * options.offered_multiplier;
  const double rate_per_ns = offered_per_s / 1e9;
  const int64_t duration_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(options.duration)
          .count();
  std::vector<int64_t> arrivals;
  {
    Rng arrival_rng(options.seed);
    int64_t t = 0;
    for (;;) {
      const double u = arrival_rng.Uniform();
      t += std::max<int64_t>(
          1, static_cast<int64_t>(-std::log1p(-u) / rate_per_ns));
      if (t >= duration_ns) break;
      arrivals.push_back(t);
    }
  }

  const int64_t mean_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          options.mean_service)
          .count();
  const int64_t skim_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(options.skim_cost)
          .count();
  auto service_time_ns = [&](uint64_t id) {
    const double u =
        static_cast<double>(Mix64(options.seed ^ (id * 0x2545f4914f6cdd1dULL))
                            >> 11) *
        0x1.0p-53;
    const double scale =
        1.0 - options.service_jitter + 2.0 * options.service_jitter * u;
    return std::max<int64_t>(1, static_cast<int64_t>(
                                    static_cast<double>(mean_ns) * scale));
  };

  const auto start = clock.Now();
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(arrivals.size());

  // Completions keyed (finish time, start sequence): std::map because
  // StartedRequest is move-only and extract() hands the node back whole.
  std::map<std::pair<int64_t, int64_t>, RecommendService::StartedRequest>
      completions;
  int idle_workers = options.workers;
  int64_t start_seq = 0;
  std::vector<double> limit_samples;  // second half of the run only

  auto dispatch = [&](int64_t now_ns) {
    while (idle_workers > 0) {
      RecommendService::StartedRequest started;
      if (!service.PumpStart(&started)) break;
      const int64_t cost = started.expired_at_start()
                               ? skim_ns
                               : service_time_ns(started.id());
      completions.emplace(std::make_pair(now_ns + cost, start_seq++),
                          std::move(started));
      --idle_workers;
    }
  };

  size_t next_arrival = 0;
  while (next_arrival < arrivals.size() || !completions.empty()) {
    const bool take_arrival =
        next_arrival < arrivals.size() &&
        (completions.empty() ||
         arrivals[next_arrival] <= completions.begin()->first.first);
    if (take_arrival) {
      const int64_t t = arrivals[next_arrival];
      clock.AdvanceTo(start + std::chrono::nanoseconds(t));
      ServeRequest req;
      req.id = static_cast<uint64_t>(next_arrival) + 1;
      req.user = dataset.users[next_arrival % dataset.users.size()];
      req.k = 5;
      req.timeout = options.deadline;
      futures.push_back(service.Submit(std::move(req)));
      ++next_arrival;
      dispatch(t);
    } else {
      auto node = completions.extract(completions.begin());
      const int64_t t = node.key().first;
      clock.AdvanceTo(start + std::chrono::nanoseconds(t));
      service.PumpFinish(std::move(node.mapped()));
      ++idle_workers;
      if (options.adaptive_admission && t >= duration_ns / 2) {
        limit_samples.push_back(service.admission().limit());
      }
      dispatch(t);
    }
  }
  service.Stop();

  OverloadReport report;
  report.offered = static_cast<int64_t>(futures.size());
  report.offered_per_s = offered_per_s;
  const double grace_us =
      options.grace.count() > 0
          ? static_cast<double>(options.grace.count())
          : static_cast<double>(options.deadline.count());
  const double deadline_ms =
      static_cast<double>(options.deadline.count()) / 1e3;
  const double late_ms = deadline_ms + grace_us / 1e3;
  std::vector<double> full_latencies_ms;
  std::ostringstream log;
  for (auto& future : futures) {
    ServeResponse resp = future.get();
    const bool full = resp.level == DegradationLevel::kFull;
    if (full) {
      ++report.answered_full;
      full_latencies_ms.push_back(resp.latency_ms);
      if (resp.latency_ms > deadline_ms) ++report.late_full;
    } else {
      ++report.degraded;
    }
    if (resp.load_shed) ++report.shed;
    if (resp.latency_ms > late_ms) ++report.late_answers;
    log << "id=" << resp.request_id << " level="
        << DegradationLevelName(resp.level)
        << " shed=" << (resp.load_shed ? 1 : 0)
        << " status=" << static_cast<int>(resp.status.code())
        << " primary=" << static_cast<int>(resp.primary_status.code())
        << "\n";
  }
  report.decision_log = log.str();
  const double duration_s = static_cast<double>(duration_ns) / 1e9;
  report.goodput_per_s =
      static_cast<double>(report.answered_full) / duration_s;
  report.shed_rate = report.offered > 0
                         ? static_cast<double>(report.shed) /
                               static_cast<double>(report.offered)
                         : 0.0;
  if (!full_latencies_ms.empty()) {
    std::sort(full_latencies_ms.begin(), full_latencies_ms.end());
    const size_t idx = std::min(
        full_latencies_ms.size() - 1,
        static_cast<size_t>(0.95 * static_cast<double>(
                                       full_latencies_ms.size())));
    report.p95_full_ms = full_latencies_ms[idx];
  }
  if (!limit_samples.empty()) {
    report.limit_min =
        *std::min_element(limit_samples.begin(), limit_samples.end());
    report.limit_max =
        *std::max_element(limit_samples.begin(), limit_samples.end());
    double sum = 0.0;
    for (const double v : limit_samples) sum += v;
    report.limit_mean = sum / static_cast<double>(limit_samples.size());
  }
  report.stats = service.stats();
  return report;
}

}  // namespace serve
}  // namespace cadrl
