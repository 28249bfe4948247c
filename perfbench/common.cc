#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "eval/metrics.h"
#include "util/thread_pool.h"

namespace cadrl {
namespace perfbench {

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------
struct Tracer::Buffer {
  std::vector<Span> spans;
};

namespace {
thread_local uint64_t t_open_span = 0;
thread_local uint64_t t_open_request = 0;
}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Tracer::Buffer* Tracer::LocalBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 14);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return buffer;
}

void Tracer::Record(const Span& span) { LocalBuffer()->spans.push_back(span); }

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Instance();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.NextId();
  span_.parent = t_open_span;
  span_.request = request != 0 ? request : t_open_request;
  saved_parent_ = t_open_span;
  saved_request_ = t_open_request;
  t_open_span = span_.id;
  t_open_request = span_.request;
  span_.start_ns = tracer.NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tracer& tracer = Tracer::Instance();
  span_.end_ns = tracer.NowNs();
  t_open_span = saved_parent_;
  t_open_request = saved_request_;
  tracer.Record(span_);
}

// ---------------------------------------------------------------------------
// World and model configuration
// ---------------------------------------------------------------------------
data::SyntheticConfig WorldConfig(bool smoke) {
  if (smoke) return data::SyntheticConfig::Tiny();
  data::SyntheticConfig c = data::SyntheticConfig::BeautySim();
  c.name = "Beauty-x4";
  c.num_users *= 4;
  c.num_items *= 4;
  c.num_categories *= 4;
  c.num_brands *= 4;
  c.num_features *= 4;
  return c;
}

baselines::RlBudget BenchBudget(bool smoke) {
  baselines::RlBudget b;
  b.dim = 24;
  b.transe_epochs = smoke ? 3 : 8;
  b.cggnn_epochs = smoke ? 2 : 20;
  b.episodes_per_user = smoke ? 1 : 6;
  b.beam_width = smoke ? 8 : 16;
  b.policy_hidden = 48;
  b.threads = kWorkloadThreads;
  b.seed = 7;
  return b;
}

baselines::RlBudget SmallBudget(bool smoke) {
  baselines::RlBudget b = BenchBudget(smoke);
  b.cggnn_epochs = 2;
  b.episodes_per_user = 1;
  return b;
}

core::CadrlOptions ModelOptions(const baselines::RlBudget& budget) {
  return baselines::MakeCadrlForDataset(budget, "Beauty")->options();
}

// ---------------------------------------------------------------------------
// Answers and quality
// ---------------------------------------------------------------------------
bool SameAnswer(const std::vector<eval::Recommendation>& a,
                const std::vector<eval::Recommendation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item) return false;
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
    if (a[i].path.user != b[i].path.user) return false;
    if (a[i].path.steps != b[i].path.steps) return false;
  }
  return true;
}

void PerturbAnswers(std::vector<std::vector<eval::Recommendation>>* answers) {
  for (auto& answer : *answers) {
    if (answer.empty()) continue;
    answer[0].score = std::nextafter(answer[0].score, HUGE_VAL);
  }
}

std::vector<std::vector<eval::Recommendation>> ReferenceAnswers(
    core::CadrlRecommender* model, const data::Dataset& dataset,
    int threads) {
  std::vector<std::vector<eval::Recommendation>> answers(
      dataset.users.size());
  ThreadPool pool(threads);
  const Status st = pool.ParallelFor(
      0, static_cast<int64_t>(dataset.users.size()), 1, [&](int64_t i) {
        answers[static_cast<size_t>(i)] =
            model->Recommend(dataset.users[static_cast<size_t>(i)], kTopK);
        return Status::OK();
      });
  CADRL_CHECK(st.ok()) << st.ToString();
  return answers;
}

void AddQualityMetrics(
    const data::Dataset& dataset,
    const std::vector<std::vector<eval::Recommendation>>& answers,
    Metrics* metrics) {
  eval::MetricValues sum;
  int64_t users = 0;
  for (size_t u = 0; u < dataset.users.size(); ++u) {
    if (dataset.test_items[u].empty()) continue;
    std::vector<kg::EntityId> ranked;
    for (const auto& rec : answers[u]) ranked.push_back(rec.item);
    sum += eval::ComputeTopK(ranked, dataset.test_items[u], kTopK);
    ++users;
  }
  const eval::MetricValues mean =
      users > 0 ? sum / static_cast<double>(users) : sum;
  metrics->Set("ndcg_at_10", 100.0 * mean.ndcg, "%");
  metrics->Set("hr_at_10", 100.0 * mean.hit_rate, "%");
}

// ---------------------------------------------------------------------------
// Statistics and process state
// ---------------------------------------------------------------------------
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(values.size() - 1)));
  return values[idx];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

// Quantile `q` of a RecommendService latency histogram, in milliseconds,
// interpolated linearly inside its power-of-two bucket from the cumulative
// `_bucket{le=...}` counts of MetricsText(). (The exposition's own
// quantile lines give a bucket's upper bound, which moves only in 2x
// steps.)
double ServeQuantileMs(const std::string& metrics_text,
                       const std::string& histogram, double q) {
  const std::string prefix = histogram + "_bucket{le=\"";
  std::vector<std::pair<double, double>> buckets;  // (upper us, cumulative)
  std::istringstream in(metrics_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string le =
        line.substr(prefix.size(), line.find('"', prefix.size()) - prefix.size());
    if (le == "+Inf") continue;
    buckets.emplace_back(std::stod(le),
                         std::stod(line.substr(line.rfind(' ') + 1)));
  }
  if (buckets.empty() || buckets.back().second <= 0.0) return 0.0;
  const double target = q * buckets.back().second;
  double lower = 0.0, below = 0.0;
  for (const auto& [upper, cumulative] : buckets) {
    if (cumulative >= target && cumulative > below) {
      return (lower + (upper - lower) * (target - below) /
                          (cumulative - below)) /
             1000.0;
    }
    lower = upper;
    below = cumulative;
  }
  return lower / 1000.0;
}

}  // namespace

void AddServeLayerMetrics(const serve::RecommendService* service,
                          Metrics* metrics) {
  double wait_p50 = 0.0, wait_p99 = 0.0, primary_p50 = 0.0, primary_p99 = 0.0;
  double degraded = 0.0, retries = 0.0, sheds = 0.0;
  if (service != nullptr) {
    const std::string text = service->MetricsText();
    wait_p50 = ServeQuantileMs(text, "cadrl_serve_queue_wait_us", 0.5);
    wait_p99 = ServeQuantileMs(text, "cadrl_serve_queue_wait_us", 0.99);
    primary_p50 = ServeQuantileMs(text, "cadrl_serve_primary_latency_us", 0.5);
    primary_p99 = ServeQuantileMs(text, "cadrl_serve_primary_latency_us", 0.99);
    const serve::RecommendService::Stats s = service->stats();
    degraded = static_cast<double>(s.cached + s.popularity + s.failed);
    retries = static_cast<double>(s.retries);
    sheds = static_cast<double>(s.load_shed);
  }
  metrics->Set("serve.queue_wait_ms.p50", wait_p50, "ms");
  metrics->Set("serve.queue_wait_ms.p99", wait_p99, "ms");
  metrics->Set("serve.primary_ms.p50", primary_p50, "ms");
  metrics->Set("serve.primary_ms.p99", primary_p99, "ms");
  metrics->Set("serve.degraded", degraded, "count");
  metrics->Set("serve.retries", retries, "count");
  metrics->Set("serve.sheds", sheds, "count");
}

}  // namespace perfbench
}  // namespace cadrl
