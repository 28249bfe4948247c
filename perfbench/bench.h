#ifndef CADRL_PERFBENCH_BENCH_H_
#define CADRL_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/rl_baselines.h"
#include "core/cadrl.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "eval/recommender.h"
#include "serve/recommend_service.h"

// Shared declarations of the repository benchmark (perfbench/README.md):
// run options, the metric sink, per-phase operation counts, correctness
// checks, the span tracer and the heap-allocation counter.
namespace cadrl {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Tiny world and budget for the benchmark's own tests.
  bool smoke = false;
  // Perturbs every reference answer so each correctness check must fire.
  bool force_mismatch = false;
  std::string revision = "unknown";
  // Scratch directory for shard snapshots and the trace file.
  std::string work_dir = ".bench_build/work";
};

// Metric sink: name -> (value, unit). Counts listed as deterministic must
// read the same on every run with the same seed.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  double Get(const std::string& name) const { return values_.at(name).value; }
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  const std::map<std::string, Entry>& values() const { return values_; }

 private:
  std::map<std::string, Entry> values_;
};

// Attempted/failed operations of one phase of a run.
struct PhaseCount {
  int64_t attempted = 0;
  int64_t failed = 0;
};

// One correctness check: how many answers it compared and how many of
// them differed from the reference.
struct CheckResult {
  int64_t checked = 0;
  int64_t mismatches = 0;
  bool ok() const { return checked > 0 && mismatches == 0; }
};

// Everything a workload reports back to main().
struct RunReport {
  Metrics metrics;
  std::map<std::string, PhaseCount> phases;
  std::map<std::string, CheckResult> checks;
  // Deterministic counts measured twice within the run; each pair must be
  // equal.
  std::map<std::string, std::pair<double, double>> repeat_counts;
  // Timed-phase totals for the result line.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string snapshot_precision = "f32";
};

// ---------------------------------------------------------------------------
// Span tracer. Spans are recorded from the benchmark's own code around each
// call into a layer, kept in per-thread buffers and written as JSON lines
// when the run ends. Disabled tracing costs one relaxed load per span.
// ---------------------------------------------------------------------------
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

class Tracer {
 public:
  static Tracer& Instance();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t NowNs() const;
  void Record(const Span& span);
  // Writes every recorded span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Tracer();
  struct Buffer;
  Buffer* LocalBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span; nests under the innermost open span of the same thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

// ---------------------------------------------------------------------------
// Heap-allocation counter (alloc_counter.cc replaces the global operator
// new for this binary only). Counts are per thread.
// ---------------------------------------------------------------------------
int64_t ThreadHeapAllocs();

// ---------------------------------------------------------------------------
// World and model configuration.
// ---------------------------------------------------------------------------
// The benchmark world: 4x the Beauty preset (600 users, 2400 items,
// ~3.5k entities), or the Tiny preset in smoke mode. Its seed is fixed so
// that every run trains the same models; --seed drives the request streams.
data::SyntheticConfig WorldConfig(bool smoke);

// Training budgets: the full bench budget (offline) and the small budget
// (reload) whose fits take a few seconds each.
baselines::RlBudget BenchBudget(bool smoke);
baselines::RlBudget SmallBudget(bool smoke);

// CADRL with the paper's Beauty hyper-parameters under `budget`.
core::CadrlOptions ModelOptions(const baselines::RlBudget& budget);

inline constexpr int kTopK = 10;
inline constexpr int kWorkloadThreads = 2;

// Byte-exact comparison of two answers: items, scores and paths.
bool SameAnswer(const std::vector<eval::Recommendation>& a,
                const std::vector<eval::Recommendation>& b);
// Moves the first score of every answer by one ulp (--force-mismatch).
void PerturbAnswers(std::vector<std::vector<eval::Recommendation>>* answers);

// Blocking Recommend(k) for every user of `dataset`, in user order, on
// `threads` threads.
std::vector<std::vector<eval::Recommendation>> ReferenceAnswers(
    core::CadrlRecommender* model, const data::Dataset& dataset, int threads);

// NDCG@10 and HR@10 (percent) of per-user answers against the test split.
void AddQualityMetrics(const data::Dataset& dataset,
                       const std::vector<std::vector<eval::Recommendation>>&
                           answers,
                       Metrics* metrics);

// Percentile (p in [0, 1]) of `values` by nearest rank; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Peak resident set size of this process in MB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Workloads and probes.
// ---------------------------------------------------------------------------
RunReport RunOffline(const RunOptions& options);
RunReport RunReload(const RunOptions& options);

// What the per-layer probes need from a workload's fitted state.
struct ProbeContext {
  const RunOptions* options = nullptr;
  const data::Dataset* dataset = nullptr;
  core::CadrlRecommender* model = nullptr;
  core::CadrlOptions model_options;
  double fit_s = 0.0;
  // Reference answers of `model`, used to pick realistic beam states.
  const std::vector<std::vector<eval::Recommendation>>* answers = nullptr;
};

// Runs every outside-in layer probe against `ctx` and writes the
// per-layer metrics into `report` (serve.*, open.*, trace.* and the shard
// figures infer.shard_* come from the workload itself).
void RunLayerProbes(const ProbeContext& ctx, RunReport* report);

// Fills serve.* per-layer metrics from a service (zeros when null).
void AddServeLayerMetrics(const serve::RecommendService* service,
                          Metrics* metrics);

}  // namespace perfbench
}  // namespace cadrl

#endif  // CADRL_PERFBENCH_BENCH_H_
