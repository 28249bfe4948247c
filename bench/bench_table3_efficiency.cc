// Reproduces Table III: computational cost of recommendation (normalized
// to seconds per 1k users) and path finding (seconds per 10k paths) for
// PGPR, HeteroEmbed, UCPR, CAFE and CADRL, as mean +/- std over repeats.
// Uses google-benchmark for the per-operation microbenchmarks and a plain
// harness for the paper-format table.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "bench_json.h"
#include "infer/precision.h"
#include "infer/shard_layout.h"
#include "serve/overload_harness.h"
#include "serve/recommend_service.h"
#include "util/alloc_stats.h"
#include "util/failpoint.h"

namespace cadrl {
namespace bench {
namespace {

struct Table3Entry {
  std::string name;
  std::function<std::unique_ptr<eval::Recommender>(const BenchConfig&,
                                                   const std::string&)>
      make;
};

std::vector<Table3Entry> Table3Models() {
  using namespace baselines;  // NOLINT(build/namespaces): bench-local
  return {
      {"PGPR",
       [](const BenchConfig& c, const std::string&) {
         return std::unique_ptr<eval::Recommender>(MakePgpr(c.budget));
       }},
      {"HeteroEmbed",
       [](const BenchConfig& c, const std::string&) {
         HeteroEmbedOptions o;
         o.transe = c.transe;
         return std::unique_ptr<eval::Recommender>(
             std::make_unique<HeteroEmbedRecommender>(o));
       }},
      {"UCPR",
       [](const BenchConfig& c, const std::string&) {
         return std::unique_ptr<eval::Recommender>(MakeUcpr(c.budget));
       }},
      {"CAFE",
       [](const BenchConfig& c, const std::string&) {
         CafeOptions o;
         o.transe = c.transe;
         return std::unique_ptr<eval::Recommender>(
             std::make_unique<CafeRecommender>(o));
       }},
      {"CADRL",
       [](const BenchConfig& c, const std::string& dataset) {
         return std::unique_ptr<eval::Recommender>(
             MakeCadrlForDataset(c.budget, dataset));
       }},
  };
}

void Run(BenchJson& json) {
  const BenchConfig config = BenchConfig::FromEnv();
  TablePrinter table(
      "Table III: Computational cost (s). Rec normalized per 1k users, "
      "Find per 10k paths; mean +/- std over 3 repeats");
  std::vector<std::string> header = {"Model"};
  for (const std::string& d : DatasetNames()) {
    header.push_back(d + " Rec(1k users)");
    header.push_back(d + " Find(10k paths)");
  }
  table.SetHeader(header);

  std::map<std::string, std::vector<std::string>> rows;
  for (const Table3Entry& entry : Table3Models()) {
    rows[entry.name] = {entry.name};
  }
  for (const std::string& dataset_name : DatasetNames()) {
    data::Dataset dataset = MakeDatasetByName(dataset_name);
    for (const Table3Entry& entry : Table3Models()) {
      auto model = entry.make(config, dataset_name);
      const Status status = model->Fit(dataset);
      if (!status.ok()) {
        rows[entry.name].insert(rows[entry.name].end(), {"-", "-"});
        continue;
      }
      const eval::TimingResult t = eval::MeasureEfficiency(
          model.get(), dataset, /*users_per_run=*/30, /*paths_per_run=*/120,
          /*repeats=*/3, config.threads);
      rows[entry.name].push_back(
          TablePrinter::Fmt(t.rec_per_1k_users_mean, 3) + " +/- " +
          TablePrinter::Fmt(t.rec_per_1k_users_std, 3));
      rows[entry.name].push_back(
          TablePrinter::Fmt(t.find_per_10k_paths_mean, 3) + " +/- " +
          TablePrinter::Fmt(t.find_per_10k_paths_std, 3));
      std::cerr << dataset_name << " / " << entry.name << " done"
                << std::endl;
    }
  }
  for (const Table3Entry& entry : Table3Models()) {
    table.AddRow(rows[entry.name]);
  }
  table.Print(std::cout);
  json.AddTable(table);
}

// Wall-clock scaling of the parallel substrate: trains and serves CADRL on
// BeautySim at threads=1 and threads=N (N from CADRL_THREADS, default 4)
// and reports throughput — trajectories/s for training, users/s and
// paths/s for inference — plus the training speedup. Both runs must agree
// bit for bit (the determinism contract), which is checked here too; the
// speedup itself only materializes on multi-core hardware.
void RunParallelScaling(BenchJson& json) {
  const BenchConfig config = BenchConfig::FromEnv();
  const int par = (config.threads == 0 || config.threads > 1)
                      ? config.threads
                      : 4;
  data::Dataset dataset = MakeDatasetByName("Beauty");

  struct ScalingRow {
    int threads = 1;
    double train_s = 0.0;
    double traj_per_s = 0.0;
    double users_per_s = 0.0;
    double paths_per_s = 0.0;
    std::vector<float> rewards;
  };
  std::vector<ScalingRow> runs;
  for (const int threads : {1, par}) {
    BenchConfig c = config;
    c.threads = threads;
    c.budget.threads = threads;
    c.transe.threads = threads;
    auto model = baselines::MakeCadrlForDataset(c.budget, "Beauty");

    ScalingRow row;
    row.threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    CADRL_CHECK_OK(model->Fit(dataset));
    const auto t1 = std::chrono::steady_clock::now();
    row.train_s = std::chrono::duration<double>(t1 - t0).count();
    const double trajectories =
        static_cast<double>(dataset.num_users()) *
        model->options().episodes_per_user;
    row.traj_per_s = trajectories / row.train_s;
    row.rewards = model->epoch_rewards();

    const eval::TimingResult t = eval::MeasureEfficiency(
        model.get(), dataset, /*users_per_run=*/30, /*paths_per_run=*/120,
        /*repeats=*/3, threads);
    row.users_per_s = 1000.0 / t.rec_per_1k_users_mean;
    row.paths_per_s = 10000.0 / t.find_per_10k_paths_mean;
    runs.push_back(std::move(row));
    const std::string key = "scaling/t" + std::to_string(threads);
    json.Set(key + "/train_s", runs.back().train_s);
    json.Set(key + "/traj_per_s", runs.back().traj_per_s);
    json.Set(key + "/rec_users_per_s", runs.back().users_per_s);
    json.Set(key + "/find_paths_per_s", runs.back().paths_per_s);
    std::cerr << "scaling / threads=" << threads << " done" << std::endl;
  }

  TablePrinter table("Parallel scaling: CADRL on Beauty, wall-clock and "
                     "throughput at 1 vs " + std::to_string(par) +
                     " threads (identical results by construction)");
  table.SetHeader({"Threads", "Train(s)", "Traj/s", "Rec users/s",
                   "Find paths/s", "Train speedup"});
  for (const ScalingRow& row : runs) {
    table.AddRow({std::to_string(row.threads),
                  TablePrinter::Fmt(row.train_s, 2),
                  TablePrinter::Fmt(row.traj_per_s, 1),
                  TablePrinter::Fmt(row.users_per_s, 1),
                  TablePrinter::Fmt(row.paths_per_s, 1),
                  TablePrinter::Fmt(runs.front().train_s / row.train_s, 2) +
                      "x"});
  }
  table.Print(std::cout);
  if (runs.back().rewards != runs.front().rewards) {
    std::cerr << "ERROR: thread-count invariance violated — reward "
                 "histories differ between threads=1 and threads="
              << par << "\n";
  } else {
    std::cout << "determinism check: reward histories identical across "
                 "thread counts\n";
  }
}

// Compiled snapshot vs autograd tape on the same trained model (DESIGN.md
// §12): Recommend/FindPaths throughput for both inference back ends —
// byte-identical answers by the golden-test contract — plus the number of
// ag::TensorImpl allocations one Recommend performs. The compiled column
// must read 0.0: serving steady state never touches the tensor graph.
void RunCompiledVsTape(BenchJson& json) {
  const BenchConfig config = BenchConfig::FromEnv();
  data::Dataset dataset = MakeDatasetByName("Beauty");
  auto model = baselines::MakeCadrlForDataset(config.budget, "Beauty");
  CADRL_CHECK_OK(model->Fit(dataset));

  struct ModeRow {
    std::string name;
    double users_per_s = 0.0;
    double paths_per_s = 0.0;
    double allocs_per_rec = 0.0;
  };
  std::vector<ModeRow> rows;
  for (const bool compiled : {true, false}) {
    model->set_use_compiled_inference(compiled);
    ModeRow row;
    row.name = compiled ? "compiled" : "tape";

    const eval::TimingResult t = eval::MeasureEfficiency(
        model.get(), dataset, /*users_per_run=*/30, /*paths_per_run=*/120,
        /*repeats=*/3, config.threads);
    row.users_per_s = 1000.0 / t.rec_per_1k_users_mean;
    row.paths_per_s = 10000.0 / t.find_per_10k_paths_mean;

    // Tensor-graph allocations per Recommend, averaged over a warm pass.
    constexpr int kAllocProbeUsers = 20;
    model->Recommend(dataset.users[0], 10);  // warm-up
    util::TensorAllocScope scope;
    for (int i = 0; i < kAllocProbeUsers; ++i) {
      model->Recommend(
          dataset.users[static_cast<size_t>(i) % dataset.users.size()], 10);
    }
    row.allocs_per_rec =
        static_cast<double>(scope.delta()) / kAllocProbeUsers;

    const std::string key = "compiled_vs_tape/" + row.name;
    json.Set(key + "/rec_users_per_s", row.users_per_s);
    json.Set(key + "/find_paths_per_s", row.paths_per_s);
    json.Set(key + "/allocs_per_recommend", row.allocs_per_rec);
    rows.push_back(std::move(row));
    std::cerr << "compiled_vs_tape / " << rows.back().name << " done"
              << std::endl;
  }
  model->set_use_compiled_inference(true);
  json.Set("compiled_vs_tape/rec_speedup",
           rows[0].users_per_s / rows[1].users_per_s);
  json.Set("compiled_vs_tape/find_speedup",
           rows[0].paths_per_s / rows[1].paths_per_s);

  TablePrinter table(
      "Compiled inference vs autograd tape: CADRL on Beauty, identical "
      "answers, throughput + ag::TensorImpl allocations per Recommend");
  table.SetHeader({"Backend", "Rec users/s", "Find paths/s",
                   "Allocs/Recommend", "Rec speedup"});
  for (const ModeRow& row : rows) {
    table.AddRow({row.name, TablePrinter::Fmt(row.users_per_s, 1),
                  TablePrinter::Fmt(row.paths_per_s, 1),
                  TablePrinter::Fmt(row.allocs_per_rec, 1),
                  TablePrinter::Fmt(row.users_per_s / rows[1].users_per_s,
                                    2) +
                      "x"});
  }
  table.Print(std::cout);
}

double PercentileMs(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  const size_t idx = std::min(
      sorted->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted->size())));
  return (*sorted)[idx];
}

// Serving-layer latency percentiles (DESIGN.md §11): replays a synthetic
// request stream against a RecommendService wrapping CADRL on Beauty, once
// fault-free and once with 10% injected scoring faults, and reports
// p50/p95/p99 end-to-end latency per degradation level. The chaotic run
// shows what graceful degradation costs (retry + fallback) and what it
// buys (the degraded levels answer orders of magnitude faster than a
// failing full search would take to exhaust its retries).
void RunServeLatency(BenchJson& json) {
  const BenchConfig config = BenchConfig::FromEnv();
  data::Dataset dataset = MakeDatasetByName("Beauty");
  auto model = baselines::MakeCadrlForDataset(config.budget, "Beauty");
  CADRL_CHECK_OK(model->Fit(dataset));

  TablePrinter table(
      "Serving latency: CADRL on Beauty behind RecommendService (4 workers, "
      "4 clients, 1s deadline), end-to-end ms per degradation level");
  table.SetHeader({"Scenario/Level", "n", "p50(ms)", "p95(ms)", "p99(ms)"});

  struct Scenario {
    std::string name;
    double fail_p;
  };
  for (const Scenario& scenario :
       {Scenario{"clean", 0.0}, Scenario{"chaos10", 0.1}}) {
    Failpoints::Instance().DisarmAll();
    if (scenario.fail_p > 0.0) {
      Failpoints::Instance().ArmWithProbability("cadrl/score",
                                                scenario.fail_p, /*seed=*/17);
    }
    serve::ServeOptions options;
    options.threads = 4;
    options.queue_capacity = 256;
    // Generous deadline: the clean scenario measures the pipeline itself
    // (queue + full search), not deadline-driven degradation; the chaotic
    // one isolates what injected faults + the breaker do to the mix.
    options.default_timeout = std::chrono::milliseconds{1000};
    serve::RecommendService service(model.get(), dataset, options);
    CADRL_CHECK_OK(service.Start());

    constexpr int kClients = 4;
    constexpr int kRequests = 120;
    std::vector<std::vector<double>> latencies(4);
    std::vector<std::vector<serve::ServeResponse>> responses(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<std::future<serve::ServeResponse>> futures;
        for (int i = c; i < kRequests; i += kClients) {
          serve::ServeRequest req;
          req.id = static_cast<uint64_t>(i) + 1;
          req.user =
              dataset.users[static_cast<size_t>(i) % dataset.users.size()];
          futures.push_back(service.Submit(req));
        }
        responses[c].reserve(futures.size());
        for (auto& f : futures) responses[c].push_back(f.get());
      });
    }
    for (std::thread& t : clients) t.join();
    service.Stop();
    Failpoints::Instance().DisarmAll();
    for (const auto& per_client : responses) {
      for (const auto& resp : per_client) {
        latencies[static_cast<size_t>(resp.level)].push_back(
            resp.latency_ms);
      }
    }
    for (int level = 0; level < 4; ++level) {
      auto& lat = latencies[static_cast<size_t>(level)];
      if (lat.empty()) continue;
      const char* level_name = serve::DegradationLevelName(
          static_cast<serve::DegradationLevel>(level));
      const double p50 = PercentileMs(&lat, 0.50);
      const double p95 = PercentileMs(&lat, 0.95);
      const double p99 = PercentileMs(&lat, 0.99);
      table.AddRow({scenario.name + "/" + level_name,
                    std::to_string(lat.size()), TablePrinter::Fmt(p50, 3),
                    TablePrinter::Fmt(p95, 3), TablePrinter::Fmt(p99, 3)});
      const std::string key =
          "serve/" + scenario.name + "/" + level_name;
      json.Set(key + "/n", static_cast<double>(lat.size()));
      json.Set(key + "/p50_ms", p50);
      json.Set(key + "/p95_ms", p95);
      json.Set(key + "/p99_ms", p99);
    }
    std::cerr << "serve / " << scenario.name << " done" << std::endl;
  }
  table.Print(std::cout);
}

// Quantized serving end to end (DESIGN.md §14): the same trained CADRL on
// Beauty republished under f32 / f16 / int8, reporting per-section arena
// bytes, single-stream Recommend/FindPaths throughput, NDCG@10 / HR@10
// drift against f32, and closed-loop serve throughput (4 clients). The
// int8 row is the headline: ~0.29x the f32 embedding bytes at dim 24,
// bit-determinism intact (quantized_inference_test holds that line), drift
// bounded, serve throughput at least f32's.
void RunQuantizedServing(BenchJson& json) {
  const BenchConfig config = BenchConfig::FromEnv();
  data::Dataset dataset = MakeDatasetByName("Beauty");
  auto model = baselines::MakeCadrlForDataset(config.budget, "Beauty");
  CADRL_CHECK_OK(model->Fit(dataset));

  const eval::EvalResult f32_eval =
      eval::EvaluateRecommender(model.get(), dataset, /*k=*/10,
                                config.eval_users, config.threads);

  TablePrinter table(
      "Quantized serving: CADRL on Beauty, one trained model republished "
      "per precision; arena bytes (rows+scales | policy), throughput, "
      "metric drift vs f32, served req/s (4 clients)");
  table.SetHeader({"Precision", "Store B", "Policy B", "Rec users/s",
                   "Find paths/s", "dNDCG@10", "dHR@10", "Serve req/s"});

  double f32_serve = 0.0;
  for (const infer::Precision precision :
       {infer::Precision::kF32, infer::Precision::kF16,
        infer::Precision::kInt8}) {
    model->set_snapshot_precision(precision);
    model->RepublishSnapshot();
    const std::string name = infer::PrecisionName(precision);
    const std::string key = "quantized/" + name;
    DumpServingArena(json, *model, key + "/arena");
    const eval::Recommender::ServingArena arena = model->ServingArenaBytes();

    const eval::TimingResult t = eval::MeasureEfficiency(
        model.get(), dataset, /*users_per_run=*/30, /*paths_per_run=*/120,
        /*repeats=*/3, config.threads);
    const double users_per_s = 1000.0 / t.rec_per_1k_users_mean;
    const double paths_per_s = 10000.0 / t.find_per_10k_paths_mean;

    const eval::EvalResult e =
        eval::EvaluateRecommender(model.get(), dataset, /*k=*/10,
                                  config.eval_users, config.threads);
    const double d_ndcg = e.ndcg - f32_eval.ndcg;
    const double d_hr = e.hit_rate - f32_eval.hit_rate;

    // Closed-loop serving, the deployment configuration the int8 arena
    // targets: smaller rows -> more of the store stays cache-hot across
    // concurrent requests.
    constexpr int kClients = 4;
    constexpr int kRequestsPerClient = 24;
    serve::ServeOptions options;
    options.threads = 4;
    options.queue_capacity = 1024;
    serve::RecommendService service(model.get(), dataset, options);
    CADRL_CHECK_OK(service.Start());
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kRequestsPerClient; ++i) {
          serve::ServeRequest req;
          req.user = dataset.users[static_cast<size_t>(
              c * kRequestsPerClient + i) % dataset.users.size()];
          req.timeout = std::chrono::microseconds{-1};  // no deadline
          service.Submit(req).get();
        }
      });
    }
    for (std::thread& th : clients) th.join();
    const double wall_s = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    service.Stop();
    const double req_per_s = kClients * kRequestsPerClient / wall_s;
    if (precision == infer::Precision::kF32) f32_serve = req_per_s;

    table.AddRow({name,
                  std::to_string(arena.store_row_bytes +
                                 arena.store_scale_bytes),
                  std::to_string(arena.policy_param_bytes),
                  TablePrinter::Fmt(users_per_s, 1),
                  TablePrinter::Fmt(paths_per_s, 1),
                  TablePrinter::Fmt(d_ndcg, 3), TablePrinter::Fmt(d_hr, 3),
                  TablePrinter::Fmt(req_per_s, 1)});
    json.Set(key + "/rec_users_per_s", users_per_s);
    json.Set(key + "/find_paths_per_s", paths_per_s);
    json.Set(key + "/ndcg_drift", d_ndcg);
    json.Set(key + "/hit_rate_drift", d_hr);
    json.Set(key + "/serve_req_per_s", req_per_s);
    if (precision == infer::Precision::kInt8 && f32_serve > 0.0) {
      json.Set("quantized/int8_vs_f32_serve_speedup", req_per_s / f32_serve);
    }
    std::cerr << "quantized / " << name << " done" << std::endl;
  }
  model->set_snapshot_precision(infer::Precision::kF32);
  model->RepublishSnapshot();
  table.Print(std::cout);
}

// Snapshot reload latency (DESIGN.md §16): the same trained CADRL on
// Beauty hot-swapped three ways — (a) checkpoint reload
// (ReloadFromCheckpoint: parse the full hex-float model file, then
// re-encode and quantize an in-process snapshot), (b) cold shard-dir
// publish (LoadFromShardDir with no predecessor: open + mmap +
// header/CRC validate every shard, no parse), and (c) delta republish (one
// entity row perturbed, recompiled — only the one changed shard is
// rewritten and remapped) — plus the no-op
// poll an unchanged directory costs a reloader. The point of the format:
// (b) is independent of model size and (c) is independent of everything
// but the changed range.
void RunReloadLatency(BenchJson& json) {
  const BenchConfig config = BenchConfig::FromEnv();
  data::Dataset dataset = MakeDatasetByName("Beauty");
  auto model = baselines::MakeCadrlForDataset(config.budget, "Beauty");
  CADRL_CHECK_OK(model->Fit(dataset));

  std::string root = []() {
    const char* t = std::getenv("TEST_TMPDIR");
    std::string tmpl = std::string(t != nullptr && t[0] != '\0' ? t : "/tmp") +
                       "/cadrl_reload_bench_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    CADRL_CHECK(::mkdtemp(buf.data()) != nullptr);
    return std::string(buf.data());
  }();
  const std::string ckpt = root + "/model.cadrl";
  const std::string shard_dir = root + "/shards";
  CADRL_CHECK_OK(model->SaveModel(ckpt));
  // Small shard rows so the tiny bench dataset still splits into a real
  // multi-shard set; production tables would use the 4096-row default.
  constexpr int64_t kShardRows = 64;
  infer::ShardWriteStats wstats;
  CADRL_CHECK_OK(model->CompileSnapshotToDir(shard_dir, kShardRows, &wstats));

  constexpr int kRepeats = 5;
  auto time_ms = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };

  // (a) Checkpoint parse + in-process snapshot build + publish.
  std::vector<double> parse_ms;
  for (int r = 0; r < kRepeats; ++r) {
    parse_ms.push_back(
        time_ms([&] { CADRL_CHECK_OK(model->ReloadFromCheckpoint(ckpt)); }));
  }

  // (b) Cold shard-dir load: no predecessor, every shard opened + mapped.
  std::shared_ptr<const infer::CompiledModel> cold;
  std::vector<double> cold_ms;
  for (int r = 0; r < kRepeats; ++r) {
    cold.reset();
    cold_ms.push_back(time_ms([&] {
      CADRL_CHECK_OK(
          infer::LoadFromShardDir(shard_dir, {}, nullptr, &cold));
    }));
  }
  const int shard_count = cold->shard_stats().shard_count;

  // No-op poll: unchanged dir, previous mappings all reused.
  std::vector<double> noop_ms;
  for (int r = 0; r < kRepeats; ++r) {
    std::shared_ptr<const infer::CompiledModel> again;
    noop_ms.push_back(time_ms([&] {
      CADRL_CHECK_OK(infer::LoadFromShardDir(shard_dir, {}, cold, &again));
    }));
    CADRL_CHECK_EQ(again->shard_stats().shards_remapped, 0);
  }

  // (c) Delta: perturb one entity row, recompile (rewrites one shard +
  // manifest), then reload against the cold model — one remap, rest reused.
  core::EmbeddingStore perturbed = *model->store();
  const kg::EntityId victim = dataset.users.front();
  std::vector<float> row(perturbed.Entity(victim).begin(),
                         perturbed.Entity(victim).end());
  row[0] += 0.25f;
  perturbed.SetEntityRow(victim, row);
  const std::shared_ptr<const infer::CompiledModel> snap =
      model->CurrentSnapshot();
  infer::ShardWriteOptions wopts;
  wopts.shard_rows = kShardRows;
  infer::ShardWriteStats delta_write;
  const double delta_compile_ms = time_ms([&] {
    CADRL_CHECK_OK(infer::CompileToShardDir(
        perturbed.View(), snap->policy(), snap->score_scale(),
        infer::CompiledModelOptions{snap->precision()}, shard_dir, wopts,
        &delta_write));
  });
  std::shared_ptr<const infer::CompiledModel> delta;
  const double delta_ms = time_ms([&] {
    CADRL_CHECK_OK(infer::LoadFromShardDir(shard_dir, {}, cold, &delta));
  });
  CADRL_CHECK_GE(delta_write.shards_reused, shard_count - 1);
  CADRL_CHECK_GT(delta->shard_stats().shards_reused, 0);

  TablePrinter table(
      "Snapshot reload latency: CADRL on Beauty (" +
      std::to_string(shard_count) + " shards of " +
      std::to_string(kShardRows) + " rows), mean of " +
      std::to_string(kRepeats) + " repeats");
  table.SetHeader({"Path", "ms", "Shards remapped"});
  table.AddRow({"checkpoint parse + build",
                TablePrinter::Fmt(mean(parse_ms), 3), "-"});
  table.AddRow({"shard-dir cold publish (mmap)",
                TablePrinter::Fmt(mean(cold_ms), 3),
                std::to_string(shard_count)});
  table.AddRow({"shard-dir delta republish",
                TablePrinter::Fmt(delta_ms, 3),
                std::to_string(delta->shard_stats().shards_remapped)});
  table.AddRow({"shard-dir no-op poll", TablePrinter::Fmt(mean(noop_ms), 3),
                "0"});
  table.Print(std::cout);

  json.Set("reload/checkpoint_parse_ms", mean(parse_ms));
  json.Set("reload/mmap_cold_publish_ms", mean(cold_ms));
  json.Set("reload/delta_republish_ms", delta_ms);
  json.Set("reload/delta_compile_ms", delta_compile_ms);
  json.Set("reload/noop_poll_ms", mean(noop_ms));
  json.Set("reload/shard_count", static_cast<double>(shard_count));
  json.Set("reload/delta_shards_remapped",
           static_cast<double>(delta->shard_stats().shards_remapped));
  json.Set("reload/delta_shards_written",
           static_cast<double>(delta_write.shards_written));
  json.Set("reload/mapped_bytes",
           static_cast<double>(cold->shard_stats().mapped_bytes));
  json.Set("reload/parse_vs_mmap_speedup", mean(parse_ms) / mean(cold_ms));
  std::cerr << "reload latency done" << std::endl;

  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

// Goodput vs offered load (DESIGN.md §15): the discrete-event overload
// harness (4 simulated workers, 1ms +/- 30% service, 20ms deadline, 1s of
// virtual time per cell) swept over 1x-4x of nominal capacity, once with
// the plain bounded queue and once with the AIMD admission limiter +
// deadline-aware early shedding. Virtual-clock simulation: every cell is
// deterministic and the whole sweep costs only simulation work. The
// contract the chaos suite enforces shows up as the shape of the two
// curves — fixed-queue goodput collapses past saturation while AIMD
// goodput holds near capacity, trading the excess for explicit sheds.
void RunOverloadCurve(BenchJson& json) {
  TablePrinter table(
      "Overload control: goodput vs offered load, fixed queue vs AIMD "
      "admission (DES on a virtual clock; 4 workers, 1ms service, 20ms "
      "deadline, 1s per cell)");
  table.SetHeader({"Mode/Load", "Offered/s", "Goodput/s", "p95 full(ms)",
                   "Shed rate", "Degraded", "Limit [min,max]"});

  for (const bool adaptive : {false, true}) {
    const std::string mode = adaptive ? "aimd" : "fixed";
    for (const double multiplier : {1.0, 1.5, 2.0, 3.0, 4.0}) {
      serve::OverloadOptions o;
      o.workers = 4;
      o.mean_service = std::chrono::microseconds{1000};
      o.service_jitter = 0.3;
      o.deadline = std::chrono::microseconds{20000};
      o.duration = std::chrono::milliseconds{1000};
      o.seed = 42;
      o.offered_multiplier = multiplier;
      o.adaptive_admission = adaptive;
      const serve::OverloadReport r = serve::RunOverload(o);

      std::string load = TablePrinter::Fmt(multiplier, 1) + "x";
      table.AddRow({mode + "/" + load,
                    TablePrinter::Fmt(r.offered_per_s, 0),
                    TablePrinter::Fmt(r.goodput_per_s, 0),
                    TablePrinter::Fmt(r.p95_full_ms, 2),
                    TablePrinter::Fmt(r.shed_rate, 3),
                    std::to_string(r.degraded),
                    adaptive ? "[" + TablePrinter::Fmt(r.limit_min, 1) +
                                   ", " + TablePrinter::Fmt(r.limit_max, 1) +
                                   "]"
                             : "-"});
      // JSON keys use the multiplier with the dot stripped (1.5x -> 1p5x).
      std::string mkey = TablePrinter::Fmt(multiplier, 1) + "x";
      std::replace(mkey.begin(), mkey.end(), '.', 'p');
      const std::string key = "overload/" + mode + "/" + mkey;
      json.Set(key + "/offered_per_s", r.offered_per_s);
      json.Set(key + "/goodput_per_s", r.goodput_per_s);
      json.Set(key + "/p95_full_ms", r.p95_full_ms);
      json.Set(key + "/shed_rate", r.shed_rate);
      if (adaptive) {
        json.Set(key + "/limit_min", r.limit_min);
        json.Set(key + "/limit_max", r.limit_max);
        json.Set(key + "/limit_mean", r.limit_mean);
      }
      std::cerr << "overload / " << mode << " " << load << " done"
                << std::endl;
    }
  }
  table.Print(std::cout);
}

// A google-benchmark microbenchmark of the per-user inference step, the
// operation Table III normalizes: registered so `--benchmark_filter` users
// can drill into single-model latencies.
void BM_CadrlRecommendUser(benchmark::State& state) {
  static data::Dataset dataset = MakeDatasetByName("Beauty");
  static std::unique_ptr<core::CadrlRecommender> model = [] {
    BenchConfig config = BenchConfig::FromEnv();
    auto m = baselines::MakeCadrlForDataset(config.budget, "Beauty");
    CADRL_CHECK_OK(m->Fit(dataset));
    return m;
  }();
  int64_t cursor = 0;
  for (auto _ : state) {
    const kg::EntityId user = dataset.users[static_cast<size_t>(
        cursor++ % dataset.num_users())];
    benchmark::DoNotOptimize(model->Recommend(user, 10));
  }
}
BENCHMARK(BM_CadrlRecommendUser)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace cadrl

int main(int argc, char** argv) {
  cadrl::bench::BenchJson json("table3");
  cadrl::bench::Run(json);
  cadrl::bench::RunParallelScaling(json);
  cadrl::bench::RunCompiledVsTape(json);
  cadrl::bench::RunServeLatency(json);
  cadrl::bench::RunQuantizedServing(json);
  cadrl::bench::RunReloadLatency(json);
  cadrl::bench::RunOverloadCurve(json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
