// Repository benchmark binary (see perfbench/README.md).
//
//   cadrl_perfbench --workload offline|reload --seed N --seconds S
//                   --trace 0|1 [--smoke] [--force-mismatch]
//                   [--revision R] [--work-dir DIR]
//
// Prints one detail line (provenance, per-phase attempted/failed counts,
// correctness checks) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1. Exits 0 only when
// every correctness check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "data/generator.h"
#include "util/kernels.h"

#ifndef CADRL_PERFBENCH_BUILD_TYPE
#define CADRL_PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

namespace cadrl {
namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/smoke.py checks that it does).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},  {"peak_rss_mb", "MB"}, {"ndcg_at_10", "%"},
    {"hr_at_10", "%"}, {"p50_ms", "ms"},      {"ok_share", "share"},
};

const MetricSpec kPerLayer[] = {
    {"data.generate_s", "s"},
    {"core.fit_s", "s"},
    {"embed.transe_train_s", "s"},
    {"core.cggnn_train_s", "s"},
    {"rl.reinforce_s", "s"},
    {"rl.trajectories_per_s", "1/s"},
    {"autograd.tensor_allocs_per_fit", "count"},
    {"core.recommend_ms.p50", "ms"},
    {"core.recommend_ms.p99", "ms"},
    {"core.find_paths_ms", "ms"},
    {"core.entity_valid_actions_us", "us"},
    {"core.category_valid_actions_us", "us"},
    {"core.actions_per_call", "count"},
    {"core.snapshot_acquire_ns.t1", "ns"},
    {"core.snapshot_acquire_ns.t2", "ns"},
    {"core.allocs_per_recommend", "count"},
    {"infer.initial_state_us.f32_heap", "us"},
    {"infer.category_logits_us.f32_heap", "us"},
    {"infer.entity_logits_us.f32_heap", "us"},
    {"infer.advance_us.f32_heap", "us"},
    {"infer.score_user_entities_us.f32_heap", "us"},
    {"infer.initial_state_us.int8_mapped", "us"},
    {"infer.category_logits_us.int8_mapped", "us"},
    {"infer.entity_logits_us.int8_mapped", "us"},
    {"infer.advance_us.int8_mapped", "us"},
    {"infer.score_user_entities_us.int8_mapped", "us"},
    {"infer.score_rows_per_call", "count"},
    {"infer.shard_compile_ms", "ms"},
    {"infer.shard_reload_ms", "ms"},
    {"infer.shards_remapped_per_reload", "count"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.primary_ms.p50", "ms"},
    {"serve.primary_ms.p99", "ms"},
    {"serve.degraded", "count"},
    {"serve.retries", "count"},
    {"serve.sheds", "count"},
    {"util.failpoint_hit_ns.t1", "ns"},
    {"util.failpoint_hit_ns.t2", "ns"},
    {"kernels.gemv_f32_ns", "ns"},
    {"kernels.gemv_f32_bytes", "B"},
    {"kernels.gemv_q8_ns", "ns"},
    {"kernels.gemv_q8_bytes", "B"},
    {"kernels.gemm_nt_f32_ns", "ns"},
    {"kernels.gemm_nt_f32_bytes", "B"},
    {"kernels.gemm_nt_q8_ns", "ns"},
    {"kernels.gemm_nt_q8_bytes", "B"},
    {"kernels.negsqdist_f32_ns", "ns"},
    {"kernels.negsqdist_f32_bytes", "B"},
    {"kernels.negsqdist_q8_ns", "ns"},
    {"kernels.negsqdist_q8_bytes", "B"},
    {"kernels.gemm_f32_ns", "ns"},
    {"kernels.gemm_f32_bytes", "B"},
    {"open.generator_lag_p99_ms", "ms"},
    {"trace.overhead_frac", "share"},
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: cadrl_perfbench --workload offline|reload "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--force-mismatch] [--revision R] [--work-dir DIR]\n";
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stoi(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--force-mismatch") {
        o.force_mismatch = true;
      } else if (arg == "--revision") {
        o.revision = value();
      } else if (arg == "--work-dir") {
        o.work_dir = value();
      } else {
        Usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + arg);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (o.workload != "offline" && o.workload != "reload") {
    Usage("unknown workload " + o.workload);
  }
  if (o.seconds < 1 || o.seconds > 600) Usage("--seconds must be 1..600");
  return o;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string DetailLine(const RunOptions& o, const RunReport& r,
                       const std::string& trace_path) {
  const data::SyntheticConfig world = WorldConfig(o.smoke);
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(o.workload) << ",\"provenance\":{"
      << "\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << JsonString(CpuModel())
      << ",\"compiler\":" << JsonString(kCompiler)
      << ",\"build_type\":" << JsonString(CADRL_PERFBENCH_BUILD_TYPE)
      << ",\"kernels_backend\":"
      << JsonString(kernels::BackendName(kernels::ActiveBackend()))
      << ",\"snapshot_precision\":" << JsonString(r.snapshot_precision)
      << ",\"world\":{\"name\":" << JsonString(world.name)
      << ",\"users\":" << world.num_users << ",\"items\":" << world.num_items
      << ",\"categories\":" << world.num_categories
      << ",\"seed\":" << world.seed << "}"
      << ",\"seed\":" << o.seed << ",\"seconds\":" << o.seconds
      << ",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"smoke\":" << (o.smoke ? "true" : "false")
      << ",\"force_mismatch\":" << (o.force_mismatch ? "true" : "false")
      << ",\"revision\":" << JsonString(o.revision) << "},\"phases\":{";
  bool first = true;
  for (const auto& [name, p] : r.phases) {
    out << (first ? "" : ",") << JsonString(name) << ":{\"attempted\":"
        << p.attempted << ",\"failed\":" << p.failed << "}";
    first = false;
  }
  out << "},\"checks\":{";
  first = true;
  for (const auto& [name, c] : r.checks) {
    out << (first ? "" : ",") << JsonString(name) << ":{\"checked\":"
        << c.checked << ",\"mismatches\":" << c.mismatches << "}";
    first = false;
  }
  out << "},\"repeat_counts\":{";
  first = true;
  for (const auto& [name, c] : r.repeat_counts) {
    out << (first ? "" : ",") << JsonString(name) << ":["
        << JsonNumber(c.first) << "," << JsonNumber(c.second) << "]";
    first = false;
  }
  out << "},\"trace_file\":" << JsonString(trace_path) << "}";
  return out.str();
}

int Main(int argc, char** argv) {
  const RunOptions o = ParseArgs(argc, argv);
  RunReport report;
  try {
    std::filesystem::create_directories(o.work_dir);
    if (o.workload == "offline") {
      report = RunOffline(o);
    } else {
      report = RunReload(o);
    }
  } catch (const std::exception& e) {
    std::cerr << "benchmark failed: " << e.what() << "\n";
    return 3;
  }

  bool correct = true;
  for (const auto& [name, c] : report.checks) {
    if (!c.ok()) {
      std::cerr << "check " << name << " failed: " << c.mismatches << " of "
                << c.checked << " answers differ\n";
      correct = false;
    }
  }
  for (const auto& [name, c] : report.repeat_counts) {
    if (c.first != c.second) {
      std::cerr << "count " << name << " did not repeat: " << c.first
                << " vs " << c.second << "\n";
      correct = false;
    }
  }

  std::string trace_path;
  if (o.trace) {
    trace_path = o.work_dir + "/trace-" + o.workload + "-seed" +
                 std::to_string(o.seed) + ".jsonl";
    if (!Tracer::Instance().WriteJsonLines(trace_path)) {
      std::cerr << "cannot write " << trace_path << "\n";
      correct = false;
    }
  }

  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    const auto& values = report.metrics.values();
    const auto it = values.find(spec.name);
    if (it == values.end() || !std::isfinite(it->second.value) ||
        it->second.unit != spec.unit) {
      std::cerr << "metric " << spec.name << " missing, non-finite or with "
                << "the wrong unit\n";
      correct = false;
      return;
    }
    metrics << (first ? "" : ",") << JsonString(spec.name)
            << ":{\"value\":" << JsonNumber(it->second.value)
            << ",\"unit\":" << JsonString(spec.unit) << "}";
    first = false;
  };
  if (o.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }

  std::cout << DetailLine(o, report, trace_path) << "\n";
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << report.attempted
            << ",\"failed\":" << report.failed << ",\"metrics\":{"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace cadrl

int main(int argc, char** argv) {
  return cadrl::perfbench::Main(argc, argv);
}
