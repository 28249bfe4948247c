// Outside-in layer probes: each per-layer metric comes from timing calls
// into one module's public functions on the workload's fitted state. The
// probes run after the timed phase of a traced run, so they never disturb
// the end-to-end figures.

#include <cmath>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/cggnn.h"
#include "core/environment.h"
#include "data/generator.h"
#include "embed/transe.h"
#include "infer/compiled_model.h"
#include "infer/policy_forward.h"
#include "infer/precision.h"
#include "infer/scoring.h"
#include "infer/step_batcher.h"
#include "util/alloc_stats.h"
#include "util/failpoint.h"
#include "util/kernels.h"
#include "util/rng.h"

namespace cadrl {
namespace perfbench {
namespace {

// Keeps probe results observable so the optimizer cannot drop the calls.
volatile float g_sink = 0.0f;

// Median over `batches` batches of the mean ns per call of `fn`, with the
// per-batch call count sized so one batch takes about `batch_ms`.
template <typename Fn>
double NsPerCall(Fn&& fn, double batch_ms = 10.0, int batches = 7) {
  fn();
  int64_t calls = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int64_t i = 0; i < calls; ++i) fn();
    const double ms = SecondsSince(t0) * 1e3;
    if (ms >= batch_ms / 4 || calls >= (int64_t{1} << 24)) {
      calls = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(calls) * batch_ms /
                                  std::max(ms, 1e-3)));
      break;
    }
    calls *= 4;
  }
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int64_t i = 0; i < calls; ++i) fn();
    per_call.push_back(SecondsSince(t0) * 1e9 / static_cast<double>(calls));
  }
  return Median(per_call);
}

// ns per call of `fn` run on `threads` threads at once (each thread's own
// wall time over its own calls, median across threads).
template <typename Fn>
double NsPerCallConcurrent(Fn&& fn, int threads, int64_t calls) {
  std::vector<double> per_thread(static_cast<size_t>(threads));
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      const auto t0 = Clock::now();
      for (int64_t i = 0; i < calls; ++i) fn();
      per_thread[static_cast<size_t>(t)] =
          SecondsSince(t0) * 1e9 / static_cast<double>(calls);
    });
  }
  for (auto& th : pool) th.join();
  return Median(per_thread);
}

// Step batcher that runs every parked step unbatched, as the beam search
// does without one, and counts the rows of each user-entity scoring call:
// the miss set of the search's score memo, i.e. the batch sizes the request
// path really sends to ScoreUserEntities.
class ScoreRowCounter : public infer::StepBatcher {
 public:
  void ExecuteHead(infer::PolicyHeadStep* step) override {
    infer::HeadLogitsRaw(*step->head1, *step->head2, step->features,
                         step->action_matrix, step->num_actions, &scratch_,
                         step->out);
  }
  void ExecuteScore(infer::ScoreStep* step) override {
    infer::ScoreUserEntities(*step->view, step->user, step->entities,
                             step->out);
    ++calls_;
    rows_ += static_cast<int64_t>(step->entities.size());
  }
  double rows_per_call() const {
    return calls_ > 0 ? static_cast<double>(rows_) /
                            static_cast<double>(calls_)
                      : 0.0;
  }

 private:
  infer::PolicyScratch scratch_;
  int64_t calls_ = 0;
  int64_t rows_ = 0;
};

std::vector<float> RandomFloats(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

// The (user, entity) beam states and user->category states visited by the
// workload's answers: every hop of every explanation path of a user subset.
struct BeamStates {
  std::vector<std::pair<kg::EntityId, kg::EntityId>> entity;
  std::vector<std::pair<kg::EntityId, kg::CategoryId>> category;
  std::vector<size_t> users;  // indices into dataset.users
};

BeamStates CollectStates(const ProbeContext& ctx) {
  BeamStates s;
  const data::Dataset& ds = *ctx.dataset;
  const size_t stride = ctx.options->smoke ? 2 : 3;
  for (size_t u = 0; u < ds.users.size(); u += stride) {
    s.users.push_back(u);
    const kg::EntityId user = ds.users[u];
    s.entity.emplace_back(user, user);
    for (const auto& rec : (*ctx.answers)[u]) {
      for (const auto& step : rec.path.steps) {
        s.entity.emplace_back(user, step.entity);
        const kg::CategoryId c = ds.graph.CategoryOf(step.entity);
        if (c != kg::kInvalidCategory) s.category.emplace_back(user, c);
      }
    }
  }
  return s;
}

// Training layers: standalone TransE and CGGNN trains with the workload's
// options; RL is the remainder of the workload's fit.
void ProbeTraining(const ProbeContext& ctx, Metrics* m) {
  const data::Dataset& ds = *ctx.dataset;
  const core::CadrlOptions& mo = ctx.model_options;
  {
    std::vector<double> gen_s;
    for (int i = 0; i < 3; ++i) {
      ScopedSpan span("probe.data.generate");
      const auto t0 = Clock::now();
      const data::Dataset world =
          data::MustGenerateDataset(WorldConfig(ctx.options->smoke));
      gen_s.push_back(SecondsSince(t0));
      g_sink = g_sink + static_cast<float>(world.graph.num_entities());
    }
    m->Set("data.generate_s", Median(gen_s), "s");
  }
  double transe_s = 0.0, cggnn_s = 0.0;
  {
    ScopedSpan span("probe.embed.transe_train");
    const auto t0 = Clock::now();
    const embed::TransEModel transe =
        embed::TransEModel::Train(ds.graph, mo.transe);
    transe_s = SecondsSince(t0);
    if (mo.use_cggnn) {
      std::vector<std::pair<kg::EntityId, kg::EntityId>> validation;
      for (size_t u = 0; u < ds.users.size(); ++u) {
        if (ds.train_items[u].size() >= 3) {
          validation.emplace_back(ds.users[u], ds.train_items[u].back());
        }
      }
      ScopedSpan cggnn_span("probe.core.cggnn_train");
      const auto c0 = Clock::now();
      core::Cggnn cggnn(&ds.graph, &transe, mo.cggnn);
      const Status st = cggnn.Train(ds, &validation);
      if (!st.ok()) throw std::runtime_error("Cggnn::Train: " + st.ToString());
      cggnn_s = SecondsSince(c0);
    }
  }
  m->Set("embed.transe_train_s", transe_s, "s");
  m->Set("core.cggnn_train_s", cggnn_s, "s");
  const double rl_s = std::max(ctx.fit_s - transe_s - cggnn_s, 1e-6);
  m->Set("rl.reinforce_s", rl_s, "s");
  const double trajectories =
      static_cast<double>(mo.episodes_per_user) *
      static_cast<double>(ds.users.size());
  m->Set("rl.trajectories_per_s", trajectories / rl_s, "1/s");

  // Tensor-graph allocations are counted per thread, so the count comes
  // from a 1-thread fit with otherwise identical options.
  core::CadrlOptions serial = mo;
  serial.threads = 1;
  serial.transe.threads = 1;
  core::CadrlRecommender counted(serial);
  ScopedSpan span("probe.autograd.tensor_allocs");
  util::TensorAllocScope scope;
  const Status st = counted.Fit(ds);
  if (!st.ok()) throw std::runtime_error("Fit: " + st.ToString());
  m->Set("autograd.tensor_allocs_per_fit", static_cast<double>(scope.delta()),
         "count");
}

// Core layer: blocking Recommend/FindPaths latency, heap allocations per
// Recommend, rows per scoring call, action-space construction, snapshot
// acquisition.
void ProbeCore(const ProbeContext& ctx, const BeamStates& states, Metrics* m,
               RunReport* report) {
  const data::Dataset& ds = *ctx.dataset;
  core::CadrlRecommender* model = ctx.model;

  // Warm-up pass, then two counted passes: thread-local scratch has grown
  // to its working size, so the two counts must agree exactly.
  std::vector<double> rec_ms;
  double allocs[2] = {0.0, 0.0};
  for (int pass = 0; pass < 3; ++pass) {
    ScopedSpan span("probe.core.recommend");
    int64_t total = 0;
    for (size_t u : states.users) {
      const int64_t a0 = ThreadHeapAllocs();
      const auto t0 = Clock::now();
      const auto recs = model->Recommend(ds.users[u], kTopK);
      const double ms = SecondsSince(t0) * 1e3;
      total += ThreadHeapAllocs() - a0;
      g_sink = g_sink + static_cast<float>(recs.size());
      if (pass > 0) rec_ms.push_back(ms);
    }
    if (pass > 0) {
      allocs[pass - 1] = static_cast<double>(total) /
                         static_cast<double>(states.users.size());
    }
  }
  m->Set("core.recommend_ms.p50", Percentile(rec_ms, 0.50), "ms");
  m->Set("core.recommend_ms.p99", Percentile(rec_ms, 0.99), "ms");
  m->Set("core.allocs_per_recommend", allocs[0], "count");
  report->repeat_counts["core.allocs_per_recommend"] = {allocs[0], allocs[1]};

  std::vector<double> paths_ms;
  {
    ScopedSpan span("probe.core.find_paths");
    for (size_t u : states.users) {
      const auto t0 = Clock::now();
      const auto paths = model->FindPaths(ds.users[u], kTopK);
      paths_ms.push_back(SecondsSince(t0) * 1e3);
      g_sink = g_sink + static_cast<float>(paths.size());
    }
  }
  m->Set("core.find_paths_ms", Median(paths_ms), "ms");

  // Two passes of blocking Recommend with a row-counting batcher installed;
  // the count is deterministic, so both passes must agree.
  double rows[2] = {0.0, 0.0};
  for (double& r : rows) {
    ScopedSpan span("probe.infer.score_rows");
    ScoreRowCounter counter;
    infer::ScopedStepBatcher scope(&counter);
    for (size_t u : states.users) {
      g_sink = g_sink + static_cast<float>(
                            model->Recommend(ds.users[u], kTopK).size());
    }
    r = counter.rows_per_call();
  }
  m->Set("infer.score_rows_per_call", rows[0], "count");
  report->repeat_counts["infer.score_rows_per_call"] = {rows[0], rows[1]};

  // Action spaces as the beam search builds them: entity moves pruned
  // through a fresh per-search score memo over the served snapshot,
  // category moves ranked on the same snapshot.
  const auto snapshot = model->CurrentSnapshot();
  const infer::ScoringView& view = snapshot->scoring();
  const core::CadrlOptions& mo = ctx.model_options;
  core::EntityEnvironment entity_env(&ds.graph, model->store(),
                                     mo.max_entity_actions);
  core::CategoryEnvironment category_env(&ds.category_graph, model->store(),
                                         mo.max_category_actions);
  double actions[2] = {0.0, 0.0};
  double entity_us = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    ScopedSpan span("probe.core.entity_valid_actions");
    int64_t total = 0;
    const auto t0 = Clock::now();
    for (const auto& [user, entity] : states.entity) {
      core::UserScoreMemo memo(view, user);
      total += static_cast<int64_t>(
          entity_env.ValidActions(user, entity, nullptr, &memo).size());
    }
    entity_us = SecondsSince(t0) * 1e6 /
                static_cast<double>(states.entity.size());
    actions[rep] = static_cast<double>(total) /
                   static_cast<double>(states.entity.size());
  }
  m->Set("core.entity_valid_actions_us", entity_us, "us");
  m->Set("core.actions_per_call", actions[0], "count");
  report->repeat_counts["core.actions_per_call"] = {actions[0], actions[1]};

  double category_us = 0.0;
  if (!states.category.empty()) {
    ScopedSpan span("probe.core.category_valid_actions");
    int64_t total = 0;
    const auto t0 = Clock::now();
    for (const auto& [user, category] : states.category) {
      total += static_cast<int64_t>(
          category_env.ValidActions(user, category, &view).size());
    }
    category_us = SecondsSince(t0) * 1e6 /
                  static_cast<double>(states.category.size());
    g_sink = g_sink + static_cast<float>(total);
  }
  m->Set("core.category_valid_actions_us", category_us, "us");

  {
    ScopedSpan span("probe.core.snapshot_acquire");
    auto acquire = [model] {
      g_sink = g_sink + (model->CurrentSnapshot() != nullptr ? 1.0f : 0.0f);
    };
    m->Set("core.snapshot_acquire_ns.t1", NsPerCall(acquire), "ns");
    m->Set("core.snapshot_acquire_ns.t2",
           NsPerCallConcurrent(acquire, 2, 200000), "ns");
  }
}

// Infer layer: the four policy forwards and user-entity scoring of one
// snapshot, at the workload's action-space sizes.
void ProbeSnapshot(const infer::CompiledModel& snapshot,
                   const data::Dataset& ds, const core::CadrlOptions& mo,
                   int score_rows, const std::string& suffix, Metrics* m) {
  const infer::ScoringView& sv = snapshot.scoring();
  const infer::PolicyParamsView& pv = snapshot.policy();
  const int d = sv.dim;
  const infer::Precision p = sv.precision;
  const kg::EntityId user = ds.users[0];
  std::vector<float> s_user, s_cat, s_rel, s_ent;
  const kg::CategoryId cat0 =
      ds.graph.CategoryOf(ds.train_items[0].empty() ? user
                                                    : ds.train_items[0][0]);
  const auto u = infer::RowSpan(sv.entities, p, d, user, &s_user);
  const auto c = infer::RowSpan(sv.categories, p, d,
                                cat0 == kg::kInvalidCategory ? 0 : cat0,
                                &s_cat);
  const auto r = infer::RowSpan(sv.relations, p, d, kg::kNumRelations, &s_rel);
  const auto e = infer::RowSpan(sv.entities, p, d, user, &s_ent);

  // Action matrices from real rows: categories for the category head,
  // [relation ; entity] pairs of the user's neighbors for the entity head.
  const int num_cat = static_cast<int>(
      std::min<int64_t>(mo.max_category_actions, sv.num_categories));
  std::vector<float> cat_matrix(static_cast<size_t>(num_cat) * d);
  for (int i = 0; i < num_cat; ++i) {
    infer::MaterializeRow(sv.categories, p, d, i, &cat_matrix[i * d]);
  }
  std::vector<kg::EntityId> endpoints;
  std::vector<float> ent_matrix;
  for (const kg::Edge& edge : ds.graph.Neighbors(user)) {
    if (static_cast<int>(endpoints.size()) >= mo.max_entity_actions) break;
    endpoints.push_back(edge.dst);
    const size_t at = ent_matrix.size();
    ent_matrix.resize(at + 2 * d);
    infer::MaterializeRow(sv.relations, p, d,
                          static_cast<int64_t>(edge.relation), &ent_matrix[at]);
    infer::MaterializeRow(sv.entities, p, d, edge.dst, &ent_matrix[at + d]);
  }
  const int num_ent = static_cast<int>(endpoints.size());
  std::vector<kg::EntityId> score_ids;
  const auto& items = ds.graph.EntitiesOfType(kg::EntityType::kItem);
  for (int i = 0; i < std::max(score_rows, 1); ++i) {
    score_ids.push_back(items[static_cast<size_t>(i) % items.size()]);
  }

  infer::PolicyScratch scratch;
  infer::RawPolicyState state;
  infer::InitialStateRaw(pv, u, c, r, e, &scratch, &state);
  std::vector<float> logits(static_cast<size_t>(
      std::max({num_cat, num_ent, static_cast<int>(score_ids.size())})));

  ScopedSpan span("probe.infer.forwards");
  const std::string s = "_us." + suffix;
  m->Set("infer.initial_state" + s, NsPerCall([&] {
           infer::RawPolicyState fresh;
           infer::InitialStateRaw(pv, u, c, r, e, &scratch, &fresh);
           g_sink = g_sink + fresh.ent_h[0];
         }) / 1e3,
         "us");
  m->Set("infer.category_logits" + s, NsPerCall([&] {
           infer::CategoryLogitsRaw(pv, state, u, c, cat_matrix.data(),
                                    num_cat, &scratch, logits.data());
           g_sink = g_sink + logits[0];
         }) / 1e3,
         "us");
  m->Set("infer.entity_logits" + s, NsPerCall([&] {
           infer::EntityLogitsRaw(pv, state, e, r, c, ent_matrix.data(),
                                  num_ent, &scratch, logits.data());
           g_sink = g_sink + logits[0];
         }) / 1e3,
         "us");
  infer::RawPolicyState advancing = state;
  m->Set("infer.advance" + s, NsPerCall([&] {
           infer::AdvanceRaw(pv, &advancing, u, c, r, e, &scratch);
           g_sink = g_sink + advancing.ent_h[0];
         }) / 1e3,
         "us");
  m->Set("infer.score_user_entities" + s, NsPerCall([&] {
           infer::ScoreUserEntities(
               sv, user, score_ids,
               std::span<float>(logits.data(), score_ids.size()));
           g_sink = g_sink + logits[0];
         }) / 1e3,
         "us");
}

// Kernels at the policy-head, beam-scoring and CGGNN training shapes, with
// the bytes each call moves computed from its operand sizes.
void ProbeKernels(const infer::PolicyParamsView& pv, int dim, int beam_width,
                  int actions, int score_rows, int64_t num_items,
                  Metrics* m) {
  ScopedSpan span("probe.kernels");
  Rng rng(17);
  auto set = [m](const std::string& name, double ns, double bytes) {
    m->Set("kernels." + name + "_ns", ns, "ns");
    m->Set("kernels." + name + "_bytes", bytes, "B");
  };
  auto quantize = [](const std::vector<float>& rows, int num, int n,
                     std::vector<int8_t>* q, std::vector<float>* scales,
                     std::vector<float>* zps) {
    q->resize(static_cast<size_t>(num) * n);
    scales->resize(static_cast<size_t>(num));
    zps->resize(static_cast<size_t>(num));
    for (int i = 0; i < num; ++i) {
      uint16_t sb = 0, zb = 0;
      kernels::QuantizeRowQ8(&rows[static_cast<size_t>(i) * n], n,
                             &(*q)[static_cast<size_t>(i) * n], &sb, &zb);
      (*scales)[static_cast<size_t>(i)] = kernels::F16ToF32(sb);
      (*zps)[static_cast<size_t>(i)] = kernels::F16ToF32(zb);
    }
  };

  // Policy head: Linear1 of the entity head, (out x in) times a vector.
  {
    const int rows = pv.head1_e.out, cols = pv.head1_e.in;
    const auto a = RandomFloats(&rng, static_cast<size_t>(rows) * cols);
    const auto x = RandomFloats(&rng, static_cast<size_t>(cols));
    std::vector<float> y(static_cast<size_t>(rows));
    set("gemv_f32", NsPerCall([&] {
          kernels::Gemv(a.data(), rows, cols, x.data(), y.data());
          g_sink = g_sink + y[0];
        }),
        4.0 * (rows * cols + cols + rows));
    std::vector<int8_t> q;
    std::vector<float> scales, zps;
    quantize(a, rows, cols, &q, &scales, &zps);
    set("gemv_q8", NsPerCall([&] {
          kernels::GemvQ8(q.data(), scales.data(), zps.data(), rows, cols,
                          x.data(), y.data());
          g_sink = g_sink + y[0];
        }),
        1.0 * rows * cols + 8.0 * rows + 4.0 * (cols + rows));
  }
  // Beam scoring: a hop's survivors against the stacked action matrix.
  {
    const int mm = beam_width, nn = actions, kk = 2 * dim;
    const auto a = RandomFloats(&rng, static_cast<size_t>(mm) * kk);
    const auto b = RandomFloats(&rng, static_cast<size_t>(nn) * kk);
    std::vector<float> c(static_cast<size_t>(mm) * nn);
    set("gemm_nt_f32", NsPerCall([&] {
          kernels::GemmNTAcc(a.data(), b.data(), c.data(), mm, nn, kk);
          g_sink = g_sink + c[0];
        }),
        4.0 * (mm * kk + nn * kk + 2.0 * mm * nn));
    std::vector<int8_t> q;
    std::vector<float> scales, zps;
    quantize(b, nn, kk, &q, &scales, &zps);
    set("gemm_nt_q8", NsPerCall([&] {
          kernels::GemmNTQ8Acc(a.data(), q.data(), scales.data(), zps.data(),
                               c.data(), mm, nn, kk);
          g_sink = g_sink + c[0];
        }),
        4.0 * mm * kk + 1.0 * nn * kk + 8.0 * nn + 8.0 * mm * nn);
  }
  // User-entity translation scoring over the rows of one scoring call.
  {
    const int num = std::max(score_rows, 1), d = dim;
    const auto rows = RandomFloats(&rng, static_cast<size_t>(num) * d);
    const auto u = RandomFloats(&rng, static_cast<size_t>(d));
    const auto r = RandomFloats(&rng, static_cast<size_t>(d));
    std::vector<float> out(static_cast<size_t>(num));
    set("negsqdist_f32", NsPerCall([&] {
          kernels::NegSqDistRows(rows.data(), num, d, u.data(), r.data(),
                                 out.data());
          g_sink = g_sink + out[0];
        }),
        4.0 * (num * d + 2.0 * d + num));
    std::vector<int8_t> q;
    std::vector<float> scales, zps;
    quantize(rows, num, d, &q, &scales, &zps);
    set("negsqdist_q8", NsPerCall([&] {
          kernels::NegSqDistRowsQ8(q.data(), scales.data(), zps.data(), num, d,
                                   u.data(), r.data(), out.data());
          g_sink = g_sink + out[0];
        }),
        1.0 * num * d + 8.0 * num + 4.0 * (2.0 * d + num));
  }
  // CGGNN training: every item's message through a (dim x dim) weight.
  {
    const int mm = static_cast<int>(num_items), kk = dim, pp = dim;
    const auto a = RandomFloats(&rng, static_cast<size_t>(mm) * kk);
    const auto b = RandomFloats(&rng, static_cast<size_t>(kk) * pp);
    std::vector<float> c(static_cast<size_t>(mm) * pp);
    set("gemm_f32", NsPerCall([&] {
          kernels::GemmAcc(a.data(), b.data(), c.data(), mm, kk, pp);
          g_sink = g_sink + c[0];
        }),
        4.0 * (mm * kk + kk * pp + 2.0 * mm * pp));
  }
}

}  // namespace

void RunLayerProbes(const ProbeContext& ctx, RunReport* report) {
  ScopedSpan span("probe");
  Metrics* m = &report->metrics;
  const BeamStates states = CollectStates(ctx);

  ProbeTraining(ctx, m);
  ProbeCore(ctx, states, m, report);

  // Policy forwards and scoring of the snapshot the workload serves: the
  // f32 heap arena (offline) or int8 rows over mapped shards (reload). The
  // other kind reads 0 there, as serve.* do in offline.
  const auto snapshot = ctx.model->CurrentSnapshot();
  std::string kind;
  if (!snapshot->mapped() && snapshot->precision() == infer::Precision::kF32) {
    kind = "f32_heap";
  } else if (snapshot->mapped() &&
             snapshot->precision() == infer::Precision::kInt8) {
    kind = "int8_mapped";
  } else {
    throw std::runtime_error("served snapshot is neither f32 heap nor int8 "
                             "mapped");
  }
  for (const char* other : {"f32_heap", "int8_mapped"}) {
    if (kind == other) continue;
    for (const char* forward : {"initial_state", "category_logits",
                                "entity_logits", "advance",
                                "score_user_entities"}) {
      m->Set(std::string("infer.") + forward + "_us." + other, 0.0, "us");
    }
  }
  const int score_rows =
      static_cast<int>(std::lround(m->Get("infer.score_rows_per_call")));
  ProbeSnapshot(*snapshot, *ctx.dataset, ctx.model_options, score_rows, kind,
                m);

  {
    ScopedSpan fp_span("probe.util.failpoint_hit");
    auto hit = [] {
      g_sink = g_sink + (CADRL_FAILPOINT("cadrl/score") ? 1.0f : 0.0f);
    };
    m->Set("util.failpoint_hit_ns.t1", NsPerCall(hit), "ns");
    m->Set("util.failpoint_hit_ns.t2", NsPerCallConcurrent(hit, 2, 200000),
           "ns");
  }

  ProbeKernels(snapshot->policy(), snapshot->scoring().dim,
               ctx.model_options.beam_width,
               ctx.model_options.max_entity_actions, score_rows,
               ctx.dataset->graph.CountOfType(kg::EntityType::kItem), m);
}

}  // namespace perfbench
}  // namespace cadrl
