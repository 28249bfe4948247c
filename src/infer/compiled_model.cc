#include "infer/compiled_model.h"

#include <algorithm>

#include "core/embedding_store.h"
#include "core/policy.h"
#include "kg/graph.h"
#include "util/kernels.h"
#include "util/logging.h"

namespace cadrl {
namespace infer {

namespace {

// Appends `n` floats from `src` to the arena and returns the offset of the
// copied block. The arena is pre-reserved by Build, so pointers handed out
// after all copies stay stable.
size_t Append(std::vector<float>* arena, const float* src, size_t n) {
  const size_t off = arena->size();
  arena->insert(arena->end(), src, src + n);
  return off;
}

// Offsets of one encoded table inside the arenas; which arena the row
// payload lives in depends on the precision (see fix-up in Build).
struct TableRef {
  bool present = false;
  size_t row_off = 0;    // float arena (f32) / half arena (f16) / byte (q8)
  size_t scale_off = 0;  // half arena, int8 only
  size_t zp_off = 0;     // half arena, int8 only
};

}  // namespace

std::shared_ptr<const CompiledModel> CompiledModel::Build(
    const core::EmbeddingStore& store,
    const core::SharedPolicyNetworks& policy, float score_scale,
    const CompiledModelOptions& options) {
  const ScoringView sv = store.View();
  CADRL_CHECK(sv.precision == Precision::kF32)
      << "Build quantizes from the live (f32) store";
  const PolicyParamsView pv = policy.ParamsView();
  const Precision prec = options.precision;
  const size_t dim = static_cast<size_t>(sv.dim);
  const size_t ent_rows = static_cast<size_t>(sv.num_entities);
  const size_t rel_rows = static_cast<size_t>(kg::kNumRelations + 1);
  const size_t cat_rows = static_cast<size_t>(sv.num_categories);
  const bool has_demand = sv.demand_entities.present();

  auto model = std::shared_ptr<CompiledModel>(new CompiledModel());
  std::vector<float>& arena = model->arena_;
  std::vector<uint16_t>& half = model->half_arena_;
  std::vector<int8_t>& bytes = model->byte_arena_;

  auto linear_size = [](const LinearView& l) {
    return static_cast<size_t>(l.in) * l.out +
           (l.bias != nullptr ? static_cast<size_t>(l.out) : 0);
  };
  auto lstm_size = [](const LstmView& l) {
    return static_cast<size_t>(4) * l.hidden * (l.in + l.hidden + 1);
  };
  size_t table_rows = ent_rows * 2 + rel_rows + cat_rows;
  if (has_demand) table_rows += ent_rows;
  const size_t table_elems = table_rows * dim;
  size_t policy_total = lstm_size(pv.lstm_c) + lstm_size(pv.lstm_e);
  for (const LinearView* l : {&pv.mix_c, &pv.mix_e, &pv.head1_c, &pv.head2_c,
                              &pv.head1_e, &pv.head2_e}) {
    policy_total += linear_size(*l);
  }
  // Exact pre-reservation of all three arenas keeps data() stable across
  // the appends below, so view pointers can be fixed up incrementally.
  size_t float_total = policy_total;
  size_t half_total = 0;
  size_t byte_total = 0;
  switch (prec) {
    case Precision::kF32:
      float_total += table_elems;
      break;
    case Precision::kF16:
      half_total = table_elems;
      break;
    case Precision::kInt8:
      byte_total = table_elems;
      half_total = table_rows * 2;  // per-row scale + zero-point (binary16)
      break;
  }
  arena.reserve(float_total);
  half.reserve(half_total);
  bytes.reserve(byte_total);

  // --- Scoring tables (encoded per `prec`) ---
  auto add_table = [&](const float* src, size_t rows) {
    TableRef ref;
    ref.present = true;
    const size_t n = rows * dim;
    switch (prec) {
      case Precision::kF32:
        ref.row_off = Append(&arena, src, n);
        break;
      case Precision::kF16: {
        ref.row_off = half.size();
        half.resize(ref.row_off + n);
        kernels::QuantizeRowF16(src, static_cast<int>(n),
                                half.data() + ref.row_off);
        break;
      }
      case Precision::kInt8: {
        ref.row_off = bytes.size();
        bytes.resize(ref.row_off + n);
        ref.scale_off = half.size();
        half.resize(ref.scale_off + rows);
        ref.zp_off = half.size();
        half.resize(ref.zp_off + rows);
        for (size_t i = 0; i < rows; ++i) {
          kernels::QuantizeRowQ8(src + i * dim, static_cast<int>(dim),
                                 bytes.data() + ref.row_off + i * dim,
                                 half.data() + ref.scale_off + i,
                                 half.data() + ref.zp_off + i);
        }
        break;
      }
    }
    return ref;
  };
  const TableRef ent_ref = add_table(sv.entities.f32, ent_rows);
  const TableRef raw_ref = add_table(sv.raw_entities.f32, ent_rows);
  TableRef demand_ref;
  if (has_demand) demand_ref = add_table(sv.demand_entities.f32, ent_rows);
  const TableRef rel_ref = add_table(sv.relations.f32, rel_rows);
  const TableRef cat_ref = add_table(sv.categories.f32, cat_rows);

  // --- Policy parameters (always f32, in the float arena) ---
  PolicyParamsView& p = model->policy_;
  p = pv;  // copies dims + flags
  auto copy_linear = [&](const LinearView& src, LinearView* dst) {
    dst->in = src.in;
    dst->out = src.out;
    const size_t w_off = Append(
        &arena, src.weight, static_cast<size_t>(src.in) * src.out);
    size_t b_off = 0;
    if (src.bias != nullptr) {
      b_off = Append(&arena, src.bias, static_cast<size_t>(src.out));
    }
    // The arena was reserved to its exact final size, so data() is stable.
    dst->weight = arena.data() + w_off;
    dst->bias = src.bias != nullptr ? arena.data() + b_off : nullptr;
  };
  auto copy_lstm = [&](const LstmView& src, LstmView* dst) {
    dst->in = src.in;
    dst->hidden = src.hidden;
    const size_t h4 = static_cast<size_t>(4) * src.hidden;
    const size_t wi = Append(&arena, src.w_input, h4 * src.in);
    const size_t wh = Append(&arena, src.w_hidden, h4 * src.hidden);
    const size_t b = Append(&arena, src.bias, h4);
    dst->w_input = arena.data() + wi;
    dst->w_hidden = arena.data() + wh;
    dst->bias = arena.data() + b;
  };
  copy_lstm(pv.lstm_c, &p.lstm_c);
  copy_lstm(pv.lstm_e, &p.lstm_e);
  copy_linear(pv.mix_c, &p.mix_c);
  copy_linear(pv.mix_e, &p.mix_e);
  copy_linear(pv.head1_c, &p.head1_c);
  copy_linear(pv.head2_c, &p.head2_c);
  copy_linear(pv.head1_e, &p.head1_e);
  copy_linear(pv.head2_e, &p.head2_e);

  CADRL_CHECK_EQ(arena.size(), float_total) << "float arena size mismatch";
  CADRL_CHECK_EQ(half.size(), half_total) << "half arena size mismatch";
  CADRL_CHECK_EQ(bytes.size(), byte_total) << "byte arena size mismatch";

  ScoringView& s = model->scoring_;
  s = sv;  // copies dims, mode, ensemble weight
  s.precision = prec;
  s.entities = RowTable{};
  s.raw_entities = RowTable{};
  s.demand_entities = RowTable{};
  s.relations = RowTable{};
  s.categories = RowTable{};
  auto fix = [&](const TableRef& ref, RowTable* t) {
    if (!ref.present) return;
    switch (prec) {
      case Precision::kF32:
        t->f32 = arena.data() + ref.row_off;
        break;
      case Precision::kF16:
        t->f16 = half.data() + ref.row_off;
        break;
      case Precision::kInt8:
        t->q8 = bytes.data() + ref.row_off;
        t->q8_scale = half.data() + ref.scale_off;
        t->q8_zp = half.data() + ref.zp_off;
        break;
    }
  };
  fix(ent_ref, &s.entities);
  fix(raw_ref, &s.raw_entities);
  fix(demand_ref, &s.demand_entities);
  fix(rel_ref, &s.relations);
  fix(cat_ref, &s.categories);

  ArenaBytes& ab = model->arena_bytes_;
  switch (prec) {
    case Precision::kF32:
      ab.store_rows = table_elems * sizeof(float);
      break;
    case Precision::kF16:
      ab.store_rows = table_elems * sizeof(uint16_t);
      break;
    case Precision::kInt8:
      ab.store_rows = table_elems * sizeof(int8_t);
      ab.store_scales = table_rows * 2 * sizeof(uint16_t);
      break;
  }
  ab.policy_params = policy_total * sizeof(float);

  model->score_scale_ = score_scale;
  return model;
}

}  // namespace infer
}  // namespace cadrl
