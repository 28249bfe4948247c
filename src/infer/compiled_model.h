#ifndef CADRL_INFER_COMPILED_MODEL_H_
#define CADRL_INFER_COMPILED_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "infer/policy_forward.h"
#include "infer/precision.h"
#include "infer/scoring.h"

namespace cadrl {
namespace core {
class EmbeddingStore;
class SharedPolicyNetworks;
}  // namespace core
namespace util {
class MmapFile;
}  // namespace util

namespace infer {

// Snapshot-compile options. `precision` selects the row format of the
// embedding-table sections (DESIGN.md §14); policy parameters are always
// f32 — the head/LSTM math is tiny next to the tables and keeping it f32
// keeps the policy forwards byte-identical across precisions for the same
// (dequantized) inputs.
struct CompiledModelOptions {
  Precision precision = Precision::kF32;
};

// Arena footprint by section, in bytes (RecommendService::Stats and every
// bench JSON dump report these — the memory claim is a measured number).
// For a shard-dir-backed model these are the *logical* section sizes inside
// the mappings (the heap arenas are empty; see arena_size()).
struct ArenaBytes {
  size_t store_rows = 0;    // embedding-table row payloads (all tables)
  size_t store_scales = 0;  // per-row int8 scale/zero-point metadata
  size_t policy_params = 0; // both agents' parameters (always f32)
  size_t total() const { return store_rows + store_scales + policy_params; }
};

// Aggregate shard-set accounting for a shard-dir-backed model (all zero for
// heap-arena models). `shards_remapped`/`shards_reused` describe how this
// model was loaded relative to the `previous` model handed to the loader:
// a delta reload reuses the unchanged shards' mappings and maps only the
// republished ones.
struct ShardSetStats {
  int shard_count = 0;      // entity-range shards (excludes the meta shard)
  int shards_remapped = 0;  // freshly opened+mapped in this load
  int shards_reused = 0;    // mappings inherited from the previous model
  size_t mapped_bytes = 0;  // total bytes of all mappings (incl. meta)
  uint64_t generation = 0;  // manifest generation this model serves
  bool fallback_buffered = false;  // any mapping fell back to a heap read
};

// One entity-range shard of a shard-dir-backed model, as loaded. The CRC is
// the payload CRC recorded in the manifest — the delta loader's identity
// key for mapping reuse.
struct ShardSetInfo {
  std::string file;  // basename within the shard dir
  int64_t row_begin = 0;
  int64_t row_count = 0;
  uint32_t crc = 0;
  uint64_t generation = 0;  // manifest generation that last wrote this shard
  bool remapped = false;    // false = mapping inherited from previous model
};

// A frozen, tape-free inference snapshot: every parameter the serving path
// needs — the embedding tables and both agents' policy parameters —
// flattened out of ag::Tensor into contiguous immutable arenas, plus
// the views the compiled forwards (scoring.h / policy_forward.h) read.
// Instances are immutable after Build and shared by std::shared_ptr, which
// is what makes RCU-style hot swap safe: a reader that grabbed the pointer
// keeps a complete consistent model alive for the whole request while a
// writer publishes a new snapshot (DESIGN.md §12).
//
// The embedding tables live in the row format selected at Build
// (CompiledModelOptions::precision): f32 rows in the float arena, f16 rows
// in the half arena, or int8 rows in the byte arena with per-row binary16
// scale/zero-point pairs in the half arena. Quantization happens exactly
// once, here — training and the tape never see quantized values, and a
// request's acquired snapshot carries one row format end-to-end.
//
// CGGNN weights are deliberately NOT part of the serving arena: the GNN
// runs at train/load time and its outputs are already baked into the
// store's item rows, which Build copies. The compiled CGGNN forward
// (cggnn_forward.h) exists for that bake step, not for per-request work.
class CompiledModel {
 public:
  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  // Deep-copies all tables and parameters out of the live store/policy
  // into the arenas, quantizing the tables per `options.precision`. The
  // sources may be mutated or destroyed afterwards.
  static std::shared_ptr<const CompiledModel> Build(
      const core::EmbeddingStore& store,
      const core::SharedPolicyNetworks& policy, float score_scale,
      const CompiledModelOptions& options);

  const ScoringView& scoring() const { return scoring_; }
  const PolicyParamsView& policy() const { return policy_; }
  float score_scale() const { return score_scale_; }
  Precision precision() const { return scoring_.precision; }
  // Floats held by the f32 arena (policy params + f32-precision tables);
  // prefer arena_bytes() for footprint reporting. Zero for a shard-dir-
  // backed model — its parameters live in the mapped files, not the heap.
  size_t arena_size() const { return arena_.size(); }
  // Per-section arena footprint in bytes, across all three arenas (or the
  // equivalent logical sections of the mappings for a mapped model).
  const ArenaBytes& arena_bytes() const { return arena_bytes_; }

  // True when this model is backed by a shard directory (ShardLoader):
  // the tables and policy parameters point into read-only file mappings
  // instead of the heap arenas.
  bool mapped() const { return !mappings_.empty(); }
  const ShardSetStats& shard_stats() const { return shard_stats_; }
  const std::vector<ShardSetInfo>& shard_infos() const { return shard_infos_; }

 private:
  friend class ShardLoader;  // builds mapped instances (shard_layout.cc)

  CompiledModel() = default;

  std::vector<float> arena_;      // policy params (+ f32 tables)
  std::vector<uint16_t> half_arena_;  // f16 rows / int8 scale-zp pairs
  std::vector<int8_t> byte_arena_;    // int8 rows
  ScoringView scoring_;
  PolicyParamsView policy_;
  ArenaBytes arena_bytes_;
  float score_scale_ = 1.0f;

  // Shard-dir backend (empty for heap-arena models). `mappings_` pins the
  // mapped files for the model's lifetime — an acquired snapshot therefore
  // pins its whole shard set exactly like a heap arena, and a delta reload
  // shares unchanged mappings with the previous model via the shared_ptrs.
  // The segment vectors are the flat per-shard sub-tables the sharded
  // RowTables (see infer/precision.h) point into; they are sized once at
  // load and never reallocate.
  std::vector<std::shared_ptr<const util::MmapFile>> mappings_;
  std::vector<RowTable> ent_segments_;
  std::vector<RowTable> raw_segments_;
  std::vector<RowTable> demand_segments_;
  ShardSetStats shard_stats_;
  std::vector<ShardSetInfo> shard_infos_;
  uint32_t meta_crc_ = 0;           // meta shard payload CRC (delta reuse)
  uint64_t meta_generation_ = 0;    // manifest generation of the meta shard
};

}  // namespace infer
}  // namespace cadrl

#endif  // CADRL_INFER_COMPILED_MODEL_H_
