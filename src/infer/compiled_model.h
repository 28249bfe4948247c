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

// Snapshot footprint by section, in bytes (RecommendService::Stats and
// every bench JSON dump report these — the memory claim is a measured
// number). These are the logical section sizes inside the shard-format
// blobs, wherever those blobs live (heap buffer or file mapping).
struct ArenaBytes {
  size_t store_rows = 0;    // embedding-table row payloads (all tables)
  size_t store_scales = 0;  // per-row int8 scale/zero-point metadata
  size_t policy_params = 0; // both agents' parameters (always f32)
  size_t total() const { return store_rows + store_scales + policy_params; }
};

// Aggregate shard-set accounting for a shard-dir-backed model (all zero for
// in-process builds). `shards_remapped`/`shards_reused` describe how this
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
// needs — the embedding tables and both agents' policy parameters — held
// in the relocatable shard format (infer/shard_layout.h, DESIGN.md §16),
// plus the views the compiled forwards (scoring.h / policy_forward.h) read.
// Instances are immutable after construction and shared by std::shared_ptr,
// which is what makes RCU-style hot swap safe: a reader that grabbed the
// pointer keeps a complete consistent model alive for the whole request
// while a writer publishes a new snapshot (DESIGN.md §12).
//
// There is one representation and one wiring routine. Build encodes the
// live model into shard-format blobs kept in heap buffers — one entity
// blob covering every row plus the meta blob — and LoadFromShardDir maps
// the same blobs from files; either way the views are wired from the blob
// sections by the same code (shard_layout.cc). A table held by a single
// blob is wired flat, so in-process snapshots and one-shard directories
// keep ResolveRow's zero-indirection path.
//
// The embedding tables are encoded once, at Build/compile time, in the row
// format selected by CompiledModelOptions::precision (f32, f16, or int8
// with per-row binary16 scale/zero-point sections) — training and the tape
// never see quantized values, and a request's acquired snapshot carries
// one row format end-to-end.
//
// CGGNN weights are deliberately NOT part of the snapshot: the GNN runs at
// train/load time and its outputs are already baked into the store's item
// rows, which Build encodes. The compiled CGGNN forward (cggnn_forward.h)
// exists for that bake step, not for per-request work.
class CompiledModel {
 public:
  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  // Encodes the f32 live view (the store's tables + policy parameters)
  // into in-process shard-format blobs, quantizing the tables per
  // `options.precision`, and wires the snapshot from them. Everything is
  // copied: the sources may be mutated or destroyed afterwards. Defined in
  // shard_layout.cc next to the encoders it shares with CompileToShardDir.
  static std::shared_ptr<const CompiledModel> Build(
      const ScoringView& view, const PolicyParamsView& policy,
      float score_scale, const CompiledModelOptions& options);

  const ScoringView& scoring() const { return scoring_; }
  const PolicyParamsView& policy() const { return policy_; }
  float score_scale() const { return score_scale_; }
  Precision precision() const { return scoring_.precision; }
  // Per-section footprint in bytes (same accounting for every backing).
  const ArenaBytes& arena_bytes() const { return arena_bytes_; }

  // True when this model is backed by a shard directory (LoadFromShardDir);
  // false for an in-process Build, whose shard stats/infos are empty.
  bool mapped() const { return from_dir_; }
  const ShardSetStats& shard_stats() const { return shard_stats_; }
  const std::vector<ShardSetInfo>& shard_infos() const { return shard_infos_; }

 private:
  friend class ShardLoader;  // wires views into the blobs (shard_layout.cc)

  CompiledModel() = default;

  ScoringView scoring_;
  PolicyParamsView policy_;
  ArenaBytes arena_bytes_;
  float score_scale_ = 1.0f;

  // The shard-format blobs every view points into: entity-range blobs in
  // row order, then the meta blob last. Heap buffers for an in-process
  // Build, file mappings for a shard directory; either way the model pins
  // them for its lifetime, and a delta reload shares unchanged mappings
  // with the previous model via the shared_ptrs. The segment vectors are
  // the per-blob sub-tables of a multi-blob (sharded) RowTable (see
  // infer/precision.h); they are sized once and never reallocate, and stay
  // empty when a single blob is wired flat.
  std::vector<std::shared_ptr<const util::MmapFile>> blobs_;
  std::vector<RowTable> ent_segments_;
  std::vector<RowTable> raw_segments_;
  std::vector<RowTable> demand_segments_;

  // Shard-directory provenance (unset for an in-process Build).
  bool from_dir_ = false;
  ShardSetStats shard_stats_;
  std::vector<ShardSetInfo> shard_infos_;
  uint32_t meta_crc_ = 0;           // meta shard payload CRC (delta reuse)
  uint64_t meta_generation_ = 0;    // manifest generation of the meta shard
};

}  // namespace infer
}  // namespace cadrl

#endif  // CADRL_INFER_COMPILED_MODEL_H_
