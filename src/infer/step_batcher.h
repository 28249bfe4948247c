#ifndef CADRL_INFER_STEP_BATCHER_H_
#define CADRL_INFER_STEP_BATCHER_H_

#include <optional>
#include <span>

#include "infer/policy_forward.h"
#include "infer/scoring.h"
#include "kg/graph.h"
#include "util/kernels.h"

// Per-step seam of the compiled inference path (DESIGN.md §13). A caller
// installs a StepBatcher on its thread (ScopedStepBatcher); the beam search
// then hands each of its expansion steps — a policy-head logits forward or
// a user-entity scoring batch — to the batcher instead of dispatching the
// kernel call itself. Serving never installs one; the benchmark's probes
// use it to observe the steps a request really sends (e.g. the row count
// of each scoring call).
//
// Byte-identity contract: every Execute* call must leave exactly the bytes
// in `out` that the direct forward (HeadLogitsRaw / ScoreUserEntities)
// would have produced, so installing a batcher never changes an answer.
//
// The seam lives in infer/ so core::CadrlRecommender and
// core::UserScoreMemo can yield steps without depending on their observer.
namespace cadrl {
namespace infer {

// One policy-head forward (Eq 15 category head or Eq 16 entity head):
// logits of `num_actions` pre-stacked action rows against this request's
// feature row. All pointers stay owned by (and valid on) the calling
// thread for the whole Execute call; `head1`/`head2` come from the
// request's acquired snapshot.
struct PolicyHeadStep {
  const LinearView* head1 = nullptr;
  const LinearView* head2 = nullptr;
  const float* features = nullptr;       // length head1->in
  const float* action_matrix = nullptr;  // (num_actions x head2->out)
  int num_actions = 0;
  float* out = nullptr;  // logits, length num_actions
};

// One user-entity scoring batch (the miss set of a
// core::UserScoreMemo::ScoreBatch call). `view` points at the request's
// snapshot tables.
struct ScoreStep {
  const ScoringView* view = nullptr;
  kg::EntityId user = kg::kInvalidEntity;
  std::span<const kg::EntityId> entities;
  std::span<float> out;  // same length as entities
};

class StepBatcher {
 public:
  virtual ~StepBatcher() = default;

  // Both calls return once the step's `out` holds its final bytes. They
  // must not fail.
  virtual void ExecuteHead(PolicyHeadStep* step) = 0;
  virtual void ExecuteScore(ScoreStep* step) = 0;
};

// Batcher installed on the current thread, or null (the default: every
// caller dispatches directly).
StepBatcher* CurrentStepBatcher();

// RAII install/restore of the thread's batcher. Nesting restores the
// previous batcher on destruction; a null batcher is a no-op scope.
//
// Installing a real batcher also pins the kernel backend
// (kernels::BackendPin), so every step of the scope runs on one backend: a
// kernels::SetBackend racing with it is a CHECK failure instead of a
// silent nondeterminism hazard.
class ScopedStepBatcher {
 public:
  explicit ScopedStepBatcher(StepBatcher* batcher);
  ~ScopedStepBatcher();

  ScopedStepBatcher(const ScopedStepBatcher&) = delete;
  ScopedStepBatcher& operator=(const ScopedStepBatcher&) = delete;

 private:
  StepBatcher* const previous_;
  std::optional<kernels::BackendPin> backend_pin_;
};

}  // namespace infer
}  // namespace cadrl

#endif  // CADRL_INFER_STEP_BATCHER_H_
