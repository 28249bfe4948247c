#ifndef CADRL_CORE_POLICY_H_
#define CADRL_CORE_POLICY_H_

#include <memory>
#include <span>
#include <vector>

#include "autograd/module.h"
#include "infer/policy_forward.h"
#include "util/status.h"

namespace cadrl {
namespace core {

struct PolicyConfig {
  int dim = 32;     // embedding dimension d
  int hidden = 64;  // LSTM/head hidden width
  // The SPN coupling of Eqs 13-14 (disabled for the RSHI ablation, Fig 4).
  bool share_history = true;
  // Conditioning of the entity head on the category agent's current action
  // (DESIGN.md §3.2); disabled for single-agent models.
  bool condition_on_category = true;

  Status Validate() const;
};

// The shared policy networks pi_theta^c and pi_theta^e of §IV-C3. Two LSTMs
// encode the agents' trajectories; at each step the *hidden inputs* are
// cross-mixed (Eqs 13-14) so each agent sees the partner's history, and two
// small heads map [state features; history] to scores against the stacked
// action embeddings (Eqs 15-16).
//
// Representation conventions (DESIGN.md §3):
//  - category LSTM input:  [u ; h_c]            (2d)
//  - entity LSTM input:    [u ; h_r ; h_e]      (3d)
//  - category action embedding: h_c'            (d)
//  - entity action embedding:   [h_r' ; h_e']   (2d)
//  - entity head input: [h_e ; h_r ; y^e ; h_c(chosen)]  (3d + H)
class SharedPolicyNetworks : public ag::Module {
 public:
  SharedPolicyNetworks(const PolicyConfig& config, Rng* rng);

  // Joint recurrent state of both agents. `cat.h` / `ent.h` are the
  // y_l^c / y_l^e of the paper.
  struct RolloutState {
    ag::LstmCell::State cat;
    ag::LstmCell::State ent;
  };

  // Eq 12: seeds both LSTMs from zero state with the episode's first inputs
  // (e_0 = u, r_0 = self-loop, c_0 = initial category).
  RolloutState InitialState(const ag::Tensor& user, const ag::Tensor& cat0,
                            const ag::Tensor& rel0,
                            const ag::Tensor& ent0) const;

  // Eqs 13-14: advances both histories after the step's moves, mixing the
  // previous hidden outputs across agents when share_history is on.
  void Advance(RolloutState* state, const ag::Tensor& user,
               const ag::Tensor& cat_emb, const ag::Tensor& rel_emb,
               const ag::Tensor& ent_emb) const;

  // Eq 15: scores of the category actions (one logit per action embedding).
  ag::Tensor CategoryLogits(const RolloutState& state, const ag::Tensor& user,
                            const ag::Tensor& current_cat,
                            const std::vector<ag::Tensor>& action_embs) const;

  // Same scores against a pre-stacked (num_actions x d) action matrix —
  // the batched form callers should prefer; it skips the per-action
  // tensor construction and scores the whole action set in one kernel
  // call. Bit-identical to the vector overload.
  ag::Tensor CategoryLogits(const RolloutState& state, const ag::Tensor& user,
                            const ag::Tensor& current_cat,
                            const ag::Tensor& action_matrix) const;

  // Eq 16 (+ category conditioning): scores of the entity actions.
  ag::Tensor EntityLogits(const RolloutState& state,
                          const ag::Tensor& current_ent,
                          const ag::Tensor& last_rel,
                          const ag::Tensor& category_condition,
                          const std::vector<ag::Tensor>& action_embs) const;

  // Batched form against a pre-stacked (num_actions x 2d) action matrix;
  // bit-identical to the vector overload.
  ag::Tensor EntityLogits(const RolloutState& state,
                          const ag::Tensor& current_ent,
                          const ag::Tensor& last_rel,
                          const ag::Tensor& category_condition,
                          const ag::Tensor& action_matrix) const;

  // No-grad fast path for the counterfactual partner reward: entity-action
  // probabilities for `conditions.size()` category conditions at once,
  // written row-major (conditions.size() x action rows) into *probs. Runs
  // the whole head stack as three kernel GEMMs instead of K tape
  // forwards; row k is bit-identical to
  // ProbsOf(EntityLogits(state, current_ent, last_rel, condition_k,
  // action_matrix)).
  void EntityProbsBatch(const RolloutState& state,
                        const ag::Tensor& current_ent,
                        const ag::Tensor& last_rel,
                        const std::vector<std::span<const float>>& conditions,
                        const ag::Tensor& action_matrix,
                        std::vector<float>* probs) const;

  const PolicyConfig& config() const { return config_; }

  // Raw-buffer view of all parameters + config for the tape-free forwards
  // in infer/ (the layout CompiledModel::Build encodes into a snapshot).
  // The view borrows this module's tensors — invalidated by optimizer
  // steps only in value, never in shape, so it may be captured once per
  // inference call.
  infer::PolicyParamsView ParamsView() const;

 private:
  PolicyConfig config_;
  std::unique_ptr<ag::LstmCell> lstm_c_;
  std::unique_ptr<ag::LstmCell> lstm_e_;
  std::unique_ptr<ag::Linear> mix_c_;  // W^c of Eq 13
  std::unique_ptr<ag::Linear> mix_e_;  // W^e of Eq 14
  std::unique_ptr<ag::Linear> head1_c_, head2_c_;  // W_1^c, W_2^c of Eq 15
  std::unique_ptr<ag::Linear> head1_e_, head2_e_;  // W_1^e, W_2^e of Eq 16
};

}  // namespace core
}  // namespace cadrl

#endif  // CADRL_CORE_POLICY_H_
