#include "infer/step_batcher.h"

namespace cadrl {
namespace infer {

namespace {

thread_local StepBatcher* g_tls_batcher = nullptr;

}  // namespace

StepBatcher* CurrentStepBatcher() { return g_tls_batcher; }

ScopedStepBatcher::ScopedStepBatcher(StepBatcher* batcher)
    : previous_(g_tls_batcher) {
  g_tls_batcher = batcher;
  if (batcher != nullptr) backend_pin_.emplace();
}

ScopedStepBatcher::~ScopedStepBatcher() { g_tls_batcher = previous_; }

}  // namespace infer
}  // namespace cadrl
