#include "rcb/sim/engine_workspace.hpp"

namespace rcb {

void EngineWorkspace::begin_trial() {
  arena.reset();
  events.detach();
  send_slots.detach();
  mc_history.detach();
  payloads.detach();
}

std::uint64_t* EngineWorkspace::sort_scratch() {
  if (!sort_scratch_) {
    sort_scratch_ = std::make_unique_for_overwrite<std::uint64_t[]>(
        kSortScratchKeys);
  }
  return sort_scratch_.get();
}

EngineWorkspace& engine_workspace() {
  thread_local EngineWorkspace workspace;
  return workspace;
}

void engine_workspace_begin_trial() { engine_workspace().begin_trial(); }

}  // namespace rcb
