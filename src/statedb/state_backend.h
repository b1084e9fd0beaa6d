#ifndef FABRICSIM_STATEDB_STATE_BACKEND_H_
#define FABRICSIM_STATEDB_STATE_BACKEND_H_

#include <memory>

#include "src/statedb/memory_state_db.h"

namespace fabricsim {

/// Compatibility shim for the benchmark harness, which still includes
/// this header (fsbench/fsbench.cc:48) and builds its replay store with
/// MakeStateDb(fabric.state_backend) (fsbench/fsbench.cc:392). The world
/// state has one data structure, the ordered map; nothing in src/ uses
/// this header. Delete it, and FabricConfig::state_backend, in the next
/// change to the benchmark.
enum class StateBackendType { kOrderedMap };

inline std::unique_ptr<StateDatabase> MakeStateDb(StateBackendType) {
  return std::make_unique<MemoryStateDb>();
}

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_STATE_BACKEND_H_
