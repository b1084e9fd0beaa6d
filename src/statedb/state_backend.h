#ifndef FABRICSIM_STATEDB_STATE_BACKEND_H_
#define FABRICSIM_STATEDB_STATE_BACKEND_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/statedb/state_database.h"

namespace fabricsim {

/// Which data structure implements the StateDatabase interface behind
/// each channel's shared world state (the VersionedStateStore head).
/// Orthogonal to DatabaseType (the *cost model* — LevelDB vs CouchDB
/// latency profiles): the backend decides how fast the simulator
/// itself executes state ops, the profile decides how much simulated
/// time they are charged. Any backend composes with any profile, and
/// all backends produce bit-identical simulation results (see the
/// semantics contract in state_database.h).
enum class StateBackendType {
  /// std::map reference implementation — the default, kept for
  /// bitwise-identical reproduction of all paper figures.
  kOrderedMap,
  /// Cache-friendly open-addressing hash table (linear probing,
  /// FNV-1a, tombstone deletes, power-of-two growth) with a lazily
  /// rebuilt sorted index for range scans. O(1) point ops; the fastest
  /// choice for point-heavy workloads and million-key state.
  kHashIndex,
  /// B+-tree with fat sorted-array leaves: cache-friendly ordered
  /// index, O(log n) point ops with far fewer pointer hops than the
  /// ordered map, and range scans that walk the leaf chain.
  kBTree,
};

const char* StateBackendTypeToString(StateBackendType backend);

/// Parses "ordered_map" / "hash" / "btree" (the ToString spellings are
/// also accepted). nullopt on anything else.
std::optional<StateBackendType> StateBackendTypeFromString(
    const std::string& name);

/// All selectable backends, ordered-map reference first — the backend
/// sweep order used by benches and differential tests.
const std::vector<StateBackendType>& AllStateBackends();

/// Factory: creates an empty state database of the given backend.
std::unique_ptr<StateDatabase> MakeStateDb(StateBackendType backend);

/// Creates an open-addressing hash state database.
std::unique_ptr<StateDatabase> MakeHashStateDb();

/// Creates a B+-tree (fat-leaf ordered index) state database.
std::unique_ptr<StateDatabase> MakeBTreeStateDb();

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_STATE_BACKEND_H_
