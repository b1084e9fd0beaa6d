#ifndef FABRICSIM_STATEDB_STATE_DATABASE_H_
#define FABRICSIM_STATEDB_STATE_DATABASE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/ledger/rwset.h"
#include "src/ledger/version.h"

namespace fabricsim {

/// A value in the world state together with the version of the
/// transaction that last wrote it (paper Definition 3).
struct VersionedValue {
  std::string value;
  Version version;
};

/// One world-state entry: key + versioned value.
struct StateEntry {
  std::string key;
  VersionedValue vv;
};

/// Abstract versioned key-value store: the world state as a peer reads
/// it. Two classes implement it: MemoryStateDb (an ordered map, the
/// head of every channel's VersionedStateStore) and StateView (one
/// peer's read-only view of that store at its own height).
///
/// This interface is pure data-plane: it performs the operation
/// immediately and keeps no notion of time. The *cost* of each
/// operation (the LevelDB-embedded vs CouchDB-over-REST gap the paper
/// measures in Table 4) is modelled separately by DbLatencyProfile and
/// charged by the simulation actors that call into the store.
///
/// ## Semantics contract
///
/// Checked against a std::map reference by the randomized differential
/// test in tests/statedb_test.cc, and for views below the head by
/// tests/versioned_state_test.cc:
///
///  * **Deletes are absolute.** After ApplyWrite of a delete, the key
///    is absent from Get, GetVersion, GetRange, ForEachVersionInRange,
///    Size, Scan and ForEachEntry alike. Deleting a missing key is a
///    no-op returning OK.
///  * **Range queries are half-open [start_key, end_key)** over the
///    lexicographic key order. An *empty* end_key means "to the end of
///    the key space" (Fabric's GetStateByRange semantics) — it is NOT
///    the empty interval. An empty start_key starts at the first key.
///  * **Order is total and deterministic.** GetRange, Scan,
///    ForEachVersionInRange and ForEachEntry enumerate strictly
///    ascending by key, so scans, digests and phantom re-scan verdicts
///    depend only on the committed writes.
class StateDatabase {
 public:
  virtual ~StateDatabase() = default;

  /// Point lookup. nullopt when the key does not exist.
  virtual std::optional<VersionedValue> Get(const std::string& key) const = 0;

  /// Version-only point lookup. The validator's MVCC check only
  /// compares versions, so this avoids copying the value payload on
  /// the hottest read path.
  virtual std::optional<Version> GetVersion(const std::string& key) const = 0;

  /// Range scan over [start_key, end_key), in key order. An empty
  /// end_key means "to the end of the key space" (Fabric semantics).
  virtual std::vector<StateEntry> GetRange(const std::string& start_key,
                                           const std::string& end_key)
      const = 0;

  /// Version-only range iteration over [start_key, end_key), in key
  /// order, used by the validator's phantom-read re-scan — no key or
  /// value strings are materialized.
  virtual void ForEachVersionInRange(
      const std::string& start_key, const std::string& end_key,
      const std::function<void(const std::string& key, Version version)>& fn)
      const = 0;

  /// Applies one write (upsert or delete) committed at `version`.
  virtual Status ApplyWrite(const WriteItem& write, Version version) = 0;

  /// Number of live keys.
  virtual size_t Size() const = 0;

  /// All entries, ascending by key (used by tests and tooling that
  /// want a materialized snapshot). Prefer ForEachEntry on hot paths.
  virtual std::vector<StateEntry> Scan() const = 0;

  /// Streaming visitation of every entry, ascending by key, without
  /// materializing a copy of the world state (rich queries scan every
  /// document; a Scan()-based implementation would copy all of it per
  /// query).
  virtual void ForEachEntry(
      const std::function<void(const std::string& key,
                               const VersionedValue& vv)>& fn) const = 0;
};

/// True when `key` falls inside the half-open range [start_key,
/// end_key), where an empty end_key extends the range to the end of
/// the key space. THE definition of Fabric range semantics, shared by
/// the validator's phantom re-scan and Fabric++'s conflict analysis.
inline bool KeyInRange(const std::string& key, const std::string& start_key,
                       const std::string& end_key) {
  return key >= start_key && (end_key.empty() || key < end_key);
}

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_STATE_DATABASE_H_
