#ifndef FABRICSIM_STATEDB_VERSIONED_STATE_STORE_H_
#define FABRICSIM_STATEDB_VERSIONED_STATE_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chaincode/chaincode.h"
#include "src/ledger/block.h"
#include "src/peer/endorser.h"
#include "src/peer/validator.h"
#include "src/statedb/memory_state_db.h"
#include "src/statedb/state_database.h"

namespace fabricsim {

/// One channel's world state, shared by every peer that serves the
/// channel.
///
/// Validation is a pure function of (pre-block state, block), and
/// every peer commits the same blocks in the same order from the same
/// bootstrap, so per-peer replicas of a channel hold identical entries
/// at equal heights. The store therefore keeps one copy:
///
///  * the **head** — an ordered map holding the state after the
///    highest committed block;
///  * a **before-image log** — for every block above the lowest
///    cursor, the prior VersionedValue (or "absent") of each key the
///    block wrote, so the state at any live height is the head with
///    the later blocks' writes undone;
///  * each block's shared **ValidationOutcome** and its memoized
///    content hash, computed once and kept until every cursor has
///    committed past the block;
///  * **shared simulations** — chaincode is deterministic, so every
///    endorser at one height produces the same rw-set; the first
///    endorser's simulation (its sealed rw-set) serves the others, and
///    lives while some cursor sits at its height.
///
/// Readers are *cursors*: each peer's committed height on the channel,
/// plus FabricSharp's lagging endorsement snapshot. A StateView reads
/// the store as of its cursor's height: at the head a read goes
/// straight to the map, below it the result is patched from the
/// log. The first cursor to commit block n applies the block to the
/// head; log entries and outcomes at or below the lowest cursor are
/// collected as cursors advance, so memory tracks the spread between
/// the fastest and slowest reader, not the number of readers.
///
/// Single-threaded: every call happens on the simulation event loop.
class VersionedStateStore {
 public:
  using CursorId = size_t;

  VersionedStateStore() = default;

  VersionedStateStore(const VersionedStateStore&) = delete;
  VersionedStateStore& operator=(const VersionedStateStore&) = delete;

  /// Applies bootstrap writes at version (0,0). Only valid before the
  /// first block is committed.
  Status Bootstrap(const std::vector<WriteItem>& writes);

  /// Registers a reader at the oldest height still readable (0 before
  /// any collection happened).
  CursorId AddCursor();

  uint64_t height(CursorId cursor) const { return cursors_[cursor]; }
  /// Height of the head: the highest block any cursor committed.
  uint64_t head_height() const { return head_height_; }
  /// Lowest cursor height; everything at or below it is collected.
  /// The head height when no cursor is registered.
  uint64_t min_height() const;

  /// The shared outcome of block `number`, invoking `validate` only
  /// for the first caller. Callers validate at height number - 1.
  std::shared_ptr<const ValidationOutcome> GetOrValidate(
      uint64_t number, const std::function<ValidationOutcome()>& validate);

  /// BlockContentHash(*block, outcome->results), computed once per
  /// block. The memo is keyed by the identity of the block and outcome
  /// objects: a caller holding a different block object (a catch-up
  /// copy, or divergent content) gets its own hash, never the memo.
  uint64_t ContentHash(const std::shared_ptr<const Block>& block,
                       const std::shared_ptr<const ValidationOutcome>& outcome);

  /// The simulation of `invocation` by `chaincode` at `height` (with
  /// or without rich queries), shared by every caller with an equal
  /// key: `simulate` (a callable returning EndorsementResult) runs only
  /// for the first. The key is hashed to 64 bits and a hit confirmed
  /// by full equality; on a hash collision the caller simulates
  /// without caching. Entries at a height no cursor holds are dropped
  /// on the next cursor move.
  template <typename Simulate>
  std::shared_ptr<const EndorsementResult> GetOrSimulate(
      uint64_t height, const Chaincode* chaincode, bool rich_queries,
      const Invocation& invocation, Simulate&& simulate);

  /// Advances `cursor` from number - 1 to `number`. The first cursor
  /// to commit a block applies its updates to the head, recording
  /// before-images; later cursors only move.
  Status Commit(CursorId cursor, uint64_t number,
                const ValidationOutcome& outcome);

  /// Moves a cursor that only follows committed blocks (FabricSharp's
  /// endorsement snapshot) up to `height` <= head_height().
  Status Advance(CursorId cursor, uint64_t height);

  /// Reads as of `height`, for min_height() <= height <= head_height().
  /// Same semantics contract as StateDatabase.
  std::optional<VersionedValue> Get(uint64_t height,
                                    const std::string& key) const;
  std::optional<Version> GetVersion(uint64_t height,
                                    const std::string& key) const;
  std::vector<StateEntry> GetRange(uint64_t height,
                                   const std::string& start_key,
                                   const std::string& end_key) const;
  void ForEachVersionInRange(
      uint64_t height, const std::string& start_key,
      const std::string& end_key,
      const std::function<void(const std::string& key, Version version)>& fn)
      const;
  size_t Size(uint64_t height) const;
  std::vector<StateEntry> Scan(uint64_t height) const;
  void ForEachEntry(uint64_t height,
                    const std::function<void(const std::string& key,
                                             const VersionedValue& vv)>& fn)
      const;

  /// Logged before-images (one per key per block above min_height()).
  size_t before_images() const { return before_image_count_; }
  /// Lowest block with a logged before-image; 0 when the log is empty.
  uint64_t oldest_logged_block() const {
    return blocks_.empty() ? 0 : blocks_.front().number;
  }
  /// Validation outcomes still held for some cursor.
  size_t live_outcomes() const { return outcomes_.size(); }
  /// Shared simulations still held, over all heights.
  size_t live_simulations() const;

 private:
  /// A key's value just before `block` first wrote it.
  struct BeforeImage {
    uint64_t block;
    std::optional<VersionedValue> prior;
  };
  /// Per key, ascending by block.
  using Log = std::map<std::string, std::vector<BeforeImage>, std::less<>>;
  /// The keys one block logged, for collection.
  struct BlockLog {
    uint64_t number;
    std::vector<Log::iterator> keys;
  };
  struct OutcomeEntry {
    std::shared_ptr<const ValidationOutcome> outcome;
    std::shared_ptr<const Block> hashed_block;
    uint64_t content_hash = 0;
  };
  /// A shared simulation and the rest of its key (the height is the
  /// bucket's).
  struct SimulationEntry {
    const Chaincode* chaincode = nullptr;
    bool rich_queries = false;
    Invocation invocation;
    std::shared_ptr<const EndorsementResult> simulation;
  };
  /// One height's simulations, by SimulationHash.
  using SimulationBucket = std::unordered_map<uint64_t, SimulationEntry>;

  static uint64_t SimulationHash(const Chaincode* chaincode, bool rich_queries,
                                 const Invocation& invocation);

  /// The before-image that decides `chain`'s key at `height`: the
  /// first one logged above it. nullptr when the head value stands.
  static const BeforeImage* ImageAbove(const std::vector<BeforeImage>& chain,
                                       uint64_t height);
  /// True when reads at `height` need no patching.
  bool AtHead(uint64_t height) const {
    return height >= head_height_ || log_.empty();
  }
  /// Walks [start_key, end_key) as of `height` in key order: head
  /// entries from `walk_head`, overridden by the log where a block
  /// above `height` wrote the key.
  template <typename V, typename WalkHead, typename Project, typename Emit>
  void MergeAt(uint64_t height, const std::string& start_key,
               const std::string& end_key, WalkHead walk_head,
               Project project, Emit emit) const;
  /// Drops simulations at heights no cursor holds, and log entries
  /// and outcomes at or below min_height().
  void Collect();

  MemoryStateDb head_;
  uint64_t head_height_ = 0;
  std::vector<uint64_t> cursors_;
  Log log_;
  std::deque<BlockLog> blocks_;
  size_t before_image_count_ = 0;
  std::map<uint64_t, OutcomeEntry> outcomes_;
  std::map<uint64_t, SimulationBucket> simulations_;
  /// Highest height collected so far; new cursors start here.
  uint64_t floor_ = 0;
};

/// A read-only view of a VersionedStateStore at one cursor's height —
/// what a peer endorses and validates against. Implements the const
/// half of StateDatabase; writes go through the store, so ApplyWrite
/// returns FailedPrecondition.
class StateView final : public StateDatabase {
 public:
  StateView(const VersionedStateStore* store,
            VersionedStateStore::CursorId cursor)
      : store_(store), cursor_(cursor) {}

  uint64_t height() const { return store_->height(cursor_); }
  VersionedStateStore::CursorId cursor() const { return cursor_; }

  std::optional<VersionedValue> Get(const std::string& key) const override {
    return store_->Get(height(), key);
  }
  std::optional<Version> GetVersion(const std::string& key) const override {
    return store_->GetVersion(height(), key);
  }
  std::vector<StateEntry> GetRange(const std::string& start_key,
                                   const std::string& end_key) const override {
    return store_->GetRange(height(), start_key, end_key);
  }
  void ForEachVersionInRange(
      const std::string& start_key, const std::string& end_key,
      const std::function<void(const std::string& key, Version version)>& fn)
      const override {
    store_->ForEachVersionInRange(height(), start_key, end_key, fn);
  }
  Status ApplyWrite(const WriteItem& write, Version version) override;
  size_t Size() const override { return store_->Size(height()); }
  std::vector<StateEntry> Scan() const override {
    return store_->Scan(height());
  }
  void ForEachEntry(
      const std::function<void(const std::string& key,
                               const VersionedValue& vv)>& fn) const override {
    store_->ForEachEntry(height(), fn);
  }

 private:
  const VersionedStateStore* store_;
  VersionedStateStore::CursorId cursor_;
};

template <typename Simulate>
std::shared_ptr<const EndorsementResult> VersionedStateStore::GetOrSimulate(
    uint64_t height, const Chaincode* chaincode, bool rich_queries,
    const Invocation& invocation, Simulate&& simulate) {
  auto run = [&] {
    return std::make_shared<const EndorsementResult>(simulate());
  };
  auto [it, inserted] = simulations_[height].try_emplace(
      SimulationHash(chaincode, rich_queries, invocation));
  SimulationEntry& entry = it->second;
  if (inserted) {
    entry = SimulationEntry{chaincode, rich_queries, invocation, run()};
  } else if (entry.chaincode != chaincode ||
             entry.rich_queries != rich_queries ||
             entry.invocation.function != invocation.function ||
             entry.invocation.args != invocation.args) {
    return run();  // hash collision: correct, just not shared
  }
  return entry.simulation;
}

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_VERSIONED_STATE_STORE_H_
