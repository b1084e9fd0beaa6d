#include "src/ext/fabricsharp/dependency_tracker.h"

namespace fabricsim {

DependencyTracker::Decision DependencyTracker::Admit(const Transaction& tx) {
  if (!tx.rwset->range_queries.empty()) {
    return Decision::kRangeQuery;
  }
  if (!StillSerializable(tx)) return Decision::kStaleRead;

  // Seed first-seen read versions so later transactions are checked
  // against them.
  for (const ReadItem& read : tx.rwset->reads) {
    KeyState& state = keys_[read.key];
    if (!state.known) {
      state.committed = read.version;
      state.exists = read.found;
      state.known = true;
    }
  }
  // Mark scheduled writes pending until the block is cut.
  for (const WriteItem& write : tx.rwset->writes) {
    keys_[write.key].pending++;
  }
  return Decision::kAdmit;
}

bool DependencyTracker::StillSerializable(const Transaction& tx) const {
  for (const ReadItem& read : tx.rwset->reads) {
    auto it = keys_.find(read.key);
    if (it == keys_.end()) continue;  // first sighting: trust the read
    const KeyState& state = it->second;
    if (!state.known) continue;  // only pending blind writes seen so far
    // The read must match the last cut version exactly. A pending
    // in-batch write does not invalidate it: the serializer orders
    // this reader before that writer.
    if (read.found != state.exists) return false;
    if (read.found && read.version != state.committed) return false;
  }
  return true;
}

void DependencyTracker::ReleasePending(const Transaction& tx) {
  for (const WriteItem& write : tx.rwset->writes) {
    auto it = keys_.find(write.key);
    if (it != keys_.end() && it->second.pending > 0) it->second.pending--;
  }
}

void DependencyTracker::OnBlockCut(
    const Block& block, const std::vector<Transaction>& aborted_at_cut) {
  for (uint32_t i = 0; i < block.txs.size(); ++i) {
    ReleasePending(block.txs[i]);
    for (const WriteItem& write : block.txs[i].rwset->writes) {
      KeyState& state = keys_[write.key];
      state.committed = Version{block.number, i};
      state.exists = !write.is_delete;
      state.known = true;
    }
  }
  for (const Transaction& tx : aborted_at_cut) {
    ReleasePending(tx);
  }
}

}  // namespace fabricsim
