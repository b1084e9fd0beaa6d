#include "src/ext/fabricsharp/fabricsharp.h"

#include <utility>

#include "src/ext/fabricpp/conflict_graph.h"
#include "src/peer/validator.h"

namespace fabricsim {

bool FabricSharpProcessor::Admit(const Transaction& tx,
                                 TxValidationCode* reject_code) {
  switch (tracker_.Admit(tx)) {
    case DependencyTracker::Decision::kAdmit:
      ++stats_.admitted;
      return true;
    case DependencyTracker::Decision::kStaleRead:
      ++stats_.aborted_stale_read;
      break;
    case DependencyTracker::Decision::kRangeQuery:
      ++stats_.aborted_range_query;
      break;
  }
  *reject_code = TxValidationCode::kAbortedNotSerializable;
  return false;
}

SimTime FabricSharpProcessor::OnBlockCut(
    Block* block, std::vector<EarlyAbort>* early_aborted) {
  ++stats_.blocks_processed;
  std::vector<Transaction> aborted;

  // 1. Partition: transactions failing VSCC never commit writes; they
  //    stay in the block (the paper: FabricSharp commits successful
  //    transactions *and endorsement failures*) but take no part in
  //    serialization and install no versions.
  //    Batch-boundary re-check for the rest: a write cut into an
  //    earlier block may have invalidated reads admitted before that
  //    cut.
  std::vector<Transaction> survivors;
  std::vector<Transaction> vscc_failures;
  survivors.reserve(block->txs.size());
  for (Transaction& tx : block->txs) {
    if (!EndorsementSatisfiesPolicy(tx, policy_)) {
      vscc_failures.push_back(std::move(tx));
      continue;
    }
    if (tracker_.StillSerializable(tx)) {
      survivors.push_back(std::move(tx));
    } else {
      aborted.push_back(std::move(tx));
    }
  }

  // 2. Serialize via the conflict graph; unserializable cycle members
  //    are dropped (greedy minimum feedback vertex set).
  uint64_t ops = 0;
  ConflictGraph graph = ConflictGraph::Build(survivors, &ops);
  std::vector<uint32_t> cycle_aborts;
  if (graph.edge_count() > 0) {
    cycle_aborts = graph.GreedyFeedbackVertexSet(&ops);
  }
  std::vector<bool> alive(survivors.size(), true);
  for (uint32_t idx : cycle_aborts) alive[idx] = false;
  std::vector<uint32_t> order = graph.TopologicalOrder(alive, &ops);

  std::vector<Transaction> final_txs;
  final_txs.reserve(order.size() + vscc_failures.size());
  for (uint32_t idx : order) final_txs.push_back(std::move(survivors[idx]));
  for (uint32_t idx : cycle_aborts) {
    aborted.push_back(std::move(survivors[idx]));
  }

  block->txs = std::move(final_txs);

  // 3. Install final versions of the committing transactions; release
  //    pending markers of the aborted and VSCC-failing ones.
  tracker_.OnBlockCut(*block, aborted);
  tracker_.OnBlockCut(Block{}, vscc_failures);

  // The endorsement failures ride along at the tail of the block.
  for (Transaction& tx : vscc_failures) {
    block->txs.push_back(std::move(tx));
  }
  block->results.assign(block->txs.size(), TxValidationResult{});

  stats_.aborted_at_cut += aborted.size();
  if (early_aborted != nullptr) {
    for (Transaction& tx : aborted) {
      early_aborted->emplace_back(std::move(tx),
                                  TxValidationCode::kAbortedNotSerializable);
    }
  }

  // Dependency-graph maintenance cost: linear in rw-set sizes for
  // point accesses, plus the serialization work actually performed.
  SimTime cost = static_cast<SimTime>(ops / 1000 * 14);
  for (const Transaction& tx : block->txs) {
    cost += 20 * static_cast<SimTime>(tx.rwset->reads.size() +
                                      tx.rwset->writes.size());
  }
  return cost;
}

}  // namespace fabricsim
