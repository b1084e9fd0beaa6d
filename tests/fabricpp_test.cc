#include <gtest/gtest.h>

#include "src/ext/fabricpp/conflict_graph.h"
#include "src/ext/fabricpp/reorderer.h"
#include "src/peer/validator.h"
#include "src/policy/policy_presets.h"
#include "src/statedb/memory_state_db.h"

namespace fabricsim {
namespace {

Transaction Tx(TxId id, std::vector<std::string> reads,
               std::vector<std::string> writes) {
  Transaction tx;
  tx.id = id;
  ReadWriteSet rwset;
  for (const std::string& key : reads) {
    rwset.reads.push_back(ReadItem{key, {0, 0}, true});
  }
  for (const std::string& key : writes) {
    rwset.writes.push_back(WriteItem{key, "v" + key, false});
  }
  tx.rwset = SealedRwSet(std::move(rwset));
  uint64_t digest = tx.rwset->Digest();
  tx.endorsements.push_back(Endorsement{0, 0, digest, true});
  tx.endorsements.push_back(Endorsement{1, 1, digest, true});
  return tx;
}

// ------------------------------------------------------ ConflictGraph

TEST(ConflictGraphTest, ReaderPointsToWriter) {
  uint64_t ops = 0;
  // tx0 reads "a" which tx1 writes: edge 0 -> 1 (reader first).
  std::vector<Transaction> txs = {Tx(10, {"a"}, {}), Tx(11, {}, {"a"})};
  ConflictGraph graph = ConflictGraph::Build(txs, &ops);
  ASSERT_EQ(graph.node_count(), 2u);
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_EQ(graph.adjacency()[0], (std::vector<uint32_t>{1}));
  EXPECT_TRUE(graph.adjacency()[1].empty());
  EXPECT_GT(ops, 0u);
}

TEST(ConflictGraphTest, OwnWritesIgnored) {
  uint64_t ops = 0;
  std::vector<Transaction> txs = {Tx(1, {"a"}, {"a"})};
  ConflictGraph graph = ConflictGraph::Build(txs, &ops);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(ConflictGraphTest, RangeFootprintCreatesEdges) {
  uint64_t ops = 0;
  Transaction scanner;
  scanner.id = 1;
  RangeQueryInfo rq;
  rq.start_key = "k0";
  rq.end_key = "k9";
  rq.reads.push_back(ReadItem{"k3", {0, 0}, true});
  scanner.rwset = SealedRwSet(ReadWriteSet{{}, {}, {rq}});
  std::vector<Transaction> txs = {scanner, Tx(2, {}, {"k3"})};
  ConflictGraph graph = ConflictGraph::Build(txs, &ops);
  EXPECT_EQ(graph.adjacency()[0], (std::vector<uint32_t>{1}));
}

TEST(ConflictGraphTest, RangeIntervalCatchesInserters) {
  uint64_t ops = 0;
  Transaction scanner;
  scanner.id = 1;
  RangeQueryInfo rq;
  rq.start_key = "k0";
  rq.end_key = "k9";
  scanner.rwset = SealedRwSet(ReadWriteSet{{}, {}, {rq}});  // empty footprint
  // Writer inserts a fresh key inside the scanned interval.
  std::vector<Transaction> txs = {scanner, Tx(2, {}, {"k5"})};
  ConflictGraph graph = ConflictGraph::Build(txs, &ops);
  EXPECT_EQ(graph.adjacency()[0], (std::vector<uint32_t>{1}));
}

TEST(ConflictGraphTest, SccFindsCycle) {
  uint64_t ops = 0;
  // tx0 reads a writes b; tx1 reads b writes a -> 2-cycle.
  std::vector<Transaction> txs = {Tx(1, {"a"}, {"b"}), Tx(2, {"b"}, {"a"})};
  ConflictGraph graph = ConflictGraph::Build(txs, &ops);
  auto sccs = graph.StronglyConnectedComponents(&ops);
  size_t big = 0;
  for (const auto& scc : sccs) {
    if (scc.size() > 1) ++big;
  }
  EXPECT_EQ(big, 1u);
}

TEST(ConflictGraphTest, FvsBreaksAllCycles) {
  uint64_t ops = 0;
  std::vector<Transaction> txs = {
      Tx(1, {"a"}, {"b"}), Tx(2, {"b"}, {"c"}), Tx(3, {"c"}, {"a"}),
      Tx(4, {"x"}, {"y"})};
  ConflictGraph graph = ConflictGraph::Build(txs, &ops);
  auto aborted = graph.GreedyFeedbackVertexSet(&ops);
  EXPECT_GE(aborted.size(), 1u);
  EXPECT_LE(aborted.size(), 2u);
  std::vector<bool> alive(txs.size(), true);
  for (uint32_t idx : aborted) alive[idx] = false;
  size_t alive_count = 0;
  for (bool a : alive) alive_count += a ? 1 : 0;
  auto order = graph.TopologicalOrder(alive, &ops);
  // A complete topological order exists iff the remainder is acyclic.
  EXPECT_EQ(order.size(), alive_count);
}

TEST(ConflictGraphTest, TopologicalOrderRespectsEdges) {
  uint64_t ops = 0;
  std::vector<Transaction> txs = {Tx(1, {}, {"a"}), Tx(2, {"a"}, {})};
  ConflictGraph graph = ConflictGraph::Build(txs, &ops);
  std::vector<bool> alive(2, true);
  auto order = graph.TopologicalOrder(alive, &ops);
  ASSERT_EQ(order.size(), 2u);
  // Reader (index 1) must come before writer (index 0).
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
}

// --------------------------------------------------------- Reorderer

TEST(FabricPlusPlusTest, EliminatesIntraBlockConflicts) {
  // Unordered, tx2 (reads a, which tx1 writes) would fail intra-block.
  Block block;
  block.number = 1;
  block.txs = {Tx(1, {"b"}, {"a"}), Tx(2, {"a"}, {"c"})};
  block.results.assign(2, TxValidationResult{});

  MemoryStateDb db;
  db.ApplyWrite(WriteItem{"a", "va", false}, {0, 0});
  db.ApplyWrite(WriteItem{"b", "vb", false}, {0, 0});
  Validator validator(MakePolicy(PolicyPreset::kP0AllOrgs, 2));

  // Baseline: stock order loses tx2.
  ValidationOutcome before = validator.ValidateBlock(db, block);
  EXPECT_EQ(before.results[1].code, TxValidationCode::kMvccReadConflict);

  // Fabric++ reorders the reader first; both commit.
  FabricPlusPlusProcessor processor;
  SimTime cost = processor.OnBlockCut(&block, nullptr);
  EXPECT_GE(cost, 0);
  ValidationOutcome after = validator.ValidateBlock(db, block);
  EXPECT_EQ(after.valid_count, 2u);
  EXPECT_EQ(processor.stats().txs_aborted, 0u);
  // Reader (id 2) now precedes writer (id 1).
  EXPECT_EQ(block.txs[0].id, 2u);
  EXPECT_EQ(block.txs[1].id, 1u);
}

TEST(FabricPlusPlusTest, AbortsCyclesInOrderingPhase) {
  Block block;
  block.number = 1;
  block.txs = {Tx(1, {"a"}, {"b"}), Tx(2, {"b"}, {"a"})};
  block.results.assign(2, TxValidationResult{});
  FabricPlusPlusProcessor processor;
  std::vector<BlockProcessor::EarlyAbort> early_aborted;
  processor.OnBlockCut(&block, &early_aborted);
  EXPECT_EQ(processor.stats().txs_aborted, 1u);
  // The cycle member is early-aborted out of the block (Fabric++'s
  // ordering-phase abort) and tagged with the reordering code.
  ASSERT_EQ(early_aborted.size(), 1u);
  EXPECT_EQ(early_aborted[0].second, TxValidationCode::kAbortedByReordering);
  EXPECT_EQ(block.txs.size(), 1u);
  EXPECT_EQ(block.results.size(), 1u);
}

TEST(FabricPlusPlusTest, CostGrowsWithRangeFootprints) {
  // Writers touch keys outside the scanned interval so that the cost
  // difference is driven purely by the footprint size, like the
  // paper's DV/SCM scans vs genChain's 2–8-key ranges.
  auto make_block = [](size_t range_keys) {
    Block block;
    block.number = 1;
    for (int t = 0; t < 20; ++t) {
      Transaction tx;
      tx.id = static_cast<TxId>(t + 1);
      RangeQueryInfo rq;
      rq.start_key = "k00000";
      rq.end_key = "k99999";
      for (size_t i = 0; i < range_keys; ++i) {
        rq.reads.push_back(
            ReadItem{"k" + std::to_string(10000 + i), {0, 0}, true});
      }
      ReadWriteSet rwset;
      rwset.range_queries.push_back(rq);
      rwset.writes.push_back(WriteItem{"w" + std::to_string(t), "v", false});
      tx.rwset = SealedRwSet(std::move(rwset));
      block.txs.push_back(tx);
    }
    block.results.assign(block.txs.size(), TxValidationResult{});
    return block;
  };
  FabricPlusPlusProcessor small_proc, large_proc;
  Block small = make_block(4);
  Block large = make_block(800);
  SimTime small_cost = small_proc.OnBlockCut(&small, nullptr);
  SimTime large_cost = large_proc.OnBlockCut(&large, nullptr);
  EXPECT_GT(large_cost, small_cost * 5);
}

TEST(FabricPlusPlusTest, SingletonBlockIsFree) {
  Block block;
  block.number = 1;
  block.txs = {Tx(1, {"a"}, {"b"})};
  block.results.assign(1, TxValidationResult{});
  FabricPlusPlusProcessor processor;
  EXPECT_EQ(processor.OnBlockCut(&block, nullptr), 0);
}

}  // namespace
}  // namespace fabricsim
