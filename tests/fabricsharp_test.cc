#include <gtest/gtest.h>

#include "src/ext/fabricsharp/dependency_tracker.h"
#include "src/ext/fabricsharp/fabricsharp.h"

namespace fabricsim {
namespace {

// Builds transaction `id` over `rwset` with a valid Org0 endorsement,
// so it passes the test policy ("1-of[Org0]").
Transaction Endorsed(TxId id, ReadWriteSet rwset) {
  Transaction tx;
  tx.id = id;
  tx.rwset = SealedRwSet(std::move(rwset));
  tx.endorsements.push_back(Endorsement{0, 0, tx.rwset->Digest(), true});
  return tx;
}

EndorsementPolicy TestPolicy() { return EndorsementPolicy::SignedBy(0); }

Transaction ReaderTx(TxId id, const std::string& key, Version version,
                     bool found = true) {
  return Endorsed(id, ReadWriteSet{{ReadItem{key, version, found}}, {}, {}});
}

Transaction WriterTx(TxId id, const std::string& key) {
  return Endorsed(id, ReadWriteSet{{}, {WriteItem{key, "v", false}}, {}});
}

Block CutBlock(uint64_t number, std::vector<Transaction> txs) {
  Block block;
  block.number = number;
  block.txs = std::move(txs);
  block.results.assign(block.txs.size(), TxValidationResult{});
  return block;
}

TEST(DependencyTrackerTest, FirstSightingAdmits) {
  DependencyTracker tracker;
  EXPECT_EQ(tracker.Admit(ReaderTx(1, "k", {3, 1})),
            DependencyTracker::Decision::kAdmit);
  // Same version again: still consistent.
  EXPECT_EQ(tracker.Admit(ReaderTx(2, "k", {3, 1})),
            DependencyTracker::Decision::kAdmit);
  // Different version: stale.
  EXPECT_EQ(tracker.Admit(ReaderTx(3, "k", {2, 0})),
            DependencyTracker::Decision::kStaleRead);
}

TEST(DependencyTrackerTest, ReaderAdmittedBesidePendingWrite) {
  // A pending in-batch write does not doom readers of the current
  // version: the serializer orders them before the writer.
  DependencyTracker tracker;
  EXPECT_EQ(tracker.Admit(ReaderTx(1, "k", {0, 0})),
            DependencyTracker::Decision::kAdmit);
  EXPECT_EQ(tracker.Admit(WriterTx(2, "k")),
            DependencyTracker::Decision::kAdmit);
  EXPECT_EQ(tracker.Admit(ReaderTx(3, "k", {0, 0})),
            DependencyTracker::Decision::kAdmit);
  // But once the write is cut, old readers are hopeless.
  tracker.OnBlockCut(CutBlock(5, {WriterTx(2, "k")}));
  EXPECT_EQ(tracker.Admit(ReaderTx(4, "k", {0, 0})),
            DependencyTracker::Decision::kStaleRead);
}

TEST(DependencyTrackerTest, BlockCutFinalizesVersions) {
  DependencyTracker tracker;
  Transaction writer = WriterTx(1, "k");
  ASSERT_EQ(tracker.Admit(writer), DependencyTracker::Decision::kAdmit);
  tracker.OnBlockCut(CutBlock(7, {writer}));
  // Endorsers that saw the committed write produce version (7,0).
  EXPECT_EQ(tracker.Admit(ReaderTx(2, "k", {7, 0})),
            DependencyTracker::Decision::kAdmit);
  // Readers endorsed against the old state are aborted.
  EXPECT_EQ(tracker.Admit(ReaderTx(3, "k", {0, 0})),
            DependencyTracker::Decision::kStaleRead);
}

TEST(DependencyTrackerTest, DeleteTrackedAsNonExistent) {
  DependencyTracker tracker;
  Transaction deleter =
      Endorsed(1, ReadWriteSet{{}, {WriteItem{"k", "", true}}, {}});
  ASSERT_EQ(tracker.Admit(deleter), DependencyTracker::Decision::kAdmit);
  tracker.OnBlockCut(CutBlock(3, {deleter}));
  // A read that found the key is stale; a not-found read matches.
  EXPECT_EQ(tracker.Admit(ReaderTx(2, "k", {0, 0}, /*found=*/true)),
            DependencyTracker::Decision::kStaleRead);
  EXPECT_EQ(tracker.Admit(ReaderTx(3, "k", {3, 0}, /*found=*/false)),
            DependencyTracker::Decision::kAdmit);
}

TEST(DependencyTrackerTest, RangeQueriesUnsupported) {
  DependencyTracker tracker;
  Transaction tx = Endorsed(1, ReadWriteSet{{}, {}, {RangeQueryInfo{}}});
  EXPECT_EQ(tracker.Admit(tx), DependencyTracker::Decision::kRangeQuery);
}

TEST(DependencyTrackerTest, BlindWritesAlwaysAdmitted) {
  DependencyTracker tracker;
  for (TxId id = 1; id <= 10; ++id) {
    EXPECT_EQ(tracker.Admit(WriterTx(id, "unique" + std::to_string(id))),
              DependencyTracker::Decision::kAdmit);
  }
}

// --------------------------------------------------------- Processor

TEST(FabricSharpProcessorTest, AdmissionAndStats) {
  FabricSharpProcessor processor(TestPolicy());
  TxValidationCode code = TxValidationCode::kNotValidated;

  Transaction writer = Endorsed(1, ReadWriteSet{{ReadItem{"hot", {0, 0}, true}},
                                                {WriteItem{"hot", "v", false}},
                                                {}});
  EXPECT_TRUE(processor.Admit(writer, &code));
  Block block = CutBlock(1, {writer});
  std::vector<BlockProcessor::EarlyAbort> aborted;
  processor.OnBlockCut(&block, &aborted);
  EXPECT_TRUE(aborted.empty());

  // Endorsed against the pre-cut state: aborted before ordering.
  Transaction reader = ReaderTx(2, "hot", {0, 0});
  EXPECT_FALSE(processor.Admit(reader, &code));
  EXPECT_EQ(code, TxValidationCode::kAbortedNotSerializable);
  EXPECT_EQ(processor.stats().admitted, 1u);
  EXPECT_EQ(processor.stats().aborted_stale_read, 1u);

  Transaction ranger = Endorsed(3, ReadWriteSet{{}, {}, {RangeQueryInfo{}}});
  EXPECT_FALSE(processor.Admit(ranger, &code));
  EXPECT_EQ(processor.stats().aborted_range_query, 1u);
}

TEST(FabricSharpProcessorTest, ConcurrentUpdatesSerializeToOne) {
  // Two read-modify-writes of the same version form a cycle; exactly
  // one survives the cut, the other is dropped from the block.
  FabricSharpProcessor processor(TestPolicy());
  TxValidationCode code;
  auto rmw = [](TxId id) {
    return Endorsed(id, ReadWriteSet{{ReadItem{"k", {0, 0}, true}},
                                     {WriteItem{"k", "v", false}},
                                     {}});
  };
  Transaction t1 = rmw(1), t2 = rmw(2);
  EXPECT_TRUE(processor.Admit(t1, &code));
  EXPECT_TRUE(processor.Admit(t2, &code));
  Block block = CutBlock(1, {t1, t2});
  std::vector<BlockProcessor::EarlyAbort> aborted;
  processor.OnBlockCut(&block, &aborted);
  EXPECT_EQ(block.txs.size(), 1u);
  EXPECT_EQ(aborted.size(), 1u);
  EXPECT_EQ(processor.stats().aborted_at_cut, 1u);
}

TEST(FabricSharpProcessorTest, ReaderSerializedBeforeWriterInBlock) {
  FabricSharpProcessor processor(TestPolicy());
  TxValidationCode code;
  Transaction writer = WriterTx(1, "k");
  Transaction reader = ReaderTx(2, "k", {0, 0});
  EXPECT_TRUE(processor.Admit(writer, &code));
  EXPECT_TRUE(processor.Admit(reader, &code));
  Block block = CutBlock(1, {writer, reader});
  std::vector<BlockProcessor::EarlyAbort> aborted;
  processor.OnBlockCut(&block, &aborted);
  ASSERT_EQ(block.txs.size(), 2u);
  EXPECT_TRUE(aborted.empty());
  // Reader (id 2) must precede writer (id 1) so MVCC passes.
  EXPECT_EQ(block.txs[0].id, 2u);
  EXPECT_EQ(block.txs[1].id, 1u);
}

TEST(FabricSharpProcessorTest, OnBlockCutChargesPerRwSet) {
  FabricSharpProcessor processor(TestPolicy());
  Block block = CutBlock(1, {WriterTx(1, "a"), WriterTx(2, "b")});
  SimTime cost = processor.OnBlockCut(&block, nullptr);
  EXPECT_GT(cost, 0);
}

// Property: after admission control, no admitted sequence can produce
// an MVCC conflict — every admitted read matches the tracker's view.
TEST(FabricSharpProcessorTest, AdmittedReadsAreAlwaysCurrent) {
  FabricSharpProcessor processor(TestPolicy());
  TxValidationCode code;
  uint64_t block_number = 1;
  Rng rng(17);
  std::vector<Transaction> pending;
  for (int i = 0; i < 500; ++i) {
    TxId id = static_cast<TxId>(i + 1);
    std::string key = "k" + std::to_string(rng.UniformU64(10));
    // Random reader or read-modify-writer with a random (often stale)
    // version guess.
    Version guess{rng.UniformU64(3), 0};
    ReadWriteSet rwset;
    rwset.reads.push_back(ReadItem{key, guess, true});
    if (rng.Bernoulli(0.5)) {
      rwset.writes.push_back(WriteItem{key, "v", false});
    }
    Transaction tx = Endorsed(id, std::move(rwset));
    if (processor.Admit(tx, &code)) pending.push_back(tx);
    if (pending.size() >= 10) {
      Block block = CutBlock(block_number++, pending);
      processor.OnBlockCut(&block, nullptr);
      pending.clear();
    }
  }
  // The tracker itself never admitted a read inconsistent with its
  // view; reaching here without contradictions is the property. Spot
  // check: a deliberately stale read is rejected.
  Transaction stale = ReaderTx(9999, "k0", {999, 0});
  EXPECT_FALSE(processor.Admit(stale, &code));
}

}  // namespace
}  // namespace fabricsim
