#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/ledger/block_store.h"
#include "src/ledger/ledger_parser.h"
#include "src/ledger/rwset.h"
#include "src/ledger/transaction.h"
#include "src/ledger/version.h"

namespace fabricsim {
namespace {

// ---------------------------------------------------------- Version

TEST(VersionTest, Ordering) {
  Version a{1, 0}, b{1, 1}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (Version{1, 0}));
  EXPECT_NE(a, b);
  EXPECT_EQ(a.ToString(), "v1.0");
}

// ------------------------------------------------------------ RwSet

TEST(RwSetTest, DigestStableAndOrderSensitive) {
  ReadWriteSet a;
  a.reads.push_back(ReadItem{"k1", {1, 0}, true});
  a.reads.push_back(ReadItem{"k2", {1, 1}, true});
  ReadWriteSet b = a;
  EXPECT_EQ(a.Digest(), b.Digest());
  std::swap(b.reads[0], b.reads[1]);
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(RwSetTest, DigestSensitiveToVersions) {
  ReadWriteSet a, b;
  a.reads.push_back(ReadItem{"k", {1, 0}, true});
  b.reads.push_back(ReadItem{"k", {2, 0}, true});
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(RwSetTest, DigestSensitiveToFoundFlag) {
  ReadWriteSet a, b;
  a.reads.push_back(ReadItem{"k", {0, 0}, true});
  b.reads.push_back(ReadItem{"k", {0, 0}, false});
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(RwSetTest, DigestCoversWritesAndRanges) {
  ReadWriteSet a;
  a.writes.push_back(WriteItem{"k", "v", false});
  ReadWriteSet b = a;
  b.writes[0].is_delete = true;
  EXPECT_NE(a.Digest(), b.Digest());

  ReadWriteSet c = a;
  RangeQueryInfo rq;
  rq.start_key = "a";
  rq.end_key = "z";
  rq.reads.push_back(ReadItem{"m", {3, 1}, true});
  c.range_queries.push_back(rq);
  EXPECT_NE(a.Digest(), c.Digest());
}

TEST(RwSetTest, ReadOnlyAndCounts) {
  ReadWriteSet s;
  s.reads.push_back(ReadItem{"k", {0, 0}, true});
  EXPECT_TRUE(s.IsReadOnly());
  RangeQueryInfo rq;
  rq.reads.push_back(ReadItem{"a", {0, 0}, true});
  rq.reads.push_back(ReadItem{"b", {0, 0}, true});
  s.range_queries.push_back(rq);
  EXPECT_EQ(s.TotalReadCount(), 3u);
  s.writes.push_back(WriteItem{"k", "v", false});
  EXPECT_FALSE(s.IsReadOnly());
  EXPECT_GT(s.ByteSize(), 0u);
}

// ------------------------------------------------------ SealedRwSet

ReadWriteSet SampleSet() {
  ReadWriteSet s;
  s.reads.push_back(ReadItem{"present-key-longer-than-sso", {4, 2}, true});
  s.reads.push_back(ReadItem{"absent", {0, 0}, false});
  s.writes.push_back(WriteItem{"k1", std::string(40, 'v'), false});
  s.writes.push_back(WriteItem{"gone", "", true});
  RangeQueryInfo scan;
  scan.start_key = "a";
  scan.end_key = "z";
  scan.reads.push_back(ReadItem{"m", {3, 1}, true});
  s.range_queries.push_back(scan);
  RangeQueryInfo rich;
  rich.phantom_check = false;
  rich.rich_selector = R"({"selector":{"owner":"alice"}})";
  rich.reads.push_back(ReadItem{"asset7", {2, 0}, true});
  s.range_queries.push_back(rich);
  return s;
}

TEST(SealedRwSetTest, CachesDigestAndByteSizeOfContent) {
  std::vector<ReadWriteSet> sets(5);
  sets[1].reads = SampleSet().reads;
  sets[2].writes = SampleSet().writes;
  sets[3].range_queries = SampleSet().range_queries;
  sets[4] = SampleSet();
  for (const ReadWriteSet& set : sets) {
    SealedRwSet sealed(set);
    EXPECT_EQ(sealed.digest(), set.Digest());
    EXPECT_EQ(sealed.byte_size(), set.ByteSize());
    EXPECT_EQ(sealed.digest(), sealed->Digest());
    EXPECT_EQ(sealed.byte_size(), sealed->ByteSize());
  }
}

TEST(SealedRwSetTest, CopiesShareOneObject) {
  SealedRwSet a(SampleSet());
  SealedRwSet b = a;
  SealedRwSet c;
  c = b;
  EXPECT_EQ(&*a, &*b);
  EXPECT_EQ(&*a, &*c);
  EXPECT_EQ(a.operator->(), &*c);
  Transaction tx;
  tx.rwset = a;
  Transaction copy = tx;
  EXPECT_EQ(&*copy.rwset, &*a);
}

TEST(SealedRwSetTest, DefaultIsTheSharedEmptySet) {
  SealedRwSet a, b;
  SealedRwSet empty{ReadWriteSet{}};
  EXPECT_EQ(&*a, &*b);
  EXPECT_TRUE(a->reads.empty());
  EXPECT_TRUE(a->writes.empty());
  EXPECT_TRUE(a->range_queries.empty());
  EXPECT_TRUE(a->IsReadOnly());
  EXPECT_EQ(a.digest(), empty.digest());
  EXPECT_EQ(a.byte_size(), empty.byte_size());
  EXPECT_EQ(a.digest(), ReadWriteSet{}.Digest());
  EXPECT_EQ(Transaction{}.rwset.digest(), empty.digest());
}

TEST(SealedRwSetTest, WorkerThreadsShareSetsWithoutRaces) {
  // Runs of one sweep execute on several worker threads; each copies
  // and drops handles to the shared empty set, and a sealed set may be
  // read from all of them.
  const SealedRwSet shared(SampleSet());
  std::vector<uint64_t> seen =
      ParallelMap<uint64_t>(64, 4, [&shared](size_t i) {
        std::vector<Transaction> txs(16);
        for (Transaction& tx : txs) {
          if (i % 2 == 0) tx.rwset = shared;
        }
        std::vector<Transaction> copies = txs;
        return copies.back().rwset.digest() ^ Transaction{}.rwset.digest();
      });
  const uint64_t empty = SealedRwSet().digest();
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i % 2 == 0 ? shared.digest() ^ empty : 0u);
  }
}

TEST(SealedRwSetTest, SealingDropsSpareCapacity) {
  ReadWriteSet set = SampleSet();
  set.reads.reserve(64);
  set.writes.reserve(64);
  set.range_queries.reserve(64);
  set.reads[0].key.reserve(256);
  set.writes[0].key.reserve(256);
  set.writes[0].value.reserve(256);
  set.range_queries[0].reads.reserve(64);
  set.range_queries[1].rich_selector.reserve(256);
  SealedRwSet sealed(std::move(set));
  // A short string keeps its inline (small-string) buffer.
  const size_t inline_capacity = std::string().capacity();
  auto tight = [&](const std::string& s) {
    return s.capacity() <= std::max(s.size(), inline_capacity);
  };
  EXPECT_EQ(sealed->reads.capacity(), sealed->reads.size());
  EXPECT_EQ(sealed->writes.capacity(), sealed->writes.size());
  EXPECT_EQ(sealed->range_queries.capacity(), sealed->range_queries.size());
  for (const ReadItem& r : sealed->reads) EXPECT_TRUE(tight(r.key)) << r.key;
  for (const WriteItem& w : sealed->writes) {
    EXPECT_TRUE(tight(w.key)) << w.key;
    EXPECT_TRUE(tight(w.value)) << w.key;
  }
  for (const RangeQueryInfo& rq : sealed->range_queries) {
    EXPECT_EQ(rq.reads.capacity(), rq.reads.size());
    EXPECT_TRUE(tight(rq.start_key));
    EXPECT_TRUE(tight(rq.end_key));
    EXPECT_TRUE(tight(rq.rich_selector));
    for (const ReadItem& r : rq.reads) EXPECT_TRUE(tight(r.key)) << r.key;
  }
  // Trimming moved no content.
  EXPECT_EQ(sealed.digest(), SampleSet().Digest());
}

// ------------------------------------------------------- BlockStore

Block MakeBlock(uint64_t number, std::vector<TxValidationCode> codes) {
  Block block;
  block.number = number;
  for (size_t i = 0; i < codes.size(); ++i) {
    Transaction tx;
    tx.id = number * 100 + i;
    tx.client_submit_time = 10;
    tx.committed_time = 110;
    block.txs.push_back(tx);
    TxValidationResult result;
    result.code = codes[i];
    if (codes[i] == TxValidationCode::kMvccReadConflict) {
      result.mvcc_class = i % 2 == 0 ? MvccClass::kIntraBlock
                                     : MvccClass::kInterBlock;
    }
    block.results.push_back(result);
  }
  return block;
}

TEST(BlockStoreTest, AppendsContiguously) {
  BlockStore store;
  EXPECT_TRUE(store.Append(MakeBlock(1, {TxValidationCode::kValid})).ok());
  EXPECT_TRUE(store.Append(MakeBlock(2, {TxValidationCode::kValid})).ok());
  EXPECT_EQ(store.height(), 2u);
  EXPECT_EQ(store.TotalTransactions(), 2u);
}

TEST(BlockStoreTest, RejectsGaps) {
  BlockStore store;
  Status st = store.Append(MakeBlock(2, {TxValidationCode::kValid}));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(BlockStoreTest, RejectsMismatchedResults) {
  BlockStore store;
  Block block = MakeBlock(1, {TxValidationCode::kValid});
  block.results.clear();
  EXPECT_EQ(store.Append(std::move(block)).code(),
            StatusCode::kInvalidArgument);
}

TEST(BlockStoreTest, GetBlockBounds) {
  BlockStore store;
  ASSERT_TRUE(store.Append(MakeBlock(1, {TxValidationCode::kValid})).ok());
  EXPECT_NE(store.GetBlock(1), nullptr);
  EXPECT_EQ(store.GetBlock(0), nullptr);
  EXPECT_EQ(store.GetBlock(2), nullptr);
}

// ----------------------------------------------------- LedgerParser

TEST(LedgerParserTest, SummarizesFailureTypes) {
  BlockStore store;
  ASSERT_TRUE(store
                  .Append(MakeBlock(
                      1, {TxValidationCode::kValid,
                          TxValidationCode::kEndorsementPolicyFailure,
                          TxValidationCode::kMvccReadConflict,   // intra (i=2)
                          TxValidationCode::kMvccReadConflict,   // inter (i=3)
                          TxValidationCode::kPhantomReadConflict,
                          TxValidationCode::kAbortedByReordering}))
                  .ok());
  LedgerSummary summary = LedgerParser::Summarize(store);
  EXPECT_EQ(summary.total, 6u);
  EXPECT_EQ(summary.valid, 1u);
  EXPECT_EQ(summary.endorsement_policy_failures, 1u);
  EXPECT_EQ(summary.mvcc_intra_block, 1u);
  EXPECT_EQ(summary.mvcc_inter_block, 1u);
  EXPECT_EQ(summary.mvcc_total(), 2u);
  EXPECT_EQ(summary.phantom_read_conflicts, 1u);
  EXPECT_EQ(summary.reordering_aborts, 1u);
  EXPECT_EQ(summary.failed(), 5u);
}

TEST(LedgerParserTest, RecordsCarryLatency) {
  BlockStore store;
  ASSERT_TRUE(store.Append(MakeBlock(1, {TxValidationCode::kValid})).ok());
  std::vector<TxRecord> records = LedgerParser::Parse(store);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].TotalLatency(), 100);
  EXPECT_EQ(records[0].block_number, 1u);
  EXPECT_EQ(records[0].tx_index, 0u);
}

TEST(TxValidationCodeTest, Names) {
  EXPECT_STREQ(TxValidationCodeToString(TxValidationCode::kValid), "VALID");
  EXPECT_STREQ(
      TxValidationCodeToString(TxValidationCode::kMvccReadConflict),
      "MVCC_READ_CONFLICT");
  EXPECT_STREQ(
      TxValidationCodeToString(TxValidationCode::kAbortedNotSerializable),
      "ABORTED_NOT_SERIALIZABLE");
}

}  // namespace
}  // namespace fabricsim
