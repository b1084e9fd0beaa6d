// Actor-level tests for the Peer: endorsement queueing, out-of-order
// block buffering, shared validation outcomes, and the FabricSharp
// snapshot view. Peers are bare actors over one shared, bootstrapped
// VersionedStateStore (the channel's world state).
#include <gtest/gtest.h>

#include <memory>

#include "src/chaincode/genchain.h"
#include "src/peer/peer.h"
#include "src/policy/policy_presets.h"

namespace fabricsim {
namespace {

class PeerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<Environment>(7);
    net_ = std::make_unique<Network>(NetworkConfig{}, Rng(7));
    chaincode_ = std::make_unique<GenChaincode>(
        GenChaincodeSpec::PaperDefault(/*keys=*/50));
    store_ = std::make_unique<VersionedStateStore>();
  }

  // Bootstraps the shared channel state peers read through cursors.
  Status Bootstrap() { return store_->Bootstrap(chaincode_->BootstrapState()); }

  Peer::Params BaseParams() {
    Peer::Params params;
    params.id = 0;
    params.org = 0;
    params.node = 1;
    params.env = env_.get();
    params.net = net_.get();
    params.stores = {store_.get()};
    params.chaincode = chaincode_.get();
    params.policy = MakePolicy(PolicyPreset::kP0AllOrgs, 2);
    params.db_profile = DbLatencyProfile::LevelDb();
    params.timing = TimingConfig{};
    params.timing.peer_service_jitter = 0;  // deterministic for tests
    params.rng = Rng(7);
    return params;
  }

  std::shared_ptr<Block> MakeWriterBlock(uint64_t number,
                                         const std::string& key) {
    auto block = std::make_shared<Block>();
    block->number = number;
    Transaction tx;
    tx.id = number;
    ReadWriteSet rwset;
    rwset.writes.push_back(WriteItem{key, "v" + std::to_string(number),
                                     false});
    tx.rwset = SealedRwSet(std::move(rwset));
    uint64_t digest = tx.rwset->Digest();
    tx.endorsements.push_back(Endorsement{0, 0, digest, true});
    tx.endorsements.push_back(Endorsement{1, 1, digest, true});
    block->txs.push_back(std::move(tx));
    block->results.assign(1, TxValidationResult{});
    return block;
  }

  std::unique_ptr<Environment> env_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<GenChaincode> chaincode_;
  std::unique_ptr<VersionedStateStore> store_;
};

TEST_F(PeerTest, EndorsesAgainstBootstrappedState) {
  Peer peer(BaseParams());
  ASSERT_TRUE(Bootstrap().ok());

  ProposalResponse got;
  ProposalRequest request;
  request.tx_id = 42;
  request.invocation = std::make_shared<const Invocation>(
      Invocation{"readKeys", {GenChaincode::Key(3)}});
  request.reply = [&](const ProposalResponse& r) { got = r; };
  peer.HandleProposal(std::move(request));
  env_->RunAll();

  EXPECT_EQ(got.tx_id, 42u);
  EXPECT_TRUE(got.app_ok);
  ASSERT_EQ(got.rwset->reads.size(), 1u);
  EXPECT_TRUE(got.rwset->reads[0].found);
  EXPECT_EQ(got.rwset->reads[0].version, kBootstrapVersion);
  EXPECT_EQ(got.endorsement.org_id, 0);
  EXPECT_EQ(got.endorsement.rwset_digest, got.rwset->Digest());
}

TEST_F(PeerTest, EndorsementTakesDbAndSigningTime) {
  Peer peer(BaseParams());
  ASSERT_TRUE(Bootstrap().ok());
  SimTime completion = -1;
  ProposalRequest request;
  request.invocation = std::make_shared<const Invocation>(
      Invocation{"readKeys", {GenChaincode::Key(0)}});
  request.reply = [&](const ProposalResponse&) { completion = env_->now(); };
  peer.HandleProposal(std::move(request));
  env_->RunAll();
  TimingConfig timing;
  SimTime expected = timing.proposal_overhead +
                     DbLatencyProfile::LevelDb().get +
                     timing.endorsement_sign_cost;
  EXPECT_EQ(completion, expected);
}

TEST_F(PeerTest, OutOfOrderBlocksAreBuffered) {
  Peer peer(BaseParams());
  ASSERT_TRUE(Bootstrap().ok());
  std::string key = GenChaincode::Key(1);

  // Deliver block 2 before block 1 (network reordering).
  peer.HandleBlock(MakeWriterBlock(2, key));
  env_->RunAll();
  EXPECT_EQ(peer.committed_height(), 0u);  // still waiting for block 1

  peer.HandleBlock(MakeWriterBlock(1, key));
  env_->RunAll();
  EXPECT_EQ(peer.committed_height(), 2u);
  // Block 2's write won (applied last).
  EXPECT_EQ(peer.state().Get(key)->value, "v2");
  EXPECT_EQ(peer.state().Get(key)->version, (Version{2, 0}));
}

TEST_F(PeerTest, CommitCallbackFiresInOrder) {
  Peer::Params params = BaseParams();
  std::vector<uint64_t> committed;
  params.on_commit = [&](ChannelId, uint64_t number,
                         const ValidationOutcome&) {
    committed.push_back(number);
  };
  Peer peer(std::move(params));
  ASSERT_TRUE(Bootstrap().ok());
  peer.HandleBlock(MakeWriterBlock(3, GenChaincode::Key(0)));
  peer.HandleBlock(MakeWriterBlock(1, GenChaincode::Key(0)));
  peer.HandleBlock(MakeWriterBlock(2, GenChaincode::Key(0)));
  env_->RunAll();
  EXPECT_EQ(committed, (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(PeerTest, ValidationCacheSharedAcrossPeers) {
  int computations = 0;

  Peer::Params p1 = BaseParams();
  Peer::Params p2 = BaseParams();
  p2.id = 1;
  p2.node = 2;
  Peer peer1(std::move(p1));
  Peer peer2(std::move(p2));
  ASSERT_TRUE(Bootstrap().ok());

  // Count computations via the store API directly.
  auto outcome_a = store_->GetOrValidate(7, [&] {
    ++computations;
    return ValidationOutcome{};
  });
  auto outcome_b = store_->GetOrValidate(7, [&] {
    ++computations;
    return ValidationOutcome{};
  });
  EXPECT_EQ(computations, 1);
  EXPECT_EQ(outcome_a.get(), outcome_b.get());
  // The entry lives until every cursor has committed past block 7.
  EXPECT_EQ(store_->live_outcomes(), 1u);

  auto block = MakeWriterBlock(1, GenChaincode::Key(4));
  peer1.HandleBlock(block);
  peer2.HandleBlock(block);
  env_->RunAll();
  EXPECT_EQ(peer1.committed_height(), 1u);
  EXPECT_EQ(peer2.committed_height(), 1u);
  // Block 1's outcome is dropped once both peers committed it; block
  // 7's stays until the cursors pass it.
  EXPECT_EQ(store_->live_outcomes(), 1u);
  EXPECT_EQ(peer1.state().Get(GenChaincode::Key(4))->value,
            peer2.state().Get(GenChaincode::Key(4))->value);
}

TEST_F(PeerTest, FabricSharpSnapshotViewLagsCommittedState) {
  Peer::Params params = BaseParams();
  params.variant = FabricVariant::kFabricSharp;
  params.snapshot_interval = 500 * kMillisecond;
  Peer peer(std::move(params));
  ASSERT_TRUE(Bootstrap().ok());
  std::string key = GenChaincode::Key(9);

  peer.HandleBlock(MakeWriterBlock(1, key));
  // Run only until the validation commit completes, but before the
  // snapshot refresh (which happens up to 500 ms later).
  env_->RunUntil(90 * kMillisecond);
  ASSERT_EQ(peer.committed_height(), 1u);
  EXPECT_EQ(peer.state().Get(key)->value, "v1");
  // The endorsement view still serves the bootstrap value.
  EXPECT_NE(&peer.endorse_view(), &peer.state());
  EXPECT_EQ(peer.endorse_view().Get(key)->version, kBootstrapVersion);

  env_->RunAll();  // snapshot refresh applies
  EXPECT_EQ(peer.endorse_view().Get(key)->value, "v1");
}

TEST_F(PeerTest, VirtualBlockGroupAmortizesFixedCommitCosts) {
  // With a virtual block boundary of 2, only every second block pays
  // the fixed commit costs (state-DB batch + ledger fsync).
  Peer::Params grouped = BaseParams();
  grouped.virtual_block_group = 2;
  Peer peer_grouped(std::move(grouped));
  Peer peer_plain(BaseParams());
  ASSERT_TRUE(Bootstrap().ok());
  for (uint64_t n = 1; n <= 4; ++n) {
    peer_grouped.HandleBlock(MakeWriterBlock(n, GenChaincode::Key(2)));
    peer_plain.HandleBlock(MakeWriterBlock(n, GenChaincode::Key(2)));
  }
  env_->RunAll();
  EXPECT_EQ(peer_grouped.committed_height(), 4u);
  EXPECT_EQ(peer_plain.committed_height(), 4u);
  // Both end in the same state, but the grouped peer spent less
  // validation service time (2 of 4 fixed charges skipped).
  EXPECT_EQ(peer_grouped.state().Get(GenChaincode::Key(2))->value,
            peer_plain.state().Get(GenChaincode::Key(2))->value);
  EXPECT_LT(peer_grouped.validate_queue().total_service(),
            peer_plain.validate_queue().total_service());
}

TEST_F(PeerTest, StockVariantSharesEndorseView) {
  Peer peer(BaseParams());
  EXPECT_EQ(&peer.endorse_view(), &peer.state());
}

}  // namespace
}  // namespace fabricsim
