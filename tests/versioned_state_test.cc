// Differential tests for the per-channel VersionedStateStore: every
// peer's StateView must read exactly what a private per-peer replica
// would hold at the same height. The reference replicas here replay
// each committed block the way peers did before the store existed
// (CommitStateUpdates on an own StateDatabase), and are compared with
// the views through every read path — point, version, range, version
// range, full scan and size — including deleted keys and keys inserted
// above a view's height. Shared chaincode simulations are checked at
// both levels: the store's key and lifetime rules, and a network that
// endorses with fewer chaincode invocations than endorsements while
// reproducing its golden results.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/core/experiment.h"
#include "src/core/failure_report.h"
#include "src/core/invariants.h"
#include "src/fabric/fabric_network.h"
#include "src/peer/committer.h"
#include "src/statedb/versioned_state_store.h"
#include "src/workload/paper_workloads.h"

namespace fabricsim {
namespace {

using Updates = std::vector<std::pair<WriteItem, Version>>;

std::string Describe(const std::optional<VersionedValue>& vv) {
  if (!vv.has_value()) return "absent";
  return vv->value + "@" + vv->version.ToString();
}

std::vector<StateEntry> EntriesOf(const StateView& view) {
  std::vector<StateEntry> out;
  view.ForEachEntry([&](const std::string& key, const VersionedValue& vv) {
    out.push_back(StateEntry{key, vv});
  });
  return out;
}

void ExpectSameEntries(const std::vector<StateEntry>& got,
                       const std::vector<StateEntry>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << what;
    EXPECT_EQ(got[i].vv.value, want[i].vv.value) << what << " " << got[i].key;
    EXPECT_EQ(got[i].vv.version, want[i].vv.version)
        << what << " " << got[i].key;
  }
}

std::vector<std::pair<std::string, Version>> Versions(
    const StateDatabase& db, const std::string& start,
    const std::string& end) {
  std::vector<std::pair<std::string, Version>> out;
  db.ForEachVersionInRange(start, end,
                           [&](const std::string& key, Version version) {
                             out.emplace_back(key, version);
                           });
  return out;
}

// Compares `view` with its reference replica through every read path.
// `keys` is the probe universe: it should hold keys live at the head,
// keys live in the reference, and keys present in neither.
void ExpectSameState(const StateView& view, const StateDatabase& reference,
                     const std::set<std::string>& keys, Rng& rng,
                     const std::string& what) {
  ExpectSameEntries(view.Scan(), reference.Scan(), what + " scan");
  ExpectSameEntries(EntriesOf(view), reference.Scan(), what + " for-each");
  EXPECT_EQ(view.Size(), reference.Size()) << what;
  for (const std::string& key : keys) {
    std::optional<VersionedValue> got = view.Get(key);
    std::optional<VersionedValue> want = reference.Get(key);
    EXPECT_EQ(Describe(got), Describe(want)) << what << " get " << key;
    EXPECT_EQ(view.GetVersion(key), reference.GetVersion(key))
        << what << " version " << key;
  }
  // Random half-open ranges, plus the open-ended and whole-space ones.
  std::vector<std::string> probe(keys.begin(), keys.end());
  std::vector<std::pair<std::string, std::string>> ranges = {{"", ""}};
  for (int i = 0; i < 4 && !probe.empty(); ++i) {
    std::string a = probe[rng.UniformU64(probe.size())];
    std::string b = probe[rng.UniformU64(probe.size())];
    if (b < a) std::swap(a, b);
    ranges.emplace_back(a, b);
    ranges.emplace_back(a, "");
  }
  for (const auto& [start, end] : ranges) {
    std::string range = what + " [" + start + "," + end + ")";
    ExpectSameEntries(view.GetRange(start, end),
                      reference.GetRange(start, end), range);
    EXPECT_EQ(Versions(view, start, end), Versions(reference, start, end))
        << range;
  }
}

// ---------------------------------------------------------------------
// Store-level tests
// ---------------------------------------------------------------------

WriteItem Put(const std::string& key, const std::string& value) {
  return WriteItem{key, value, false};
}
WriteItem Del(const std::string& key) { return WriteItem{key, "", true}; }

ValidationOutcome OutcomeOf(uint64_t number,
                            const std::vector<WriteItem>& writes) {
  ValidationOutcome outcome;
  for (size_t i = 0; i < writes.size(); ++i) {
    outcome.state_updates.emplace_back(
        writes[i], Version{number, static_cast<uint32_t>(i)});
  }
  return outcome;
}

TEST(VersionedState, ReadsBelowHeadSeeTheStateAtTheirHeight) {
  VersionedStateStore store;
  ASSERT_TRUE(store.Bootstrap({Put("a", "a0"), Put("c", "c0")}).ok());
  StateView leader(&store, store.AddCursor());
  StateView lagger(&store, store.AddCursor());

  // Block 1 updates a, deletes c and inserts b; block 2 re-inserts c
  // and writes b twice.
  ValidationOutcome b1 = OutcomeOf(1, {Put("a", "a1"), Del("c"),
                                       Put("b", "b1")});
  ValidationOutcome b2 = OutcomeOf(2, {Put("c", "c2"), Put("b", "bx"),
                                       Put("b", "b2")});
  ASSERT_TRUE(store.Commit(leader.cursor(), 1, b1).ok());
  ASSERT_TRUE(store.Commit(leader.cursor(), 2, b2).ok());
  EXPECT_EQ(store.head_height(), 2u);
  EXPECT_EQ(lagger.height(), 0u);

  // The lagging view still reads the bootstrap state.
  EXPECT_EQ(Describe(lagger.Get("a")), "a0@v0.0");
  EXPECT_EQ(Describe(lagger.Get("b")), "absent");
  EXPECT_EQ(Describe(lagger.Get("c")), "c0@v0.0");
  EXPECT_EQ(lagger.Size(), 2u);
  ASSERT_EQ(lagger.GetRange("a", "").size(), 2u);
  EXPECT_EQ(lagger.GetRange("a", "")[1].key, "c");
  EXPECT_EQ(Describe(leader.Get("b")), "b2@v2.2");
  EXPECT_EQ(leader.Size(), 3u);

  // One block later it sees block 1 only.
  ASSERT_TRUE(store.Commit(lagger.cursor(), 1, b1).ok());
  EXPECT_EQ(Describe(lagger.Get("b")), "b1@v1.2");
  EXPECT_EQ(Describe(lagger.Get("c")), "absent");
  EXPECT_EQ(lagger.Size(), 2u);
  EXPECT_EQ(store.before_images(), 2u);  // block 2: c, b
  EXPECT_EQ(store.oldest_logged_block(), 2u);

  // Every cursor at the head: the log is empty.
  ASSERT_TRUE(store.Commit(lagger.cursor(), 2, b2).ok());
  EXPECT_EQ(store.before_images(), 0u);
  EXPECT_EQ(store.oldest_logged_block(), 0u);
}

TEST(VersionedState, CursorsMoveOneBlockAtATime) {
  VersionedStateStore store;
  VersionedStateStore::CursorId cursor = store.AddCursor();
  ValidationOutcome empty;
  EXPECT_EQ(store.Commit(cursor, 2, empty).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store.Commit(cursor, 1, empty).ok());
  EXPECT_EQ(store.Bootstrap({Put("k", "v")}).code(),
            StatusCode::kFailedPrecondition);
  VersionedStateStore::CursorId follower = store.AddCursor();
  EXPECT_EQ(store.height(follower), 1u);  // joins at the oldest readable
  EXPECT_EQ(store.Advance(follower, 2).code(),
            StatusCode::kFailedPrecondition);  // beyond the head
}

TEST(VersionedState, ViewIsReadOnly) {
  VersionedStateStore store;
  StateView view(&store, store.AddCursor());
  Status st = view.ApplyWrite(Put("k", "v"), Version{1, 0});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(view.Get("k").has_value());
}

TEST(VersionedState, OutcomesLiveUntilEveryCursorPassesThem) {
  VersionedStateStore store;
  VersionedStateStore::CursorId a = store.AddCursor();
  VersionedStateStore::CursorId b = store.AddCursor();
  int computations = 0;
  auto validate = [&] {
    ++computations;
    return OutcomeOf(1, {Put("k", "v")});
  };
  auto first = store.GetOrValidate(1, validate);
  auto second = store.GetOrValidate(1, validate);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(computations, 1);
  ASSERT_TRUE(store.Commit(a, 1, *first).ok());
  EXPECT_EQ(store.live_outcomes(), 1u);
  ASSERT_TRUE(store.Commit(b, 1, *second).ok());
  EXPECT_EQ(store.live_outcomes(), 0u);
}

TEST(VersionedState, ContentHashIsMemoizedPerBlockObject) {
  VersionedStateStore store;
  store.AddCursor();
  auto block = std::make_shared<Block>();
  block->number = 1;
  Transaction tx;
  tx.id = 9;
  ReadWriteSet rwset;
  rwset.writes.push_back(Put("k", "v"));
  tx.rwset = SealedRwSet(std::move(rwset));
  block->txs.push_back(tx);
  auto outcome = store.GetOrValidate(1, [] {
    ValidationOutcome o;
    o.results.assign(1, TxValidationResult{});
    return o;
  });
  const uint64_t want = BlockContentHash(*block, outcome->results);
  EXPECT_EQ(store.ContentHash(block, outcome), want);
  EXPECT_EQ(store.ContentHash(block, outcome), want);

  // An identical copy hashes the same; a divergent copy gets its own
  // hash, never the memoized one.
  auto copy = std::make_shared<Block>(*block);
  EXPECT_EQ(store.ContentHash(copy, outcome), want);
  copy->txs[0].id = 10;
  EXPECT_EQ(store.ContentHash(copy, outcome),
            BlockContentHash(*copy, outcome->results));
  EXPECT_NE(store.ContentHash(copy, outcome), want);
  EXPECT_EQ(store.ContentHash(block, outcome), want);
}

// Forwards to another chaincode and counts Invoke calls.
class CountingChaincode : public Chaincode {
 public:
  explicit CountingChaincode(std::shared_ptr<Chaincode> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::vector<WriteItem> BootstrapState() const override {
    return inner_->BootstrapState();
  }
  Status Invoke(ChaincodeStub& stub, const Invocation& inv) override {
    ++invokes_;
    return inner_->Invoke(stub, inv);
  }
  std::vector<std::string> Functions() const override {
    return inner_->Functions();
  }

  uint64_t invokes() const { return invokes_; }

 private:
  std::shared_ptr<Chaincode> inner_;
  uint64_t invokes_ = 0;
};

// A simulate callable that counts its calls and writes `tag`.
struct CountingSimulate {
  int* calls;
  std::string tag;
  EndorsementResult operator()() const {
    ++*calls;
    ReadWriteSet rwset;
    rwset.writes.push_back(Put("k", tag));
    return EndorsementResult{SealedRwSet(std::move(rwset)), Status::OK()};
  }
};

TEST(VersionedState, EqualSimulationKeysShareOneSimulation) {
  VersionedStateStore store;
  store.AddCursor();
  CountingChaincode cc_a(nullptr), cc_b(nullptr);
  const Invocation inv{"read", {"k1", "k2"}};
  int calls = 0;
  auto first = store.GetOrSimulate(0, &cc_a, false, inv,
                                   CountingSimulate{&calls, "first"});
  auto again = store.GetOrSimulate(0, &cc_a, false, Invocation(inv),
                                   CountingSimulate{&calls, "again"});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(first->rwset->writes[0].value, "first");
  EXPECT_EQ(first->rwset.digest(), first->rwset->Digest());
  EXPECT_EQ(store.live_simulations(), 1u);

  // Each key component on its own makes a separate simulation.
  const Invocation other_function{"write", {"k1", "k2"}};
  const Invocation other_arg{"read", {"k1", "k3"}};
  const Invocation fewer_args{"read", {"k1"}};
  store.GetOrSimulate(1, &cc_a, false, inv, CountingSimulate{&calls, "h"});
  store.GetOrSimulate(0, &cc_a, false, other_function,
                      CountingSimulate{&calls, "f"});
  store.GetOrSimulate(0, &cc_a, false, other_arg,
                      CountingSimulate{&calls, "a"});
  store.GetOrSimulate(0, &cc_a, false, fewer_args,
                      CountingSimulate{&calls, "n"});
  store.GetOrSimulate(0, &cc_b, false, inv, CountingSimulate{&calls, "c"});
  store.GetOrSimulate(0, &cc_a, true, inv, CountingSimulate{&calls, "r"});
  EXPECT_EQ(calls, 7);
  EXPECT_EQ(store.live_simulations(), 7u);
  EXPECT_EQ(store.GetOrSimulate(0, &cc_a, true, inv,
                                CountingSimulate{&calls, "x"})
                ->rwset->writes[0]
                .value,
            "r");
  EXPECT_EQ(calls, 7);
}

TEST(VersionedState, SimulationsLiveWhileACursorHoldsTheirHeight) {
  VersionedStateStore store;
  VersionedStateStore::CursorId a = store.AddCursor();
  VersionedStateStore::CursorId b = store.AddCursor();
  CountingChaincode cc(nullptr);
  const Invocation inv{"read", {"k"}};
  int calls = 0;
  store.GetOrSimulate(0, &cc, false, inv, CountingSimulate{&calls, "0"});
  // Height 5 is held by no cursor.
  store.GetOrSimulate(5, &cc, false, inv, CountingSimulate{&calls, "5"});
  ValidationOutcome empty;
  ASSERT_TRUE(store.Commit(a, 1, empty).ok());
  EXPECT_EQ(store.live_simulations(), 1u);  // b still sits at 0
  store.GetOrSimulate(1, &cc, false, inv, CountingSimulate{&calls, "1"});
  ASSERT_TRUE(store.Commit(b, 1, empty).ok());
  EXPECT_EQ(store.live_simulations(), 1u);  // only height 1's
  store.GetOrSimulate(1, &cc, false, inv, CountingSimulate{&calls, "1"});
  EXPECT_EQ(calls, 3);
}

TEST(VersionedState, FrozenCursorKeepsOnlyItsOwnHeightsSimulations) {
  VersionedStateStore store;
  VersionedStateStore::CursorId frozen = store.AddCursor();
  VersionedStateStore::CursorId a = store.AddCursor();
  VersionedStateStore::CursorId b = store.AddCursor();
  CountingChaincode cc(nullptr);
  int calls = 0;
  auto simulate_at = [&](uint64_t height, const std::string& key) {
    return store.GetOrSimulate(height, &cc, false, Invocation{"read", {key}},
                               CountingSimulate{&calls, key});
  };
  ValidationOutcome empty;
  ASSERT_TRUE(store.Commit(frozen, 1, empty).ok());
  auto kept = simulate_at(1, "x");
  simulate_at(1, "y");
  for (uint64_t n = 1; n <= 50; ++n) {
    ASSERT_TRUE(store.Commit(a, n, empty).ok());
    ASSERT_TRUE(store.Commit(b, n, empty).ok());
    simulate_at(n, "z");
    // Bounded by the distinct cursor heights, not by the run length.
    EXPECT_LE(store.live_simulations(), 4u);
  }
  // Height 1 keeps x, y and z; of the heights a and b passed, only
  // the one they sit at survives.
  EXPECT_EQ(store.live_simulations(), 4u);
  const int before = calls;
  EXPECT_EQ(simulate_at(1, "x").get(), kept.get());
  simulate_at(1, "y");
  simulate_at(1, "z");
  simulate_at(50, "z");
  EXPECT_EQ(calls, before);
  simulate_at(25, "z");  // collected: simulated again
  EXPECT_EQ(calls, before + 1);
}

// Random blocks of upserts and deletes (some to keys outside the
// bootstrap, some repeated within a block) committed by cursors that
// advance at random, each checked against its own replaying replica.
TEST(VersionedState, RandomCursorsMatchReplayingReplicas) {
  constexpr int kCursors = 5;
  constexpr uint64_t kBlocks = 120;
  Rng rng(17, 3);
  auto key = [](uint64_t i) {
    return "k" + std::to_string(100 + i);  // fixed width, sorted
  };
  std::vector<WriteItem> bootstrap;
  for (uint64_t i = 0; i < 40; i += 2) bootstrap.push_back(Put(key(i), "b"));

  VersionedStateStore store;
  ASSERT_TRUE(store.Bootstrap(bootstrap).ok());
  std::vector<StateView> views;
  std::vector<std::unique_ptr<StateDatabase>> replicas;
  for (int c = 0; c < kCursors; ++c) {
    views.emplace_back(&store, store.AddCursor());
    replicas.push_back(std::make_unique<MemoryStateDb>());
    ASSERT_TRUE(ApplyBootstrap(*replicas.back(), bootstrap).ok());
  }
  std::vector<ValidationOutcome> blocks(1);  // blocks[n] = block n
  std::set<std::string> keys;
  for (uint64_t i = 0; i < 50; ++i) keys.insert(key(i));

  size_t max_images = 0;
  while (store.min_height() < kBlocks) {
    size_t c = rng.UniformU64(kCursors);
    uint64_t next = views[c].height() + 1;
    if (next > kBlocks) continue;
    if (next == blocks.size()) {
      std::vector<WriteItem> writes;
      size_t n = 1 + rng.UniformU64(6);
      for (size_t w = 0; w < n; ++w) {
        std::string k = key(rng.UniformU64(48));
        writes.push_back(rng.Bernoulli(0.3)
                             ? Del(k)
                             : Put(k, "v" + std::to_string(next)));
      }
      blocks.push_back(OutcomeOf(next, writes));
    }
    ASSERT_TRUE(store.Commit(views[c].cursor(), next, blocks[next]).ok());
    ASSERT_TRUE(
        CommitStateUpdates(*replicas[c], blocks[next].state_updates).ok());
    max_images = std::max(max_images, store.before_images());
    EXPECT_TRUE(store.oldest_logged_block() == 0 ||
                store.oldest_logged_block() > store.min_height());
    size_t probe = rng.UniformU64(kCursors);
    ExpectSameState(views[probe], *replicas[probe], keys, rng,
                    "cursor " + std::to_string(probe) + " at " +
                        std::to_string(views[probe].height()));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(max_images, 0u);
  EXPECT_EQ(store.before_images(), 0u);
}

// ---------------------------------------------------------------------
// Network-level differential: FabricNetwork peers vs reference replicas
// ---------------------------------------------------------------------

// One reference replica per (peer, channel) for the committed view, and
// one for the endorsement snapshot, fed from the commit observer.
struct Reference {
  std::unique_ptr<StateDatabase> committed;
  uint64_t committed_height = 0;
  std::unique_ptr<StateDatabase> snapshot;
  uint64_t snapshot_height = 0;
  /// Committed blocks the snapshot replica has not applied yet.
  std::deque<Updates> pending;
};

struct DiffStats {
  uint64_t commits = 0;
  uint64_t lagging_reads = 0;  ///< comparisons of a view below the head
  uint64_t max_spread = 0;     ///< head height - min cursor height
};

// Runs `config` with every peer's views compared against reference
// replicas after every commit on every peer.
DiffStats RunDifferential(const ExperimentConfig& config, uint64_t seed,
                          bool expect_empty_log_at_end) {
  DiffStats stats;
  auto chaincode = MakeChaincodeFor(config.workload).value();
  auto workload = std::shared_ptr<WorkloadGenerator>(
      std::move(MakeWorkload(config.workload, /*rich=*/true).value()));
  Environment env(seed);
  FabricNetwork network(config.fabric, &env, chaincode, workload);
  const int channels = network.num_channels();
  const size_t peers = static_cast<size_t>(config.fabric.cluster.total_peers());
  std::vector<std::vector<Reference>> refs(peers);
  for (auto& per_peer : refs) {
    per_peer.resize(static_cast<size_t>(channels));
    for (int c = 0; c < channels; ++c) {
      Reference& ref = per_peer[static_cast<size_t>(c)];
      std::vector<WriteItem> bootstrap =
          network.chaincode_for(c)->BootstrapState();
      ref.committed = std::make_unique<MemoryStateDb>();
      ref.snapshot = std::make_unique<MemoryStateDb>();
      EXPECT_TRUE(ApplyBootstrap(*ref.committed, bootstrap).ok());
      EXPECT_TRUE(ApplyBootstrap(*ref.snapshot, bootstrap).ok());
    }
  }
  Rng rng(seed, 99);

  network.set_commit_observer([&](const Peer& peer, ChannelId channel,
                                  uint64_t number,
                                  const ValidationOutcome& outcome) {
    ++stats.commits;
    Reference& own = refs[static_cast<size_t>(peer.id())]
                         [static_cast<size_t>(channel)];
    EXPECT_EQ(number, own.committed_height + 1);
    EXPECT_TRUE(CommitStateUpdates(*own.committed, outcome.state_updates).ok());
    own.committed_height = number;
    if (&peer.endorse_view(channel) != &peer.state(channel)) {
      own.pending.push_back(outcome.state_updates);
    }

    const VersionedStateStore& store = network.state_store(channel);
    stats.max_spread =
        std::max(stats.max_spread, store.head_height() - store.min_height());
    EXPECT_TRUE(store.oldest_logged_block() == 0 ||
                store.oldest_logged_block() > store.min_height())
        << "before-image at or below the lowest cursor";

    // A commit may move the head, which changes how every other view
    // on the channel is read: compare them all.
    std::set<std::string> keys;
    for (const StateEntry& e : store.Scan(store.head_height())) {
      keys.insert(e.key);
    }
    for (const StateEntry& e : own.committed->Scan()) keys.insert(e.key);
    keys.insert("");
    keys.insert("~absent");
    for (const auto& other : network.peers()) {
      Reference& ref = refs[static_cast<size_t>(other->id())]
                           [static_cast<size_t>(channel)];
      const StateView& view = other->state(channel);
      std::string what = "peer " + std::to_string(other->id()) + " ch " +
                         std::to_string(channel) + " at " +
                         std::to_string(view.height());
      EXPECT_EQ(view.height(), ref.committed_height) << what;
      if (view.height() < store.head_height()) ++stats.lagging_reads;
      ExpectSameState(view, *ref.committed, keys, rng, what);

      const StateView& endorse = other->endorse_view(channel);
      if (&endorse == &view) continue;
      // Catch the snapshot replica up to the snapshot cursor.
      EXPECT_LE(endorse.height(), ref.committed_height);
      while (ref.snapshot_height < endorse.height()) {
        EXPECT_TRUE(
            CommitStateUpdates(*ref.snapshot, ref.pending.front()).ok());
        ref.pending.pop_front();
        ++ref.snapshot_height;
      }
      if (endorse.height() < view.height()) ++stats.lagging_reads;
      ExpectSameState(endorse, *ref.snapshot, keys, rng, what + " snapshot");
    }
  });

  EXPECT_TRUE(network.Init().ok());
  network.StartLoad(config.arrival_rate_tps, config.duration);
  env.RunAll();
  EXPECT_GT(network.ledger().height(), 0u);
  if (expect_empty_log_at_end) {
    for (int c = 0; c < channels; ++c) {
      const VersionedStateStore& store = network.state_store(c);
      EXPECT_EQ(store.min_height(), store.head_height()) << "channel " << c;
      EXPECT_EQ(store.before_images(), 0u) << "channel " << c;
      EXPECT_EQ(store.live_outcomes(), 0u) << "channel " << c;
    }
  }
  return stats;
}

ExperimentConfig DiffConfig() {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.workload.chaincode = "genchain";
  config.workload.genchain_initial_keys = 120;
  config.fabric.cluster.peers_per_org = 3;
  config.fabric.block_size = 10;
  config.arrival_rate_tps = 40;
  config.duration = 6 * kSecond;
  // Retries let transactions routed to a dead peer complete through
  // the org's next peer.
  config.fabric.retry.endorse_timeout = 500 * kMillisecond;
  return config;
}

TEST(VersionedState, PeerViewsMatchReplicasUnderCrashRestartMixes) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExperimentConfig config = DiffConfig();
    config.fabric.num_channels = seed == 2 ? 2 : 1;
    // A seeded mix of 1-3 peer crashes: staggered windows, one of
    // them possibly never restarting, never the ledger-recording
    // peer 0.
    Rng mix(seed, 7);
    const int peers = config.fabric.cluster.total_peers();
    int crashes = 1 + static_cast<int>(mix.UniformU64(3));
    for (int i = 0; i < crashes; ++i) {
      PeerId peer = 1 + static_cast<PeerId>(
          mix.UniformU64(static_cast<uint64_t>(peers - 1)));
      SimTime at = FromSeconds(mix.UniformRange(0.5, 3.0));
      SimTime restart = i == 2 ? kSimTimeNever
                               : at + FromSeconds(mix.UniformRange(0.3, 2));
      config.fabric.faults.Crash(peer, at, restart);
    }
    DiffStats stats = RunDifferential(config, 40 + seed,
                                      /*expect_empty_log_at_end=*/false);
    EXPECT_GT(stats.commits, 0u);
    EXPECT_GT(stats.lagging_reads, 0u);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(VersionedState, SnapshotViewsMatchReplicasUnderFabricSharpLag) {
  ExperimentConfig config = DiffConfig();
  config.fabric.variant = FabricVariant::kFabricSharp;
  config.workload.include_range_reads = false;  // unsupported (§5.4.3)
  config.fabric.fabricsharp_snapshot_interval = 700 * kMillisecond;
  config.fabric.faults.Crash(/*peer=*/2, 2 * kSecond, 3 * kSecond);
  DiffStats stats = RunDifferential(config, 11,
                                    /*expect_empty_log_at_end=*/true);
  EXPECT_GT(stats.lagging_reads, 0u);
}

TEST(VersionedState, AllAliveRunKeepsTheLogBounded) {
  ExperimentConfig config = DiffConfig();
  config.fabric.num_channels = 2;
  DiffStats stats = RunDifferential(config, 5,
                                    /*expect_empty_log_at_end=*/true);
  // Without faults, peers only drift apart by gossip and service
  // jitter: the log spans a handful of blocks, never the run.
  EXPECT_GT(stats.max_spread, 0u);
  EXPECT_LT(stats.max_spread, 5u);
}

// ---------------------------------------------------------------------
// Network-level shared simulations
// ---------------------------------------------------------------------

// The exhaustive numeric fingerprint of channel_test.cc and
// fault_test.cc, so the runs below compare with their goldens.
std::string Fingerprint(const FailureReport& r) {
  std::string out;
  out += StrFormat(
      "ledger=%llu valid=%llu endorse=%llu mvcc_intra=%llu "
      "mvcc_inter=%llu phantom=%llu submitted=%llu app=%llu\n",
      static_cast<unsigned long long>(r.ledger_txs),
      static_cast<unsigned long long>(r.valid_txs),
      static_cast<unsigned long long>(r.endorsement_failures),
      static_cast<unsigned long long>(r.mvcc_intra),
      static_cast<unsigned long long>(r.mvcc_inter),
      static_cast<unsigned long long>(r.phantom),
      static_cast<unsigned long long>(r.submitted_txs),
      static_cast<unsigned long long>(r.app_errors));
  out += StrFormat("pct=%.17g/%.17g/%.17g/%.17g/%.17g\n", r.total_failure_pct,
                   r.endorsement_pct, r.mvcc_pct, r.phantom_pct,
                   r.early_abort_pct);
  out += StrFormat("lat=%.17g/%.17g/%.17g tput=%.17g/%.17g\n", r.avg_latency_s,
                   r.p50_latency_s, r.p99_latency_s, r.committed_throughput_tps,
                   r.valid_throughput_tps);
  return out;
}

// ChannelGoldenTest's kGoldenCompat and FaultGoldenTest's
// kGoldenDelayedOrg: default C1, 20 s at 100 tps, seed 42, without and
// with Fig. 16's 100 +- 10 ms on org 1.
constexpr char kGoldenDefault[] =
    "ledger=1998 valid=889 endorse=21 mvcc_intra=808 mvcc_inter=280 "
    "phantom=0 submitted=1998 app=0\n"
    "pct=55.505505505505504/1.0510510510510511/54.454454454454456/0/0\n"
    "lat=0.79166268968969022/0.75911118027396884/2.02848615705734 "
    "tput=95/44.450000000000003\n";
constexpr char kGoldenDelayedOrg[] =
    "ledger=1998 valid=794 endorse=134 mvcc_intra=556 mvcc_inter=514 "
    "phantom=0 submitted=1998 app=0\n"
    "pct=60.26026026026026/6.706706706706707/53.553553553553556/0/0\n"
    "lat=0.98395471171171112/0.95217126197147772/2.2089206563091031 "
    "tput=95/39.700000000000003\n";
// Peer 0's final chain hash in the same two runs, recorded when every
// endorser still ran its own simulation.
constexpr uint64_t kGoldenDefaultChainHash = 0x80c4a69af2132b5eull;
constexpr uint64_t kGoldenDelayedOrgChainHash = 0xb6f5021ca081db75ull;

struct CountedRun {
  std::string fingerprint;
  uint64_t chain_hash = 0;
  uint64_t invokes = 0;
  /// Endorsements carried by the ledger's transactions: a lower bound
  /// on the endorsements peers served.
  uint64_t endorsements = 0;
};

// RunOnce's path with ehr wrapped in a CountingChaincode.
CountedRun RunCounted(const ExperimentConfig& config, uint64_t seed) {
  auto chaincode = std::make_shared<CountingChaincode>(
      MakeChaincodeFor(config.workload).value());
  const bool rich = config.fabric.db_type == DatabaseType::kCouchDb;
  auto workload = std::shared_ptr<WorkloadGenerator>(
      std::move(MakeWorkload(config.workload, rich).value()));
  Environment env(seed);
  FabricNetwork network(config.fabric, &env, chaincode, workload);
  EXPECT_TRUE(network.Init().ok());
  network.set_channel_affinity(config.workload.channel_affinity);
  network.StartLoad(config.arrival_rate_tps, config.duration);
  env.RunAll();
  EXPECT_TRUE(CheckChainIntegrity(network).ok());

  CountedRun run;
  run.fingerprint = Fingerprint(BuildFailureReport(
      std::vector<const BlockStore*>{&network.ledger()}, network.stats(),
      config.duration, network.tracer(), network.admission_stats()));
  run.chain_hash = network.peers()[0]->chain_records().back().chain_hash;
  run.invokes = chaincode->invokes();
  for (const Block& block : network.ledger().blocks()) {
    for (const Transaction& tx : block.txs) {
      run.endorsements += tx.endorsements.size();
    }
  }
  return run;
}

ExperimentConfig C1GoldenConfig() {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 20 * kSecond;
  config.arrival_rate_tps = 100;
  return config;
}

TEST(VersionedState, EndorsersAtOneHeightShareOneInvocation) {
  CountedRun plain = RunCounted(C1GoldenConfig(), 42);
  EXPECT_EQ(plain.fingerprint, kGoldenDefault);
  EXPECT_EQ(plain.chain_hash, kGoldenDefaultChainHash);
  EXPECT_LT(plain.invokes, plain.endorsements);

  // A delayed org endorses at lagging heights, so fewer endorsements
  // find a shared simulation.
  ExperimentConfig delayed = C1GoldenConfig();
  delayed.fabric.delayed_org = 1;
  delayed.fabric.injected_delay = 100 * kMillisecond;
  delayed.fabric.injected_delay_jitter = 10 * kMillisecond;
  CountedRun lagging = RunCounted(delayed, 42);
  EXPECT_EQ(lagging.fingerprint, kGoldenDelayedOrg);
  EXPECT_EQ(lagging.chain_hash, kGoldenDelayedOrgChainHash);
  EXPECT_GT(lagging.invokes, plain.invokes);
}

}  // namespace
}  // namespace fabricsim
