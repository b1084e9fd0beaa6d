// Micro-benchmarks (google-benchmark) for the hot substrates: state
// database operations, Zipfian sampling, rw-set digests, conflict
// graph construction, policy evaluation and the event queue.
#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/ext/fabricpp/conflict_graph.h"
#include "src/policy/policy_presets.h"
#include "src/sim/environment.h"
#include "src/statedb/memory_state_db.h"

namespace fabricsim {
namespace {

void BM_StateDbGet(benchmark::State& state) {
  MemoryStateDb db;
  for (int i = 0; i < 100000; ++i) {
    db.ApplyWrite(WriteItem{"GK" + PadKey(i, 8), "value", false}, {1, 0});
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.Get("GK" + PadKey(rng.UniformU64(100000), 8)));
  }
}
BENCHMARK(BM_StateDbGet);

void BM_StateDbRangeScan(benchmark::State& state) {
  MemoryStateDb db;
  for (int i = 0; i < 100000; ++i) {
    db.ApplyWrite(WriteItem{"GK" + PadKey(i, 8), "value", false}, {1, 0});
  }
  int64_t len = state.range(0);
  Rng rng(1);
  for (auto _ : state) {
    uint64_t start = rng.UniformU64(100000 - len);
    benchmark::DoNotOptimize(
        db.GetRange("GK" + PadKey(start, 8), "GK" + PadKey(start + len, 8)));
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_StateDbRangeScan)->Arg(8)->Arg(100)->Arg(1000);

void BM_ZipfianSample(benchmark::State& state) {
  ZipfianGenerator zipf(100000, 0.99);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfianSample);

void BM_RwSetDigest(benchmark::State& state) {
  ReadWriteSet rwset;
  for (int i = 0; i < state.range(0); ++i) {
    rwset.reads.push_back(ReadItem{"key" + std::to_string(i),
                                   {static_cast<uint64_t>(i), 0},
                                   true});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rwset.Digest());
  }
}
BENCHMARK(BM_RwSetDigest)->Arg(2)->Arg(16)->Arg(1000);

void BM_ConflictGraphBuild(benchmark::State& state) {
  Rng rng(1);
  std::vector<Transaction> txs;
  for (int t = 0; t < state.range(0); ++t) {
    Transaction tx;
    tx.id = static_cast<TxId>(t + 1);
    std::string key = "k" + std::to_string(rng.UniformU64(50));
    ReadWriteSet rwset;
    rwset.reads.push_back(ReadItem{key, {0, 0}, true});
    rwset.writes.push_back(WriteItem{key, "v", false});
    tx.rwset = SealedRwSet(std::move(rwset));
    txs.push_back(std::move(tx));
  }
  for (auto _ : state) {
    uint64_t ops = 0;
    benchmark::DoNotOptimize(ConflictGraph::Build(txs, &ops));
  }
}
BENCHMARK(BM_ConflictGraphBuild)->Arg(10)->Arg(100)->Arg(500);

void BM_PolicyEvaluate(benchmark::State& state) {
  EndorsementPolicy policy =
      MakePolicy(PolicyPreset::kP2OneFromEachHalf,
                 static_cast<int>(state.range(0)));
  std::set<OrgId> signers;
  for (int org = 0; org < state.range(0); org += 2) signers.insert(org);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Evaluate(signers));
  }
}
BENCHMARK(BM_PolicyEvaluate)->Arg(2)->Arg(8)->Arg(32);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    Environment env(1);
    for (int i = 0; i < 1000; ++i) {
      env.Schedule(i % 97, [] {});
    }
    env.RunAll();
    benchmark::DoNotOptimize(env.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

}  // namespace
}  // namespace fabricsim
