// Micro-benchmarks (google-benchmark) for the hot substrates: state
// database operations, Zipfian sampling, rw-set digests, conflict
// graph construction, policy evaluation, the event queue and the
// serial work queue.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/ext/fabricpp/conflict_graph.h"
#include "src/policy/policy_presets.h"
#include "src/sim/environment.h"
#include "src/sim/work_queue.h"
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

// Empty lambdas above fit even std::function's small buffer. The actors
// capture more: a `this`, a shared payload and an id or two (~40 B),
// which std::function would box on the heap.
void BM_EventQueueChurnActorCapture(benchmark::State& state) {
  struct Actor {
    uint64_t handled = 0;
  } actor;
  auto payload = std::make_shared<uint64_t>(state.range(0));
  for (auto _ : state) {
    Environment env(1);
    for (uint64_t i = 0; i < 1000; ++i) {
      uint64_t tx = i * 7;
      env.Schedule(static_cast<SimTime>(i % 97),
                   [actor = &actor, payload, i, tx] {
                     actor->handled += *payload + i + tx;
                   });
    }
    env.RunAll();
    benchmark::DoNotOptimize(actor.handled);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurnActorCapture)->Arg(1);

// One serial server: 1000 tasks submitted in waves of range(0), each
// wave drained before the next, each task's completion capturing the
// same ~40 B as above. The fsbench workloads' queues stay at most 16
// deep; the 1000-deep wave is the worst case for a task's size.
void BM_WorkQueueSubmitAndComplete(benchmark::State& state) {
  const uint64_t wave = static_cast<uint64_t>(state.range(0));
  uint64_t done = 0;
  auto payload = std::make_shared<uint64_t>(1);
  for (auto _ : state) {
    Environment env(1);
    WorkQueue queue("bench");
    for (uint64_t i = 0; i < 1000; ++i) {
      uint64_t tx = i * 7;
      queue.Submit(
          env, [i] { return static_cast<SimTime>(i % 5); },
          [done = &done, payload, i, tx] { *done += *payload + i + tx; });
      if ((i + 1) % wave == 0) env.RunAll();
    }
    env.RunAll();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WorkQueueSubmitAndComplete)->Arg(8)->Arg(1000);

}  // namespace
}  // namespace fabricsim
