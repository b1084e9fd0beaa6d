// fsbench: the fabricsim benchmark driver.
//
//   fsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans <path>]
//
// Runs one workload repeatedly for --seconds of host time through
// fabricsim's public API only, checks every simulated output, and
// prints the metrics as "name value unit" lines followed by one JSON
// object on the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (host wall time, set-up
// time, host ns per on-ledger transaction, peak RSS). --trace 1 runs
// the same workload with outside-in spans and timing decorators and
// reports the per-layer metrics; --spans writes the recorded spans as
// JSONL when the run ends. See fsbench/README.md for the workloads,
// the metrics and what each layer metric should move.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fsbench/spans.h"
#include "src/common/parallel.h"
#include "src/core/experiment.h"
#include "src/core/failure_report.h"
#include "src/core/invariants.h"
#include "src/core/runner.h"
#include "src/fabric/fabric_network.h"
#include "src/ledger/block.h"
#include "src/peer/committer.h"
#include "src/peer/validator.h"
#include "src/statedb/state_backend.h"
#include "src/workload/paper_workloads.h"
#include "src/workload/population/population.h"

namespace fsbench {
namespace {

using namespace fabricsim;

/// The seed whose simulated outputs are pinned below. Other seeds are
/// checked for run-to-run identity, chain integrity and the outside
/// replay, but have no pinned values.
constexpr uint64_t kDefaultSeed = 1;

// ---------------------------------------------------------------------
// Simulated outputs and their pins
// ---------------------------------------------------------------------

/// The simulated answer of one run (or one sweep), compared exactly.
struct Outputs {
  uint64_t ledger_txs = 0;
  uint64_t valid_txs = 0;
  uint64_t endorsement = 0;
  uint64_t mvcc_intra = 0;
  uint64_t mvcc_inter = 0;
  uint64_t phantom = 0;
  double p50_latency_s = 0;
  double p99_latency_s = 0;
  double committed_tps = 0;
  /// Every channel's canonical chain folded with MixChainHash over
  /// BlockContentHash (retained ledgers only; 0 otherwise).
  uint64_t chain_fp = 0;
  /// FNV-1a of the simulator's JSONL trace export (0 without export).
  uint64_t export_hash = 0;
  /// Sweeps only: every job's outputs, folded in job order.
  uint64_t jobs_digest = 0;

  bool operator==(const Outputs&) const = default;
};

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
uint64_t FnvValue(uint64_t h, T value) {
  return Fnv(h, &value, sizeof(value));
}

/// Folds the report-derived fields (not chain_fp, which an untraced
/// sweep cannot observe) into `h`.
uint64_t FoldReport(uint64_t h, const Outputs& o) {
  for (uint64_t v : {o.ledger_txs, o.valid_txs, o.endorsement, o.mvcc_intra,
                     o.mvcc_inter, o.phantom, o.export_hash}) {
    h = FnvValue(h, v);
  }
  for (double v : {o.p50_latency_s, o.p99_latency_s, o.committed_tps}) {
    h = FnvValue(h, v);
  }
  return h;
}

Outputs FromReport(const FailureReport& r) {
  Outputs o;
  o.ledger_txs = r.ledger_txs;
  o.valid_txs = r.valid_txs;
  o.endorsement = r.endorsement_failures;
  o.mvcc_intra = r.mvcc_intra;
  o.mvcc_inter = r.mvcc_inter;
  o.phantom = r.phantom;
  o.p50_latency_s = r.p50_latency_s;
  o.p99_latency_s = r.p99_latency_s;
  o.committed_tps = r.committed_throughput_tps;
  return o;
}

/// Sweep-level outputs: counts summed over jobs, latency and
/// throughput averaged in job order, every job's fields digested.
Outputs FoldJobs(const std::vector<Outputs>& jobs) {
  Outputs sweep;
  sweep.jobs_digest = kChainHashSeed;
  sweep.chain_fp = kChainHashSeed;
  for (const Outputs& j : jobs) {
    sweep.ledger_txs += j.ledger_txs;
    sweep.valid_txs += j.valid_txs;
    sweep.endorsement += j.endorsement;
    sweep.mvcc_intra += j.mvcc_intra;
    sweep.mvcc_inter += j.mvcc_inter;
    sweep.phantom += j.phantom;
    sweep.p50_latency_s += j.p50_latency_s;
    sweep.p99_latency_s += j.p99_latency_s;
    sweep.committed_tps += j.committed_tps;
    sweep.jobs_digest = FoldReport(sweep.jobs_digest, j);
    sweep.chain_fp = MixChainHash(sweep.chain_fp, j.chain_fp);
  }
  if (!jobs.empty()) {
    double n = static_cast<double>(jobs.size());
    sweep.p50_latency_s /= n;
    sweep.p99_latency_s /= n;
    sweep.committed_tps /= n;
  }
  return sweep;
}

Outputs WithoutChain(Outputs o) {
  o.chain_fp = 0;
  return o;
}

Outputs WithoutExport(Outputs o) {
  o.export_hash = 0;
  return o;
}

std::string Describe(const Outputs& o) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
      ", %" PRIu64 ", %.17g, %.17g, %.17g, 0x%016" PRIx64 "ull, 0x%016" PRIx64
      "ull, 0x%016" PRIx64 "ull}",
      o.ledger_txs, o.valid_txs, o.endorsement, o.mvcc_intra, o.mvcc_inter,
      o.phantom, o.p50_latency_s, o.p99_latency_s, o.committed_tps,
      o.chain_fp, o.export_hash, o.jobs_digest);
  return buf;
}

/// Checks that hold at every seed.
std::string SanityError(const Outputs& o) {
  if (o.ledger_txs == 0) return "empty ledger";
  if (o.valid_txs + o.endorsement + o.mvcc_intra + o.mvcc_inter + o.phantom >
      o.ledger_txs) {
    return "failure classes exceed the ledger";
  }
  if (!(o.p50_latency_s > 0) || o.p99_latency_s < o.p50_latency_s) {
    return "latency quantiles out of order";
  }
  if (!(o.committed_tps > 0)) return "no committed throughput";
  return "";
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload {
  const char* name;
  /// Network workloads: the one config a run simulates.
  std::function<ExperimentConfig(uint64_t seed)> config;
  /// Sweep workloads: the configs handed to RunExperiments.
  std::function<std::vector<ExperimentConfig>(uint64_t seed)> sweep;
  /// Run the config once more with the simulator's tracer off in the
  /// traced run (obs.trace_overhead_pct).
  bool tracer_off_twin = false;
  /// Simulated outputs at kDefaultSeed.
  Outputs pinned;
};

/// Paper Table 3 defaults: Fabric 1.4, ehr, CouchDB, C1 2x2 peers,
/// block size 100, 100 tps, P0, Zipf 1, for 600 simulated seconds.
ExperimentConfig PaperDefault(uint64_t seed) {
  return ExperimentConfig::Builder()
      .Duration(600 * kSecond)
      .Repetitions(1)
      .Seed(seed)
      .Build();
}

/// The scale-ceiling cluster: 2 orgs x 24 peers, 8 channels, 100k
/// static genChain keys on LevelDB, block size 500, one aggregated
/// 100k-user class at 1000 tps, streaming ledger and observability.
ExperimentConfig WideReplicas(uint64_t seed) {
  constexpr int kChannels = 8;
  ExperimentConfig config =
      ExperimentConfig::Builder()
          .Cluster(ClusterConfig{2, 24, 3, 5})
          .Database(DatabaseType::kLevelDb)
          .Chaincode("genchain")
          .BlockSize(500)
          .Channels(kChannels)
          .Duration(10 * kSecond)
          .Repetitions(1)
          .Seed(seed)
          .Population(PopulationConfig::SingleClass(100000, 1000))
          .StreamingObservability()
          .StreamingLedger()
          .Build();
  config.workload.genchain_initial_keys = 100000 / kChannels;
  config.workload.genchain_mutations = false;
  config.fabric.timing.peer_commit_workers = kChannels;
  return config;
}

/// TPC-C, one warehouse, LevelDB, 50 tps (below the pipeline's
/// saturation point), with the simulator's full tracer on.
ExperimentConfig TpccTraced(uint64_t seed) {
  return ExperimentConfig::Builder()
      .Database(DatabaseType::kLevelDb)
      .Chaincode("tpcc")
      .TpccWarehouses(1)
      .RateTps(50)
      .Duration(300 * kSecond)
      .Repetitions(1)
      .Seed(seed)
      .Tracing()
      .Build();
}

/// 4 block sizes x 3 seeds on C2 (8 orgs x 4 peers) with replicated
/// Raft ordering, one leader crash + restart and one peer crash +
/// catch-up.
std::vector<ExperimentConfig> FaultSweep(uint64_t seed) {
  std::vector<ExperimentConfig> configs;
  for (uint32_t block_size : {25u, 50u, 100u, 200u}) {
    OrderingConfig ordering;
    ordering.replicated = true;
    FaultPlan faults;
    faults.CrashLeader(8 * kSecond, /*restart_at=*/12 * kSecond)
        .Crash(/*peer=*/5, 6 * kSecond, /*restart_at=*/16 * kSecond);
    configs.push_back(ExperimentConfig::Builder(ExperimentConfig::DefaultsC2())
                          .BlockSize(block_size)
                          .Duration(60 * kSecond)
                          .Repetitions(3)
                          .Seed(seed)
                          .ReplicatedOrdering(ordering)
                          .Faults(faults)
                          .Build());
  }
  return configs;
}

std::vector<Workload> Workloads() {
  std::vector<Workload> w(4);
  w[0].name = "paper_default";
  w[0].config = PaperDefault;
  w[1].name = "wide_replicas";
  w[1].config = WideReplicas;
  w[2].name = "tpcc_traced";
  w[2].config = TpccTraced;
  w[2].tracer_off_twin = true;
  w[3].name = "fault_sweep";
  w[3].sweep = FaultSweep;
  // Simulated outputs at kDefaultSeed, as printed by the "# outputs"
  // lines. A change that legitimately moves simulated numbers
  // re-records them together with the repository's golden pins.
  w[0].pinned = {60411, 26623, 678, 24063, 9047, 0, 0.72436396805735404,
                 1.324790546942463, 100.5, 0x567306e3cc3e0bd5ull, 0, 0};
  w[1].pinned = {10117, 7644, 13, 1489, 130, 841, 1.1822040505333009,
                 2.1541593117150621, 808.39999999999998, 0,
                 0x8fd50fd1c66dd8f8ull, 0};
  w[2].pinned = {15011, 1668, 70, 12036, 1106, 131, 1.1138218280667216,
                 2.1672963833482433, 49.859999999999999,
                 0x9a923ac329a50418ull, 0xce206341630787d9ull, 0};
  // chain_fp is checked by the traced run only (RunExperiments keeps
  // the ledgers to itself).
  w[3].pinned = {69443, 31184, 2895, 20364, 15000, 0, 0.71816428037238556,
                 7.2639812950422167, 95.423611111111128,
                 0xa04bc31c077b2686ull, 0, 0x6dea9fa1c2d53f2full};
  return w;
}

// ---------------------------------------------------------------------
// One simulated run through the public API
// ---------------------------------------------------------------------

struct RunOptions {
  SpanRecorder* recorder = nullptr;  ///< non-null: traced run
  bool setup_only = false;           ///< stop once the network is ready
};

/// Outside replay of every channel's canonical blocks through a fresh
/// reference store (plus the bootstrap of that store).
struct Replay {
  uint64_t bootstrap_keys = 0;  ///< summed over channels, one replica
  int64_t bootstrap_ns = 0;
  uint64_t blocks = 0;
  uint64_t txs = 0;
  uint64_t writes = 0;
  uint64_t mismatches = 0;
  int64_t validate_ns = 0;
  int64_t commit_ns = 0;
  int64_t hash_ns = 0;
};

struct RunResult {
  std::string error;  ///< empty when every check passed
  Outputs out;
  // Host seconds per phase.
  double setup_s = 0;  ///< config -> network ready for load
  double init_s = 0;   ///< FabricNetwork::Init alone
  double load_drain_s = 0;
  double audit_s = 0;
  double report_s = 0;
  double export_s = 0;
  double teardown_s = 0;
  double wall_s = 0;  ///< setup + load/drain + audit/report/export + teardown
  // Counts.
  uint64_t events = 0;
  uint64_t net_messages = 0;
  uint64_t net_bytes = 0;
  uint64_t blocks = 0;
  uint64_t peers = 0;
  uint64_t channels = 0;
  uint64_t blocks_replayed = 0;
  uint64_t leader_changes = 0;
  uint64_t rebroadcasts = 0;
  uint64_t export_bytes = 0;
  Replay replay;
};

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Times `fn` into `*ns` and, when traced, into an aggregate span.
template <typename Fn>
auto Timed(SpanRecorder* recorder, CallKind kind, int64_t* ns, Fn&& fn) {
  int64_t start = NowNs();
  auto result = fn();
  int64_t end = NowNs();
  *ns += end - start;
  if (recorder != nullptr) recorder->AddCall(kind, start, end);
  return result;
}

bool SameVerdict(const TxValidationResult& a, const TxValidationResult& b) {
  return a.code == b.code && a.mvcc_class == b.mvcc_class &&
         a.conflicting_tx == b.conflicting_tx &&
         a.conflicting_key == b.conflicting_key &&
         a.read_found == b.read_found && a.read_version == b.read_version &&
         a.observed_found == b.observed_found &&
         a.observed_version == b.observed_version;
}

/// Bootstraps a fresh reference store per channel and, for retained
/// ledgers, replays the canonical blocks through Validator and checks
/// every verdict against the recorded one.
Status ReplayLedgers(const FabricNetwork& network, const FabricConfig& fabric,
                     SpanRecorder* recorder, Replay* replay) {
  Validator validator(network.policy());
  for (int c = 0; c < network.num_channels(); ++c) {
    std::unique_ptr<StateDatabase> db = MakeStateDb(fabric.state_backend);
    std::vector<WriteItem> bootstrap = network.chaincode_for(c)->BootstrapState();
    replay->bootstrap_keys += bootstrap.size();
    {
      SpanScope span(recorder, "statedb.apply_bootstrap");
      int64_t start = NowNs();
      FABRICSIM_RETURN_NOT_OK(ApplyBootstrap(*db, bootstrap));
      replay->bootstrap_ns += NowNs() - start;
    }
    if (fabric.streaming_ledger) continue;
    for (const Block& block : network.ledger(c).blocks()) {
      ValidationOutcome outcome =
          Timed(recorder, CallKind::kValidateBlock, &replay->validate_ns,
                [&] { return validator.ValidateBlock(*db, block); });
      ++replay->blocks;
      replay->txs += block.txs.size();
      if (outcome.results.size() != block.results.size()) {
        replay->mismatches += block.txs.size();
      } else {
        for (size_t i = 0; i < block.results.size(); ++i) {
          if (!SameVerdict(outcome.results[i], block.results[i])) {
            ++replay->mismatches;
          }
        }
      }
      replay->writes += outcome.state_updates.size();
      FABRICSIM_RETURN_NOT_OK(
          Timed(recorder, CallKind::kCommitUpdates, &replay->commit_ns, [&] {
            return CommitStateUpdates(*db, outcome.state_updates);
          }));
    }
  }
  return Status::OK();
}

/// Folds every channel's canonical chain (retained ledgers only).
uint64_t ChainFingerprint(const FabricNetwork& network, SpanRecorder* recorder,
                          Replay* replay) {
  uint64_t fp = kChainHashSeed;
  for (int c = 0; c < network.num_channels(); ++c) {
    for (const Block& block : network.ledger(c).blocks()) {
      uint64_t content = Timed(recorder, CallKind::kBlockHash,
                               &replay->hash_ns, [&] {
                                 return BlockContentHash(block, block.results);
                               });
      fp = MixChainHash(fp, content);
    }
  }
  return fp;
}

/// One simulated run, the same sequence of public calls RunOnce makes,
/// with every phase timed from outside.
RunResult RunNetwork(const ExperimentConfig& config, uint64_t seed,
                     const RunOptions& options) {
  RunResult r;
  SpanRecorder* rec = options.recorder;
  SpanScope op_span(rec, "fsbench.run");
  int64_t t0 = NowNs();

  Result<std::shared_ptr<Chaincode>> chaincode = [&] {
    SpanScope span(rec, "core.make_chaincode_for");
    return MakeChaincodeFor(config.workload);
  }();
  if (!chaincode.ok()) {
    r.error = chaincode.status().ToString();
    return r;
  }
  bool rich = config.fabric.db_type == DatabaseType::kCouchDb;
  Result<std::unique_ptr<WorkloadGenerator>> workload = [&] {
    SpanScope span(rec, "workload.make_workload");
    return MakeWorkload(config.workload, rich);
  }();
  if (!workload.ok()) {
    r.error = workload.status().ToString();
    return r;
  }
  std::shared_ptr<Chaincode> cc = chaincode.value();
  std::shared_ptr<WorkloadGenerator> wl(std::move(workload).value());
  if (rec != nullptr) {
    cc = std::make_shared<TimedChaincode>(std::move(cc), rec);
    wl = std::make_shared<TimedWorkload>(std::move(wl), rec);
  }

  std::unique_ptr<Environment> env;
  std::unique_ptr<FabricNetwork> network;
  {
    SpanScope span(rec, "fabric.construct");
    env = std::make_unique<Environment>(seed, config.fabric.execution);
    network = std::make_unique<FabricNetwork>(config.fabric, env.get(), cc, wl);
  }
  cc.reset();
  wl.reset();
  int64_t t_init = NowNs();
  Status st;
  {
    SpanScope span(rec, "fabric.init");
    st = network->Init();
  }
  int64_t t_ready = NowNs();
  r.init_s = Seconds(t_ready - t_init);
  r.setup_s = Seconds(t_ready - t0);
  if (!st.ok()) {
    r.error = "Init: " + st.ToString();
    return r;
  }
  network->set_channel_affinity(config.workload.channel_affinity);

  std::string trace_jsonl;
  FailureReport report;
  int64_t t_done = t_ready;
  if (!options.setup_only) {
    {
      SpanScope span(rec, "fabric.start_load");
      if (config.population.empty()) {
        network->StartLoad(config.arrival_rate_tps, config.duration);
      } else {
        // No workload here sets a per-class mix, so every class shares
        // the run's generator.
        st = network->StartLoad(config.population, config.duration);
      }
    }
    if (!st.ok()) {
      r.error = "StartLoad: " + st.ToString();
      return r;
    }
    {
      SpanScope span(rec, "sim.run_all");
      env->RunAll();
    }
    int64_t t_drained = NowNs();
    r.load_drain_s = Seconds(t_drained - t_ready);

    if (!config.fabric.streaming_ledger) {
      SpanScope span(rec, "core.check_chain_integrity");
      ChainIntegrityReport integrity = CheckChainIntegrity(*network);
      if (!integrity.ok()) {
        r.error = "chain integrity violated: " + integrity.Summary();
      }
    }
    int64_t t_audited = NowNs();
    r.audit_s = Seconds(t_audited - t_drained);
    {
      SpanScope span(rec, "core.build_failure_report");
      if (network->ledger_stats() != nullptr) {
        report = BuildFailureReport(*network->ledger_stats(), network->stats(),
                                    config.duration, network->tracer(),
                                    network->admission_stats());
      } else {
        std::vector<const BlockStore*> ledgers;
        for (int c = 0; c < network->num_channels(); ++c) {
          ledgers.push_back(&network->ledger(c));
        }
        report = BuildFailureReport(ledgers, network->stats(), config.duration,
                                    network->tracer(),
                                    network->admission_stats());
      }
    }
    int64_t t_reported = NowNs();
    r.report_s = Seconds(t_reported - t_audited);
    if (network->tracer() != nullptr) {
      SpanScope span(rec, "obs.export_jsonl");
      trace_jsonl = network->tracer()->ExportJsonl(config.Describe());
    }
    t_done = NowNs();
    r.export_s = Seconds(t_done - t_reported);

    // The benchmark's own checks; not part of what a user waits for.
    {
      SpanScope span(rec, "fsbench.verify");
      r.out = FromReport(report);
      r.export_bytes = trace_jsonl.size();
      if (!trace_jsonl.empty()) {
        r.out.export_hash =
            Fnv(kChainHashSeed, trace_jsonl.data(), trace_jsonl.size());
      }
      if (!config.fabric.streaming_ledger) {
        r.out.chain_fp = ChainFingerprint(*network, rec, &r.replay);
      }
      Status replayed = ReplayLedgers(*network, config.fabric, rec, &r.replay);
      if (!replayed.ok() && r.error.empty()) {
        r.error = "replay: " + replayed.ToString();
      }
      if (r.replay.mismatches > 0 && r.error.empty()) {
        r.error = std::to_string(r.replay.mismatches) +
                  " replayed verdicts differ from the ledger";
      }
      uint64_t on_ledger = 0;
      for (int c = 0; c < network->num_channels(); ++c) {
        r.blocks += network->ledger(c).height();
        on_ledger += network->ledger(c).TotalTransactions();
      }
      if (network->ledger_stats() != nullptr) {
        r.blocks = network->ledger_stats()->blocks_committed();
      } else if (on_ledger != r.out.ledger_txs && r.error.empty()) {
        r.error = "report and ledger disagree on the transaction count";
      }
      std::string sanity = SanityError(r.out);
      if (!sanity.empty() && r.error.empty()) r.error = sanity;
    }
    r.events = env->events_executed();
    r.net_messages = network->net().messages_sent();
    r.net_bytes = network->net().bytes_sent();
    r.peers = network->peers().size();
    r.channels = static_cast<uint64_t>(network->num_channels());
    for (const auto& peer : network->peers()) {
      r.blocks_replayed += peer->blocks_replayed();
    }
    r.leader_changes = report.orderer_leader_changes;
    r.rebroadcasts = report.orderer_rebroadcasts;
  }

  int64_t t_teardown = NowNs();
  {
    SpanScope span(rec, "fabric.teardown");
    network.reset();
    env.reset();
    std::string().swap(trace_jsonl);
  }
  r.teardown_s = Seconds(NowNs() - t_teardown);
  r.wall_s = Seconds(t_done - t0) + r.teardown_s;
  return r;
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Hands freed heap back to the OS between runs, so every run starts
/// from a similar heap regardless of how many ran before it.
void TrimHeap() { malloc_trim(0); }

int HostCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(CPU_COUNT(&set), 1);
  }
  return std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Operation bookkeeping: one operation is one simulated run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Checks one run's outputs: against the first run under the same
/// key in this process, against `same_as` (any seed) and, at
/// kDefaultSeed, against `pinned`. Returns false when the run failed.
class OutputCheck {
 public:
  OutputCheck(uint64_t seed, Tally* tally) : seed_(seed), tally_(tally) {}

  bool Check(const std::string& key, const Outputs& got,
             const std::string& run_error, const Outputs* same_as,
             const Outputs* pinned) {
    ++tally_->attempted;
    if (!run_error.empty()) {
      tally_->Fail(key + ": " + run_error);
      return false;
    }
    auto [first, inserted] = first_.emplace(key, got);
    if (inserted) {
      std::printf("# outputs %s %s\n", key.c_str(), Describe(got).c_str());
    }
    const char* differs_from = nullptr;
    const Outputs* want = nullptr;
    if (!(first->second == got)) {
      differs_from = "the first run";
      want = &first->second;
    } else if (same_as != nullptr && !(*same_as == got)) {
      differs_from = "the reference run";
      want = same_as;
    } else if (seed_ == kDefaultSeed && pinned != nullptr &&
               !(*pinned == got)) {
      differs_from = "the pinned values";
      want = pinned;
    }
    if (want == nullptr) return true;
    tally_->Fail(key + ": outputs " + Describe(got) + " differ from " +
                 differs_from + " " + Describe(*want));
    return false;
  }

 private:
  uint64_t seed_;
  Tally* tally_;
  std::map<std::string, Outputs> first_;
};

/// Ops whose setup is cheap relative to their wall time get extra
/// setup-only samples, so setup_s is a median over many set-ups.
int ExtraSetups(double wall_s, double setup_s) {
  if (setup_s <= 0) return 0;
  return static_cast<int>(std::clamp(0.05 * wall_s / setup_s, 0.0, 20.0));
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

/// The jobs of a sweep, in RunExperiments' (config, repetition) order.
struct Job {
  const ExperimentConfig* config;
  uint64_t seed;
};

std::vector<Job> SweepJobs(const std::vector<ExperimentConfig>& configs) {
  std::vector<Job> jobs;
  for (const ExperimentConfig& config : configs) {
    for (int rep = 0; rep < config.repetitions; ++rep) {
      jobs.push_back({&config, config.base_seed + static_cast<uint64_t>(rep)});
    }
  }
  return jobs;
}

/// One RunExperiments call over the sweep; per-job outputs in job order.
struct SweepRun {
  std::string error;
  std::vector<Outputs> jobs;
  double wall_s = 0;
};

SweepRun RunSweep(const std::vector<ExperimentConfig>& configs,
                  SpanRecorder* rec) {
  SweepRun sweep;
  int64_t start = NowNs();
  Result<std::vector<ExperimentResult>> results = [&] {
    SpanScope span(rec, "core.run_experiments");
    return RunExperiments(configs);
  }();
  sweep.wall_s = Seconds(NowNs() - start);
  if (!results.ok()) {
    sweep.error = "RunExperiments: " + results.status().ToString();
    return sweep;
  }
  for (const ExperimentResult& result : results.value()) {
    for (const FailureReport& report : result.repetitions) {
      sweep.jobs.push_back(FromReport(report));
    }
  }
  return sweep;
}

/// Checks a sweep's outputs as a whole and counts one operation per job.
void CheckSweep(const Workload& w, const SweepRun& sweep, size_t num_jobs,
                OutputCheck* check, Tally* tally) {
  Outputs pinned = WithoutChain(w.pinned);
  std::string error = sweep.error;
  if (error.empty() && sweep.jobs.size() != num_jobs) error = "missing jobs";
  for (const Outputs& job : sweep.jobs) {
    if (error.empty()) error = SanityError(job);
  }
  bool ok = check->Check(w.name, WithoutChain(FoldJobs(sweep.jobs)),
                         error, nullptr, &pinned);
  tally->attempted += num_jobs - 1;
  if (!ok) tally->failed += num_jobs - 1;
}

/// End-to-end metrics: repeated untraced runs of one workload.
std::vector<Metric> MeasureEndToEnd(const Workload& w, const Args& args,
                                    Tally* tally) {
  OutputCheck check(args.seed, tally);
  std::vector<double> wall, setup, ns_per_tx;
  int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  auto add_setups = [&](int count, const ExperimentConfig& config,
                        uint64_t seed) {
    for (int i = 0; i < count; ++i) {
      RunResult r = RunNetwork(config, seed, {nullptr, true});
      if (r.error.empty()) setup.push_back(r.setup_s);
    }
  };
  if (w.config) {
    ExperimentConfig config = w.config(args.seed);
    do {
      RunResult r = RunNetwork(config, args.seed, {});
      TrimHeap();
      if (!check.Check(w.name, r.out, r.error, nullptr, &w.pinned)) continue;
      std::printf("# run %zu wall_s=%.6f setup_s=%.6f load_drain_s=%.6f "
                  "teardown_s=%.6f\n",
                  wall.size(), r.wall_s, r.setup_s, r.load_drain_s,
                  r.teardown_s);
      wall.push_back(r.wall_s);
      setup.push_back(r.setup_s);
      ns_per_tx.push_back(r.load_drain_s * 1e9 /
                          static_cast<double>(r.out.ledger_txs));
      add_setups(ExtraSetups(r.wall_s, r.setup_s), config, args.seed);
    } while (NowNs() < deadline);
  } else {
    // Set-up runs inside RunExperiments' jobs, out of reach; setup_s is
    // the set-up of one job's network, timed outside the sweep.
    std::vector<ExperimentConfig> configs = w.sweep(args.seed);
    std::vector<Job> jobs = SweepJobs(configs);
    size_t next_setup = 0;
    do {
      SweepRun sweep = RunSweep(configs, nullptr);
      TrimHeap();
      uint64_t failed_before = tally->failed;
      CheckSweep(w, sweep, jobs.size(), &check, tally);
      if (tally->failed != failed_before) continue;
      std::printf("# sweep %zu wall_s=%.6f\n", wall.size(), sweep.wall_s);
      wall.push_back(sweep.wall_s);
      ns_per_tx.push_back(sweep.wall_s * 1e9 /
                          static_cast<double>(FoldJobs(sweep.jobs).ledger_txs));
      int count = std::max(
          ExtraSetups(sweep.wall_s, setup.empty() ? 0 : Median(setup)), 4);
      for (int i = 0; i < count; ++i) {
        const Job& job = jobs[next_setup++ % jobs.size()];
        add_setups(1, *job.config, job.seed);
      }
    } while (NowNs() < deadline);
  }
  std::printf("# medians over %zu timed runs and %zu set-ups\n", wall.size(),
              setup.size());
  return {
      {"wall_s", Median(wall), "s"},
      {"setup_s", Median(setup), "s"},
      {"ns_per_tx", Median(ns_per_tx), "ns"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

const char* const kLayers[] = {"core",   "workload", "fabric", "sim",
                               "chaincode", "obs",   "peer",   "statedb",
                               "ledger", "fsbench"};

/// Per-layer metrics of one traced iteration. `traced` are the
/// decorated, spanned runs (one per network workload; one per job on a
/// sweep), covering recorder runs `runs`.
std::map<std::string, double> LayerMetrics(
    const std::vector<RunResult>& traced, const SpanRecorder& rec,
    SpanRecorder::RunRange runs) {
  double txs = 0, load_ns = 0, init_s = 0, teardown_s = 0, audit_s = 0,
         report_s = 0, export_s = 0, events = 0, messages = 0, bytes = 0,
         blocks = 0, blocks_replayed = 0, leader_changes = 0,
         rebroadcasts = 0, export_bytes = 0, replicas = 0, keys_total = 0,
         hash_est_ns = 0;
  Replay replay;
  for (const RunResult& r : traced) {
    double peers = static_cast<double>(r.peers);
    txs += static_cast<double>(r.out.ledger_txs);
    load_ns += r.load_drain_s * 1e9;
    init_s += r.init_s;
    teardown_s += r.teardown_s;
    audit_s += r.audit_s;
    report_s += r.report_s;
    export_s += r.export_s;
    events += static_cast<double>(r.events);
    messages += static_cast<double>(r.net_messages);
    bytes += static_cast<double>(r.net_bytes);
    blocks += static_cast<double>(r.blocks);
    blocks_replayed += static_cast<double>(r.blocks_replayed);
    leader_changes += static_cast<double>(r.leader_changes);
    rebroadcasts += static_cast<double>(r.rebroadcasts);
    export_bytes += static_cast<double>(r.export_bytes);
    replicas += peers * static_cast<double>(r.channels);
    keys_total += peers * static_cast<double>(r.replay.bootstrap_keys);
    // Every peer hashes every block it commits.
    hash_est_ns += peers * static_cast<double>(r.replay.hash_ns);
    replay.bootstrap_keys += r.replay.bootstrap_keys;
    replay.bootstrap_ns += r.replay.bootstrap_ns;
    replay.blocks += r.replay.blocks;
    replay.txs += r.replay.txs;
    replay.writes += r.replay.writes;
    replay.mismatches += r.replay.mismatches;
    replay.validate_ns += r.replay.validate_ns;
    replay.commit_ns += r.replay.commit_ns;
    replay.hash_ns += r.replay.hash_ns;
  }
  auto d = [](auto v) { return static_cast<double>(v); };
  SpanRecorder::Total run_all = rec.Sum("sim.run_all", "", runs);
  SpanRecorder::Total invoke = rec.Sum("chaincode.invoke", "", runs);
  SpanRecorder::Total invoke_loop =
      rec.Sum("chaincode.invoke", "sim.run_all", runs);
  SpanRecorder::Total next = rec.Sum("workload.next", "", runs);
  SpanRecorder::Total next_loop = rec.Sum("workload.next", "sim.run_all", runs);
  SpanRecorder::Total bootstrap =
      rec.Sum("chaincode.bootstrap_state", "fabric.init", runs);

  std::map<std::string, double> m;
  m["sim.events"] = events;
  m["sim.events_per_tx"] = Ratio(events, txs);
  m["sim.events_per_s"] = Ratio(events, Seconds(run_all.busy_ns));
  m["sim.loop_self_s"] =
      Seconds(run_all.busy_ns - invoke_loop.busy_ns - next_loop.busy_ns);
  m["sim.net_messages_per_tx"] = Ratio(messages, txs);
  m["sim.net_bytes_per_tx"] = Ratio(bytes, txs);
  m["chaincode.invokes_per_tx"] = Ratio(d(invoke_loop.calls), txs);
  m["chaincode.invoke_ns"] = Ratio(d(invoke.busy_ns), d(invoke.calls));
  m["chaincode.invoke_share"] = Ratio(d(invoke_loop.busy_ns), load_ns);
  m["chaincode.bootstrap_s"] = Seconds(bootstrap.busy_ns);
  m["workload.next_ns"] = Ratio(d(next.busy_ns), d(next.calls));
  m["workload.next_share"] = Ratio(d(next.busy_ns), load_ns);
  m["fabric.init_s"] = init_s;
  m["fabric.teardown_s"] = teardown_s;
  m["statedb.bootstrap_ns_per_key"] =
      Ratio(d(replay.bootstrap_ns), d(replay.bootstrap_keys));
  m["statedb.bootstrap_keys_total"] = keys_total;
  m["statedb.replicas"] = replicas;
  m["statedb.apply_ns_per_write"] =
      Ratio(d(replay.commit_ns), d(replay.writes));
  m["statedb.writes_per_tx"] = Ratio(d(replay.writes), d(replay.txs));
  m["peer.validate_ns_per_tx"] = Ratio(d(replay.validate_ns), d(replay.txs));
  m["peer.replay_mismatches"] = d(replay.mismatches);
  m["peer.blocks_replayed"] = blocks_replayed;
  m["ledger.hash_ns_per_block"] = Ratio(d(replay.hash_ns), d(replay.blocks));
  m["ledger.hash_est_share"] = Ratio(hash_est_ns, load_ns);
  m["ordering.blocks"] = blocks;
  m["ordering.txs_per_block"] = Ratio(txs, blocks);
  m["ordering.leader_changes"] = leader_changes;
  m["client.rebroadcasts"] = rebroadcasts;
  m["core.audit_s"] = audit_s;
  m["core.report_s"] = report_s;
  m["obs.export_s"] = export_s;
  m["obs.export_bytes"] = export_bytes;
  std::map<std::string, int64_t> self = rec.LayerSelfNs(runs);
  for (const char* layer : kLayers) {
    m[std::string("self.") + layer + "_s"] = Seconds(self[layer]);
  }
  return m;
}

/// Per-layer metrics: repeated traced iterations, medians per metric.
std::vector<Metric> MeasurePerLayer(const Workload& w, const Args& args,
                                    Tally* tally, SpanRecorder* rec) {
  OutputCheck check(args.seed, tally);
  std::map<std::string, std::vector<double>> samples;
  uint64_t next_run = 1;
  uint64_t first_chain_fp = 0;
  int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  do {
    std::vector<RunResult> traced;
    std::map<std::string, double> extra;
    SpanRecorder::RunRange runs;
    extra["obs.trace_overhead_pct"] = 0;
    if (w.config) {
      ExperimentConfig config = w.config(args.seed);
      // A: untraced; B: decorated and spanned; C: the simulator's
      // tracer off. B must match A exactly, C everywhere but the export.
      RunResult a = RunNetwork(config, args.seed, {});
      TrimHeap();
      check.Check(w.name, a.out, a.error, nullptr, &w.pinned);
      runs = {next_run, next_run};
      rec->set_run(next_run++);
      RunResult b = RunNetwork(config, args.seed, {rec, false});
      TrimHeap();
      check.Check(w.name, b.out, b.error, &a.out, &w.pinned);
      extra["fsbench.traced_overhead_pct"] =
          100.0 * (Ratio(b.wall_s, a.wall_s) - 1.0);
      if (w.tracer_off_twin) {
        ExperimentConfig off = config;
        off.fabric.tracing = false;
        RunResult c = RunNetwork(off, args.seed, {});
        TrimHeap();
        Outputs same_as = WithoutExport(a.out);
        Outputs pinned = WithoutExport(w.pinned);
        check.Check(std::string(w.name) + "/tracer_off", c.out, c.error,
                    &same_as, &pinned);
        extra["obs.trace_overhead_pct"] =
            100.0 * (Ratio(a.wall_s, c.wall_s) - 1.0);
      }
      // A single run is a one-job sweep.
      extra["core.runner.serial_sum_s"] = a.wall_s;
      extra["core.runner.max_job_s"] = a.wall_s;
      extra["core.runner.speedup"] = 1.0;
      extra["core.runner.efficiency"] = 1.0;
      traced.push_back(std::move(b));
    } else {
      std::vector<ExperimentConfig> configs = w.sweep(args.seed);
      std::vector<Job> jobs = SweepJobs(configs);
      // A: the sweep at ParallelJobs() threads.
      rec->set_run(next_run++);
      SweepRun sweep = RunSweep(configs, rec);
      TrimHeap();
      CheckSweep(w, sweep, jobs.size(), &check, tally);
      if (sweep.jobs.size() != jobs.size()) break;
      // Each job alone through RunOnce: the serial reference, and the
      // 1-job vs N-job identity check.
      double serial_sum = 0, max_job = 0;
      for (size_t j = 0; j < jobs.size(); ++j) {
        rec->set_run(next_run++);
        int64_t start = NowNs();
        Result<FailureReport> once = [&] {
          SpanScope span(rec, "core.run_once");
          return RunOnce(*jobs[j].config, jobs[j].seed);
        }();
        double job_s = Seconds(NowNs() - start);
        TrimHeap();
        serial_sum += job_s;
        max_job = std::max(max_job, job_s);
        check.Check(std::string(w.name) + "/job" + std::to_string(j),
                    once.ok() ? FromReport(once.value()) : Outputs{},
                    once.ok() ? "" : once.status().ToString(), &sweep.jobs[j],
                    nullptr);
      }
      // B: each job again, decorated and spanned.
      runs = {next_run, next_run + jobs.size() - 1};
      std::vector<Outputs> traced_jobs;
      double traced_sum = 0;
      for (size_t j = 0; j < jobs.size(); ++j) {
        rec->set_run(next_run++);
        RunResult b = RunNetwork(*jobs[j].config, jobs[j].seed, {rec, false});
        TrimHeap();
        check.Check(std::string(w.name) + "/job" + std::to_string(j),
                    WithoutChain(b.out), b.error, &sweep.jobs[j], nullptr);
        std::printf("# job %2zu bs=%-4u seed=%-4" PRIu64
                    " setup_s=%.6f load_drain_s=%.6f wall_s=%.6f\n",
                    j, jobs[j].config->fabric.block_size, jobs[j].seed,
                    b.setup_s, b.load_drain_s, b.wall_s);
        traced_sum += b.wall_s;
        traced_jobs.push_back(b.out);
        traced.push_back(std::move(b));
      }
      uint64_t chain_fp = FoldJobs(traced_jobs).chain_fp;
      if (first_chain_fp == 0) {
        first_chain_fp = chain_fp;
        std::printf("# outputs %s/chain_fp 0x%016" PRIx64 "\n", w.name,
                    chain_fp);
      }
      if (chain_fp != first_chain_fp) {
        tally->Fail("fault_sweep: chain fingerprint differs between runs");
      } else if (args.seed == kDefaultSeed && chain_fp != w.pinned.chain_fp) {
        tally->Fail("fault_sweep: chain fingerprint differs from the pin");
      }
      double jobs_n = static_cast<double>(ParallelJobs());
      extra["core.runner.serial_sum_s"] = serial_sum;
      extra["core.runner.max_job_s"] = max_job;
      extra["core.runner.speedup"] = Ratio(serial_sum, sweep.wall_s);
      extra["core.runner.efficiency"] =
          Ratio(serial_sum, sweep.wall_s) / jobs_n;
      extra["fsbench.traced_overhead_pct"] =
          100.0 * (Ratio(traced_sum, serial_sum) - 1.0);
    }
    std::map<std::string, double> m = LayerMetrics(traced, *rec, runs);
    m.insert(extra.begin(), extra.end());
    for (const auto& [name, value] : m) samples[name].push_back(value);
  } while (NowNs() < deadline);

  struct Unit {
    const char* name;
    const char* unit;
  };
  static const Unit kUnits[] = {
      {"sim.events", "count"},
      {"sim.events_per_tx", "count/tx"},
      {"sim.events_per_s", "1/s"},
      {"sim.loop_self_s", "s"},
      {"sim.net_messages_per_tx", "count/tx"},
      {"sim.net_bytes_per_tx", "B/tx"},
      {"chaincode.invokes_per_tx", "count/tx"},
      {"chaincode.invoke_ns", "ns"},
      {"chaincode.invoke_share", "ratio"},
      {"chaincode.bootstrap_s", "s"},
      {"workload.next_ns", "ns"},
      {"workload.next_share", "ratio"},
      {"fabric.init_s", "s"},
      {"fabric.teardown_s", "s"},
      {"statedb.bootstrap_ns_per_key", "ns"},
      {"statedb.bootstrap_keys_total", "count"},
      {"statedb.replicas", "count"},
      {"statedb.apply_ns_per_write", "ns"},
      {"statedb.writes_per_tx", "count/tx"},
      {"peer.validate_ns_per_tx", "ns"},
      {"peer.replay_mismatches", "count"},
      {"peer.blocks_replayed", "count"},
      {"ledger.hash_ns_per_block", "ns"},
      {"ledger.hash_est_share", "ratio"},
      {"ordering.blocks", "count"},
      {"ordering.txs_per_block", "count"},
      {"ordering.leader_changes", "count"},
      {"client.rebroadcasts", "count"},
      {"core.audit_s", "s"},
      {"core.report_s", "s"},
      {"core.runner.serial_sum_s", "s"},
      {"core.runner.max_job_s", "s"},
      {"core.runner.speedup", "x"},
      {"core.runner.efficiency", "ratio"},
      {"obs.export_s", "s"},
      {"obs.export_bytes", "B"},
      {"obs.trace_overhead_pct", "%"},
      {"fsbench.traced_overhead_pct", "%"},
      {"self.core_s", "s"},
      {"self.workload_s", "s"},
      {"self.fabric_s", "s"},
      {"self.sim_s", "s"},
      {"self.chaincode_s", "s"},
      {"self.obs_s", "s"},
      {"self.peer_s", "s"},
      {"self.statedb_s", "s"},
      {"self.ledger_s", "s"},
      {"self.fsbench_s", "s"},
  };
  std::vector<Metric> metrics;
  for (const Unit& u : kUnits) {
    metrics.push_back({u.name, Median(samples[u.name]), u.unit});
  }
  return metrics;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fsbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n");
    return 2;
  }
  std::vector<Workload> workloads = Workloads();
  const Workload* w = nullptr;
  for (const Workload& candidate : workloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  SetParallelJobs(std::min(4, HostCpus()));
  std::printf("# fsbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d jobs=%d\n",
              w->name, args.seed, args.seconds, args.trace ? 1 : 0,
              ParallelJobs());

  Tally tally;
  SpanRecorder recorder;
  std::vector<Metric> metrics =
      args.trace ? MeasurePerLayer(*w, args, &tally, &recorder)
                 : MeasureEndToEnd(*w, args, &tally);

  for (const std::string& error : tally.errors) {
    std::printf("# FAILED %s\n", error.c_str());
  }
  if (args.trace && !args.spans_path.empty()) {
    std::FILE* f = std::fopen(args.spans_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
      return 1;
    }
    std::string jsonl = recorder.ToJsonl();
    std::fwrite(jsonl.data(), 1, jsonl.size(), f);
    std::fclose(f);
  }
  for (const Metric& m : metrics) {
    std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) { return fsbench::Main(argc, argv); }
