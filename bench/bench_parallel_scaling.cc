// Parallel experiment-runner scaling: the same 4-point x 3-repetition
// block-size sweep executed serially (FABRICSIM_JOBS=1) and with
// increasing worker counts, several times over. Checks that every
// report is bitwise identical across job counts, prints the median and
// range of the wall-clock speedup, and records them in
// BENCH_parallel_scaling.json.
#include <algorithm>

#include "bench/bench_util.h"

using namespace fabricsim;
using namespace fabricsim::bench;

namespace {

bool ReportsEqual(const FailureReport& a, const FailureReport& b) {
  return a.ledger_txs == b.ledger_txs && a.valid_txs == b.valid_txs &&
         a.endorsement_failures == b.endorsement_failures &&
         a.mvcc_intra == b.mvcc_intra && a.mvcc_inter == b.mvcc_inter &&
         a.phantom == b.phantom && a.submitted_txs == b.submitted_txs &&
         a.total_failure_pct == b.total_failure_pct &&
         a.avg_latency_s == b.avg_latency_s &&
         a.committed_throughput_tps == b.committed_throughput_tps;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace

int main() {
  Header("Parallel scaling - thread-pooled sweep over independent DES "
         "instances",
         "repetitions and sweep points are embarrassingly parallel (each "
         "builds a fresh network); wall time should shrink ~linearly with "
         "cores while results stay bitwise identical");

  // Fixed size regardless of FABRICSIM_FULL: the subject here is the
  // runner, not the figures. 4 points x 3 seeds = 12 independent jobs
  // of ~100 ms each: a short stretch of host contention would decide
  // the ratio of a ~10 ms-job sweep, so the jobs are long and every
  // job count is timed kRuns times, interleaved.
  constexpr int kRuns = 5;
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 100 * kSecond;
  config.arrival_rate_tps = 100;
  config.repetitions = 3;
  const std::vector<uint32_t> sizes = {10, 25, 50, 100};

  unsigned hw = HardwareConcurrency();
  std::vector<int> job_counts = {1, 2, 4};
  if (hw > 4) job_counts.push_back(static_cast<int>(hw));
  if (SingleCoreHost()) {
    std::printf("note: single-core host — determinism is still checked, "
                "but no wall-clock speedup is expected\n");
  }

  // walls[j][r]: wall time of job_counts[j] in run r.
  std::vector<std::vector<double>> walls(job_counts.size());
  std::vector<SweepPoint> reference;
  for (int run = 0; run < kRuns; ++run) {
    for (size_t j = 0; j < job_counts.size(); ++j) {
      const int jobs = job_counts[j];
      SetParallelJobs(jobs);
      double start = NowMs();
      Result<std::vector<SweepPoint>> points =
          RunSweep(config, BlockSizeSweepSpec(sizes));
      walls[j].push_back(NowMs() - start);
      if (!points.ok()) {
        std::fprintf(stderr, "sweep failed: %s\n",
                     points.status().ToString().c_str());
        return 1;
      }
      if (reference.empty()) {
        reference = points.value();
        continue;
      }
      bool identical = true;
      for (size_t i = 0; i < sizes.size(); ++i) {
        identical &=
            ReportsEqual(reference[i].report, points.value()[i].report);
      }
      if (!identical) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION at %d jobs: parallel sweep "
                     "diverged from the serial run\n",
                     jobs);
        return 1;
      }
    }
  }
  // Restore the env-driven default for anything run after us.
  ParallelJobsFromEnv();

  JsonWriter json("parallel_scaling");
  json.Config(config);
  std::printf("%8s %6s %14s %10s %18s %10s\n", "jobs", "runs",
              "wall(ms,med)", "speedup", "speedup range", "identical");
  for (size_t j = 0; j < job_counts.size(); ++j) {
    // Each run's speedup is against the serial sweep of the same run.
    std::vector<double> speedups;
    for (int run = 0; run < kRuns; ++run) {
      double wall = walls[j][run];
      speedups.push_back(wall > 0 ? walls[0][run] / wall : 0);
    }
    double median = Median(speedups);
    auto [lo, hi] = std::minmax_element(speedups.begin(), speedups.end());
    double wall_ms = Median(walls[j]);
    std::printf("%8d %6d %14.1f %9.2fx %8.2fx-%6.2fx %10s\n", job_counts[j],
                kRuns, wall_ms, median, *lo, *hi,
                job_counts[j] == 1 ? "(ref)" : "yes");
    json.RowSpread("parallel_scaling", job_counts[j], config.base_seed, kRuns,
                   wall_ms, "speedup", median, *lo, *hi);
  }
  std::printf("hardware_concurrency: %u\n", hw);
  return 0;
}
