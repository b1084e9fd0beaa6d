#ifndef FABRICSIM_BENCH_BENCH_UTIL_H_
#define FABRICSIM_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/parallel.h"
#include "src/core/runner.h"
#include "src/core/sweeps.h"
#include "src/obs/json_writer.h"

namespace fabricsim {
namespace bench {

/// Baseline experiment configs for the reproduction benches. The
/// paper drives load for 180 s and repeats >=3x; we default to 30 s
/// simulated time and 2 seeds per point so every bench binary
/// finishes in seconds — pass FABRICSIM_FULL=1 in the environment to
/// run the paper-scale 180 s x 3 versions. FABRICSIM_JOBS=N picks the
/// worker-thread count used to fan out independent (point, seed) DES
/// instances (default: hardware_concurrency; 1 forces the serial
/// path). Results are bitwise identical at any job count.
inline ExperimentConfig Tuned(ExperimentConfig config) {
  // Re-read the env knob here so every bench binary honours
  // FABRICSIM_JOBS no matter what touched the setting earlier.
  ParallelJobsFromEnv();
  if (std::getenv("FABRICSIM_FULL") != nullptr) {
    config.duration = 180 * kSecond;
    config.repetitions = 3;
  } else {
    config.duration = 30 * kSecond;
    config.repetitions = 2;
  }
  return config;
}

inline ExperimentConfig BaseC1(double rate_tps = 100) {
  ExperimentConfig config = Tuned(ExperimentConfig::Defaults());
  config.arrival_rate_tps = rate_tps;
  return config;
}

inline ExperimentConfig BaseC2(double rate_tps = 100) {
  ExperimentConfig config = Tuned(ExperimentConfig::DefaultsC2());
  config.arrival_rate_tps = rate_tps;
  return config;
}

inline void Header(const char* experiment, const char* paper_expectation) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_expectation);
  std::printf("================================================================\n");
}

/// Runs one experiment or exits with a diagnostic (benches are
/// regeneration scripts; failing silently would hide a broken config).
inline FailureReport MustRun(const ExperimentConfig& config) {
  Result<ExperimentResult> result = RunExperiment(config);
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed (%s): %s\n",
                 config.Describe().c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return result.value().mean;
}

/// Logical cores on this host, clamped to >= 1 (the standard allows
/// hardware_concurrency() to return 0 when undeterminable).
inline unsigned HardwareConcurrency() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// True when this host cannot demonstrate parallel speedup (single
/// logical core). Scaling benches use this to self-annotate: they
/// still run and verify determinism, but skip wall-clock speedup
/// expectations that only hold with real parallel hardware.
inline bool SingleCoreHost() { return HardwareConcurrency() <= 1; }

/// Wall-clock milliseconds since an arbitrary epoch, for bench timing.
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Accumulates machine-readable bench rows and writes them to
/// BENCH_<name>.json in the working directory on Flush()/destruction.
/// The file is a versioned document (VersionedJsonWriter):
///   {"schema_version": N, "kind": "bench.<name>", "config": "...",
///    "rows": [ {"figure": ..., "point": ..., "seed": ...,
///               "wall_ms": ..., "failure_pct": ...}, ... ]}
/// so perf trajectories can be tracked across commits without
/// scraping stdout, and every artifact self-describes its layout.
class JsonWriter {
 public:
  explicit JsonWriter(std::string name)
      : name_(std::move(name)), writer_("bench." + name_) {
    // Every bench artifact self-describes the host it ran on: scaling
    // numbers from a 1-core CI runner carry their own caveat.
    writer_.set_hardware_concurrency(HardwareConcurrency());
  }
  ~JsonWriter() { Flush(); }

  /// Echoes the generating configuration in the document header.
  void Config(const ExperimentConfig& config) {
    writer_.set_config_echo(config.Describe());
  }

  void Row(const std::string& figure, double point, uint64_t seed,
           double wall_ms, double failure_pct) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"figure\": \"%s\", \"point\": %g, \"seed\": %llu, "
                  "\"wall_ms\": %.3f, \"failure_pct\": %.4f}",
                  JsonEscape(figure).c_str(), point,
                  static_cast<unsigned long long>(seed), wall_ms,
                  failure_pct);
    writer_.AddRow(buf);
  }

  /// Row whose headline is a named scalar metric instead of a failure
  /// rate (e.g. the ordering-failover bench reports the unavailability
  /// gap in seconds).
  void RowMetric(const std::string& figure, double point, uint64_t seed,
                 double wall_ms, const char* metric, double value) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"figure\": \"%s\", \"point\": %g, \"seed\": %llu, "
                  "\"wall_ms\": %.3f, \"%s\": %.6f}",
                  JsonEscape(figure).c_str(), point,
                  static_cast<unsigned long long>(seed), wall_ms, metric,
                  value);
    writer_.AddRow(buf);
  }

  /// Row summarizing a metric over repeated runs: its median and
  /// range, with the median wall time.
  void RowSpread(const std::string& figure, double point, uint64_t seed,
                 int runs, double wall_ms, const char* metric, double median,
                 double min, double max) {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "{\"figure\": \"%s\", \"point\": %g, \"seed\": %llu, "
                  "\"runs\": %d, \"wall_ms\": %.3f, \"%s\": %.6f, "
                  "\"%s_min\": %.6f, \"%s_max\": %.6f}",
                  JsonEscape(figure).c_str(), point,
                  static_cast<unsigned long long>(seed), runs, wall_ms, metric,
                  median, metric, min, metric, max);
    writer_.AddRow(buf);
  }

  /// Per-channel row of a sharded run (multi-channel benches). Lands
  /// in the document's "channels" section and bumps the artifact to
  /// schema version 2.
  void ChannelRow(int channel, const std::string& figure, double point,
                  const char* metric, double value) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"figure\": \"%s\", \"point\": %g, \"%s\": %.6f}",
                  JsonEscape(figure).c_str(), point, metric, value);
    writer_.AddChannelRow(channel, buf);
  }

  /// Writes all accumulated rows; safe to call more than once (later
  /// calls rewrite the file with the full row set).
  void Flush() {
    if (writer_.row_count() == 0 && writer_.channel_row_count() == 0) return;
    writer_.WriteFile("BENCH_" + name_ + ".json");
  }

 private:
  std::string name_;
  VersionedJsonWriter writer_;
};

}  // namespace bench
}  // namespace fabricsim

#endif  // FABRICSIM_BENCH_BENCH_UTIL_H_
