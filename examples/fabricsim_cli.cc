// fabricsim_cli — run a single experiment from the command line and
// print the failure report (plus optional CSV for scripting).
//
//   fabricsim_cli [--variant=fabric14|fabricpp|streamchain|fabricsharp]
//                 [--chaincode=ehr|dv|scm|drm|genchain]
//                 [--mix=uniform|read|insert|update|delete|range]
//                 [--db=couchdb|leveldb] [--cluster=c1|c2]
//                 [--block-size=N] [--rate=TPS] [--duration-s=S]
//                 [--skew=Z] [--orgs=N] [--policy=TEXT] [--seed=N]
//                 [--reps=N] [--csv]
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/strings.h"
#include "src/core/recommendations.h"
#include "src/core/runner.h"

using namespace fabricsim;

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

/// Parses `value` as an integer in [min, max] into `out`; the error
/// names `flag`.
template <typename T>
Status ParseIntFlag(const std::string& flag, const std::string& value,
                    uint64_t min, uint64_t max, T* out) {
  Result<uint64_t> n = ParseUint64(flag, value);
  if (!n.ok()) return n.status();
  if (n.value() < min || n.value() > max) {
    return Status::InvalidArgument(flag + " must be in [" +
                                   std::to_string(min) + ", " +
                                   std::to_string(max) + "], got " + value);
  }
  *out = static_cast<T>(n.value());
  return Status::OK();
}

/// Parses `value` as a number that is >= min (> min when `exclusive`)
/// into `out`; the error names `flag`.
Status ParseRealFlag(const std::string& flag, const std::string& value,
                     double min, bool exclusive, double* out) {
  Result<double> x = ParseDouble(flag, value);
  if (!x.ok()) return x.status();
  if (exclusive ? x.value() <= min : x.value() < min) {
    return Status::InvalidArgument(flag + " must be " +
                                   (exclusive ? "> " : ">= ") +
                                   StrFormat("%g", min) + ", got " + value);
  }
  *out = x.value();
  return Status::OK();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--variant=..] [--chaincode=..] [--mix=..] "
               "[--db=..] [--cluster=c1|c2] [--block-size=N] [--rate=TPS] "
               "[--duration-s=S] [--skew=Z] [--orgs=N] [--policy=TEXT] "
               "[--seed=N] [--reps=N] [--csv]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 30 * kSecond;
  bool csv = false;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    Status st;
    if (ParseFlag(argv[i], "variant", &value)) {
      if (value == "fabric14") {
        config.fabric.variant = FabricVariant::kFabric14;
      } else if (value == "fabricpp") {
        config.fabric.variant = FabricVariant::kFabricPlusPlus;
      } else if (value == "streamchain") {
        config.fabric.variant = FabricVariant::kStreamchain;
      } else if (value == "fabricsharp") {
        config.fabric.variant = FabricVariant::kFabricSharp;
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "chaincode", &value)) {
      config.workload.chaincode = value;
    } else if (ParseFlag(argv[i], "mix", &value)) {
      if (value == "uniform") {
        config.workload.mix = WorkloadMix::kUniform;
      } else if (value == "read") {
        config.workload.mix = WorkloadMix::kReadHeavy;
      } else if (value == "insert") {
        config.workload.mix = WorkloadMix::kInsertHeavy;
      } else if (value == "update") {
        config.workload.mix = WorkloadMix::kUpdateHeavy;
      } else if (value == "delete") {
        config.workload.mix = WorkloadMix::kDeleteHeavy;
      } else if (value == "range") {
        config.workload.mix = WorkloadMix::kRangeHeavy;
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "db", &value)) {
      if (value == "couchdb") {
        config.fabric.db_type = DatabaseType::kCouchDb;
      } else if (value == "leveldb") {
        config.fabric.db_type = DatabaseType::kLevelDb;
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "cluster", &value)) {
      if (value == "c1") {
        config.fabric.cluster = ClusterConfig::C1();
      } else if (value == "c2") {
        config.fabric.cluster = ClusterConfig::C2();
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "block-size", &value)) {
      st = ParseIntFlag("--block-size", value, 1, UINT32_MAX,
                        &config.fabric.block_size);
    } else if (ParseFlag(argv[i], "rate", &value)) {
      st = ParseRealFlag("--rate", value, 0, /*exclusive=*/true,
                         &config.arrival_rate_tps);
    } else if (ParseFlag(argv[i], "duration-s", &value)) {
      double seconds = 0;
      st = ParseRealFlag("--duration-s", value, 0, /*exclusive=*/true,
                         &seconds);
      config.duration = FromSeconds(seconds);
    } else if (ParseFlag(argv[i], "skew", &value)) {
      st = ParseRealFlag("--skew", value, 0, /*exclusive=*/false,
                         &config.workload.zipf_skew);
    } else if (ParseFlag(argv[i], "orgs", &value)) {
      st = ParseIntFlag("--orgs", value, 1, INT32_MAX,
                        &config.fabric.cluster.num_orgs);
    } else if (ParseFlag(argv[i], "policy", &value)) {
      config.fabric.policy_text = value;
    } else if (ParseFlag(argv[i], "seed", &value)) {
      st = ParseIntFlag("--seed", value, 0, UINT64_MAX, &config.base_seed);
    } else if (ParseFlag(argv[i], "reps", &value)) {
      st = ParseIntFlag("--reps", value, 1, INT32_MAX, &config.repetitions);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else {
      return Usage(argv[0]);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 2;
    }
  }

  Result<ExperimentResult> result = RunExperiment(config);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const FailureReport& r = result.value().mean;

  if (csv) {
    std::printf(
        "variant,chaincode,db,block_size,rate_tps,skew,total_fail_pct,"
        "endorsement_pct,mvcc_intra_pct,mvcc_inter_pct,phantom_pct,"
        "reorder_abort_pct,early_abort_pct,avg_latency_s,"
        "committed_tput_tps\n");
    std::printf("%s,%s,%s,%u,%.1f,%.2f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,"
                "%.4f,%.2f\n",
                FabricVariantToString(config.fabric.variant),
                config.workload.chaincode.c_str(),
                DatabaseTypeToString(config.fabric.db_type),
                config.fabric.block_size, config.arrival_rate_tps,
                config.workload.zipf_skew, r.total_failure_pct,
                r.endorsement_pct, r.mvcc_intra_pct, r.mvcc_inter_pct,
                r.phantom_pct, r.reorder_abort_pct, r.early_abort_pct,
                r.avg_latency_s, r.committed_throughput_tps);
    return 0;
  }

  std::printf("config: %s\n\n%s\n", config.Describe().c_str(),
              r.ToString().c_str());
  std::printf("%s", FormatRecommendations(
                        DeriveRecommendations(config, r))
                        .c_str());
  return 0;
}
