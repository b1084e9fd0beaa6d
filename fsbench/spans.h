#ifndef FSBENCH_SPANS_H_
#define FSBENCH_SPANS_H_

// Outside-in tracing for the benchmark driver: spans recorded around
// each call the driver makes into fabricsim's public API, plus timing
// decorators for the two interfaces the simulator calls back into
// (Chaincode and WorkloadGenerator). Nothing inside the simulator is
// instrumented; the decorators are handed to FabricNetwork through its
// constructor like any other chaincode or workload.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/chaincode/chaincode.h"
#include "src/workload/workload_generator.h"

namespace fsbench {

/// Host nanoseconds on the steady clock since an arbitrary epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One span: a named interval on the host clock. Spans of one
/// simulated run share `run`. A span with calls > 1 aggregates many
/// short calls of one kind under one parent (decorated chaincode
/// invocations, workload draws): `busy_ns` is their summed duration
/// and [start_ns, end_ns] spans the first to the last call.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "sim.run_all"
  uint64_t run = 0;
  int parent = -1;  ///< index into the recorder's spans, -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t calls = 1;
  int64_t busy_ns = 0;
};

/// Aggregated call kinds recorded by the decorators.
enum class CallKind : int {
  kInvoke = 0,
  kBootstrapState,
  kNext,
  kValidateBlock,
  kCommitUpdates,
  kBlockHash,
  kCount,
};

/// Keeps every span in memory; the driver writes them out once, when
/// the benchmark ends.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Sets the run id stamped on the spans that follow.
  void set_run(uint64_t run) { run_ = run; }

  /// Opens a span under the innermost open one; returns its index.
  int Open(const char* name);
  void Close(int id);

  /// Records one call of `kind` lasting [start, end] under the
  /// innermost open span, folded into that parent's aggregate span.
  void AddCall(CallKind kind, int64_t start, int64_t end);

  /// Self time of every span: its busy time minus the busy time of
  /// its direct children.
  std::vector<int64_t> SelfNs() const;

  /// Runs [first, last] that a query covers.
  struct RunRange {
    uint64_t first = 0;
    uint64_t last = UINT64_MAX;
    bool Contains(uint64_t run) const { return run >= first && run <= last; }
  };

  /// Summed calls and busy time of spans named `name` whose parent is
  /// named `parent_name` (any parent when empty).
  struct Total {
    uint64_t calls = 0;
    int64_t busy_ns = 0;
  };
  Total Sum(const std::string& name, const std::string& parent_name,
            RunRange runs) const;

  /// Self time per layer (the span name up to its first '.').
  std::map<std::string, int64_t> LayerSelfNs(RunRange runs) const;

  /// One JSON object per span, timestamps relative to the first span.
  std::string ToJsonl() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint64_t run_ = 0;
  std::array<int, static_cast<int>(CallKind::kCount)> agg_parent_;
  std::array<int, static_cast<int>(CallKind::kCount)> agg_span_;
};

/// RAII span; a no-op when the recorder is null (untraced runs).
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->Open(name) : -1) {}
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->Close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Times one call into the recorder when it is non-null.
class CallTimer {
 public:
  CallTimer(SpanRecorder* recorder, CallKind kind)
      : recorder_(recorder), kind_(kind), start_(recorder ? NowNs() : 0) {}
  ~CallTimer() {
    if (recorder_ != nullptr) recorder_->AddCall(kind_, start_, NowNs());
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  SpanRecorder* recorder_;
  CallKind kind_;
  int64_t start_;
};

/// Chaincode decorator: forwards every call and times Invoke and
/// BootstrapState.
class TimedChaincode : public fabricsim::Chaincode {
 public:
  TimedChaincode(std::shared_ptr<fabricsim::Chaincode> inner,
                 SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  std::string name() const override { return inner_->name(); }
  std::vector<fabricsim::WriteItem> BootstrapState() const override;
  fabricsim::Status Invoke(fabricsim::ChaincodeStub& stub,
                           const fabricsim::Invocation& inv) override;
  std::vector<std::string> Functions() const override {
    return inner_->Functions();
  }

 private:
  std::shared_ptr<fabricsim::Chaincode> inner_;
  SpanRecorder* recorder_;
};

/// WorkloadGenerator decorator: forwards and times Next.
class TimedWorkload : public fabricsim::WorkloadGenerator {
 public:
  TimedWorkload(std::shared_ptr<fabricsim::WorkloadGenerator> inner,
                SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  fabricsim::Invocation Next(fabricsim::Rng& rng) override;
  std::string chaincode() const override { return inner_->chaincode(); }

 private:
  std::shared_ptr<fabricsim::WorkloadGenerator> inner_;
  SpanRecorder* recorder_;
};

}  // namespace fsbench

#endif  // FSBENCH_SPANS_H_
