#include "fsbench/spans.h"

#include <cinttypes>
#include <cstdio>

namespace fsbench {

namespace {

const char* CallName(CallKind kind) {
  switch (kind) {
    case CallKind::kInvoke:
      return "chaincode.invoke";
    case CallKind::kBootstrapState:
      return "chaincode.bootstrap_state";
    case CallKind::kNext:
      return "workload.next";
    case CallKind::kValidateBlock:
      return "peer.validate_block";
    case CallKind::kCommitUpdates:
      return "statedb.commit_state_updates";
    case CallKind::kBlockHash:
      return "ledger.block_content_hash";
    case CallKind::kCount:
      break;
  }
  return "unknown";
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

SpanRecorder::SpanRecorder() {
  agg_parent_.fill(-2);
  agg_span_.fill(-1);
}

int SpanRecorder::Open(const char* name) {
  Span span;
  span.name = name;
  span.run = run_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::Close(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  span.busy_ns = span.end_ns - span.start_ns;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanRecorder::AddCall(CallKind kind, int64_t start, int64_t end) {
  int parent = open_.empty() ? -1 : open_.back();
  size_t k = static_cast<size_t>(kind);
  if (agg_parent_[k] != parent || agg_span_[k] < 0 ||
      spans_[static_cast<size_t>(agg_span_[k])].run != run_) {
    Span span;
    span.name = CallName(kind);
    span.run = run_;
    span.parent = parent;
    span.start_ns = start;
    span.calls = 0;
    spans_.push_back(std::move(span));
    agg_parent_[k] = parent;
    agg_span_[k] = static_cast<int>(spans_.size()) - 1;
  }
  Span& span = spans_[static_cast<size_t>(agg_span_[k])];
  span.end_ns = end;
  span.busy_ns += end - start;
  ++span.calls;
}

std::vector<int64_t> SpanRecorder::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].busy_ns;
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.busy_ns;
    }
  }
  return self;
}

SpanRecorder::Total SpanRecorder::Sum(const std::string& name,
                                      const std::string& parent_name,
                                      RunRange runs) const {
  Total total;
  for (const Span& span : spans_) {
    if (!runs.Contains(span.run) || span.name != name) continue;
    if (!parent_name.empty() &&
        (span.parent < 0 ||
         spans_[static_cast<size_t>(span.parent)].name != parent_name)) {
      continue;
    }
    total.calls += span.calls;
    total.busy_ns += span.busy_ns;
  }
  return total;
}

std::map<std::string, int64_t> SpanRecorder::LayerSelfNs(
    RunRange runs) const {
  std::vector<int64_t> self = SelfNs();
  std::map<std::string, int64_t> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (!runs.Contains(spans_[i].run)) continue;
    layers[LayerOf(spans_[i].name)] += self[i];
  }
  return layers;
}

std::string SpanRecorder::ToJsonl() const {
  std::vector<int64_t> self = SelfNs();
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out;
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"run\":%" PRIu64 ",\"id\":%zu,\"parent\":%d,"
                  "\"name\":\"%s\",\"start_ns\":%" PRId64
                  ",\"end_ns\":%" PRId64 ",\"calls\":%" PRIu64
                  ",\"busy_ns\":%" PRId64 ",\"self_ns\":%" PRId64 "}\n",
                  s.run, i, s.parent, s.name.c_str(), s.start_ns - origin,
                  s.end_ns - origin, s.calls, s.busy_ns, self[i]);
    out += line;
  }
  return out;
}

std::vector<fabricsim::WriteItem> TimedChaincode::BootstrapState() const {
  CallTimer timer(recorder_, CallKind::kBootstrapState);
  return inner_->BootstrapState();
}

fabricsim::Status TimedChaincode::Invoke(fabricsim::ChaincodeStub& stub,
                                         const fabricsim::Invocation& inv) {
  CallTimer timer(recorder_, CallKind::kInvoke);
  return inner_->Invoke(stub, inv);
}

fabricsim::Invocation TimedWorkload::Next(fabricsim::Rng& rng) {
  CallTimer timer(recorder_, CallKind::kNext);
  return inner_->Next(rng);
}

}  // namespace fsbench
