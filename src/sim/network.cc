#include "src/sim/network.h"

#include <utility>

namespace fabricsim {

SimTime Network::SampleDelay(NodeId from, NodeId to, uint64_t bytes,
                             SimTime now) {
  if (from == to) return 0;
  double delay = static_cast<double>(config_.base_latency);
  if (config_.jitter > 0) {
    delay += rng_.UniformRange(-static_cast<double>(config_.jitter),
                               static_cast<double>(config_.jitter));
  }
  if (config_.bandwidth_bytes_per_us > 0) {
    delay += static_cast<double>(bytes) / config_.bandwidth_bytes_per_us;
  }
  for (NodeId node : {from, to}) {
    auto it = injected_.find(node);
    if (it == injected_.end()) continue;
    for (const InjectedDelay& window : it->second) {
      if (now < window.from || now >= window.to) continue;
      double extra = static_cast<double>(window.extra);
      if (window.jitter > 0) {
        extra += rng_.UniformRange(-static_cast<double>(window.jitter),
                                   static_cast<double>(window.jitter));
      }
      delay += extra;
    }
  }
  if (delay < 1.0) delay = 1.0;
  return static_cast<SimTime>(delay);
}

bool Network::ShouldDrop(NodeId from, NodeId to, SimTime now) {
  for (const LinkFaultRule& rule : link_faults_) {
    if (now < rule.from || now >= rule.to) continue;
    bool forward = (rule.a == -1 || rule.a == from) &&
                   (rule.b == -1 || rule.b == to);
    bool reverse = rule.bidirectional && (rule.a == -1 || rule.a == to) &&
                   (rule.b == -1 || rule.b == from);
    if (!forward && !reverse) continue;
    if (rule.drop_prob >= 1.0) return true;
    if (rule.drop_prob <= 0.0) continue;
    if (fault_rng_.has_value() && fault_rng_->Bernoulli(rule.drop_prob)) {
      return true;
    }
  }
  return false;
}

void Network::Send(Environment& env, NodeId from, NodeId to, uint64_t bytes,
                   EventFn deliver) {
  ++messages_sent_;
  bytes_sent_ += bytes;
  if (!link_faults_.empty() && ShouldDrop(from, to, env.now())) {
    ++messages_dropped_;
    return;  // lost in transit; the callback is never invoked
  }
  env.Schedule(SampleDelay(from, to, bytes, env.now()), std::move(deliver));
}

}  // namespace fabricsim
