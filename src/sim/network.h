#ifndef FABRICSIM_SIM_NETWORK_H_
#define FABRICSIM_SIM_NETWORK_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/sim/environment.h"

namespace fabricsim {

/// Identifies a simulation node (client, peer or orderer).
using NodeId = int32_t;

/// Parameters of the network delay model. Delays are
///   base + U(-jitter, +jitter) + bytes / bandwidth + injected(src/dst)
/// where `injected` is the Pumba-style per-node chaos delay.
struct NetworkConfig {
  /// One-way base latency between any two distinct nodes.
  SimTime base_latency = 300;  // 0.3 ms: intra-datacenter gRPC hop
  /// Uniform jitter half-width added to every message.
  SimTime jitter = 150;
  /// Payload cost in bytes per microsecond (~1 GB/s by default).
  double bandwidth_bytes_per_us = 1000.0;
};

/// Pumba-style injected delay for a node: extra ± jitter, e.g. the
/// paper's 100 ± 10 ms on all peers of one organization (Fig. 16).
/// Active only while the simulated clock is inside [from, to); the
/// defaults cover the whole run, matching the legacy always-on knob.
struct InjectedDelay {
  SimTime extra = 0;
  SimTime jitter = 0;
  SimTime from = 0;
  SimTime to = kSimTimeNever;
};

/// Per-link message-loss rule: messages between `a` and `b` (either
/// direction when `bidirectional`, -1 wildcards a side) are dropped
/// with probability `drop_prob` while now is in [from, to).
/// drop_prob >= 1 is a hard partition and consumes no randomness.
struct LinkFaultRule {
  NodeId a = -1;
  NodeId b = -1;
  bool bidirectional = true;
  double drop_prob = 1.0;
  SimTime from = 0;
  SimTime to = kSimTimeNever;
};

/// Simulated message-passing network with deterministic, seeded
/// randomness. Delivery preserves causality but not ordering (two
/// messages can overtake each other thanks to jitter), like UDP/gRPC
/// streams across distinct connections.
class Network {
 public:
  Network(NetworkConfig config, Rng rng)
      : config_(config), rng_(std::move(rng)) {}

  /// Adds a chaos-injected delay window applied to every message into
  /// or out of `node`. Multiple windows per node stack.
  void InjectDelay(NodeId node, InjectedDelay delay) {
    injected_[node].push_back(delay);
  }

  /// Adds a probabilistic message-loss rule. Rules with a drop_prob in
  /// (0, 1) draw from the fault RNG (see set_fault_rng); install one
  /// before adding such rules.
  void AddLinkFault(LinkFaultRule rule) { link_faults_.push_back(rule); }

  /// Dedicated RNG stream for loss decisions, so probabilistic drops
  /// never perturb the delay-jitter stream (a run whose faults are all
  /// deterministic stays draw-for-draw identical to a fault-free run).
  void set_fault_rng(Rng rng) { fault_rng_ = std::move(rng); }
  bool has_fault_rng() const { return fault_rng_.has_value(); }

  /// Samples the one-way delay for a message of `bytes` from -> to at
  /// simulated time `now` (delay windows are evaluated against `now`).
  SimTime SampleDelay(NodeId from, NodeId to, uint64_t bytes, SimTime now);

  /// True when a loss rule active at `now` drops this message.
  bool ShouldDrop(NodeId from, NodeId to, SimTime now);

  /// Schedules `deliver` after the sampled network delay, unless an
  /// active link fault drops the message (then `deliver` never runs).
  void Send(Environment& env, NodeId from, NodeId to, uint64_t bytes,
            EventFn deliver);

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }

 private:
  NetworkConfig config_;
  Rng rng_;
  std::unordered_map<NodeId, std::vector<InjectedDelay>> injected_;
  std::vector<LinkFaultRule> link_faults_;
  std::optional<Rng> fault_rng_;
  uint64_t messages_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_dropped_ = 0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_SIM_NETWORK_H_
