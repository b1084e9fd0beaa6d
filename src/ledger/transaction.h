#ifndef FABRICSIM_LEDGER_TRANSACTION_H_
#define FABRICSIM_LEDGER_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/ledger/rwset.h"

namespace fabricsim {

using TxId = uint64_t;
using PeerId = int32_t;
using OrgId = int32_t;

/// Identifies one channel (an independent ledger shard multiplexed
/// over the shared peers and ordering service). Channel 0 is the
/// default channel every single-channel configuration runs on.
using ChannelId = int32_t;

/// Final status a transaction carries on the ledger. Mirrors Fabric's
/// validation codes, restricted to the ones the study analyses, plus
/// the early-abort codes introduced by the Fabric++/FabricSharp forks.
enum class TxValidationCode : uint8_t {
  /// Committed; the write set was applied to the world state.
  kValid = 0,
  /// VSCC rejected the transaction: no digest-consistent subset of
  /// endorsements satisfies the endorsement policy (paper §3.2.1).
  kEndorsementPolicyFailure,
  /// A read-set version no longer matches the world state (§3.2.2).
  kMvccReadConflict,
  /// A range query's interval changed between endorsement and
  /// validation (§3.2.3).
  kPhantomReadConflict,
  /// Fabric++ aborted the transaction in the ordering phase to break a
  /// conflict-graph cycle.
  kAbortedByReordering,
  /// FabricSharp aborted the transaction before ordering because it
  /// was not serializable against the dependency graph. Such
  /// transactions never reach the ledger.
  kAbortedNotSerializable,
  /// Sentinel for transactions not yet validated.
  kNotValidated,
  /// Overload protection (src/admission): the transaction's client
  /// deadline had already passed when an endorser reached it — it was
  /// shed at the endorsement queue and never proposed for ordering.
  kDeadlineExpiredEndorse,
  /// Deadline passed while the envelope queued at orderer ingress;
  /// dropped before block cutting, never on the ledger.
  kDeadlineExpiredOrder,
  /// Deadline had passed by the block's cut time: validators mark the
  /// transaction invalid without running VSCC/MVCC (the client has
  /// long stopped waiting). The only deadline class that appears on
  /// the ledger.
  kDeadlineExpiredCommit,
};

const char* TxValidationCodeToString(TxValidationCode code);

/// Sub-classification of an MVCC read conflict (paper Eq. 3 / Eq. 4).
enum class MvccClass : uint8_t {
  kNone = 0,
  /// Invalidating write is an earlier transaction in the same block.
  kIntraBlock,
  /// Invalidating write committed in an earlier block.
  kInterBlock,
};

/// One endorsement collected from a peer: who signed, over which
/// rw-set digest, and whether the signature verifies.
struct Endorsement {
  PeerId peer_id = -1;
  OrgId org_id = -1;
  uint64_t rwset_digest = 0;
  bool signature_valid = true;
};

/// A transaction envelope as submitted to the ordering service.
struct Transaction {
  TxId id = 0;
  /// Channel the transaction is submitted on; its rw-set is resolved
  /// against that channel's world state and it lands on that channel's
  /// chain. 0 on single-channel deployments.
  ChannelId channel = 0;
  std::string chaincode;
  std::string function;
  std::vector<std::string> args;

  /// The rw-set the client attached (taken from the endorsement
  /// majority group): the endorser's sealed set, shared, not copied.
  SealedRwSet rwset;
  std::vector<Endorsement> endorsements;

  /// True when the chaincode function performed no writes.
  bool read_only = false;

  /// Client-stamped absolute deadline (overload protection): past this
  /// simulated time the submitting client no longer cares about the
  /// outcome, so every pipeline stage may early-abort the transaction.
  /// 0 (the default) means no deadline.
  SimTime deadline = 0;

  /// Timestamps along the E-O-V pipeline, for latency metrics.
  SimTime client_submit_time = 0;   ///< proposal sent to endorsers
  SimTime endorsed_time = 0;        ///< all endorsements collected
  SimTime ordered_time = 0;         ///< placed into a block
  SimTime committed_time = 0;       ///< validated & logged at the peer

  /// Envelope payload size estimate (rw-set + endorsements).
  uint64_t ByteSize() const {
    return rwset.byte_size() + 96 * endorsements.size() + 64;
  }
};

}  // namespace fabricsim

#endif  // FABRICSIM_LEDGER_TRANSACTION_H_
