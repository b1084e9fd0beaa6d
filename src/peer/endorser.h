#ifndef FABRICSIM_PEER_ENDORSER_H_
#define FABRICSIM_PEER_ENDORSER_H_

#include "src/chaincode/chaincode.h"
#include "src/common/status.h"
#include "src/ledger/rwset.h"
#include "src/statedb/state_database.h"

namespace fabricsim {

/// Result of simulating a proposal on one endorsing peer.
struct EndorsementResult {
  /// The generated read/write set (meaningful when app_status is OK),
  /// sealed: every response and envelope shares it.
  SealedRwSet rwset;
  /// Chaincode-level outcome. A non-OK status means the endorser
  /// returns an error response and the client will drop the
  /// transaction — this is an application failure, not one of the
  /// paper's three concurrency failure classes.
  Status app_status;
};

/// Executes the chaincode against the endorser's world-state view,
/// producing the read/write set (transaction flow step 2). Pure
/// data-plane: the caller charges the database/signing costs.
EndorsementResult SimulateProposal(const StateDatabase& view,
                                   Chaincode& chaincode,
                                   const Invocation& invocation,
                                   bool rich_queries_supported);

}  // namespace fabricsim

#endif  // FABRICSIM_PEER_ENDORSER_H_
