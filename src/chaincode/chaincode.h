#ifndef FABRICSIM_CHAINCODE_CHAINCODE_H_
#define FABRICSIM_CHAINCODE_CHAINCODE_H_

#include <string>
#include <vector>

#include "src/chaincode/stub.h"
#include "src/common/status.h"

namespace fabricsim {

/// One chaincode invocation request: the function plus its arguments
/// (keys are pre-resolved by the workload generator so that every
/// endorser simulates the exact same logical operation).
struct Invocation {
  std::string function;
  std::vector<std::string> args;
};

/// Base class for smart contracts ("chaincode" in Fabric jargon).
/// Implementations must be deterministic functions of (stub, inv):
/// every endorsing peer runs the same invocation against its own
/// view of the world state. Endorsers whose views are at the same
/// height therefore share a single Invoke (the channel store's
/// GetOrSimulate), so an implementation must not count or otherwise
/// depend on being invoked once per endorser.
class Chaincode {
 public:
  virtual ~Chaincode() = default;

  /// Chaincode name as installed on the channel.
  virtual std::string name() const = 0;

  /// World-state bootstrap entries, applied to each channel's state
  /// at version (0,0) before the run starts (the paper's "initially
  /// populate the world state").
  virtual std::vector<WriteItem> BootstrapState() const = 0;

  /// Simulates one invocation, accumulating the rw-set in `stub`.
  virtual Status Invoke(ChaincodeStub& stub, const Invocation& inv) = 0;

  /// Names of the invocable functions (for diagnostics / Table 2).
  virtual std::vector<std::string> Functions() const = 0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_CHAINCODE_H_
