#ifndef FABRICSIM_LEDGER_RWSET_H_
#define FABRICSIM_LEDGER_RWSET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ledger/version.h"

namespace fabricsim {

/// One entry of a transaction read set: the key and the version the
/// endorser observed (Definition 1 in the paper). `found == false`
/// records a read of a key that did not exist at endorsement time.
struct ReadItem {
  std::string key;
  Version version;
  bool found = true;
};

/// One entry of a transaction write set (Definition 2). A delete is a
/// write with `is_delete == true`.
struct WriteItem {
  std::string key;
  std::string value;
  bool is_delete = false;
};

/// Footprint of one range query, kept for phantom-read validation
/// (paper §3.2.3): the queried interval [start_key, end_key) and every
/// key+version the endorser saw inside it. Rich (JSON selector)
/// queries set `phantom_check == false`: Fabric does not re-execute
/// them at validation, so they provide no phantom detection.
struct RangeQueryInfo {
  std::string start_key;
  std::string end_key;
  std::vector<ReadItem> reads;
  bool phantom_check = true;
  std::string rich_selector;
};

/// The read/write set an endorser produces by simulating a transaction.
struct ReadWriteSet {
  std::vector<ReadItem> reads;
  std::vector<WriteItem> writes;
  std::vector<RangeQueryInfo> range_queries;

  /// True when the transaction writes nothing (read-only query).
  bool IsReadOnly() const { return writes.empty(); }

  /// Order-sensitive content hash. Two endorsers agree on a proposal
  /// iff their rw-set digests match; a mismatch is the root cause of
  /// endorsement policy failures (paper Eq. 1).
  uint64_t Digest() const;

  /// Approximate serialized size, used for the block max-bytes cut
  /// rule and network payload costs.
  uint64_t ByteSize() const;

  /// Total number of individual reads including those inside range
  /// queries; drives MVCC validation cost.
  size_t TotalReadCount() const;
};

/// An endorsed rw-set, sealed: immutable from the moment the endorser
/// produces it, as the signature over it demands. Sealing computes the
/// digest and byte size once; copies share one heap node, so the
/// endorser's result, every response, the envelope and every block
/// holding the transaction read the same object. Only const access
/// exists, so digest() always equals Digest() of the content. A
/// default-constructed handle points to one shared empty sealed set
/// and allocates nothing.
class SealedRwSet {
 public:
  SealedRwSet() = default;
  /// Seals `set`, dropping its spare vector and string capacity.
  explicit SealedRwSet(ReadWriteSet set);

  const ReadWriteSet& operator*() const { return node().set; }
  const ReadWriteSet* operator->() const { return &node().set; }
  /// Digest() of the content, computed at sealing.
  uint64_t digest() const { return node().digest; }
  /// ByteSize() of the content, computed at sealing.
  uint64_t byte_size() const { return node().byte_size; }

 private:
  struct Node {
    ReadWriteSet set;
    uint64_t digest = 0;
    uint64_t byte_size = 0;
  };
  static const Node& Empty();
  /// Null stands for the shared empty set (a default-constructed or
  /// moved-from handle).
  const Node& node() const { return node_ != nullptr ? *node_ : Empty(); }

  std::shared_ptr<const Node> node_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_LEDGER_RWSET_H_
