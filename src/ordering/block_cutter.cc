#include "src/ordering/block_cutter.h"

#include <algorithm>
#include <utility>

namespace fabricsim {

namespace {
// Capacity a new batch reserves at most. Larger batches regrow from it:
// reserving a 500-transaction batch up front raised peak RSS through
// heap fragmentation.
constexpr size_t kBatchReserve = 128;
}  // namespace

std::vector<std::vector<Transaction>> BlockCutter::AddTransaction(
    Transaction tx) {
  std::vector<std::vector<Transaction>> batches;
  uint64_t tx_bytes = tx.ByteSize();

  if (tx_bytes >= config_.max_bytes) {
    // Oversized message: flush pending, then emit the big one alone.
    if (!pending_.empty()) batches.push_back(CutPending());
    std::vector<Transaction> alone;
    alone.push_back(std::move(tx));
    batches.push_back(std::move(alone));
    return batches;
  }

  if (pending_bytes_ + tx_bytes > config_.max_bytes && !pending_.empty()) {
    batches.push_back(CutPending());
  }

  if (pending_.empty()) {
    // Size a new batch once instead of regrowing it from empty, which
    // moves every envelope at each doubling. A batch cut by count fills
    // it when max_count <= 128; one cut early by timeout leaves part of
    // it unused.
    pending_.reserve(std::min<size_t>(config_.max_count, kBatchReserve));
  }
  pending_.push_back(std::move(tx));
  pending_bytes_ += tx_bytes;

  if (pending_.size() >= config_.max_count) {
    batches.push_back(CutPending());
  }
  return batches;
}

std::vector<Transaction> BlockCutter::CutPending() {
  std::vector<Transaction> batch = std::move(pending_);
  pending_.clear();
  pending_bytes_ = 0;
  return batch;
}

}  // namespace fabricsim
