#include "src/ledger/block.h"

namespace fabricsim {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Mix(uint64_t hash, uint64_t value) {
  // FNV-1a over the value's bytes, folded 8 bytes at a time.
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffull;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

uint64_t BlockContentHash(const Block& block,
                          const std::vector<TxValidationResult>& results) {
  uint64_t hash = kChainHashSeed;
  hash = Mix(hash, block.number);
  hash = Mix(hash, static_cast<uint64_t>(block.cut_reason));
  hash = Mix(hash, block.txs.size());
  for (const Transaction& tx : block.txs) {
    hash = Mix(hash, tx.id);
    hash = Mix(hash, tx.read_only ? 1 : 0);
    hash = Mix(hash, tx.rwset.digest());
  }
  hash = Mix(hash, results.size());
  for (const TxValidationResult& result : results) {
    hash = Mix(hash, static_cast<uint64_t>(result.code));
    hash = Mix(hash, static_cast<uint64_t>(result.mvcc_class));
    hash = Mix(hash, result.conflicting_tx);
  }
  return hash;
}

uint64_t MixChainHash(uint64_t prev, uint64_t content) {
  uint64_t hash = Mix(prev, content);
  // Guard against the degenerate all-zero fixed point.
  return hash == 0 ? kChainHashSeed : hash;
}

}  // namespace fabricsim
