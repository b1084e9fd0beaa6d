#include "src/ledger/rwset.h"

#include "src/common/strings.h"

namespace fabricsim {

uint64_t ReadWriteSet::Digest() const {
  uint64_t h = Fnv1a("rwset");
  for (const ReadItem& r : reads) {
    h = Fnv1aCombine(h, r.key);
    h = Fnv1aCombine(h, r.version.block_num);
    h = Fnv1aCombine(h, r.version.tx_num);
    h = Fnv1aCombine(h, static_cast<uint64_t>(r.found));
  }
  for (const WriteItem& w : writes) {
    h = Fnv1aCombine(h, w.key);
    h = Fnv1aCombine(h, w.value);
    h = Fnv1aCombine(h, static_cast<uint64_t>(w.is_delete));
  }
  for (const RangeQueryInfo& rq : range_queries) {
    h = Fnv1aCombine(h, rq.start_key);
    h = Fnv1aCombine(h, rq.end_key);
    h = Fnv1aCombine(h, static_cast<uint64_t>(rq.phantom_check));
    for (const ReadItem& r : rq.reads) {
      h = Fnv1aCombine(h, r.key);
      h = Fnv1aCombine(h, r.version.block_num);
      h = Fnv1aCombine(h, r.version.tx_num);
    }
  }
  return h;
}

uint64_t ReadWriteSet::ByteSize() const {
  uint64_t bytes = 16;
  for (const ReadItem& r : reads) bytes += r.key.size() + 12;
  for (const WriteItem& w : writes) bytes += w.key.size() + w.value.size() + 4;
  for (const RangeQueryInfo& rq : range_queries) {
    bytes += rq.start_key.size() + rq.end_key.size() + 8;
    for (const ReadItem& r : rq.reads) bytes += r.key.size() + 12;
  }
  return bytes;
}

namespace {

void ShrinkReads(std::vector<ReadItem>& reads) {
  reads.shrink_to_fit();
  for (ReadItem& r : reads) r.key.shrink_to_fit();
}

}  // namespace

SealedRwSet::SealedRwSet(ReadWriteSet set) {
  // The stub grows these buffers by appending; a sealed set is kept
  // for the life of every block that holds it, so trim them once.
  ShrinkReads(set.reads);
  set.writes.shrink_to_fit();
  for (WriteItem& w : set.writes) {
    w.key.shrink_to_fit();
    w.value.shrink_to_fit();
  }
  set.range_queries.shrink_to_fit();
  for (RangeQueryInfo& rq : set.range_queries) {
    rq.start_key.shrink_to_fit();
    rq.end_key.shrink_to_fit();
    rq.rich_selector.shrink_to_fit();
    ShrinkReads(rq.reads);
  }
  const uint64_t digest = set.Digest();
  const uint64_t byte_size = set.ByteSize();
  node_ = std::make_shared<const Node>(Node{std::move(set), digest, byte_size});
}

const SealedRwSet::Node& SealedRwSet::Empty() {
  static const Node empty{ReadWriteSet{}, ReadWriteSet{}.Digest(),
                          ReadWriteSet{}.ByteSize()};
  return empty;
}

size_t ReadWriteSet::TotalReadCount() const {
  size_t n = reads.size();
  for (const RangeQueryInfo& rq : range_queries) n += rq.reads.size();
  return n;
}

}  // namespace fabricsim
