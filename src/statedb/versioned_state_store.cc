#include "src/statedb/versioned_state_store.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/peer/committer.h"

namespace fabricsim {

Status VersionedStateStore::Bootstrap(const std::vector<WriteItem>& writes) {
  if (head_height_ != 0) {
    return Status::FailedPrecondition(
        "bootstrap after block " + std::to_string(head_height_) +
        " was committed");
  }
  return ApplyBootstrap(head_, writes);
}

VersionedStateStore::CursorId VersionedStateStore::AddCursor() {
  cursors_.push_back(floor_);
  return cursors_.size() - 1;
}

uint64_t VersionedStateStore::min_height() const {
  if (cursors_.empty()) return head_height_;
  return *std::min_element(cursors_.begin(), cursors_.end());
}

std::shared_ptr<const ValidationOutcome> VersionedStateStore::GetOrValidate(
    uint64_t number, const std::function<ValidationOutcome()>& validate) {
  auto [it, inserted] = outcomes_.try_emplace(number);
  if (inserted) {
    it->second.outcome = std::make_shared<const ValidationOutcome>(validate());
  }
  return it->second.outcome;
}

size_t VersionedStateStore::live_simulations() const {
  size_t count = 0;
  for (const auto& [height, bucket] : simulations_) count += bucket.size();
  return count;
}

uint64_t VersionedStateStore::SimulationHash(const Chaincode* chaincode,
                                             bool rich_queries,
                                             const Invocation& invocation) {
  // boost::hash_combine's step, widened to 64 bits.
  auto mix = [](uint64_t h, uint64_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  const std::hash<std::string> hash;
  uint64_t h = mix(reinterpret_cast<uintptr_t>(chaincode), rich_queries);
  h = mix(h, hash(invocation.function));
  h = mix(h, invocation.args.size());
  for (const std::string& arg : invocation.args) h = mix(h, hash(arg));
  return h;
}

uint64_t VersionedStateStore::ContentHash(
    const std::shared_ptr<const Block>& block,
    const std::shared_ptr<const ValidationOutcome>& outcome) {
  auto it = outcomes_.find(block->number);
  if (it == outcomes_.end() || it->second.outcome != outcome) {
    return BlockContentHash(*block, outcome->results);
  }
  OutcomeEntry& entry = it->second;
  if (entry.hashed_block == nullptr) {
    entry.hashed_block = block;
    entry.content_hash = BlockContentHash(*block, outcome->results);
  } else if (entry.hashed_block != block) {
    return BlockContentHash(*block, outcome->results);
  }
  return entry.content_hash;
}

Status VersionedStateStore::Commit(CursorId cursor, uint64_t number,
                                   const ValidationOutcome& outcome) {
  if (cursors_[cursor] + 1 != number) {
    return Status::FailedPrecondition(
        "cursor at height " + std::to_string(cursors_[cursor]) +
        " cannot commit block " + std::to_string(number));
  }
  if (number > head_height_) {
    // First commit of this block: every other cursor is still below
    // it, so log what each written key held before the block.
    BlockLog& logged = blocks_.emplace_back(BlockLog{number, {}});
    for (const auto& [write, version] : outcome.state_updates) {
      Log::iterator it = log_.try_emplace(write.key).first;
      std::vector<BeforeImage>& chain = it->second;
      if (chain.empty() || chain.back().block != number) {
        chain.push_back(BeforeImage{number, head_.Get(write.key)});
        logged.keys.push_back(it);
        ++before_image_count_;
      }
      FABRICSIM_RETURN_NOT_OK(head_.ApplyWrite(write, version));
    }
    head_height_ = number;
  }
  cursors_[cursor] = number;
  Collect();
  return Status::OK();
}

Status VersionedStateStore::Advance(CursorId cursor, uint64_t height) {
  if (height < cursors_[cursor] || height > head_height_) {
    return Status::FailedPrecondition(
        "cursor cannot move from " + std::to_string(cursors_[cursor]) +
        " to " + std::to_string(height) + " (head " +
        std::to_string(head_height_) + ")");
  }
  cursors_[cursor] = height;
  Collect();
  return Status::OK();
}

void VersionedStateStore::Collect() {
  for (auto it = simulations_.begin(); it != simulations_.end();) {
    const bool held =
        std::find(cursors_.begin(), cursors_.end(), it->first) !=
        cursors_.end();
    it = held ? std::next(it) : simulations_.erase(it);
  }
  const uint64_t min = min_height();
  if (min <= floor_) return;
  floor_ = min;
  while (!blocks_.empty() && blocks_.front().number <= min) {
    // Blocks leave in order, so each key's oldest image is this one.
    for (Log::iterator it : blocks_.front().keys) {
      std::vector<BeforeImage>& chain = it->second;
      chain.erase(chain.begin());
      if (chain.empty()) log_.erase(it);
    }
    before_image_count_ -= blocks_.front().keys.size();
    blocks_.pop_front();
  }
  outcomes_.erase(outcomes_.begin(), outcomes_.upper_bound(min));
}

const VersionedStateStore::BeforeImage* VersionedStateStore::ImageAbove(
    const std::vector<BeforeImage>& chain, uint64_t height) {
  for (const BeforeImage& image : chain) {
    if (image.block > height) return &image;
  }
  return nullptr;
}

template <typename V, typename WalkHead, typename Project, typename Emit>
void VersionedStateStore::MergeAt(uint64_t height,
                                  const std::string& start_key,
                                  const std::string& end_key,
                                  WalkHead walk_head, Project project,
                                  Emit emit) const {
  auto it = log_.lower_bound(start_key);
  auto end = end_key.empty() ? log_.end() : log_.lower_bound(end_key);
  // Emits the logged keys ordered before `key` (all of them when
  // null) that existed at `height` but are gone from the head.
  auto drain_before = [&](const std::string* key) {
    for (; it != end && (key == nullptr || it->first < *key); ++it) {
      const BeforeImage* image = ImageAbove(it->second, height);
      if (image != nullptr && image->prior.has_value()) {
        emit(it->first, project(*image->prior));
      }
    }
  };
  walk_head([&](const std::string& key, const V& head_value) {
    drain_before(&key);
    if (it != end && it->first == key) {
      const BeforeImage* image = ImageAbove(it->second, height);
      ++it;
      if (image != nullptr) {
        if (image->prior.has_value()) emit(key, project(*image->prior));
        return;
      }
    }
    emit(key, head_value);
  });
  drain_before(nullptr);
}

std::optional<VersionedValue> VersionedStateStore::Get(
    uint64_t height, const std::string& key) const {
  if (!AtHead(height)) {
    auto it = log_.find(key);
    if (it != log_.end()) {
      if (const BeforeImage* image = ImageAbove(it->second, height)) {
        return image->prior;
      }
    }
  }
  return head_.Get(key);
}

std::optional<Version> VersionedStateStore::GetVersion(
    uint64_t height, const std::string& key) const {
  if (!AtHead(height)) {
    auto it = log_.find(key);
    if (it != log_.end()) {
      if (const BeforeImage* image = ImageAbove(it->second, height)) {
        if (!image->prior.has_value()) return std::nullopt;
        return image->prior->version;
      }
    }
  }
  return head_.GetVersion(key);
}

std::vector<StateEntry> VersionedStateStore::GetRange(
    uint64_t height, const std::string& start_key,
    const std::string& end_key) const {
  std::vector<StateEntry> head = head_.GetRange(start_key, end_key);
  if (AtHead(height)) return head;
  std::vector<StateEntry> out;
  out.reserve(head.size());
  MergeAt<VersionedValue>(
      height, start_key, end_key,
      [&](const auto& fn) {
        for (const StateEntry& e : head) fn(e.key, e.vv);
      },
      [](const VersionedValue& vv) -> const VersionedValue& { return vv; },
      [&](const std::string& key, const VersionedValue& vv) {
        out.push_back(StateEntry{key, vv});
      });
  return out;
}

void VersionedStateStore::ForEachVersionInRange(
    uint64_t height, const std::string& start_key, const std::string& end_key,
    const std::function<void(const std::string& key, Version version)>& fn)
    const {
  if (AtHead(height)) {
    head_.ForEachVersionInRange(start_key, end_key, fn);
    return;
  }
  MergeAt<Version>(
      height, start_key, end_key,
      [&](const auto& visit) {
        head_.ForEachVersionInRange(
            start_key, end_key,
            [&](const std::string& key, Version version) {
              visit(key, version);
            });
      },
      [](const VersionedValue& vv) { return vv.version; },
      [&](const std::string& key, Version version) { fn(key, version); });
}

size_t VersionedStateStore::Size(uint64_t height) const {
  size_t size = head_.Size();
  if (AtHead(height)) return size;
  for (const auto& [key, chain] : log_) {
    const BeforeImage* image = ImageAbove(chain, height);
    if (image == nullptr) continue;
    size += image->prior.has_value() ? 1 : 0;
    size -= head_.GetVersion(key).has_value() ? 1 : 0;
  }
  return size;
}

std::vector<StateEntry> VersionedStateStore::Scan(uint64_t height) const {
  if (AtHead(height)) return head_.Scan();
  std::vector<StateEntry> out;
  out.reserve(head_.Size());
  ForEachEntry(height, [&](const std::string& key, const VersionedValue& vv) {
    out.push_back(StateEntry{key, vv});
  });
  return out;
}

void VersionedStateStore::ForEachEntry(
    uint64_t height,
    const std::function<void(const std::string& key,
                             const VersionedValue& vv)>& fn) const {
  if (AtHead(height)) {
    head_.ForEachEntry(fn);
    return;
  }
  static const std::string kAll;
  MergeAt<VersionedValue>(
      height, kAll, kAll,
      [&](const auto& visit) {
        head_.ForEachEntry(
            [&](const std::string& key, const VersionedValue& vv) {
              visit(key, vv);
            });
      },
      [](const VersionedValue& vv) -> const VersionedValue& { return vv; },
      fn);
}

Status StateView::ApplyWrite(const WriteItem& write, Version) {
  return Status::FailedPrecondition(
      "state view is read-only (write to " + write.key +
      "): commit through the VersionedStateStore");
}

}  // namespace fabricsim
