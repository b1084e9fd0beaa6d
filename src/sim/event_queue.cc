#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace fabricsim {

namespace {
// Pre-sized on first use: even small simulations schedule thousands of
// events, so skipping the early geometric regrowths is free.
constexpr size_t kInitialCapacity = 1024;
}  // namespace

void EventQueue::Push(SimTime time, EventFn&& action, bool daemon) {
  // The slab is not pre-sized: a run keeps far fewer events pending
  // than it schedules, and an untouched reservation of 96-byte slots
  // only fragments the heap.
  if (heap_.capacity() == 0) heap_.reserve(kInitialCapacity);
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slab_.size());
    slab_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(action);
  }
  heap_.push_back(Key{time, next_seq_++, slot, daemon});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (!daemon) ++real_events_;
}

Event EventQueue::Pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  if (!key.daemon) --real_events_;
  Event ev{key.time, std::move(slab_[key.slot]), key.daemon};
  free_slots_.push_back(key.slot);
  return ev;
}

}  // namespace fabricsim
