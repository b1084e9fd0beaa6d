#ifndef FABRICSIM_SIM_EVENT_QUEUE_H_
#define FABRICSIM_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/sim/inline_fn.h"

namespace fabricsim {

/// The callable type of every scheduled event.
using EventFn = InlineFn<void()>;

/// A single scheduled callback, as EventQueue::Pop hands it out. Events
/// with equal timestamps fire in insertion order (FIFO tie-break via
/// sequence number) so simulations are fully deterministic. Daemon
/// events (perpetual control-plane timers like Raft heartbeats and
/// election timeouts) fire like any other event while real work
/// remains, but do not keep the simulation alive on their own — the DES
/// analogue of daemon threads.
struct Event {
  SimTime time = 0;
  EventFn action;
  bool daemon = false;
};

/// Min-heap of events ordered by (time, seq). The heap holds only small
/// (time, seq, slot) keys; each callable sits in a slot of a free-listed
/// slab and never moves while it waits, so a heap sift moves 24 bytes,
/// not a callable. Pop moves the callable out of its slot and frees the
/// slot before the caller runs it, because the action may schedule
/// again and reuse (or, by growing the slab, relocate) that slot.
class EventQueue {
 public:
  /// Schedules `action` at absolute simulated time `time`.
  void Push(SimTime time, EventFn&& action, bool daemon = false);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// True while at least one non-daemon event is pending — the
  /// quiescence condition: a queue holding only daemon timers is done.
  bool has_real_events() const { return real_events_ > 0; }

  /// Time of the earliest pending event. Must not be empty.
  SimTime PeekTime() const { return heap_.front().time; }

  /// Removes and returns the earliest event. Must not be empty.
  Event Pop();

 private:
  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
    bool daemon;
  };
  struct Later {
    // push_heap/pop_heap build a max-heap, so "later" keeps the
    // earliest (time, seq) at the front. seq is unique, so the order
    // is total and the slot never decides it.
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;
  /// Callables by slot; a slot is live while its key is in heap_.
  std::vector<EventFn> slab_;
  /// Slots of slab_ free for reuse, most recently freed last.
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
  size_t real_events_ = 0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_SIM_EVENT_QUEUE_H_
