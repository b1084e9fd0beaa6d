#ifndef FABRICSIM_SIM_WORK_QUEUE_H_
#define FABRICSIM_SIM_WORK_QUEUE_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/sim/environment.h"

namespace fabricsim {

/// The callables of a queued task. Every task the actors submit
/// captures at most 40 bytes (`this`, a shared state and a block), so a
/// task carries two 48-byte buffers rather than EventFn's 96 and a
/// backlog of tasks stays compact.
template <typename R>
using TaskFn = InlineFn<R(), 48>;

/// Models a serial server (a peer's validation pipeline, a chaincode
/// container, an orderer's delivery loop) inside a simulation actor.
/// Tasks run strictly FIFO; while the server is busy, submissions
/// queue up — this queueing is what produces the latency blow-ups the
/// paper observes under overload (e.g. CouchDB range scans).
///
/// A task has two phases:
///  * `at_start` runs when the server picks the task up. It performs
///    the data-plane work against *current* simulation state (e.g.
///    executes a chaincode against the replica as of that moment) and
///    returns the service time the work costs.
///  * `at_end` runs when the service time has elapsed (commit point).
///    While its task is in service it waits in the queue's own slot,
///    so the completion event captures only the queue.
class WorkQueue {
 public:
  explicit WorkQueue(std::string name = "work") : name_(std::move(name)) {}

  /// Enqueues a task. See class comment for phase semantics. Either
  /// callback may be empty.
  void Submit(Environment& env, TaskFn<SimTime> at_start,
              TaskFn<void> at_end);

  /// Number of tasks waiting or in service.
  size_t depth() const { return pending_.size() + (busy_ ? 1 : 0); }

  bool busy() const { return busy_; }

  /// Total service time consumed so far (utilization numerator).
  SimTime total_service() const { return total_service_; }

  uint64_t tasks_completed() const { return tasks_completed_; }

  /// Distribution of queueing delays (submit -> start), milliseconds.
  const SummaryStats& queue_delay_stats() const { return queue_delay_stats_; }

  const std::string& name() const { return name_; }

 private:
  struct Task {
    SimTime submitted;
    TaskFn<SimTime> at_start;
    TaskFn<void> at_end;
  };

  void StartNext(Environment& env);
  /// The completion event of the task in service.
  void Finish(Environment& env);

  std::string name_;
  std::deque<Task> pending_;
  /// at_end of the task in service.
  TaskFn<void> in_service_end_;
  bool busy_ = false;
  SimTime total_service_ = 0;
  uint64_t tasks_completed_ = 0;
  SummaryStats queue_delay_stats_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_SIM_WORK_QUEUE_H_
