#include "src/sim/work_queue.h"

#include <utility>

namespace fabricsim {

void WorkQueue::Submit(Environment& env, TaskFn<SimTime> at_start,
                       TaskFn<void> at_end) {
  pending_.push_back(Task{env.now(), std::move(at_start), std::move(at_end)});
  if (!busy_) StartNext(env);
}

void WorkQueue::StartNext(Environment& env) {
  if (pending_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Task task = std::move(pending_.front());
  pending_.pop_front();
  in_service_end_ = std::move(task.at_end);
  queue_delay_stats_.Add(ToMillis(env.now() - task.submitted));
  SimTime service = 0;
  if (task.at_start) service = task.at_start();
  if (service < 0) service = 0;
  total_service_ += service;
  env.Schedule(service, [this, &env]() { Finish(env); });
}

void WorkQueue::Finish(Environment& env) {
  ++tasks_completed_;
  // Moved out first: at_end may submit to this queue.
  TaskFn<void> at_end = std::move(in_service_end_);
  if (at_end) at_end();
  StartNext(env);
}

}  // namespace fabricsim
