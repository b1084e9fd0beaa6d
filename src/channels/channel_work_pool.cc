#include "src/channels/channel_work_pool.h"

#include <utility>

namespace fabricsim {

void ChannelWorkPool::Submit(Environment& env, ChannelId channel,
                             TaskFn<SimTime> at_start, TaskFn<void> at_end) {
  EnsureChannel(channel);
  pending_.push_back(
      Task{env.now(), channel, std::move(at_start), std::move(at_end)});
  TryDispatch(env);
}

void ChannelWorkPool::TryDispatch(Environment& env) {
  while (in_service_ < static_cast<size_t>(workers_)) {
    // First pending task whose channel pipeline is idle; tasks of busy
    // channels keep their queue position (FIFO among eligible).
    auto it = pending_.begin();
    while (it != pending_.end() &&
           channel_busy_[static_cast<size_t>(it->channel)]) {
      ++it;
    }
    if (it == pending_.end()) return;
    Task task = std::move(*it);
    pending_.erase(it);
    size_t ch = static_cast<size_t>(task.channel);
    channel_busy_[ch] = 1;
    ++in_service_;
    double delay_ms = ToMillis(env.now() - task.submitted);
    queue_delay_stats_.Add(delay_ms);
    channel_delay_stats_[ch].Add(delay_ms);
    SimTime service = 0;
    if (task.at_start) service = task.at_start();
    if (service < 0) service = 0;
    total_service_ += service;
    channel_service_[ch] += service;
    channel_end_[ch] = std::move(task.at_end);
    env.Schedule(service, [this, &env, ch]() { Finish(env, ch); });
  }
}

void ChannelWorkPool::Finish(Environment& env, size_t ch) {
  ++tasks_completed_;
  ++channel_completed_[ch];
  // Moved out first: at_end may submit to this pool.
  TaskFn<void> at_end = std::move(channel_end_[ch]);
  if (at_end) at_end();
  channel_busy_[ch] = 0;
  --in_service_;
  TryDispatch(env);
}

void ChannelWorkPool::EnsureChannel(ChannelId channel) {
  size_t need = static_cast<size_t>(channel) + 1;
  if (channel_busy_.size() >= need) return;
  channel_busy_.resize(need, 0);
  channel_end_.resize(need);
  channel_service_.resize(need, 0);
  channel_completed_.resize(need, 0);
  channel_delay_stats_.resize(need);
}

SimTime ChannelWorkPool::channel_service(ChannelId channel) const {
  size_t ch = static_cast<size_t>(channel);
  return ch < channel_service_.size() ? channel_service_[ch] : 0;
}

uint64_t ChannelWorkPool::channel_tasks_completed(ChannelId channel) const {
  size_t ch = static_cast<size_t>(channel);
  return ch < channel_completed_.size() ? channel_completed_[ch] : 0;
}

const SummaryStats& ChannelWorkPool::channel_queue_delay_stats(
    ChannelId channel) const {
  static const SummaryStats kEmpty;
  size_t ch = static_cast<size_t>(channel);
  return ch < channel_delay_stats_.size() ? channel_delay_stats_[ch] : kEmpty;
}

}  // namespace fabricsim
