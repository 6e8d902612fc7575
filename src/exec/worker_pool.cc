#include "exec/worker_pool.h"

#include <utility>

namespace setm {

WorkerPool::WorkerPool(size_t num_threads) {
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
  metric_queue_depth_ = registry->GetGauge(
      "setm_workers_queue_depth", "Tasks queued and not yet started");
  metric_queue_wait_micros_ = registry->GetHistogram(
      "setm_worker_queue_wait_micros",
      "Microseconds tasks spent queued before a worker, or the waiting "
      "caller of their group, started them");
  metric_task_micros_ = registry->GetHistogram(
      "setm_worker_task_micros", "Microseconds tasks spent executing");
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Submit(std::function<void()> task) {
  metric_queue_depth_->Add(1);
  Post([this, task = std::move(task), queued = WallTimer()] {
    const WallTimer run = Started(queued);
    task();
    Ended(run);
  });
}

void WorkerPool::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

WallTimer WorkerPool::Started(const WallTimer& queued) {
  metric_queue_depth_->Add(-1);
  metric_queue_wait_micros_->Observe(
      static_cast<uint64_t>(queued.ElapsedMicros()));
  return WallTimer();
}

void WorkerPool::Ended(const WallTimer& run) {
  metric_task_micros_->Observe(static_cast<uint64_t>(run.ElapsedMicros()));
}

void WorkerPool::WorkerLoop() {
  while (true) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
  }
}

/// What a group shares with its runners: the unstarted tasks, the count
/// of started ones not yet finished, and the first error.
struct TaskGroup::State {
  struct Queued {
    std::function<Status()> fn;
    WallTimer queued;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Queued> unstarted;
  size_t running = 0;
  Status first_error;

  /// Records a finished task's status. Called with `mutex` held.
  void Record(Status s) {
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  }
};

TaskGroup::TaskGroup(WorkerPool* pool)
    : pool_(pool), state_(std::make_shared<State>()) {}

void TaskGroup::Submit(std::function<Status()> task) {
  if (pool_ == nullptr) {
    Status s = task();
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->Record(std::move(s));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->unstarted.push_back(State::Queued{std::move(task), WallTimer()});
  }
  pool_->metric_queue_depth_->Add(1);
  // The runner may outlive the group: it holds the state, not the group.
  pool_->Post([pool = pool_, state = state_] { RunNext(pool, state.get()); });
}

bool TaskGroup::RunNext(WorkerPool* pool, State* state) {
  State::Queued task;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->unstarted.empty()) return false;
    task = std::move(state->unstarted.front());
    state->unstarted.pop_front();
    ++state->running;
  }
  const WallTimer run = pool->Started(task.queued);
  Status s = task.fn();
  pool->Ended(run);
  std::lock_guard<std::mutex> lock(state->mutex);
  state->Record(std::move(s));
  if (--state->running == 0) state->cv.notify_all();
  return true;
}

Status TaskGroup::Wait() {
  if (pool_ != nullptr) {
    while (RunNext(pool_, state_.get())) {
    }
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->running == 0; });
  return state_->first_error;
}

}  // namespace setm
