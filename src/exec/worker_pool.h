#ifndef SETM_EXEC_WORKER_POOL_H_
#define SETM_EXEC_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace setm {

/// A fixed set of worker threads draining a FIFO task queue — the shared
/// execution resource behind the shard coordinator's fan-out, the threaded
/// SALES intake and Apriori's chunk counts. Tasks are plain closures;
/// completion tracking and error collection live in TaskGroup so
/// independent clients can share one pool without observing each other's
/// tasks.
///
///     WorkerPool pool(3);  // the waiting caller is the fourth worker
///     TaskGroup group(&pool);
///     for (auto& part : partitions)
///       group.Submit([&part] { return Process(&part); });
///     SETM_RETURN_IF_ERROR(group.Wait());
///
/// Every task, whether a worker or a waiting TaskGroup caller runs it, is
/// observed once: its Submit-to-start wait in
/// setm_worker_queue_wait_micros and its run in setm_worker_task_micros.
class WorkerPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit WorkerPool(size_t num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues one task. Never blocks; tasks run in FIFO order across the
  /// workers. Do not Submit from inside a task and then block the task on
  /// its completion — with every worker blocked the queue cannot drain.
  /// (A task may wait on a TaskGroup of its own: Wait runs the group's
  /// unstarted tasks itself.)
  void Submit(std::function<void()> task);

  /// Number of worker threads.
  size_t num_threads() const { return threads_.size(); }

 private:
  friend class TaskGroup;

  /// Enqueues `fn` as is: no metric sees it.
  void Post(std::function<void()> fn);
  /// A task queued since `queued` starts: observes its wait and returns
  /// the timer of its run, which Ended() observes.
  WallTimer Started(const WallTimer& queued);
  void Ended(const WallTimer& run);

  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;

  // Process-wide series shared by all pools (resolved at construction):
  // tasks queued and not started, plus queue-wait and run-time
  // distributions.
  obs::Gauge* metric_queue_depth_;
  obs::Histogram* metric_queue_wait_micros_;
  obs::Histogram* metric_task_micros_;
};

/// Tracks completion of one batch of Status-returning tasks on a WorkerPool.
/// Wait() returns the first non-OK status recorded (tasks finish in no
/// fixed order, so which failure is "first" is not deterministic; any
/// failure is reported).
///
/// The group keeps its unstarted tasks in its own queue and posts the pool
/// one runner per task; a runner runs the group's next unstarted task, or
/// nothing when the queue is already empty. Wait() runs the tasks no worker
/// has started yet on the calling thread, and only then blocks on those
/// that are running, so a waiting caller is one more worker: a fan-out of
/// n tasks needs n - 1 pool threads, and none waits for a worker to wake.
/// The caller never runs another group's task. Runners hold the queue
/// through a shared state, so a group may be destroyed while its runners
/// are still queued in the pool.
///
/// With a null pool the group degrades to inline execution — callers write
/// one code path and the serial case stays thread-free.
class TaskGroup {
 public:
  /// `pool` may be null (tasks then run inline inside Submit).
  explicit TaskGroup(WorkerPool* pool);

  /// Groups are drained (Wait) before destruction.
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `task`; its Status is collected for Wait().
  void Submit(std::function<Status()> task);

  /// Runs the group's unstarted tasks, then blocks until all submitted
  /// tasks completed; returns the recorded error (OK when every task
  /// succeeded). May be called repeatedly.
  Status Wait();

 private:
  struct State;

  /// Runs `state`'s next unstarted task on the calling thread; false when
  /// none is left.
  static bool RunNext(WorkerPool* pool, State* state);

  WorkerPool* pool_;
  std::shared_ptr<State> state_;
};

}  // namespace setm

#endif  // SETM_EXEC_WORKER_POOL_H_
