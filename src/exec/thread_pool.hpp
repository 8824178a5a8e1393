// A minimal task pool with a parallel_for front end, in the spirit of an
// OpenMP `parallel for` with static or dynamic scheduling.
//
// Design notes (following the OpenMP-examples idioms the paper relies on):
//  * One pool is created per "device" and reused across kernels — mirroring
//    the paper's Section IV.B observation that opening a fresh parallel
//    region per pattern is too expensive; we amortize thread startup the
//    same way by keeping workers alive.
//  * parallel_for blocks until the whole range is done (implicit barrier).
//  * Exceptions thrown by the body are captured and rethrown on the caller.
//  * With 0 workers the pool degrades to inline execution on the caller —
//    used for the "serial baseline" runs and on single-core build machines.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"
#include "util/types.hpp"

namespace mpas::exec {

enum class LoopSchedule { Static, Dynamic };

class ThreadPool {
 public:
  /// `num_threads == 0` means run everything inline on the calling thread.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const { return num_threads_; }

  /// Apply `body(begin, end)` over [0, n) split into chunks. Static
  /// scheduling hands each worker one contiguous slab; dynamic scheduling
  /// lets workers grab `chunk`-sized pieces from a shared counter.
  void parallel_for(Index n, const std::function<void(Index, Index)>& body,
                    LoopSchedule schedule = LoopSchedule::Static,
                    Index chunk = 1024);

  /// Total number of parallel regions opened so far (the machine model
  /// charges a synchronization overhead per region, as in Section IV.B).
  [[nodiscard]] std::uint64_t regions_opened() const {
    return regions_.load(std::memory_order_relaxed);
  }

  /// Block until no parallel region is executing. parallel_for already
  /// blocks its own caller, so this only matters when *another* thread may
  /// be mid-region — the self-healing driver calls it before swapping
  /// schedules at a step boundary so no worker still runs the old plan.
  void wait_idle();

 private:
  struct Task {
    const std::function<void(Index, Index)>* body = nullptr;
    Index n = 0;
    Index chunk = 0;
    LoopSchedule schedule = LoopSchedule::Static;
    std::atomic<Index> next{0};
    std::atomic<int> remaining{0};
  };

  void worker_loop(int worker_id);
  void run_task_share(Task& task, int participant_id, int participants);

  int num_threads_;
  std::vector<std::thread> workers_;
  // Lock order (DESIGN.md §14): a SessionManager worker calls parallel_for
  // / wait_idle while holding nothing, so exec.thread_pool ranks above
  // service.session_manager and must never call back into the service
  // layer while held.
  util::Mutex mutex_{"exec.thread_pool", util::lockrank::kThreadPool};
  util::ConditionVariable cv_work_;
  util::ConditionVariable cv_done_;
  Task* current_ MPAS_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ MPAS_GUARDED_BY(mutex_) = 0;
  bool stop_ MPAS_GUARDED_BY(mutex_) = false;
  // Atomic, not guarded: bumped outside the region handshake so the
  // machine-model accounting never serializes against the workers.
  std::atomic<std::uint64_t> regions_{0};
  util::Mutex error_mutex_{"exec.thread_pool_error",
                           util::lockrank::kThreadPoolError};
  std::exception_ptr error_ MPAS_GUARDED_BY(error_mutex_);
};

}  // namespace mpas::exec
