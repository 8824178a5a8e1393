#include "exec/thread_pool.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace mpas::exec {

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  MPAS_CHECK(num_threads >= 0);
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    util::LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_task_share(Task& task, int participant_id,
                                int participants) {
  try {
    if (task.schedule == LoopSchedule::Static) {
      // One contiguous slab per participant, like OpenMP schedule(static).
      const Index per = (task.n + participants - 1) / participants;
      const Index begin = std::min<Index>(task.n, participant_id * per);
      const Index end = std::min<Index>(task.n, begin + per);
      if (begin < end) (*task.body)(begin, end);
    } else {
      for (;;) {
        const Index begin = task.next.fetch_add(task.chunk);
        if (begin >= task.n) break;
        const Index end = std::min<Index>(task.n, begin + task.chunk);
        (*task.body)(begin, end);
      }
    }
  } catch (...) {
    util::LockGuard lock(error_mutex_);
    if (!error_) error_ = std::current_exception();
  }
}

void ThreadPool::worker_loop(int worker_id) {
  // Unconditional: lane names must be registered even when the pool starts
  // before tracing is enabled (one-time cost per worker thread).
  obs::TraceRecorder::global().set_thread_name("pool-worker-" +
                                               std::to_string(worker_id));
  std::uint64_t seen_generation = 0;
  for (;;) {
    Task* task = nullptr;
    {
      util::UniqueLock lock(mutex_);
      // Inline predicate loop (not a wait(lock, pred) lambda): the
      // thread-safety analysis checks this body with mutex_ held.
      while (!stop_ &&
             !(current_ != nullptr && generation_ != seen_generation))
        cv_work_.wait(lock);
      if (stop_) return;
      task = current_;
      seen_generation = generation_;
    }
    // Caller participates too, hence +1 participants with id num_threads_.
    {
      MPAS_TRACE_SCOPE("pool:worker_share");
      run_task_share(*task, worker_id, num_threads_ + 1);
    }
    if (task->remaining.fetch_sub(1) == 1) {
      util::LockGuard lock(mutex_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(Index n,
                              const std::function<void(Index, Index)>& body,
                              LoopSchedule schedule, Index chunk) {
  MPAS_CHECK(n >= 0 && chunk > 0);
  if (n == 0) return;
  regions_.fetch_add(1, std::memory_order_relaxed);

  obs::TraceSpan span(obs::TraceRecorder::global(), "pool:parallel_for");
  if (span.active())
    span.set_args(obs::trace_arg("n", static_cast<std::int64_t>(n)) + "," +
                  obs::trace_arg("threads",
                                 static_cast<std::int64_t>(num_threads_)));

  if (num_threads_ == 0) {
    body(0, n);
    return;
  }

  Task task;
  task.body = &body;
  task.n = n;
  task.chunk = chunk;
  task.schedule = schedule;
  task.remaining.store(num_threads_);
  {
    util::LockGuard lock(mutex_);
    current_ = &task;
    ++generation_;
  }
  cv_work_.notify_all();

  // The calling thread works as participant num_threads_ (the last slab).
  run_task_share(task, num_threads_, num_threads_ + 1);

  {
    util::UniqueLock lock(mutex_);
    while (task.remaining.load() != 0) cv_done_.wait(lock);
    current_ = nullptr;
    // wait_idle sleeps on current_ == nullptr, a condition only this line
    // makes true — the workers' notify fired before it held.
    cv_done_.notify_all();
  }

  std::exception_ptr error;
  {
    util::LockGuard lock(error_mutex_);
    std::swap(error, error_);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::wait_idle() {
  util::UniqueLock lock(mutex_);
  while (current_ != nullptr) cv_done_.wait(lock);
}

}  // namespace mpas::exec
