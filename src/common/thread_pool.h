/**
 * @file
 * Fixed-size task executor: a pool of persistent worker threads that
 * run posted tasks in FIFO order. PlanService admits plan requests
 * this way — one worker, one request, one serial planner — which is
 * where planning parallelism pays: across requests, not inside one
 * plan.
 */

#ifndef SPINDLE_COMMON_THREAD_POOL_H
#define SPINDLE_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spindle {

/** Hard cap on service workers (see resolveWorkerCount). */
constexpr std::uint32_t kMaxServiceWorkers = 256;

/**
 * Resolve a user-facing worker-count knob: 0 means auto
 * (hardware_concurrency, at least 1); values above
 * kMaxServiceWorkers warn and clamp. The result is always >= 1.
 */
std::uint32_t resolveWorkerCount(std::uint32_t requested);

/**
 * Fixed-size pool of persistent workers (see file comment).
 */
class ThreadPool
{
  public:
    /** Spawns @p workers threads; 0 creates a pool that cannot run
     *  tasks (post() panics). */
    explicit ThreadPool(std::uint32_t workers);

    /** Joins every worker. Tasks still queued are dropped without
     *  running — owners that need every task to run (PlanService)
     *  must drain before tearing the pool down. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a detached task for asynchronous execution on some
     * worker thread. Tasks run in FIFO order (one worker at a time
     * pops the front; several workers drain the queue concurrently)
     * and must not throw out of their own body. panic()s on a pool
     * with no workers: there is nobody to run the task, and running
     * it inline would turn an async API into a blocking one.
     */
    void post(std::function<void()> task);

  private:
    void workerLoop();

    std::mutex mu_;
    std::condition_variable cv_work_;
    /** Posted tasks, FIFO; guarded by mu_. */
    std::deque<std::function<void()>> tasks_;
    bool stop_ = false; ///< guarded by mu_

    /** Declared last: the workers use every member above. */
    std::vector<std::thread> workers_;
};

} // namespace spindle

#endif // SPINDLE_COMMON_THREAD_POOL_H
