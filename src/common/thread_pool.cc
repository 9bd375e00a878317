#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace spindle {

std::uint32_t
resolveWorkerCount(std::uint32_t requested)
{
    if (requested == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        requested = hw == 0 ? 1u : static_cast<std::uint32_t>(hw);
    }
    if (requested > kMaxServiceWorkers) {
        warn(strCat("resolveWorkerCount: ", requested,
                    " workers requested; clamping to ",
                    kMaxServiceWorkers));
        requested = kMaxServiceWorkers;
    }
    return std::max(requested, 1u);
}

ThreadPool::ThreadPool(std::uint32_t workers)
{
    workers_.reserve(workers);
    for (std::uint32_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_work_.wait(lk, [&] { return stop_ || !tasks_.empty(); });
            if (stop_)
                return;
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

void
ThreadPool::post(std::function<void()> task)
{
    panicIf(workers_.empty(),
            "ThreadPool::post: pool has no worker threads; posted tasks "
            "only run on workers — construct the pool with at least 1 "
            "worker");
    {
        std::lock_guard<std::mutex> lk(mu_);
        panicIf(stop_, "ThreadPool::post: pool is stopping");
        tasks_.push_back(std::move(task));
    }
    cv_work_.notify_one();
}

} // namespace spindle
