#include "sim/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace wb::sim
{

SweepRunner::SweepRunner(unsigned threads) : threads_(threads)
{
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
        if (threads_ == 0)
            threads_ = 1;
    }
}

void
SweepRunner::run(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (threads_ <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex errorLock;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                // Drain the remaining indices first, so siblings stop
                // at their next fetch instead of after the error lock.
                next.store(n);
                std::lock_guard<std::mutex> guard(errorLock);
                if (!error)
                    error = std::current_exception();
                return;
            }
        }
    };

    const std::size_t spawn =
        std::min<std::size_t>(threads_, n) - 1; // caller is a worker too
    std::vector<std::thread> pool;
    pool.reserve(spawn);
    for (std::size_t t = 0; t < spawn; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &th : pool)
        th.join();

    if (error)
        std::rethrow_exception(error);
}

} // namespace wb::sim
