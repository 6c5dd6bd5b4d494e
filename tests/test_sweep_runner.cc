/**
 * @file
 * sim::SweepRunner: deterministic fan-out of shared-nothing sweep
 * cells over a thread pool.
 *
 * The determinism contract is the point: results are delivered by
 * index, so any consumer that assembles output in index (or sorted
 * cell-key) order gets *byte-identical* artifacts at every thread
 * count. The BytesIdenticalAcrossThreadCounts test runs a real
 * platform x rate sweep through 1 and 4 workers and compares the
 * serialized output strings for equality, which is the same property
 * the `-j`-flagged sweep examples and CI artifacts rely on.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chan/channel.hh"
#include "sim/sweep_runner.hh"

namespace wb::sim
{
namespace
{

TEST(SweepRunner, RunsEveryIndexExactlyOnce)
{
    SweepRunner pool(4);
    std::vector<std::atomic<unsigned>> hits(257);
    pool.run(hits.size(),
             [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(SweepRunner, MapDeliversResultsByIndex)
{
    SweepRunner pool(4);
    const auto out = pool.map<std::size_t>(
        100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, ZeroThreadsPicksHardwareConcurrency)
{
    SweepRunner pool(0);
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    EXPECT_EQ(pool.threads(), hw);
    EXPECT_GE(pool.threads(), 1u);
}

TEST(SweepRunner, EmptyAndSingleJobAreServedInline)
{
    SweepRunner pool(8);
    pool.run(0, [](std::size_t) { FAIL() << "no jobs to run"; });

    const auto caller = std::this_thread::get_id();
    pool.run(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(SweepRunner, FirstExceptionPropagatesToCaller)
{
    SweepRunner pool(4);
    std::atomic<unsigned> started{0};
    try {
        pool.run(1000, [&](std::size_t i) {
            started.fetch_add(1);
            if (i == 3)
                throw std::runtime_error("cell 3 exploded");
            // Cells with real duration: the siblings cannot finish all
            // 1000 while the throwing worker unwinds, so the drain
            // below is observable however fast the unwind is.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        });
        FAIL() << "expected the worker exception to be rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell 3 exploded");
    }
    // The throw drains the work-list: most cells never started.
    EXPECT_LT(started.load(), 1000u);
}

/** Serialize one sweep cell the way the example sweeps do. */
std::string
cellLine(const std::string &platform, unsigned ts, std::uint64_t seed)
{
    chan::ChannelConfig cfg;
    cfg.usePlatform(platform);
    cfg.protocol.ts = cfg.protocol.tr = ts;
    cfg.protocol.frames = 1;
    cfg.seed = seed;
    const auto res = chan::runChannel(cfg);
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(6);
    os << platform << "/ts" << ts << "/s" << seed << " ber=" << res.ber
       << " rate=" << res.rateKbps << " cycles=" << res.simulatedCycles;
    return os.str();
}

TEST(SweepRunner, BytesIdenticalAcrossThreadCounts)
{
    // A real (platform x rate x seed) work-list, assembled in index
    // order: 1 worker and 4 workers must serialize identically.
    struct Cell
    {
        std::string platform;
        unsigned ts;
        std::uint64_t seed;
    };
    std::vector<Cell> cells;
    for (const char *platform : {"xeonE5-2650", "cortexA53-wt"})
        for (unsigned ts : {2000u, 6000u})
            for (std::uint64_t seed = 1; seed <= 2; ++seed)
                cells.push_back({platform, ts, seed});

    const auto render = [&](unsigned threads) {
        SweepRunner pool(threads);
        const auto lines = pool.map<std::string>(
            cells.size(), [&](std::size_t i) {
                const Cell &c = cells[i];
                return cellLine(c.platform, c.ts, c.seed);
            });
        std::string out;
        for (const auto &line : lines) {
            out += line;
            out += '\n';
        }
        return out;
    };

    const std::string serial = render(1);
    const std::string parallel = render(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

} // namespace
} // namespace wb::sim
