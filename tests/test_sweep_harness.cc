/**
 * @file
 * The sweep harness (chan/sweep.hh) the CI sweep examples run on: the
 * shared command line, the flat (cell, seed) fan-out, the pooling rule
 * over a cell's seeds and the rendering of a pooled cell.
 *
 * The pool and the renderers are checked on constructed
 * ChannelResults, so every outcome mix (all measured, some unaligned,
 * some closed, all closed) is pinned without running a channel. The
 * fan-out is checked for the byte-identity the sweeps promise: the
 * same per-cell vectors at 1 and 4 workers.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chan/channel.hh"
#include "chan/sweep.hh"

namespace wb::chan
{
namespace
{

ChannelResult
measured(double ber, double goodputKbps = 0.0)
{
    ChannelResult res;
    res.aligned = true;
    res.framesScored = 2;
    res.ber = ber;
    res.goodputKbps = goodputKbps;
    return res;
}

ChannelResult
unaligned(double goodputKbps = 0.0)
{
    ChannelResult res; // ber stays at the 1.0 sentinel
    res.framesScored = 0;
    res.goodputKbps = goodputKbps;
    return res;
}

ChannelResult
closedRun(bool scoredFrames)
{
    ChannelResult res = scoredFrames ? measured(0.5, 50.0) : unaligned();
    res.closed = true;
    return res;
}

TEST(SweepPool, ClassifiesEachSeedByOutcome)
{
    const ChannelPool m = poolSeeds({measured(0.25)});
    EXPECT_EQ(m.measured, 1u);
    EXPECT_EQ(m.seeds(), 1u);

    const ChannelPool u = poolSeeds({unaligned()});
    EXPECT_EQ(u.unaligned, 1u);
    EXPECT_EQ(u.seeds(), 1u);

    // A preamble found but no frame scored is still unaligned (seen on
    // xeonE5-2650-2core with one co-runner).
    ChannelResult alignedNoFrame = unaligned();
    alignedNoFrame.aligned = true;
    EXPECT_EQ(poolSeeds({alignedNoFrame}).unaligned, 1u);

    // Closed wins whether or not the run scored frames.
    EXPECT_EQ(poolSeeds({closedRun(true)}).closed, 1u);
    EXPECT_EQ(poolSeeds({closedRun(false)}).closed, 1u);
}

TEST(SweepPool, BerPoolsMeasuredSeedsOnly)
{
    const ChannelPool pool = poolSeeds({measured(0.25, 300.0),
                                        measured(0.5, 200.0),
                                        unaligned(10.0), closedRun(true)});
    EXPECT_EQ(pool.measured, 2u);
    EXPECT_EQ(pool.unaligned, 1u);
    EXPECT_EQ(pool.closed, 1u);
    EXPECT_EQ(pool.seeds(), 4u);
    EXPECT_DOUBLE_EQ(pool.ber, 0.375);
    // Goodput: every seed that was not closed.
    EXPECT_DOUBLE_EQ(pool.goodputKbps, 170.0);
    EXPECT_FALSE(pool.allClosed());
}

TEST(SweepPool, AllMeasuredMeanIsSumThenDivide)
{
    const std::vector<ChannelResult> runs = {measured(0.1), measured(0.2),
                                             measured(0.4)};
    EXPECT_EQ(poolSeeds(runs).ber, (0.1 + 0.2 + 0.4) / 3.0);
    EXPECT_EQ(poolSeeds(runs).ber, meanOf(runs, &ChannelResult::ber));
}

TEST(SweepPool, KeepsMaxRepetitionAndAndsDiscovery)
{
    ChannelResult a = measured(0.0);
    a.repetition = 12;
    ChannelResult b = closedRun(false);
    b.repetition = 256;
    b.evictionDiscoveryVerified = false;
    ChannelResult c = measured(0.0);
    c.repetition = 40;

    const ChannelPool pool = poolSeeds({a, b, c});
    EXPECT_EQ(pool.repetition, 256u);
    EXPECT_FALSE(pool.discoveryVerified);
    EXPECT_TRUE(poolSeeds({a, c}).discoveryVerified);
    EXPECT_EQ(poolSeeds({a, c}).repetition, 40u);
}

TEST(SweepRender, AllMeasuredPrintsThePlainBer)
{
    const ChannelPool pool = poolSeeds({measured(0.25, 300.0),
                                        measured(0.0, 400.0)});
    EXPECT_EQ(berText(pool, 2), "12.50%");
    EXPECT_EQ(goodputText(pool, 1), "350.0");
}

TEST(SweepRender, AllClosedPrintsClosed)
{
    const ChannelPool pool =
        poolSeeds({closedRun(true), closedRun(false), closedRun(true)});
    EXPECT_TRUE(pool.allClosed());
    EXPECT_EQ(berText(pool, 2), "closed");
    EXPECT_EQ(goodputText(pool, 0), "-");
}

TEST(SweepRender, MixedCellPrintsMeasuredOverSeeds)
{
    // 37.5% measured on one seed; the other two never aligned. The
    // old all-seed mean printed 79.17%.
    const ChannelPool pool =
        poolSeeds({measured(0.375), unaligned(), unaligned()});
    EXPECT_EQ(berText(pool, 2), "37.50% (1/3)");
    EXPECT_EQ(goodputText(pool, 1), "0.0");

    const ChannelPool withClosed =
        poolSeeds({closedRun(true), measured(0.0833), measured(0.0833)});
    EXPECT_EQ(berText(withClosed, 2), "8.33% (2/3)");
}

TEST(SweepRender, NoMeasuredSeedPrintsNoFrame)
{
    EXPECT_EQ(berText(poolSeeds({unaligned(), unaligned()}), 2),
              "no frame");
    EXPECT_EQ(berText(poolSeeds({unaligned(), closedRun(false)}), 2),
              "no frame");
}

TEST(SweepRender, LegendNamesOnlyTheRenderingsShown)
{
    const auto notesOf = [](const std::vector<ChannelPool> &pools) {
        Table table("t");
        noteOutcomes(table, pools);
        std::ostringstream os;
        table.print(os);
        return os.str();
    };
    const ChannelPool clean = poolSeeds({measured(0.0)});
    EXPECT_EQ(notesOf({clean}), "t\n");

    const std::string all =
        notesOf({clean, poolSeeds({closedRun(true)}),
                 poolSeeds({unaligned()}),
                 poolSeeds({measured(0.0), unaligned()})});
    EXPECT_NE(all.find("\"closed\""), std::string::npos);
    EXPECT_NE(all.find("\"no frame\""), std::string::npos);
    EXPECT_NE(all.find("\"(m/n)\""), std::string::npos);

    // A cell that ran no seed (a denied primitive) adds nothing.
    EXPECT_EQ(notesOf({clean, poolSeeds({})}), "t\n");
}

TEST(SweepRender, GridTableLaysRowsByColumns)
{
    const Table table = gridTable(
        "grid", "r\\c", {"a", "b"}, {"x", "y", "z"},
        [](std::size_t r, std::size_t c) {
            return std::to_string(r) + std::to_string(c);
        });
    std::ostringstream os;
    table.print(os);
    EXPECT_EQ(os.str(), "grid\n"
                        "  r\\c  x   y   z   \n"
                        "  -----------------\n"
                        "  a    00  01  02  \n"
                        "  b    10  11  12  \n");
}

/** A synthetic sweep config: the run is a pure function of it. */
struct FakeConfig
{
    unsigned cell = 0;
    std::uint64_t seed = 0;
};

TEST(SweepFanOut, ReturnsPerCellVectorsInSeedOrder)
{
    const std::vector<SweepCell<FakeConfig>> cells = {
        {{0}, {3, 1, 2}}, {{1}, {}}, {{2}, seedRange(4)}};
    sim::SweepRunner pool(4);
    const auto out = fanOutSeeds(pool, cells, [](const FakeConfig &cfg) {
        return cfg.cell * 100 + cfg.seed;
    });
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], (std::vector<std::uint64_t>{3, 1, 2}));
    EXPECT_TRUE(out[1].empty());
    EXPECT_EQ(out[2], (std::vector<std::uint64_t>{201, 202, 203, 204}));
}

TEST(SweepFanOut, SameChannelResultsAtOneAndFourThreads)
{
    std::vector<SweepCell<ChannelConfig>> cells;
    for (const char *platform : {"xeonE5-2650", "cortexA53-wt"}) {
        ChannelConfig cfg;
        cfg.usePlatform(platform);
        cfg.protocol.frames = 1;
        cfg.calibration.measurements = 40;
        cells.push_back({cfg, seedRange(3)});
    }
    sim::SweepRunner serial(1), parallel(4);
    const auto a = fanOutSeeds(serial, cells, runChannel);
    const auto b = fanOutSeeds(parallel, cells, runChannel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
        ASSERT_EQ(a[c].size(), 3u);
        ASSERT_EQ(b[c].size(), 3u);
        for (std::size_t s = 0; s < a[c].size(); ++s) {
            EXPECT_EQ(a[c][s].ber, b[c][s].ber);
            EXPECT_EQ(a[c][s].closed, b[c][s].closed);
            EXPECT_EQ(a[c][s].decodedBits, b[c][s].decodedBits);
            EXPECT_EQ(a[c][s].simulatedCycles, b[c][s].simulatedCycles);
        }
        EXPECT_EQ(berText(poolSeeds(a[c]), 2), berText(poolSeeds(b[c]), 2));
    }
}

TEST(SweepFanOut, SeedRangeIsOneToN)
{
    EXPECT_EQ(seedRange(3), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_TRUE(seedRange(0).empty());
}

SweepArgs
parse(std::vector<const char *> argv, unsigned defaultCount = 3)
{
    argv.insert(argv.begin(), "sweep");
    return parseSweepArgs(int(argv.size()), argv.data(), "seeds",
                          defaultCount);
}

TEST(SweepArgsParse, ReadsCountAndJobsInAnyOrder)
{
    EXPECT_EQ(parse({}).count, 3u);
    EXPECT_EQ(parse({}).jobs, 1u);
    const SweepArgs a = parse({"5", "-j", "4"});
    EXPECT_EQ(a.count, 5u);
    EXPECT_EQ(a.jobs, 4u);
    const SweepArgs b = parse({"-j", "2", "7"});
    EXPECT_EQ(b.count, 7u);
    EXPECT_EQ(b.jobs, 2u);
    EXPECT_EQ(parse({"-j", "0"}).jobs, 0u); // hardware concurrency
}

TEST(SweepArgsParse, BadArgumentsFailNamingTheArgument)
{
    EXPECT_EXIT((void)parse({"abc"}), ::testing::ExitedWithCode(1),
                "seeds: expected a non-negative integer, got 'abc'");
    EXPECT_EXIT((void)parse({"12abc"}), ::testing::ExitedWithCode(1),
                "seeds: .*'12abc'");
    EXPECT_EXIT((void)parse({"-j"}), ::testing::ExitedWithCode(1),
                "-j: missing worker count");
    EXPECT_EXIT((void)parse({"3", "-j"}), ::testing::ExitedWithCode(1),
                "-j: missing worker count");
    EXPECT_EXIT((void)parse({"-j", "x"}), ::testing::ExitedWithCode(1),
                "-j: expected a non-negative integer, got 'x'");
    EXPECT_EXIT((void)parse({"-j", "-1"}), ::testing::ExitedWithCode(1),
                "-j: .*'-1'");
    EXPECT_EXIT((void)parse({"0"}), ::testing::ExitedWithCode(1),
                "seeds: must be at least 1, got '0'");
}

} // namespace
} // namespace wb::chan
