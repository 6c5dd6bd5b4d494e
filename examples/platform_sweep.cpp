/**
 * @file
 * Platform sweep: run one WB-channel frame on every platform
 * registered in the sim::platform registry and compare the channel
 * quality side by side.
 *
 *   $ ./example_platform_sweep [frames] [-j N]
 *
 * The same protocol (rate, encoding, seed) runs unchanged on each
 * preset; only the machine differs. The paper's Xeon carries the
 * channel cleanly; the write-through ARM-style core has no dirty L1
 * lines at all; the DAWG-defended variant removes the cross-thread
 * replacement signal; the inclusive-LLC desktop part still leaks. The
 * calibrated signal gap (median latency difference between d = 0 and
 * the top encoding level) separates "physically removed" from "merely
 * degraded": a run whose calibration shows no gap between adjacent
 * levels (ChannelResult::closed) prints "closed" instead of a BER,
 * which would be chance rather than a measurement.
 *
 * A second table runs the *cross-core* WB channel (sender on core 0,
 * receiver on core 1, shared LLC) on every multi-core preset: the
 * inclusive desktop part leaks through back-invalidation drains, the
 * non-inclusive Xeon does not. CI uploads this output as the
 * cross-core sweep artifact.
 *
 * `-j N` fans the per-platform runs over a sim::SweepRunner pool
 * (chan/sweep.hh); rows are emitted in registry order regardless of
 * completion order, so the output is byte-identical at any -j.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "chan/sweep.hh"
#include "common/table.hh"
#include "sim/platform.hh"

using namespace wb;

namespace
{

/** Calibrated signal gap: top-level median minus d=0 median. */
double
signalGapOf(const chan::ChannelResult &res, unsigned top)
{
    if (top >= res.calibrationMedians.size())
        return 0.0;
    return res.calibrationMedians[top] - res.calibrationMedians[0];
}

} // namespace

int
main(int argc, char **argv)
{
    const chan::SweepArgs args = chan::parseSweepArgs(argc, argv, "frames", 1);
    sim::SweepRunner pool(args.jobs);

    const auto allRegistered = sim::allPlatforms();
    std::vector<const sim::Platform *> platforms;
    std::vector<chan::SweepCell<chan::ChannelConfig>> cells;
    for (const sim::Platform *platform : allRegistered) {
        // Sliced-LLC presets have no single-core instantiation (the
        // Hierarchy is fatal on llcSlices > 1); they appear in the
        // cross-core table below and in the tenant-scaling sweep.
        if (platform->params.llcSlices > 1)
            continue;
        chan::ChannelConfig cfg;
        cfg.usePlatform(platform->name);
        cfg.protocol.ts = cfg.protocol.tr = 5500;
        cfg.protocol.encoding =
            chan::Encoding::binary(std::min(4u, cfg.platform.l1.ways));
        cfg.protocol.frames = args.count;
        cfg.calibration.measurements = 80;
        platforms.push_back(platform);
        cells.push_back({cfg, {7}});
    }
    const auto runs = chan::fanOutSeeds(pool, cells, chan::runChannel);
    const auto pools = chan::poolCells(runs);

    Table table("WB covert channel, one configuration on every "
                "registered platform");
    table.header({"platform", "description", "BER", "goodput kbps",
                  "signal gap", "dirty WBs"});
    for (std::size_t i = 0; i < platforms.size(); ++i) {
        const chan::ChannelResult &res = runs[i].front();
        const unsigned top = cells[i].cfg.protocol.encoding.maxLevel();
        table.row({platforms[i]->name,
                   platforms[i]->description.substr(0, 40),
                   chan::berText(pools[i], 2), chan::goodputText(pools[i], 0),
                   Table::num(signalGapOf(res, top), 1),
                   std::to_string(res.receiverCounters.l1DirtyWritebacks +
                                  res.senderCounters.l1DirtyWritebacks)});
    }
    chan::noteOutcomes(table, pools);
    table.note("signal gap: calibrated median latency difference "
               "between d=0 and the top encoding level (cycles); ~0 "
               "means the platform removed the physical signal.");
    table.note("frames per platform: " + std::to_string(args.count));
    table.print();

    // --- Cross-core sweep over the multi-core presets ---
    std::vector<const sim::Platform *> multiCore;
    std::vector<chan::SweepCell<chan::CrossCoreChannelConfig>> xcCells;
    for (const sim::Platform *platform : allRegistered) {
        if (platform->cores < 2)
            continue;
        chan::CrossCoreChannelConfig cfg;
        cfg.usePlatform(platform->name);
        cfg.protocol.frames = args.count;
        multiCore.push_back(platform);
        xcCells.push_back({cfg, {7}});
    }
    const auto xcRuns =
        chan::fanOutSeeds(pool, xcCells, chan::runCrossCoreChannel);
    const auto xcPools = chan::poolCells(xcRuns);

    Table xc("Cross-core WB channel (sender core 0, receiver core 1, "
             "shared LLC)");
    xc.header({"platform", "cores", "BER", "goodput kbps", "signal gap",
               "LLC dirty evicts", "median lat d=0"});
    for (std::size_t i = 0; i < multiCore.size(); ++i) {
        const chan::ChannelResult &res = xcRuns[i].front();
        const unsigned top = xcCells[i].cfg.protocol.encoding.maxLevel();
        xc.row({multiCore[i]->name, std::to_string(multiCore[i]->cores),
                chan::berText(xcPools[i], 2), chan::goodputText(xcPools[i], 0),
                Table::num(signalGapOf(res, top), 1),
                std::to_string(res.receiverCounters.llcDirtyEvictions),
                Table::num(res.calibrationMedians.empty()
                               ? 0.0
                               : res.calibrationMedians[0],
                           0)});
    }
    chan::noteOutcomes(xc, xcPools);
    xc.note("LLC dirty evicts: receiver-charged LLC evictions that "
            "drained dirty data (the back-invalidation channel); 0 on "
            "the non-inclusive Xeon means the channel is closed.");
    xc.note("dc-sliced presets read closed by design: the hand-built "
            "line pools here assume a monolithic LLC, and the slice "
            "hash scatters them, so the receiver's probes drain no "
            "dirty line — runtime eviction-set discovery "
            "(example_tenant_scaling) is what recovers the channel "
            "there.");
    xc.print();
    return 0;
}
