/**
 * @file
 * Platform sweep: run one WB-channel frame on every platform
 * registered in the sim::platform registry and compare the channel
 * quality side by side.
 *
 *   $ ./example_platform_sweep [frames]
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
 * `-j N` fans the per-platform runs over a sim::SweepRunner pool;
 * rows are emitted in registry order regardless of completion order,
 * so the output is byte-identical at any -j.
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "common/table.hh"
#include "sim/platform.hh"
#include "sim/sweep_runner.hh"

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

/** BER cell: "closed" when the run's calibration saw no signal. */
std::string
berCell(const chan::ChannelResult &res)
{
    return res.closed ? "closed" : Table::pct(res.ber, 2);
}

/** Goodput cell: "-" for a closed channel, whose BER is not measured. */
std::string
goodputCell(const chan::ChannelResult &res)
{
    return res.closed ? "-" : Table::num(res.goodputKbps, 0);
}

/**
 * Add @p rows to @p table, and the note explaining "closed" when a
 * row printed it. Both tables put the BER cell third.
 */
void
addRows(Table &table, std::vector<std::vector<std::string>> rows)
{
    bool anyClosed = false;
    for (auto &row : rows) {
        anyClosed |= row[2] == "closed";
        table.row(std::move(row));
    }
    if (anyClosed) {
        table.note("\"closed\": the run's calibration showed no signal "
                   "gap between adjacent encoding levels, so its BER "
                   "would be chance, not a measurement.");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned frames = 1;
    unsigned jobs = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-j") == 0 && i + 1 < argc)
            jobs = unsigned(std::stoul(argv[++i]));
        else
            frames = static_cast<unsigned>(std::stoul(argv[i]));
    }
    sim::SweepRunner pool(jobs);

    Table table("WB covert channel, one configuration on every "
                "registered platform");
    table.header({"platform", "description", "BER", "goodput kbps",
                  "signal gap", "dirty WBs"});

    const auto allRegistered = sim::allPlatforms();
    std::vector<const sim::Platform *> platforms;
    for (const sim::Platform *platform : allRegistered) {
        // Sliced-LLC presets have no single-core instantiation (the
        // Hierarchy is fatal on llcSlices > 1); they appear in the
        // cross-core table below and in the tenant-scaling sweep.
        if (platform->params.llcSlices <= 1)
            platforms.push_back(platform);
    }
    const auto rows = pool.map<std::vector<std::string>>(
        platforms.size(), [&](std::size_t i) {
            const sim::Platform *platform = platforms[i];
            chan::ChannelConfig cfg;
            cfg.usePlatform(platform->name);
            cfg.protocol.ts = cfg.protocol.tr = 5500;
            cfg.protocol.encoding = chan::Encoding::binary(
                std::min(4u, cfg.platform.l1.ways));
            cfg.protocol.frames = frames;
            cfg.calibration.measurements = 80;
            cfg.seed = 7;

            const chan::ChannelResult res = chan::runChannel(cfg);
            const double signalGap =
                signalGapOf(res, cfg.protocol.encoding.maxLevel());
            return std::vector<std::string>{
                platform->name,
                platform->description.substr(0, 40),
                berCell(res),
                goodputCell(res),
                Table::num(signalGap, 1),
                std::to_string(res.receiverCounters.l1DirtyWritebacks +
                               res.senderCounters.l1DirtyWritebacks)};
        });
    addRows(table, rows);

    table.note("signal gap: calibrated median latency difference "
               "between d=0 and the top encoding level (cycles); ~0 "
               "means the platform removed the physical signal.");
    table.note("frames per platform: " + std::to_string(frames));
    table.print();

    // --- Cross-core sweep over the multi-core presets ---
    Table xc("Cross-core WB channel (sender core 0, receiver core 1, "
             "shared LLC)");
    xc.header({"platform", "cores", "BER", "goodput kbps", "signal gap",
               "LLC dirty evicts", "median lat d=0"});

    std::vector<const sim::Platform *> multiCore;
    for (const sim::Platform *platform : allRegistered)
        if (platform->cores >= 2)
            multiCore.push_back(platform);
    const auto xcRows = pool.map<std::vector<std::string>>(
        multiCore.size(), [&](std::size_t i) {
            const sim::Platform *platform = multiCore[i];
            chan::CrossCoreChannelConfig cfg;
            cfg.usePlatform(platform->name);
            cfg.protocol.frames = std::max(1u, frames);
            cfg.seed = 7;

            const chan::ChannelResult res =
                chan::runCrossCoreChannel(cfg);
            const double signalGap =
                signalGapOf(res, cfg.protocol.encoding.maxLevel());
            return std::vector<std::string>{
                platform->name,
                std::to_string(platform->cores),
                berCell(res),
                goodputCell(res),
                Table::num(signalGap, 1),
                std::to_string(res.receiverCounters.llcDirtyEvictions),
                Table::num(res.calibrationMedians.empty()
                               ? 0.0
                               : res.calibrationMedians[0],
                           0)};
        });
    addRows(xc, xcRows);

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
