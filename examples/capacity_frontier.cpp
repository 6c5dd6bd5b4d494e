/**
 * @file
 * Capacity frontier of the WB channels under OS noise: raw rate x
 * error rate x effective goodput, swept over co-runner mixes and
 * migration periods on the multi-core platform presets, with the
 * resilient transport (chan/transport.hh) on and off.
 *
 *   $ ./example_capacity_frontier [seeds] [-j N]
 *
 * Each row contrasts the legacy single-shot protocol against the
 * transport session on the identical platform/noise/seed pool:
 *
 *  - "raw kbps"   — the channel's configured symbol rate;
 *  - "1shot BER"  — edit-distance BER of the single-shot run (this is
 *    the number that collapses to ~79% once a co-runner time-shares a
 *    party core, docs/SCHEDULER.md);
 *  - "1shot good" — its rate x (1 - BER) goodput, which overstates a
 *    collapsed channel (random bits still "count");
 *  - "xport good" — the transport's honest goodput: CRC-validated
 *    payload bits over total simulated time, retransmissions and
 *    rate fallback included;
 *  - "dlvr"       — frames delivered / total, "rung" the final rate
 *    ladder level, "sync" the resync + sync-loss events absorbed.
 *
 * A cell whose every run reports the link closed (its calibration
 * shows no signal gap, Calibration::closedFor) prints "closed" instead
 * of a chance-level BER and a rate rung: its transport sessions stop
 * after the burst that detected it.
 *
 * CI uploads this output as the capacity-frontier artifact; the
 * reference run is summarized in docs/TRANSPORT.md.
 *
 * `-j N` fans every (cell, seed) run over a sim::SweepRunner pool
 * (chan/sweep.hh); cells are assembled in fixed (platform, mix,
 * migration) order, so the output is byte-identical at any -j.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "chan/cross_core.hh"
#include "chan/sweep.hh"
#include "chan/transport.hh"
#include "common/table.hh"
#include "sim/platform.hh"
#include "sim/scheduler.hh"

using namespace wb;

namespace
{

chan::CrossCoreChannelConfig
baseConfig(const sim::Platform &platform,
           const std::vector<sim::CoRunnerKind> &mix,
           Cycles migrationPeriod)
{
    chan::CrossCoreChannelConfig cfg;
    cfg.usePlatform(platform.name);
    cfg.protocol.frames = 2;
    cfg.calibration.measurements = 40;
    cfg.scheduler = platform.noisePreset;
    cfg.scheduler.coRunners = mix;
    cfg.scheduler.migrationPeriod = migrationPeriod;

    cfg.transport.layout.seqBits = 4;
    cfg.transport.layout.payloadBits = 24;
    cfg.transport.layout.crcWidth = 16;
    cfg.transport.layout.interleaveDepth = 2;
    cfg.transport.messageFrames = 4;
    cfg.transport.windowFrames = 4;
    cfg.transport.maxRetries = 3;
    cfg.transport.maxRounds = 6;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const chan::SweepArgs args = chan::parseSweepArgs(argc, argv, "seeds", 3);
    sim::SweepRunner pool(args.jobs);
    const std::vector<std::uint64_t> seeds = chan::seedRange(args.count);

    using sim::SchedulerConfig;
    using Mix = std::vector<sim::CoRunnerKind>;

    const std::vector<std::pair<const char *, Mix>> mixes = {
        {"none", {}},
        {"2 mixed (free cores)", SchedulerConfig::mixOf(2)},
        {"3 mixed (party core shared)", SchedulerConfig::mixOf(3)},
        {"4 mixed (both parties shared)", SchedulerConfig::mixOf(4)},
    };
    const std::vector<std::pair<const char *, Cycles>> migrations = {
        {"pinned", 0},
        {"400k", 400'000},
    };

    // Every (platform, mix, migration) cell runs each seed twice: the
    // single-shot protocol, then the transport session.
    std::vector<const sim::Platform *> frontier;
    std::vector<chan::SweepCell<chan::CrossCoreChannelConfig>> cells;
    // The frontier is a cross-core story; sliced-LLC presets need
    // runtime eviction-set discovery first and are swept by
    // example_tenant_scaling instead.
    for (const sim::Platform *p : sim::allPlatforms()) {
        if (p->cores < 2 || p->params.llcSlices > 1)
            continue;
        frontier.push_back(p);
        for (const auto &[label, mix] : mixes)
            for (const auto &[migLabel, period] : migrations)
                cells.push_back({baseConfig(*p, mix, period), seeds});
    }
    const auto shots =
        chan::fanOutSeeds(pool, cells, chan::runCrossCoreChannel);
    for (auto &cell : cells)
        cell.cfg.transport.enabled = true;
    const auto xports = chan::fanOutSeeds(
        pool, cells, [](const chan::CrossCoreChannelConfig &cfg) {
            return chan::runCrossCoreTransport(cfg);
        });

    using chan::TransportResult;
    for (std::size_t pi = 0; pi < frontier.size(); ++pi) {
        Table t("Capacity frontier on " + frontier[pi]->name +
                ": single-shot protocol vs resilient transport "
                "(rate x error x goodput per co-runner mix and "
                "migration period)");
        t.header({"co-runners", "migr", "raw kbps", "1shot BER",
                  "1shot good", "xport good", "dlvr", "rung", "sync"});
        std::size_t cell = pi * mixes.size() * migrations.size();
        std::vector<chan::ChannelPool> singles;
        bool anyXportClosed = false;
        for (const auto &[label, mix] : mixes) {
            for (const auto &[migLabel, period] : migrations) {
                const auto &shot = shots[cell];
                const auto &xport = xports[cell++];
                singles.push_back(chan::poolSeeds(shot));
                const bool xportClosed =
                    std::all_of(xport.begin(), xport.end(),
                                [](const auto &x) { return x.closed; });
                anyXportClosed |= xportClosed;
                const auto xportMean = [&](const auto &field) {
                    return chan::meanOf(xport, field);
                };
                const double delivered =
                    xportMean([](const TransportResult &x) {
                        return x.framesTotal ? double(x.framesDelivered) /
                                                   double(x.framesTotal)
                                             : 0.0;
                    });
                const double sync = xportMean([](const TransportResult &x) {
                    return x.syncLosses + x.resyncs;
                });
                const double rung =
                    xportMean(&TransportResult::finalRateLevel);
                t.row({label, migLabel,
                       Table::num(
                           chan::meanOf(shot, &chan::ChannelResult::rateKbps),
                           1),
                       chan::berText(singles.back(), 1),
                       chan::goodputText(singles.back(), 1),
                       Table::num(xportMean(&TransportResult::goodputKbps), 1),
                       Table::pct(delivered, 0),
                       xportClosed ? "closed" : Table::num(rung, 1),
                       Table::num(sync, 1)});
            }
        }
        t.note("\"1shot good\" counts random bits at high BER; "
               "\"xport good\" only counts CRC-validated payload "
               "bits (retransmissions and rate fallback included).");
        chan::noteOutcomes(t, singles);
        if (anyXportClosed) {
            t.note("rung \"closed\": every transport session stopped "
                   "after the burst that found its link closed, instead "
                   "of walking the rate ladder.");
        }
        t.note("seeds averaged per cell: " + std::to_string(args.count));
        t.print();
        std::cout << "\n";
    }
    return 0;
}
