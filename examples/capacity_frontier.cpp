/**
 * @file
 * Capacity frontier of the WB channels under OS noise: raw rate x
 * error rate x effective goodput, swept over co-runner mixes and
 * migration periods on the multi-core platform presets, with the
 * resilient transport (chan/transport.hh) on and off.
 *
 *   $ ./example_capacity_frontier [seeds]
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
 * `-j N` fans the frontier cells over a sim::SweepRunner pool; cells
 * are assembled in fixed (platform, mix, migration) order, so the
 * output is byte-identical at any -j.
 */

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "chan/cross_core.hh"
#include "chan/transport.hh"
#include "common/table.hh"
#include "sim/platform.hh"
#include "sim/scheduler.hh"
#include "sim/sweep_runner.hh"

using namespace wb;

namespace
{

unsigned gSeeds = 3;

/** One cell of the frontier, averaged over the seed pool. */
struct FrontierPoint
{
    double rawKbps = 0.0;
    double singleShotBer = 0.0;
    double singleShotGoodput = 0.0;
    double transportGoodput = 0.0;
    double deliveredFrac = 0.0;
    double finalRung = 0.0;
    double syncEvents = 0.0;
    unsigned closedShots = 0;      //!< single shots reporting closed
    unsigned closedTransports = 0; //!< sessions stopped as closed
};

chan::CrossCoreChannelConfig
baseConfig(const std::string &platformName,
           const std::vector<sim::CoRunnerKind> &mix,
           Cycles migrationPeriod)
{
    chan::CrossCoreChannelConfig cfg;
    cfg.usePlatform(platformName);
    cfg.protocol.frames = 2;
    cfg.calibration.measurements = 40;
    cfg.scheduler = sim::platform(platformName).noisePreset;
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

FrontierPoint
measure(const std::string &platformName,
        const std::vector<sim::CoRunnerKind> &mix, Cycles migrationPeriod)
{
    FrontierPoint pt;
    for (unsigned s = 0; s < gSeeds; ++s) {
        chan::CrossCoreChannelConfig cfg =
            baseConfig(platformName, mix, migrationPeriod);
        cfg.seed = 1 + s;

        const chan::ChannelResult single = chan::runCrossCoreChannel(cfg);
        pt.rawKbps += single.rateKbps;
        pt.singleShotBer += single.ber;
        pt.singleShotGoodput += single.goodputKbps;
        pt.closedShots += single.closed;

        cfg.transport.enabled = true;
        const chan::TransportResult xport =
            chan::runCrossCoreTransport(cfg);
        pt.transportGoodput += xport.goodputKbps;
        pt.deliveredFrac += xport.framesTotal
                                ? double(xport.framesDelivered) /
                                      double(xport.framesTotal)
                                : 0.0;
        pt.finalRung += xport.finalRateLevel;
        pt.syncEvents += xport.syncLosses + xport.resyncs;
        pt.closedTransports += xport.closed;
    }
    pt.rawKbps /= gSeeds;
    pt.singleShotBer /= gSeeds;
    pt.singleShotGoodput /= gSeeds;
    pt.transportGoodput /= gSeeds;
    pt.deliveredFrac /= gSeeds;
    pt.finalRung /= gSeeds;
    pt.syncEvents /= gSeeds;
    return pt;
}

std::string
fixed(double v, int prec)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(prec);
    os << v;
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-j") == 0 && i + 1 < argc)
            jobs = unsigned(std::stoul(argv[++i]));
        else
            gSeeds = std::max(1u, unsigned(std::stoul(argv[i])));
    }
    sim::SweepRunner pool(jobs);

    using sim::SchedulerConfig;

    struct MixSpec
    {
        const char *label;
        std::vector<sim::CoRunnerKind> mix;
    };
    const std::vector<MixSpec> mixes = {
        {"none", {}},
        {"2 mixed (free cores)", SchedulerConfig::mixOf(2)},
        {"3 mixed (party core shared)", SchedulerConfig::mixOf(3)},
        {"4 mixed (both parties shared)", SchedulerConfig::mixOf(4)},
    };
    const std::vector<std::pair<const char *, Cycles>> migrations = {
        {"pinned", 0},
        {"400k", 400'000},
    };

    // Flat (platform x mix x migration) work-list: every cell is an
    // independent seed-pool average, fanned over the pool and read
    // back by grid index.
    std::vector<const sim::Platform *> frontier;
    // The frontier is a cross-core story; sliced-LLC presets need
    // runtime eviction-set discovery first and are swept by
    // example_tenant_scaling instead.
    for (const sim::Platform *p : sim::allPlatforms())
        if (p->cores >= 2 && p->params.llcSlices <= 1)
            frontier.push_back(p);
    const std::size_t cellsPerPlatform = mixes.size() * migrations.size();
    const auto points = pool.map<FrontierPoint>(
        frontier.size() * cellsPerPlatform, [&](std::size_t i) {
            const sim::Platform *p = frontier[i / cellsPerPlatform];
            const std::size_t cell = i % cellsPerPlatform;
            const MixSpec &m = mixes[cell / migrations.size()];
            const Cycles period =
                migrations[cell % migrations.size()].second;
            return measure(p->name, m.mix, period);
        });

    for (std::size_t pi = 0; pi < frontier.size(); ++pi) {
        const sim::Platform *p = frontier[pi];
        Table t("Capacity frontier on " + p->name +
                ": single-shot protocol vs resilient transport "
                "(rate x error x goodput per co-runner mix and "
                "migration period)");
        t.header({"co-runners", "migr", "raw kbps", "1shot BER",
                  "1shot good", "xport good", "dlvr", "rung", "sync"});
        std::size_t cell = pi * cellsPerPlatform;
        bool anyClosed = false;
        for (const MixSpec &m : mixes) {
            for (const auto &[migLabel, period] : migrations) {
                (void)period;
                const FrontierPoint &pt = points[cell++];
                const bool shotsClosed = pt.closedShots == gSeeds;
                anyClosed |= shotsClosed || pt.closedTransports == gSeeds;
                t.row({m.label, migLabel, fixed(pt.rawKbps, 1),
                       shotsClosed ? "closed"
                                   : Table::pct(pt.singleShotBer, 1),
                       shotsClosed ? "-" : fixed(pt.singleShotGoodput, 1),
                       fixed(pt.transportGoodput, 1),
                       Table::pct(pt.deliveredFrac, 0),
                       pt.closedTransports == gSeeds
                           ? "closed"
                           : fixed(pt.finalRung, 1),
                       fixed(pt.syncEvents, 1)});
            }
        }
        t.note("\"1shot good\" counts random bits at high BER; "
               "\"xport good\" only counts CRC-validated payload "
               "bits (retransmissions and rate fallback included).");
        if (anyClosed) {
            t.note("\"closed\": every run's calibration showed no "
                   "signal gap; the transport stopped after its first "
                   "burst instead of walking the rate ladder.");
        }
        t.note("seeds averaged per cell: " + std::to_string(gSeeds));
        t.print();
        std::cout << "\n";
    }
    return 0;
}
