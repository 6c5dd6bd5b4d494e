/**
 * @file
 * Many-tenant scaling sweep on the sliced-LLC datacenter presets:
 * pair count x discovery success x per-pair BER x aggregate capacity,
 * produced by the chan/tenant.hh harness.
 *
 *   $ ./example_tenant_scaling [maxPairs] [-j N]
 *
 * Every grid point stands up `pairs` concurrent sender/receiver
 * tenant pairs on one simulated socket. Each receiver discovers its
 * minimal eviction set by timing alone (chan::EvictionSetFinder — no
 * slice-hash knowledge), each sender finds congruent lines through
 * the cooperative conflict probe, and all pairs then share the socket
 * for a slotted binary WB channel. Columns:
 *
 *  - "disc"      — pairs whose discovery fully succeeded (receiver
 *    set self-verified minimal, sender found all d lines);
 *  - "collide"   — pairs sharing a (slice, slice-set) with another
 *    pair (ground truth); their BER column shows the cross-pair
 *    eviction interference, the clean column the quiet pairs;
 *  - "bits/slot" — aggregate BSC capacity sum(1 - H2(ber));
 *  - "kbps"      — that capacity at the effective slot period: the
 *    busiest core's per-slot work stretches the slot once tenants
 *    time-sharing a core saturate it ("util" > 1);
 *  - "probe win" — private-cache probes a global-scan coherence
 *    implementation would have issued for the run's events, divided
 *    by what the sharer directory actually probed.
 *
 * CI uploads this output as the tenant-scaling artifact; docs/TENANTS.md
 * records a reference run.
 *
 * `-j N` fans the grid points over a sim::SweepRunner pool
 * (chan/sweep.hh); points are assembled in fixed order, so output is
 * byte-identical at any -j.
 */

#include <string>
#include <vector>

#include "chan/sweep.hh"
#include "chan/tenant.hh"
#include "common/table.hh"

using namespace wb;

int
main(int argc, char **argv)
{
    const chan::SweepArgs args =
        chan::parseSweepArgs(argc, argv, "maxPairs", 1024);
    sim::SweepRunner pool(args.jobs);

    const char *platformName = "dc-sliced-64core";
    std::vector<unsigned> grid;
    for (unsigned p = 16; p <= args.count; p *= 4)
        grid.push_back(p);
    if (grid.empty())
        grid.push_back(args.count);
    std::vector<chan::SweepCell<chan::TenantSweepConfig>> cells;
    for (unsigned pairs : grid) {
        chan::TenantSweepConfig cfg;
        cfg.usePlatform(platformName);
        cfg.pairs = pairs;
        cells.push_back({cfg, {1}});
    }
    const auto points = chan::fanOutSeeds(pool, cells, chan::runTenantSweep);

    Table t(std::string("Many-tenant WB-channel scaling on ") +
            platformName +
            ": concurrent pairs x discovery x BER x aggregate capacity");
    t.header({"pairs", "disc", "collide", "BER mean", "BER clean",
              "BER coll", "bits/slot", "kbps", "util", "probe win"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const unsigned pairs = grid[i];
        const chan::TenantSweepResult &r = points[i].front();
        const double dirProbes = double(r.coherence.privateProbes);
        const double win = dirProbes > 0.0
                               ? double(r.scanProbeEquivalent) / dirProbes
                               : 0.0;
        t.row({std::to_string(pairs),
               std::to_string(r.discovered) + "/" + std::to_string(pairs),
               std::to_string(r.collidingPairs),
               Table::pct(r.meanBer, 2), Table::pct(r.meanBerClean, 2),
               Table::pct(r.meanBerColliding, 2),
               Table::num(r.aggregateBitsPerSlot, 1),
               Table::num(r.aggregateKbps, 0),
               Table::num(r.busiestCoreUtil, 2), Table::num(win, 0) + "x"});
    }
    t.note("every receiver discovers its eviction set by timing alone "
           "(group-testing reduction, no slice-hash knowledge); every "
           "sender locates congruent lines via the cooperative "
           "conflict probe.");
    t.note("\"BER coll\" isolates pairs sharing a (slice, slice-set) "
           "with another pair; \"util\" > 1 means the busiest core's "
           "per-slot work overflows the nominal slot and paces the "
           "effective rate.");
    t.note("\"probe win\" = global-scan coherence probes / sharer-"
           "directory probes for the identical event stream.");
    t.print();
    return 0;
}
