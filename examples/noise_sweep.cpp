/**
 * @file
 * OS-noise sweep: the Table-VII-style robustness tables, produced by
 * the sim::Scheduler subsystem on every platform registry preset.
 *
 *   $ ./example_noise_sweep [seeds] [-j N]
 *
 * Three tables:
 *
 *  1. Single-core WB channel, BER vs co-runner count. Co-runners
 *     time-share the channel's physical core in fixed slices with
 *     context-switch pollution. An idle mix (spinners) leaves the
 *     channel at 0% BER — the paper's claim that benign co-residency
 *     does not break the WB channel — while the mixed workloads
 *     (streaming / pointer-chase / random-store) degrade it
 *     monotonically as more of them are added.
 *
 *  2. Cross-core side-channel attack, accuracy vs migration period:
 *     every `period` trials the attacker is forcibly migrated to the
 *     next victim-free core, leaving its warmed private caches
 *     behind; the first probes after each hop mismeasure, so accuracy
 *     falls as the period shrinks. Single-core presets run their
 *     2-core cross-core instantiation, like usePlatform() does.
 *
 *  3. Cross-core WB channel, BER vs co-runner count on the multi-core
 *     presets (co-runners fill the free cores first, then share the
 *     parties' cores under timeslicing).
 *
 * CI uploads this output as the noise-sweep artifact; docs/PERF.md
 * "Noise robustness" records a reference run.
 *
 * `-j N` fans every (cell, seed) run over a sim::SweepRunner thread
 * pool (chan/sweep.hh; N = 0 picks the hardware concurrency). Every
 * run is an independent shared-nothing simulation and results are
 * assembled in fixed grid order, so the output is byte-identical at
 * any -j.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "chan/sweep.hh"
#include "common/table.hh"
#include "sidechan/attack.hh"
#include "sim/platform.hh"
#include "sim/scheduler.hh"

using namespace wb;

int
main(int argc, char **argv)
{
    const chan::SweepArgs args = chan::parseSweepArgs(argc, argv, "seeds", 3);
    sim::SweepRunner pool(args.jobs);
    const std::vector<std::uint64_t> seeds = chan::seedRange(args.count);

    using sim::CoRunnerKind;
    using sim::SchedulerConfig;

    // --- Table 1: single-core channel, BER vs co-runner count ---
    const std::vector<std::vector<CoRunnerKind>> t1Mixes = {
        {},
        {CoRunnerKind::Idle, CoRunnerKind::Idle},
        SchedulerConfig::mixOf(1),
        SchedulerConfig::mixOf(2),
        SchedulerConfig::mixOf(4),
    };
    std::vector<std::string> t1Platforms;
    std::vector<chan::SweepCell<chan::ChannelConfig>> t1Cells;
    for (const sim::Platform *p : sim::allPlatforms()) {
        if (p->cores > 1) // the multi-core presets repeat their base
            continue;
        t1Platforms.push_back(p->name);
        for (const auto &mix : t1Mixes) {
            chan::ChannelConfig cfg;
            cfg.usePlatform(p->name);
            cfg.noise = sim::NoiseModel::quiet();
            cfg.platform.lat.noiseSigma = 0.0;
            cfg.protocol.ts = cfg.protocol.tr = 5500;
            cfg.protocol.encoding =
                chan::Encoding::binary(std::min(4u, cfg.platform.l1.ways));
            cfg.protocol.frames = 3;
            cfg.calibration.measurements = 60;
            cfg.scheduler = p->noisePreset;
            cfg.scheduler.coRunners = mix;
            t1Cells.push_back({cfg, seeds});
        }
    }
    const auto t1Bers =
        chan::poolCells(chan::fanOutSeeds(pool, t1Cells, chan::runChannel));

    Table t1 = chan::berGrid(
        "Single-core WB channel under OS noise: BER vs co-runners "
        "(timesliced core sharing + context-switch pollution)",
        "platform", t1Platforms,
        {"none", "2 idle", "1 mixed", "2 mixed", "4 mixed"}, t1Bers, 2);
    t1.note("mixed co-runners cycle streaming -> pointer-chase -> "
            "random-store -> idle (SchedulerConfig::mixOf).");
    t1.note("seeds averaged per cell: " + std::to_string(args.count));
    t1.print();
    std::cout << "\n";

    // --- Table 2: cross-core attack, accuracy vs migration period ---
    const std::vector<Cycles> t2Periods = {0, 48, 12, 3};
    std::vector<std::string> t2Platforms;
    std::vector<std::string> t2Cores;
    std::vector<chan::SweepCell<sidechan::AttackConfig>> t2Cells;
    for (const sim::Platform *p : sim::allPlatforms()) {
        // Sliced LLCs scatter the attack's hand-built line pools
        // across slices; those presets are measured by the tenant
        // sweep (example_tenant_scaling), not this grid.
        if (!sim::multiCoreCapable(p->params) || p->params.llcSlices > 1)
            continue;
        t2Platforms.push_back(p->name);
        t2Cores.push_back(std::to_string(std::max(2u, p->cores)));
        for (Cycles period : t2Periods) {
            sidechan::AttackConfig cfg;
            cfg.usePlatform(p->name);
            cfg.crossCore = true;
            cfg.scenario = sidechan::Scenario::DirtyProbe;
            cfg.trials = 96;
            cfg.calibration = 80;
            cfg.scheduler = p->noisePreset;
            cfg.scheduler.migrationPeriod = period;
            t2Cells.push_back({cfg, seeds});
        }
    }
    const auto t2Runs = chan::fanOutSeeds(pool, t2Cells, sidechan::runAttack);

    // Column 0 is the core count; the grid's period columns follow.
    Table t2 = chan::gridTable(
        "Cross-core store-gadget attack: accuracy vs attacker "
        "migration period (trials between forced core hops)",
        "platform", t2Platforms,
        {"cores", "pinned", "every 48", "every 12", "every 3"},
        [&](std::size_t r, std::size_t c) {
            if (c == 0)
                return t2Cores[r];
            const auto &runs = t2Runs[r * t2Periods.size() + c - 1];
            return Table::pct(
                chan::meanOf(runs, &sidechan::AttackResult::accuracy), 1);
        });
    t2.note("single-core presets run their 2-core cross-core "
            "instantiation; non-inclusive LLCs have no cross-core "
            "channel, so those rows sit at coin-flip accuracy.");
    t2.print();
    std::cout << "\n";

    // --- Table 3: cross-core channel, BER vs co-runner count ---
    const std::vector<unsigned> t3Counts = {0, 1, 2, 3, 4};
    std::vector<std::string> t3Platforms;
    std::vector<chan::SweepCell<chan::CrossCoreChannelConfig>> t3Cells;
    for (const sim::Platform *p : sim::allPlatforms()) {
        if (p->cores < 2 || p->params.llcSlices > 1)
            continue;
        t3Platforms.push_back(p->name);
        for (unsigned count : t3Counts) {
            chan::CrossCoreChannelConfig cfg;
            cfg.usePlatform(p->name);
            cfg.protocol.frames = 2;
            cfg.scheduler = p->noisePreset;
            cfg.scheduler.coRunners = SchedulerConfig::mixOf(count);
            t3Cells.push_back({cfg, seeds});
        }
    }
    const auto t3Bers = chan::poolCells(
        chan::fanOutSeeds(pool, t3Cells, chan::runCrossCoreChannel));

    Table t3 = chan::berGrid(
        "Cross-core WB channel under OS noise: BER vs co-runners "
        "(multi-core presets; co-runners fill free cores first, "
        "then share the parties' cores)",
        "platform", t3Platforms, {"none", "1", "2", "3", "4"}, t3Bers, 2);
    t3.note("on the 4-core desktop, co-runners 1-2 land on the free "
            "cores: their shared-LLC traffic is absorbed by the "
            "multi-level encoding (the paper's noisy-line robustness). "
            "Co-runner 3 starts time-sharing the sender's core: unlike "
            "the SMT deployment, cross-core parties cannot co-schedule "
            "through a deschedule, so the channel collapses: most seeds "
            "align no frame at all.");
    t3.note("the non-inclusive xeonE5-2650-2core row is the closed "
            "channel (and its co-runners share party cores "
            "immediately).");
    t3.print();
    return 0;
}
