/**
 * @file
 * Reproduces paper Fig. 8 / Sec. VI: stability of the WB channel vs.
 * the LRU channel and Prime+Probe under noisy cache lines — clean
 * noise (loads by other processes) breaks the address-targeting
 * channels but not the WB channel; dirty noise (stores) is the WB
 * channel's only interference source.
 */

#include <iostream>

#include "baselines/lru_channel.hh"
#include "baselines/prime_probe.hh"
#include "chan/channel.hh"
#include "common/table.hh"

using namespace wb;

namespace
{

double
wbBer(unsigned noiseProcs, double storeFraction, std::uint64_t seed)
{
    chan::ChannelConfig cfg;
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.encoding = chan::Encoding::binary(1);
    cfg.protocol.frames = 20;
    cfg.calibration.measurements = 200;
    cfg.seed = seed;
    cfg.noiseProcesses = noiseProcs;
    cfg.noiseCfg.period = 3 * 5500;
    cfg.noiseCfg.burstLines = 1;
    cfg.noiseCfg.storeFraction = storeFraction;
    return chan::runChannel(cfg).ber;
}

double
lruBer(unsigned noiseProcs, std::uint64_t seed)
{
    chan::ChannelConfig cfg;
    cfg.platform.l1.policy = sim::PolicyKind::TrueLru; // its best case
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.frames = 20;
    cfg.seed = seed;
    cfg.noiseProcesses = noiseProcs;
    cfg.noiseCfg.period = 3 * 5500;
    cfg.noiseCfg.burstLines = 1;
    return baselines::runLruChannel(cfg).ber;
}

double
ppBer(unsigned noiseProcs, std::uint64_t seed)
{
    chan::ChannelConfig cfg;
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.frames = 20;
    cfg.seed = seed;
    cfg.noiseProcesses = noiseProcs;
    cfg.noiseCfg.period = 3 * 5500;
    cfg.noiseCfg.burstLines = 1;
    return baselines::runPrimeProbeChannel(cfg).ber;
}

std::string
avg3(double (*f)(unsigned, std::uint64_t), unsigned n)
{
    double sum = 0;
    for (std::uint64_t seed : {3, 4, 5})
        sum += f(n, seed);
    return Table::pct(sum / 3.0, 1);
}

} // namespace

int
main()
{
    banner(std::cout,
           "Fig. 8: noisy-cache-line stability, WB vs LRU vs P+P "
           "(400 kbps)");

    Table t("Mean BER of 3 seeds; noise = periodic same-set loads by "
            "another process");
    t.header({"channel", "no noise", "1 noise proc", "2 noise procs"});
    t.row({"WB (this paper)", avg3([](unsigned n, std::uint64_t s) {
               return wbBer(n, 0.0, s);
           }, 0),
           avg3([](unsigned n, std::uint64_t s) {
               return wbBer(n, 0.0, s);
           }, 1),
           avg3([](unsigned n, std::uint64_t s) {
               return wbBer(n, 0.0, s);
           }, 2)});
    t.row({"LRU channel", avg3(lruBer, 0), avg3(lruBer, 1),
           avg3(lruBer, 2)});
    t.row({"Prime+Probe", avg3(ppBer, 0), avg3(ppBer, 1),
           avg3(ppBer, 2)});
    t.note("Clean noisy lines replace clean lines and do not disturb "
           "the dirty-state signal (Fig. 8(b)); they do evict the "
           "LRU/P+P channels' probe lines (Fig. 8(a)).");
    t.print(std::cout);

    Table t2("\nThe WB channel's admitted interference: *stores* to "
             "the target set");
    t2.header({"noise store fraction", "WB BER"});
    for (double f : {0.0, 0.5, 1.0}) {
        double sum = 0;
        for (std::uint64_t seed : {3, 4, 5})
            sum += wbBer(1, f, seed);
        t2.row({Table::num(f, 1), Table::pct(sum / 3.0, 1)});
    }
    t2.note("Paper Sec. VI: \"if other processes modify a cache line "
            "mapped to the target set, this will affect our WB "
            "channel. However... this is not common.\"");
    t2.print(std::cout);
    return 0;
}
