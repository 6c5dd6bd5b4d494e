#include "perfmon/stealth.hh"

#include <memory>

#include "baselines/lru_channel.hh"
#include "chan/channel.hh"
#include "chan/protocol.hh"
#include "chan/sender.hh"
#include "chan/set_mapping.hh"
#include "common/bitvec.hh"
#include "perfmon/workloads.hh"
#include "sim/smt_core.hh"

namespace wb::perfmon
{

FootprintComparison
compareSenderFootprints(Cycles ts, unsigned frames, std::uint64_t seed)
{
    FootprintComparison cmp;
    const double ghz = 2.2;

    // WB channel, binary d=1 (the stealthiest configuration).
    chan::ChannelConfig wbCfg;
    wbCfg.protocol.ts = wbCfg.protocol.tr = ts;
    wbCfg.protocol.encoding = chan::Encoding::binary(1);
    wbCfg.protocol.frames = frames;
    wbCfg.calibration.measurements = 100;
    wbCfg.seed = seed;
    auto wbRes = chan::runChannel(wbCfg);
    cmp.wb = loadFootprint(wbRes.senderCounters, wbRes.simulatedCycles,
                           ghz);

    // LRU channel with whole-slot modulation (Xiong's sender).
    chan::ChannelConfig lruCfg;
    lruCfg.protocol.ts = lruCfg.protocol.tr = ts;
    lruCfg.protocol.frames = frames;
    lruCfg.seed = seed;
    auto lruRes =
        baselines::runLruChannel(lruCfg, /*modulateCycles=*/0);
    // Elapsed time is estimated as the sender's frames * frameBits
    // slots. lruRes.simulatedCycles is reported too, but it adds the
    // launch delay and the receiver's tail; the estimate stays so
    // Table VI stays byte-identical.
    const Cycles elapsed = static_cast<Cycles>(lruCfg.protocol.frames) *
        lruCfg.protocol.frameBits * ts;
    cmp.lru = loadFootprint(lruRes.senderCounters, elapsed, ghz);

    cmp.ratio = cmp.lru.totalPerSec > 0.0
        ? cmp.wb.totalPerSec / cmp.lru.totalPerSec
        : 0.0;
    return cmp;
}

MissProfile
senderMissProfile(CoRunner coRunner, bool multiBit, Cycles ts,
                  unsigned bits, std::uint64_t seed)
{
    if (coRunner == CoRunner::WbReceiver) {
        chan::ChannelConfig cfg;
        cfg.protocol.ts = cfg.protocol.tr = ts;
        cfg.protocol.encoding = multiBit ? chan::Encoding::paperTwoBit()
                                         : chan::Encoding::binary(1);
        cfg.protocol.frameBits = multiBit ? 256 : 128;
        cfg.protocol.frames =
            std::max(1u, bits / cfg.protocol.frameBits);
        cfg.calibration.measurements = 100;
        cfg.seed = seed;
        auto res = chan::runChannel(cfg);
        return missProfile(res.senderCounters);
    }

    // Sender alone or with the compiler workload: build the platform
    // by hand, no receiver.
    Rng rng(seed);
    sim::HierarchyParams hp = sim::xeonE5_2650Params();
    sim::NoiseModel noise;
    sim::Hierarchy hierarchy(hp, &rng);
    sim::SmtCore core(hierarchy, noise, rng);

    const chan::Encoding enc = multiBit ? chan::Encoding::paperTwoBit()
                                        : chan::Encoding::binary(1);
    Rng bitRng = rng.split();
    const BitVec msg = randomBits(bits, bitRng);
    BitVec padded = msg;
    while (padded.size() % enc.bitsPerSymbol() != 0)
        padded.push_back(false);
    const auto levels = chan::frameToLevels(padded, enc);

    const unsigned targetSet = 13;
    const auto senderLines = chan::linesForSet(
        hierarchy.l1().layout(), targetSet, hp.l1.ways, /*tagBase=*/1);
    chan::SenderProgram sender(senderLines, levels, ts);
    const ThreadId senderTid =
        core.addThread(&sender, sim::AddressSpace(1), 0);

    std::unique_ptr<CompilerWorkload> compiler;
    if (coRunner == CoRunner::Compiler) {
        compiler = std::make_unique<CompilerWorkload>();
        core.addThread(compiler.get(), sim::AddressSpace(5), 0);
    }

    const Cycles horizon =
        static_cast<Cycles>(levels.size() + 4) * (ts + 50) + 100000;
    core.run(horizon);
    return missProfile(hierarchy.counters(senderTid));
}

} // namespace wb::perfmon
