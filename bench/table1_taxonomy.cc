/**
 * @file
 * Reproduces paper Table I / Fig. 2: the new classification of cache
 * covert channels — Hit+Miss, Hit+Hit, Miss+Miss — demonstrated by
 * running one exemplar of each class on the same platform and
 * measuring the latency pair its receiver distinguishes.
 *
 *  - Hit+Miss  (Flush+Reload): reload hit vs DRAM miss
 *  - Hit+Hit   (CacheBleed-style): an L1 hit vs an L1 hit delayed by
 *    SMT port/bank contention from the sibling thread
 *  - Miss+Miss (WB, this paper): clean-replace miss vs dirty-replace
 *    miss — the largest relative gap, as the paper stresses
 */

#include <iostream>

#include "common/stats.hh"
#include "common/table.hh"
#include "sim/hierarchy.hh"
#include "sim/smt_core.hh"
#include "baselines/flush_channels.hh"
#include "baselines/hit_hit_channel.hh"
#include "chan/channel.hh"

using namespace wb;
using namespace wb::sim;

namespace
{

/** Load-hammer sibling creating port contention (CacheBleed's role). */
class Hammer : public Program
{
  public:
    const Trace *
    nextTrace(ProcView &) override
    {
        trace_ = {&op_, 1, nullptr, 0};
        return &trace_;
    }

  private:
    const MemOp op_ = MemOp::loadUntil(0x8000, ~Cycles(0)); //!< forever
    Trace trace_;
};

/** Victim thread timing repeated L1 hits. */
class HitTimer : public Program
{
  public:
    /** The cold fill, @p samples timed hits, then halt: one trace. */
    explicit HitTimer(unsigned samples)
        : ops_(samples + 1, MemOp::load(0x4000))
    {
        ops_.push_back(MemOp::halt());
        for (std::uint32_t i = 1; i <= samples; ++i)
            points_.push_back(i);
    }

    const Trace *
    nextTrace(ProcView &) override
    {
        trace_ = {ops_.data(), ops_.size(), points_.data(), points_.size()};
        return &trace_;
    }

    void
    onTraceResult(std::uint32_t, const MemOp &, const OpResult &res,
                  ProcView &) override
    {
        lat.add(double(res.latency));
    }

    Samples lat;

  private:
    std::vector<MemOp> ops_;
    std::vector<std::uint32_t> points_;
    Trace trace_;
};

} // namespace

int
main()
{
    banner(std::cout,
           "Table I / Fig. 2: covert-channel classification exemplars");

    Rng rng(6);
    HierarchyParams hp = xeonE5_2650Params();
    hp.l1.policy = PolicyKind::TrueLru;

    Table t("One exemplar per class; the receiver distinguishes the "
            "latency pair");
    t.header({"class", "exemplar", "'0' latency", "'1' latency",
              "gap"});

    // --- Hit+Miss: Flush+Reload on a shared line. ---
    {
        Hierarchy h(hp, &rng);
        Samples hit, miss;
        const Addr a = 0x13000;
        for (int i = 0; i < 400; ++i) {
            h.flush(0, a);
            miss.add(double(h.access(0, a, false).latency)); // absent
            hit.add(double(h.access(0, a, false).latency));  // present
        }
        t.row({"Hit+Miss", "Flush+Reload",
               Table::num(miss.median(), 0) + " (miss)",
               Table::num(hit.median(), 0) + " (hit)",
               Table::num(miss.median() - hit.median(), 0)});
    }

    // --- Hit+Hit: L1 hits with vs without a hammering sibling. ---
    {
        Samples quiet, contended;
        {
            Hierarchy h(hp, &rng);
            NoiseModel nm = NoiseModel::quiet();
            SmtCore core(h, nm, rng);
            HitTimer timer(400);
            core.addThread(&timer, AddressSpace(1));
            core.run(10'000'000);
            quiet = timer.lat;
        }
        {
            Hierarchy h(hp, &rng);
            NoiseModel nm = NoiseModel::quiet();
            nm.portContentionProb = 0.6; // CacheBleed hammers one bank
            nm.portContentionWindow = 8;
            nm.portContentionDelay = 3;
            SmtCore core(h, nm, rng);
            HitTimer timer(400);
            Hammer hammer;
            core.addThread(&timer, AddressSpace(1));
            core.addThread(&hammer, AddressSpace(2));
            core.run(10'000'000);
            contended = timer.lat;
        }
        t.row({"Hit+Hit", "CacheBleed-style bank contention",
               Table::num(quiet.median(), 0) + " (quiet)",
               Table::num(contended.mean(), 1) + " (contended mean)",
               Table::num(contended.mean() - quiet.median(), 1)});
    }

    // --- Miss+Miss: the WB channel's clean vs dirty replacement. ---
    {
        Hierarchy h(hp, &rng);
        const auto &layout = h.l1().layout();
        Samples clean, dirty;
        for (int i = 0; i < 400; ++i) {
            // Clean-resident set, L2-resident probe line.
            for (Addr tag = 1; tag <= 8; ++tag)
                h.access(0, layout.compose(5, tag), false);
            auto c = h.access(0, layout.compose(5, 20 + (i % 4)), false);
            if (c.servedBy == Level::L2 && !c.l1VictimDirty)
                clean.add(double(c.latency));
            for (Addr tag = 1; tag <= 8; ++tag)
                h.access(0, layout.compose(5, tag), true);
            auto d = h.access(0, layout.compose(5, 30 + (i % 4)), false);
            if (d.servedBy == Level::L2 && d.l1VictimDirty)
                dirty.add(double(d.latency));
        }
        t.row({"Miss+Miss", "WB channel (this paper)",
               Table::num(clean.median(), 0) + " (clean repl)",
               Table::num(dirty.median(), 0) + " (dirty repl)",
               Table::num(dirty.median() - clean.median(), 0)});
    }

    t.note("The paper's observation: the Miss+Miss dirty/clean gap "
           "(~12 cyc) is about twice the L1-hit-vs-L2 gap, while "
           "needing no shared memory (unlike Flush+Reload) and no "
           "co-resident hyper-thread hammering (unlike CacheBleed).");
    t.note("Other Miss+Miss exemplar (coherence-state flush timing) "
           "is exercised by the baselines suite.");
    t.print(std::cout);

    // All three classes as *working channels* on the same platform.
    Table t2("\nEach class as a live covert channel at 400 kbps");
    t2.header({"class", "channel", "BER"});
    {
        chan::ChannelConfig cfg;
        cfg.protocol.ts = cfg.protocol.tr = 5500;
        cfg.protocol.frames = 12;
        cfg.seed = 3;
        auto fr = baselines::runFlushChannel(
            cfg, baselines::FlushKind::FlushReload);
        t2.row({"Hit+Miss", "Flush+Reload (shared memory)",
                Table::pct(fr.ber, 1)});
        auto hh = baselines::runHitHitChannel(cfg);
        t2.row({"Hit+Hit", "port-contention hammering",
                Table::pct(hh.ber, 1)});
    }
    {
        chan::ChannelConfig cfg;
        cfg.protocol.ts = cfg.protocol.tr = 5500;
        cfg.protocol.frames = 12;
        cfg.protocol.encoding = chan::Encoding::binary(4);
        cfg.calibration.measurements = 150;
        cfg.seed = 3;
        auto wb = chan::runChannel(cfg);
        t2.row({"Miss+Miss", "WB channel (no sharing, no hammering)",
                Table::pct(wb.ber, 1)});
    }
    t2.print(std::cout);
    return 0;
}
