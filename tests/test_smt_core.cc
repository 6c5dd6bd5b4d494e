/**
 * @file
 * Unit tests for the SMT-core executor (sim/smt_core.hh): op
 * execution, virtual-time interleaving, spin semantics, TSC
 * quantization and noise accounting.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "common/rng.hh"
#include "sim/smt_core.hh"

namespace wb::sim
{
namespace
{

HierarchyParams
quietParams()
{
    HierarchyParams p = xeonE5_2650Params();
    p.lat.noiseSigma = 0.0;
    p.l1.policy = PolicyKind::TrueLru;
    return p;
}

/**
 * Program running a fixed op list as one trace and recording the
 * result of every op but its hammers (a LoadUntil delivers none).
 */
class Recorder : public Program
{
  public:
    explicit Recorder(std::vector<MemOp> ops) : ops_(std::move(ops))
    {
        for (std::size_t i = 0; i < ops_.size(); ++i)
            if (ops_[i].kind != MemOp::Kind::LoadUntil)
                points_.push_back(static_cast<std::uint32_t>(i));
    }

    const Trace *
    nextTrace(ProcView &) override
    {
        if (handedOut_ || ops_.empty())
            return nullptr;
        handedOut_ = true;
        trace_ = {ops_.data(), ops_.size(), points_.data(), points_.size()};
        return &trace_;
    }

    void
    onTraceResult(std::uint32_t, const MemOp &op, const OpResult &res,
                  ProcView &view) override
    {
        results.push_back(res);
        kinds.push_back(op.kind);
        times.push_back(view.now());
    }

    std::vector<OpResult> results;
    std::vector<MemOp::Kind> kinds;
    std::vector<Cycles> times;

  private:
    std::vector<MemOp> ops_;
    std::vector<std::uint32_t> points_;
    bool handedOut_ = false;
    Trace trace_;
};

TEST(SmtCore, ExecutesTraceToCompletion)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder prog({MemOp::load(0x1000), MemOp::load(0x1000),
                   MemOp::store(0x1000), MemOp::halt()});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_TRUE(core.halted(tid));
    ASSERT_EQ(prog.results.size(), 3u);
    EXPECT_FALSE(prog.results[0].l1Hit); // cold
    EXPECT_TRUE(prog.results[1].l1Hit);
}

TEST(SmtCore, QuietTimingIsExact)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder prog({MemOp::delay(100), MemOp::delay(23)});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_EQ(core.threadTime(tid), 123u);
}

TEST(SmtCore, SpinUntilJumpsForward)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder prog({MemOp::spinUntil(5000), MemOp::spinUntil(100)});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    // Second spin target already passed: time unchanged.
    EXPECT_EQ(core.threadTime(tid), 5000u);
    EXPECT_EQ(prog.results[0].tsc, 5000u);
}

TEST(SmtCore, StartTimeStaggersThreads)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder a({MemOp::delay(10)});
    Recorder b({MemOp::delay(10)});
    core.addThread(&a, AddressSpace(1), 0);
    auto tb = core.addThread(&b, AddressSpace(2), 777);
    core.run(1'000'000);
    EXPECT_EQ(core.threadTime(tb), 787u);
}

TEST(SmtCore, InterleavesByVirtualTime)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    // Thread A stores to a line at t~0; thread B (starting later)
    // must observe the line already cached (L1 hit as the second
    // access in global time order).
    Recorder a({MemOp::store(0x40)});
    Recorder b({MemOp::load(0x40)});
    core.addThread(&a, AddressSpace(1), 0);
    core.addThread(&b, AddressSpace(1), 1000); // same address space
    core.run(1'000'000);
    ASSERT_EQ(b.results.size(), 1u);
    EXPECT_TRUE(b.results[0].l1Hit);
}

TEST(SmtCore, HorizonStopsRunaways)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    TraceProgram spin({MemOp::delay(10)}, /*loop=*/true);
    auto tid = core.addThread(&spin, AddressSpace(1));
    const Cycles end = core.run(5000);
    EXPECT_FALSE(core.halted(tid));
    EXPECT_GE(end, 5000u);
    EXPECT_LT(end, 5100u);
}

TEST(SmtCore, TscGranularityQuantizes)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    nm.tscGranularity = 64;
    SmtCore core(h, nm, rng);
    Recorder prog({MemOp::delay(100), MemOp::tscRead()});
    core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    ASSERT_EQ(prog.results.size(), 2u);
    EXPECT_EQ(prog.results[1].tsc % 64, 0u);
    EXPECT_EQ(prog.results[1].tsc, 64u); // 100 cycles -> quantum 1
}

TEST(SmtCore, TscReadCost)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    nm.tscReadCost = 30;
    SmtCore core(h, nm, rng);
    Recorder prog({MemOp::tscRead(), MemOp::tscRead()});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_EQ(core.threadTime(tid), 60u);
}

TEST(SmtCore, SpinLoadsCredited)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    nm.spinIterCycles = 7;
    nm.spinLoadsPerIter = 1;
    SmtCore core(h, nm, rng);
    Recorder prog({MemOp::spinUntil(7000)});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_EQ(h.counters(tid).spinLoads, 1000u);
}

TEST(SmtCore, SpinIssuesStackLoad)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder prog({MemOp::spinUntil(1000)});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    // The spin's stack-line bookkeeping load is a real demand load.
    EXPECT_EQ(h.counters(tid).loads, 1u);
}

TEST(SmtCore, PipelinedLoadCheaperOnHit)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    nm.pipelinedHitCost = 3;
    SmtCore core(h, nm, rng);
    Recorder prog({MemOp::load(0x1000), MemOp::load(0x1000),
                   MemOp::pipelinedLoad(0x1000)});
    core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    ASSERT_EQ(prog.results.size(), 3u);
    EXPECT_GT(prog.results[1].latency, prog.results[2].latency);
    EXPECT_EQ(prog.results[2].latency, 3u);
}

TEST(SmtCore, PipelinedLoadFullCostOnMiss)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    SmtCore core(h, nm, rng);
    Recorder prog({MemOp::pipelinedLoad(0x9000)});
    core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_GE(prog.results[0].latency, 200u); // DRAM, not hidden
}

TEST(SmtCore, FlushOpWorks)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder prog({MemOp::load(0x2000), MemOp::flush(0x2000),
                   MemOp::load(0x2000)});
    core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    ASSERT_EQ(prog.results.size(), 3u);
    EXPECT_FALSE(prog.results[2].l1Hit); // flushed
}

TEST(SmtCore, SpinOvershootAccumulates)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    nm.spinOvershootMean = 20.0;
    SmtCore core(h, nm, rng);
    std::vector<MemOp> ops;
    for (int i = 1; i <= 50; ++i)
        ops.push_back(MemOp::spinUntil(static_cast<Cycles>(i) * 1000));
    Recorder prog(ops);
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(10'000'000);
    // Each spin overshoots by an exponential; time ends past the last
    // target but not wildly so.
    EXPECT_GT(core.threadTime(tid), 50'000u);
    EXPECT_LT(core.threadTime(tid), 60'000u);
}

TEST(SmtCore, TraceProgramLoops)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    TraceProgram prog({MemOp::delay(100)}, /*loop=*/true);
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1000);
    EXPECT_FALSE(core.halted(tid));
    EXPECT_GE(core.threadTime(tid), 1000u);
}

// ------------------------------------------------------------------
// LoadUntil: the deadline-bounded hammer op.
// ------------------------------------------------------------------

TEST(SmtCore, LoadUntilPastDeadlineIssuesNothing)
{
    for (const bool traced : {true, false}) {
        Rng rng(1);
        Hierarchy h(quietParams(), &rng);
        NoiseModel nm = NoiseModel::quiet();
        nm.traceExecution = traced;
        SmtCore core(h, nm, rng);
        Recorder prog({MemOp::loadUntil(0x1000, 0), MemOp::delay(7)});
        const ThreadId tid = core.addThread(&prog, AddressSpace(1));
        // One pick: the hammer runs zero times, the delay runs.
        ASSERT_TRUE(core.stepEarliest(1'000'000));
        EXPECT_EQ(h.counters(tid).loads, 0u);
        EXPECT_EQ(core.threadTime(tid), 7u);
        ASSERT_EQ(prog.results.size(), 1u);
        EXPECT_EQ(prog.kinds[0], MemOp::Kind::Delay);
    }
}

/** Thread time and demand loads after running @p ops alone. */
std::pair<Cycles, std::uint64_t>
runAlone(std::vector<MemOp> ops)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    nm.pipelinedHitCost = 3;
    SmtCore core(h, nm, rng);
    Recorder prog(std::move(ops));
    const ThreadId tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_TRUE(core.halted(tid));
    return {core.threadTime(tid), h.counters(tid).loads};
}

TEST(SmtCore, LoadUntilMatchesUnrolledPipelinedLoads)
{
    const Cycles cold = runAlone({MemOp::load(0x1000)}).first;
    // A deadline the 3-cycle hits land on exactly: the load that
    // reaches it is the last one.
    for (const Cycles extra : {Cycles(120), Cycles(121)}) {
        const Cycles until = cold + extra;
        const auto hammered = runAlone(
            {MemOp::load(0x1000), MemOp::loadUntil(0x1000, until)});
        std::vector<MemOp> unrolled = {MemOp::load(0x1000)};
        for (Cycles t = cold; t < until; t += 3)
            unrolled.push_back(MemOp::pipelinedLoad(0x1000));
        const auto expected = runAlone(unrolled);
        EXPECT_EQ(hammered, expected) << "deadline +" << extra;
        EXPECT_EQ(hammered.second, 1 + (extra + 2) / 3);
    }
}

/** Every result and counter of a noisy SMT run with a hammer in it. */
struct HammerRun
{
    std::vector<std::vector<OpResult>> results;
    std::vector<Cycles> times;
    std::vector<PerfCounters> counters;
};

HammerRun
runHammerSiblings(bool traced, unsigned threads)
{
    Rng rng(17);
    HierarchyParams hp = xeonE5_2650Params();
    Hierarchy h(hp, &rng);
    NoiseModel nm; // contention, preemption and overshoot all on
    nm.preemptProbPerOp = 0.002;
    nm.preemptMean = 400.0;
    nm.traceExecution = traced;
    SmtCore core(h, nm, rng);
    std::vector<std::unique_ptr<Recorder>> progs;
    // The hammer's sibling wakes up in the middle of it, so the slice
    // splits at the sibling's bound between two iterations.
    progs.push_back(std::make_unique<Recorder>(std::vector<MemOp>{
        MemOp::load(0x1000), MemOp::loadUntil(0x1000, 6000),
        MemOp::store(0x2000), MemOp::tscRead(),
        MemOp::loadUntil(0x1000, 9000), MemOp::tscRead()}));
    progs.push_back(std::make_unique<Recorder>(std::vector<MemOp>{
        MemOp::spinUntil(2500), MemOp::load(0x1000), MemOp::tscRead(),
        MemOp::spinUntil(4000), MemOp::store(0x1000), MemOp::tscRead(),
        MemOp::spinUntil(7000), MemOp::load(0x2000)}));
    if (threads > 2) {
        progs.push_back(std::make_unique<Recorder>(std::vector<MemOp>{
            MemOp::delay(3001), MemOp::load(0x3000),
            MemOp::loadUntil(0x3000, 5000), MemOp::tscRead()}));
    }
    std::vector<ThreadId> tids;
    for (auto &p : progs)
        tids.push_back(core.addThread(p.get(), AddressSpace(1)));
    core.run(1'000'000);
    HammerRun out;
    for (std::size_t i = 0; i < progs.size(); ++i) {
        out.results.push_back(progs[i]->results);
        out.times.push_back(core.threadTime(tids[i]));
        out.counters.push_back(h.counters(tids[i]));
    }
    return out;
}

TEST(SmtCore, HammerSplitAtSiblingMatchesSingleStep)
{
    for (const unsigned threads : {2u, 3u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        const HammerRun sliced = runHammerSiblings(true, threads);
        const HammerRun stepped = runHammerSiblings(false, threads);
        EXPECT_EQ(sliced.times, stepped.times);
        ASSERT_EQ(sliced.results.size(), stepped.results.size());
        for (std::size_t t = 0; t < sliced.results.size(); ++t) {
            const auto &a = sliced.results[t];
            const auto &b = stepped.results[t];
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i].latency, b[i].latency);
                EXPECT_EQ(a[i].tsc, b[i].tsc);
                EXPECT_EQ(a[i].l1Hit, b[i].l1Hit);
            }
            EXPECT_EQ(sliced.counters[t].loads, stepped.counters[t].loads);
            EXPECT_EQ(sliced.counters[t].l1Hits,
                      stepped.counters[t].l1Hits);
            EXPECT_EQ(sliced.counters[t].spinLoads,
                      stepped.counters[t].spinLoads);
        }
        // The hammer really ran, and really was cut by its sibling.
        EXPECT_GT(sliced.counters[0].loads, 100u);
    }
}

} // namespace
} // namespace wb::sim
