/**
 * @file
 * bench_micro — self-contained microbenchmark harness for the
 * simulator hot paths, with machine-readable output.
 *
 * Measures ops/second from the cache-layer workloads the channel
 * experiments are built from (on the production flat
 * structure-of-arrays Cache) up to whole frames. Three engine layers
 * are measured as flat/reference pairs, the production mode against
 * its slower reference mode in one binary: hierarchy-access,
 * llc-slice-evict and trace-step. The workloads:
 *
 *   probe-hit        resident-line probeBatch sweeps (receiver decode)
 *   fill-evict       eviction sweeps with dirty fills (sender encode)
 *   partitioned      fill-evict under NoMo-style way partitioning
 *   plcache-locked   fill-evict with half the set PLcache-locked
 *   hierarchy-access sequential demand loads through L1/L2/LLC
 *   hierarchy-dirty-evict  store stream exercising the WB-channel path
 *   pointer-chase    replacement-set traversal measurement (receiver)
 *   smt-step         two-thread SMT core stepping (ops = cycles)
 *   trace-step       smt-step as a flat/reference pair: trace slices
 *                    vs single-stepping the same traces
 *   spin-step        spin-wait-dominated stepping (ops = cycles)
 *   sweep-scaling-Nt fixed 8-cell channel work-list through a
 *                    SweepRunner pool with N workers (ops = cells)
 *   multicore-access miss-heavy sweep through a 2-core shared LLC
 *   llc-slice-evict  back-invalidation-heavy dirty sweep on the sliced
 *                    16-core LLC as a flat/reference pair: per-slice
 *                    sharer directory vs the all-core scan
 *   system-build     build a dc-sliced-64core MultiCoreSystem, make one
 *                    access, destroy it (ops = systems): the cache
 *                    storage layer's build and teardown cost
 *   channel-frame    one 128-bit frame end to end (ops = bits)
 *   tenant-frame     one small many-tenant sweep (discovery through
 *                    decode) on the sliced 16-core preset (ops = bits)
 *   cross-core-frame one cross-core frame on the 4-core desktop
 *   noise-frame      one frame under the OS-noise scheduler (2 mixed
 *                    co-runners; ops = bits)
 *   transport-frame  one transport session (framing + FrameSync + ARQ
 *                    + adaptive rate; ops = payload bits)
 *   calibration      offline threshold calibration (ops = measurements)
 *   edit-distance    128-bit Wagner-Fischer frame scoring
 *
 * Results are written as JSON (default BENCH_micro.json): one record
 * per workload with {"name", "impl", "ops_per_sec", "config"}, plus a
 * "speedup_vs_reference" summary. See docs/PERF.md for the schema.
 *
 * Usage: bench_micro [--quick] [--out FILE]
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "chan/calibration.hh"
#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "chan/set_mapping.hh"
#include "chan/tenant.hh"
#include "common/edit_distance.hh"
#include "common/rng.hh"
#include "sim/cache.hh"
#include "sim/hierarchy.hh"
#include "sim/multicore.hh"
#include "sim/smt_core.hh"
#include "sim/sweep_runner.hh"

using namespace wb;
using namespace wb::sim;

namespace
{

/** One measured workload result. */
struct BenchResult
{
    std::string name;
    std::string impl; //!< "flat", "reference" or "hierarchy"
    double opsPerSec = 0.0;
    std::uint64_t ops = 0;
    double elapsedSec = 0.0;
    std::string configJson; //!< preformatted {"k":v,...} object
};

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/**
 * Number of best-of timing windows per workload. The quick (CI) mode
 * uses more, shorter windows than the full run: the 15% bench gate
 * compares quick runs across jobs, and more windows make the
 * fastest-window estimate robust against sustained co-tenant
 * interference bursts that can span an entire short window.
 */
int gWindows = 3;

/**
 * Run @p body (which performs @p opsPerCall simulated accesses per
 * invocation) in gWindows timing windows of @p budgetSec each, after
 * one untimed warm-up call, and report the fastest window. Best-of-N
 * is the standard defense against scheduler noise on shared machines:
 * interference only ever makes a window slower, so the fastest window
 * is the closest estimate of the code's actual throughput.
 */
template <typename Body>
BenchResult
measure(const std::string &name, const std::string &impl,
        std::string configJson, double budgetSec, std::uint64_t opsPerCall,
        Body &&body)
{
    body(); // warm-up: populate sets, fault in the arrays
    BenchResult res;
    res.name = name;
    res.impl = impl;
    res.configJson = std::move(configJson);
    for (int window = 0; window < gWindows; ++window) {
        const double start = now();
        double elapsed = 0.0;
        std::uint64_t calls = 0;
        do {
            body();
            ++calls;
            elapsed = now() - start;
        } while (elapsed < budgetSec);
        const std::uint64_t ops = calls * opsPerCall;
        const double opsPerSec = static_cast<double>(ops) / elapsed;
        if (opsPerSec > res.opsPerSec) {
            res.ops = ops;
            res.elapsedSec = elapsed;
            res.opsPerSec = opsPerSec;
        }
    }
    return res;
}

/** Geometry shared by the cache-layer workloads (a 32 KiB L1). */
CacheParams
l1Params()
{
    CacheParams p;
    p.name = "bench-L1";
    p.sizeBytes = 32 * 1024;
    p.ways = 8;
    p.policy = PolicyKind::TreePlru;
    return p;
}

std::string
cacheConfigJson(const CacheParams &p, const char *extra = nullptr)
{
    std::ostringstream os;
    os << "{\"ways\":" << p.ways << ",\"sets\":" << p.numSets()
       << ",\"policy\":\"" << policyName(p.policy) << "\"";
    if (extra != nullptr)
        os << "," << extra;
    os << "}";
    return os.str();
}

/** Addresses of @p tagsPerSet distinct lines in every set. */
std::vector<Addr>
sweepAddrs(const AddressLayout &layout, unsigned tagsPerSet)
{
    std::vector<Addr> addrs;
    addrs.reserve(std::size_t(layout.numSets()) * tagsPerSet);
    for (unsigned set = 0; set < layout.numSets(); ++set)
        for (unsigned t = 0; t < tagsPerSet; ++t)
            addrs.push_back(layout.compose(set, 1 + t));
    return addrs;
}

/** probe-hit: every set full, probes always hit (receiver steady state). */
BenchResult
benchProbeHit(double budgetSec)
{
    const CacheParams p = l1Params();
    Rng rng(1);
    Cache cache(p, &rng);
    const auto addrs = sweepAddrs(cache.layout(), p.ways);
    cache.fillBatch(addrs, 0, false); // make every probe a hit
    std::uint64_t sink = 0;
    auto res = measure("probe-hit", "flat", cacheConfigJson(p), budgetSec,
                       addrs.size(),
                       [&]() { sink += cache.probeBatch(addrs, 0).hits; });
    if (sink == ~std::uint64_t(0))
        std::cerr << ""; // defeat dead-code elimination of the probes
    return res;
}

/** fill-evict: 2W distinct lines per set, dirty fills, every op evicts. */
BenchResult
benchFillEvict(double budgetSec)
{
    const CacheParams p = l1Params();
    Rng rng(2);
    Cache cache(p, &rng);
    const auto addrs = sweepAddrs(cache.layout(), 2 * p.ways);
    return measure("fill-evict", "flat",
                   cacheConfigJson(p, "\"asDirty\":true"), budgetSec,
                   addrs.size(),
                   [&]() { cache.fillBatch(addrs, 0, true); });
}

/** partitioned: the fill-evict sweep under NoMo-style way masks. */
BenchResult
benchPartitioned(double budgetSec)
{
    CacheParams p = l1Params();
    p.fillMaskPerThread = {wayMaskRange(0, 4), wayMaskRange(4, 8)};
    Rng rng(3);
    Cache cache(p, &rng);
    const auto addrs = sweepAddrs(cache.layout(), 2 * p.ways);
    ThreadId tid = 0;
    return measure(
        "partitioned", "flat",
        cacheConfigJson(p, "\"fillMasks\":[\"0x0f\",\"0xf0\"]"),
        budgetSec, addrs.size(), [&]() {
            cache.fillBatch(addrs, tid, true);
            tid ^= 1u;
        });
}

/** plcache-locked: half of every set locked, fills dodge the locks. */
BenchResult
benchPlcacheLocked(double budgetSec)
{
    const CacheParams p = l1Params();
    Rng rng(4);
    Cache cache(p, &rng);
    const auto &layout = cache.layout();
    // Pin half of each set: fill then lock W/2 protected lines.
    for (unsigned set = 0; set < layout.numSets(); ++set) {
        for (unsigned t = 0; t < p.ways / 2; ++t) {
            const Addr a = layout.compose(set, 0x900 + t);
            cache.fill(a, 0, /*asDirty=*/true);
            cache.lock(a);
        }
    }
    const auto addrs = sweepAddrs(layout, 2 * p.ways);
    return measure("plcache-locked", "flat",
                   cacheConfigJson(p, "\"lockedWaysPerSet\":4"),
                   budgetSec, addrs.size(),
                   [&]() { cache.fillBatch(addrs, 1, false); });
}

/**
 * hierarchy-access: the miss-heavy end-to-end sweep (1024 distinct
 * lines, double the L1 capacity, so every access misses L1 and hits
 * L2 — the WB-channel eviction-sweep steady state). Measured as a
 * pair: "flat" drives one Hierarchy::accessBatch per pass (the fused
 * miss-path loop), "reference" calls access() per address (the seed
 * idiom every pre-batching call site used).
 */
BenchResult
benchHierarchyAccess(const std::string &impl, double budgetSec)
{
    Rng rng(5);
    HierarchyParams hp = xeonE5_2650Params();
    hp.lat.noiseSigma = 0.0;
    Hierarchy h(hp, &rng);
    std::vector<Addr> addrs;
    for (Addr a = 0; a < 0x10000; a += 64)
        addrs.push_back(a);
    const std::string cfg =
        "{\"platform\":\"xeonE5-2650\",\"noise\":0,\"missHeavy\":true}";
    if (impl == "flat") {
        return measure("hierarchy-access", impl, cfg, budgetSec,
                       addrs.size(), [&]() {
                           (void)h.accessBatch(0, addrs,
                                               /*isWrite=*/false);
                       });
    }
    return measure("hierarchy-access", impl, cfg, budgetSec,
                   addrs.size(), [&]() {
                       for (Addr a : addrs)
                           (void)h.access(0, a, false);
                   });
}

/** hierarchy-dirty-evict: store stream on one set (WB-channel path). */
BenchResult
benchHierarchyDirtyEvict(double budgetSec)
{
    Rng rng(6);
    HierarchyParams hp = xeonE5_2650Params();
    Hierarchy h(hp, &rng);
    const auto &layout = h.l1().layout();
    Addr tag = 1;
    const std::uint64_t opsPerCall = 1024;
    return measure("hierarchy-dirty-evict", "hierarchy",
                   "{\"platform\":\"xeonE5-2650\",\"set\":9}",
                   budgetSec, opsPerCall, [&]() {
                       for (std::uint64_t i = 0; i < opsPerCall; ++i) {
                           (void)h.access(0, layout.compose(9, tag),
                                          true);
                           tag = tag % 64 + 1;
                       }
                   });
}

/** edit-distance: one 128-bit Wagner-Fischer scoring per call. */
BenchResult
benchEditDistance(double budgetSec)
{
    Rng rng(9);
    const BitVec a = randomBits(128, rng);
    BitVec b = a;
    b[17] = !b[17];
    b.erase(b.begin() + 63);
    std::size_t sink = 0;
    auto res = measure("edit-distance", "scalar",
                       "{\"bits\":128,\"unit\":\"scorings\"}", budgetSec,
                       1, [&]() { sink += editDistance(a, b); });
    if (sink == ~std::size_t(0))
        std::cerr << "";
    return res;
}

/** pointer-chase: one replacement-set traversal measurement per call. */
BenchResult
benchPointerChase(double budgetSec)
{
    Rng rng(7);
    HierarchyParams hp = xeonE5_2650Params();
    Hierarchy h(hp, &rng);
    NoiseModel noise;
    AddressSpace space(2);
    const unsigned lines = 16;
    const auto order =
        chan::linesForSet(h.l1().layout(), 13, lines, 0x100);
    double sink = 0.0;
    auto res = measure("pointer-chase", "hierarchy",
                       "{\"platform\":\"xeonE5-2650\",\"lines\":16}",
                       budgetSec, lines, [&]() {
                           sink += chan::measureChaseOffline(
                               h, 1, space, order, noise);
                       });
    if (sink < 0.0)
        std::cerr << "";
    return res;
}

/**
 * trace-step: the smt-step workload measured as a pair. "flat" runs
 * the trace engine (NoiseModel::traceExecution on, the production
 * default): each program's MemOps execute as whole slices. "reference"
 * single-steps the same traces, one op per pick. Both modes are
 * bit-identical (tests/test_trace_equivalence) so the ratio is the
 * cost of the per-op pick.
 */
BenchResult
benchTraceStep(const std::string &impl, double budgetSec)
{
    Rng rng(8);
    HierarchyParams hp = xeonE5_2650Params();
    Hierarchy h(hp, &rng);
    NoiseModel noise;
    noise.traceExecution = impl == "flat";
    SmtCore core(h, noise, rng);
    TraceProgram a({MemOp::load(0x1000), MemOp::store(0x2000)}, true);
    TraceProgram b({MemOp::load(0x3000)}, true);
    core.addThread(&a, AddressSpace(1));
    core.addThread(&b, AddressSpace(2));
    const Cycles step = 10000;
    Cycles horizon = step;
    return measure("trace-step", impl,
                   "{\"threads\":2,\"unit\":\"cycles\"}", budgetSec,
                   step, [&]() {
                       core.run(horizon);
                       horizon += step;
                   });
}

/**
 * sweep-scaling-<N>t: a fixed 8-cell channel work-list fanned over a
 * SweepRunner pool with N workers; ops are cells. The 1t/2t/4t/8t
 * family tracks the thread-pool's wall-clock scaling on the build
 * machine (ideal on idle multi-core hosts, flat on single-CPU CI
 * runners — docs/PERF.md records both).
 */
BenchResult
benchSweepScaling(unsigned threads, double budgetSec)
{
    const std::size_t cells = 8;
    SweepRunner pool(threads);
    return measure(
        "sweep-scaling-" + std::to_string(threads) + "t", "sweep",
        "{\"cells\":" + std::to_string(cells) +
            ",\"threads\":" + std::to_string(threads) +
            ",\"unit\":\"cells\"}",
        budgetSec, cells, [&]() {
            pool.run(cells, [](std::size_t i) {
                chan::ChannelConfig cfg;
                cfg.protocol.frames = 1;
                cfg.calibration.measurements = 10;
                cfg.seed = 1 + i;
                (void)chan::runChannel(cfg);
            });
        });
}

/** smt-step: two looping trace threads; ops are simulated cycles. */
BenchResult
benchSmtStep(double budgetSec)
{
    Rng rng(8);
    HierarchyParams hp = xeonE5_2650Params();
    Hierarchy h(hp, &rng);
    SmtCore core(h, NoiseModel(), rng);
    TraceProgram a({MemOp::load(0x1000), MemOp::store(0x2000)}, true);
    TraceProgram b({MemOp::load(0x3000)}, true);
    core.addThread(&a, AddressSpace(1));
    core.addThread(&b, AddressSpace(2));
    const Cycles step = 10000;
    Cycles horizon = step;
    return measure("smt-step", "hierarchy",
                   "{\"threads\":2,\"unit\":\"cycles\"}", budgetSec,
                   step, [&]() {
                       core.run(horizon);
                       horizon += step;
                   });
}

/**
 * multicore-access: the hierarchy-access miss-heavy sweep driven
 * through one core of a 2-core MultiCoreSystem — the same workload
 * plus the coherence layer (remote snoop scans on every L2 miss), so
 * the multi-core engine's overhead over the single-core Hierarchy
 * stays visible in the trajectory.
 */
BenchResult
benchMulticoreAccess(double budgetSec)
{
    Rng rng(5);
    HierarchyParams hp = xeonE5_2650Params();
    hp.lat.noiseSigma = 0.0;
    MultiCoreSystem mc(hp, /*cores=*/2, &rng);
    std::vector<Addr> addrs;
    for (Addr a = 0; a < 0x10000; a += 64)
        addrs.push_back(a);
    return measure("multicore-access", "multicore",
                   "{\"platform\":\"xeonE5-2650\",\"cores\":2,"
                   "\"missHeavy\":true}",
                   budgetSec, addrs.size(), [&]() {
                       (void)mc.accessBatch(0, 0, addrs,
                                            /*isWrite=*/false);
                   });
}

/**
 * llc-slice-evict: a dirty 4W-per-set sweep over eight LLC sets of the
 * sliced 16-core preset while three other cores keep sharer copies
 * resident, so every LLC eviction runs the inclusive back-invalidation
 * path. Measured as a pair: "flat" uses the per-slice sharer directory
 * (the production default, ~O(sharers) per event), "reference" forces
 * the pre-directory scan over all 16 cores' private hierarchies
 * (setDirectoryCoherence(false)). Both are bit-identical
 * (tests/test_sliced_llc) so the ratio is pure coherence-walk cost.
 */
BenchResult
benchLlcSliceEvict(const std::string &impl, double budgetSec)
{
    const Platform &plat = platform("dc-sliced-16core");
    Rng rng(10);
    MultiCoreSystem mc(plat.params, plat.cores, &rng);
    if (impl == "reference")
        mc.setDirectoryCoherence(false);
    const AddressLayout llcLayout(plat.params.llc.numSets());
    const unsigned ways = plat.params.llc.ways;
    const unsigned sets = 8;
    const unsigned sharers = 3;
    std::vector<Addr> held;   // one W-deep pool per set, kept shared
    std::vector<Addr> sweep;  // 4W distinct tags per set, written dirty
    for (unsigned set = 0; set < sets; ++set) {
        for (Addr a : chan::linesForSet(llcLayout, set, ways, 1))
            held.push_back(a);
        for (Addr a : chan::linesForSet(llcLayout, set, 4 * ways, 0x200))
            sweep.push_back(a);
    }
    return measure("llc-slice-evict", impl,
                   "{\"platform\":\"dc-sliced-16core\",\"cores\":16,"
                   "\"sets\":8,\"sharers\":3,\"asDirty\":true}",
                   budgetSec, sweep.size(), [&]() {
                       // Re-establish the sharer copies the previous
                       // pass back-invalidated, then evict them again.
                       for (unsigned c = 1; c <= sharers; ++c)
                           (void)mc.accessBatch(c, 0, held,
                                                /*isWrite=*/false);
                       (void)mc.accessBatch(0, 0, sweep,
                                            /*isWrite=*/true);
                   });
}

/**
 * tenant-frame: one small many-tenant sweep end to end — slice-blind
 * eviction-set discovery, cooperative sender-line search, training and
 * payload slots — on the sliced 16-core preset; ops are payload bits
 * across the pairs. Tracks the tenant harness's full-pipeline cost
 * (the scaling curves live in examples/tenant_scaling.cpp).
 */
BenchResult
benchTenantFrame(double budgetSec)
{
    chan::TenantSweepConfig cfg;
    cfg.usePlatform("dc-sliced-16core");
    cfg.pairs = 2;
    cfg.payloadBits = 64;
    cfg.seed = 1;
    return measure("tenant-frame", "multicore",
                   "{\"platform\":\"dc-sliced-16core\",\"pairs\":2,"
                   "\"unit\":\"bits\"}",
                   budgetSec, cfg.pairs * cfg.payloadBits,
                   [&]() { (void)chan::runTenantSweep(cfg); });
}

/** A program that does nothing but spin-waits of one period each. */
class SpinProgram : public Program
{
  public:
    explicit SpinProgram(Cycles period) : period_(period) {}

    const Trace *
    nextTrace(ProcView &view) override
    {
        op_ = MemOp::spinUntil(view.now() + period_);
        trace_ = {&op_, 1, nullptr, 0};
        return &trace_;
    }

  private:
    Cycles period_;
    MemOp op_;
    Trace trace_;
};

/**
 * spin-step: two threads whose execution is purely spin-waits, the
 * regime channel senders/receivers spend most of their virtual time
 * in (one spin-stack access per wait). Ops are simulated cycles.
 */
BenchResult
benchSpinStep(double budgetSec)
{
    Rng rng(8);
    HierarchyParams hp = xeonE5_2650Params();
    Hierarchy h(hp, &rng);
    SmtCore core(h, NoiseModel(), rng);
    SpinProgram a(200);
    SpinProgram b(200);
    core.addThread(&a, AddressSpace(1));
    core.addThread(&b, AddressSpace(2));
    const Cycles step = 10000;
    Cycles horizon = step;
    return measure("spin-step", "hierarchy",
                   "{\"threads\":2,\"spinPeriod\":200,\"unit\":\"cycles\"}",
                   budgetSec, step, [&]() {
                       core.run(horizon);
                       horizon += step;
                   });
}

/** channel-frame: one 128-bit frame end to end; ops are payload bits. */
BenchResult
benchChannelFrame(double budgetSec)
{
    chan::ChannelConfig cfg;
    cfg.protocol.frames = 1;
    cfg.calibration.measurements = 20;
    cfg.seed = 1;
    return measure("channel-frame", "hierarchy",
                   "{\"frames\":1,\"ts\":5500,\"unit\":\"bits\"}",
                   budgetSec, cfg.protocol.frameBits,
                   [&]() { (void)chan::runChannel(cfg); });
}

/**
 * cross-core-frame: one cross-core frame (sender core 0, receiver
 * core 1, shared inclusive LLC) end to end; ops are payload bits.
 */
BenchResult
benchCrossCoreFrame(double budgetSec)
{
    chan::CrossCoreChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.protocol.frames = 1;
    cfg.calibration.measurements = 20;
    cfg.seed = 1;
    return measure("cross-core-frame", "multicore",
                   "{\"frames\":1,\"cores\":4,\"unit\":\"bits\"}",
                   budgetSec, cfg.protocol.frameBits,
                   [&]() { (void)chan::runCrossCoreChannel(cfg); });
}

/**
 * system-build: construct the 64-core sliced preset's MultiCoreSystem
 * (32 MiB LLC in 8 slices, 64 private L1/L2 pairs), make one store,
 * destroy it; ops are systems. Tracks the cache storage layer: a build
 * pays only for the sets it touches, and a rebuild of the same
 * geometry reuses the storage the last one handed back.
 */
BenchResult
benchSystemBuild(double budgetSec)
{
    const Platform &plat = platform("dc-sliced-64core");
    return measure("system-build", "multicore",
                   "{\"platform\":\"dc-sliced-64core\","
                   "\"accesses\":1,\"unit\":\"systems\"}",
                   budgetSec, 1, [&]() {
                       Rng rng(11);
                       MultiCoreSystem mc(plat.params, plat.cores, &rng);
                       (void)mc.access(0, 0, 0x1000, /*isWrite=*/true);
                   });
}

/**
 * noise-frame: one single-core frame under the OS-noise scheduler
 * (two mixed co-runners time-sharing the core, context-switch
 * pollution) — the Table-VII regime end to end; ops are payload
 * bits. Tracks the scheduler layer's overhead trajectory.
 */
BenchResult
benchNoiseFrame(double budgetSec)
{
    chan::ChannelConfig cfg;
    cfg.protocol.frames = 1;
    cfg.calibration.measurements = 20;
    cfg.seed = 1;
    cfg.scheduler = platform(kDefaultPlatform).noisePreset;
    cfg.scheduler.coRunners = SchedulerConfig::mixOf(2);
    return measure("noise-frame", "scheduler",
                   "{\"frames\":1,\"coRunners\":2,\"unit\":\"bits\"}",
                   budgetSec, cfg.protocol.frameBits,
                   [&]() { (void)chan::runChannel(cfg); });
}

/**
 * transport-frame: one full transport session (framing, FrameSync,
 * selective-repeat ARQ, adaptive rate) over the single-core channel on
 * a quiet platform; ops are delivered payload bits. Tracks the
 * transport stack's overhead on top of the raw channel path.
 */
BenchResult
benchTransportFrame(double budgetSec)
{
    chan::ChannelConfig cfg;
    cfg.calibration.measurements = 20;
    cfg.seed = 1;
    cfg.transport.enabled = true;
    cfg.transport.layout.seqBits = 4;
    cfg.transport.layout.payloadBits = 24;
    cfg.transport.layout.interleaveDepth = 2;
    cfg.transport.messageFrames = 2;
    cfg.transport.windowFrames = 2;
    cfg.transport.maxRounds = 4;
    const unsigned payloadBits =
        cfg.transport.messageFrames * cfg.transport.layout.payloadBits;
    return measure("transport-frame", "transport",
                   "{\"frames\":2,\"payloadBits\":24,\"unit\":\"bits\"}",
                   budgetSec, payloadBits,
                   [&]() { (void)chan::runTransport(cfg); });
}

/** calibration: one offline calibrate() per call; ops = measurements. */
BenchResult
benchCalibration(double budgetSec)
{
    HierarchyParams hp = xeonE5_2650Params();
    NoiseModel noise;
    chan::CalibrationConfig cfg;
    cfg.measurements = 50;
    return measure("calibration", "hierarchy",
                   "{\"measurements\":50,\"unit\":\"measurements\"}",
                   budgetSec, cfg.measurements, [&]() {
                       Rng rng(3);
                       (void)chan::calibrate(hp, noise, cfg, rng);
                   });
}

void
writeJson(const std::vector<BenchResult> &results,
          const std::string &path, bool quick)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "bench_micro: cannot write " << path << "\n";
        std::exit(1);
    }
    out << "{\n  \"bench\": \"micro\",\n  \"quick\": "
        << (quick ? "true" : "false") << ",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        out << "    {\"name\": \"" << r.name << "\", \"impl\": \""
            << r.impl << "\", \"ops_per_sec\": " << std::fixed
            << r.opsPerSec << ", \"ops\": " << r.ops
            << ", \"elapsed_sec\": " << r.elapsedSec
            << ", \"config\": " << r.configJson << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"speedup_vs_reference\": {\n";
    bool first = true;
    for (const auto &r : results) {
        if (r.impl != "flat")
            continue;
        for (const auto &ref : results) {
            if (ref.impl == "reference" && ref.name == r.name &&
                ref.opsPerSec > 0.0) {
                out << (first ? "" : ",\n") << "    \"" << r.name
                    << "\": " << std::setprecision(2)
                    << r.opsPerSec / ref.opsPerSec;
                first = false;
            }
        }
    }
    out << "\n  }\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string outPath = "BENCH_micro.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else {
            std::cerr << "usage: bench_micro [--quick] [--out FILE]\n";
            return 2;
        }
    }
    const double budget = quick ? 0.08 : 0.4;
    gWindows = quick ? 5 : 3;

    std::vector<BenchResult> results;
    results.push_back(benchProbeHit(budget));
    results.push_back(benchFillEvict(budget));
    results.push_back(benchPartitioned(budget));
    results.push_back(benchPlcacheLocked(budget));
    results.push_back(benchHierarchyAccess("flat", budget));
    results.push_back(benchHierarchyAccess("reference", budget));
    results.push_back(benchMulticoreAccess(budget));
    results.push_back(benchLlcSliceEvict("flat", budget));
    results.push_back(benchLlcSliceEvict("reference", budget));
    results.push_back(benchSystemBuild(budget));
    results.push_back(benchHierarchyDirtyEvict(budget));
    results.push_back(benchPointerChase(budget));
    results.push_back(benchSmtStep(budget));
    results.push_back(benchTraceStep("flat", budget));
    results.push_back(benchTraceStep("reference", budget));
    results.push_back(benchSpinStep(budget));
    results.push_back(benchChannelFrame(budget));
    results.push_back(benchCrossCoreFrame(budget));
    results.push_back(benchNoiseFrame(budget));
    results.push_back(benchTransportFrame(budget));
    results.push_back(benchTenantFrame(budget));
    results.push_back(benchCalibration(budget));
    results.push_back(benchEditDistance(budget));
    // Last on purpose: the multi-threaded windows can exhaust a
    // burstable host's CPU credits and throttle whatever runs next.
    for (unsigned threads : {1u, 2u, 4u, 8u})
        results.push_back(benchSweepScaling(threads, budget));

    for (const auto &r : results) {
        std::cout << r.name << " [" << r.impl << "]: " << std::fixed
                  << std::setprecision(0) << r.opsPerSec
                  << " ops/s\n";
    }
    writeJson(results, outPath, quick);
    std::cout << "wrote " << outPath << "\n";
    return 0;
}
