/**
 * @file
 * End-to-end benchmark driver for the wbchan simulator.
 *
 *   perfbench_e2e --workload samecore|frontier|tenants --seed N
 *                 --seconds S [--trace 0|1] [--workers 2]
 *                 [--spans FILE]
 *
 * A workload is a fixed list of sessions; a session is one call to a
 * public entry point (runChannel, runTransport, runCrossCoreChannel,
 * runCrossCoreTransport, runTenantSweep) with a config and seed derived
 * from --seed. The list runs as a closed loop on a sim::SweepRunner
 * pool (each worker takes the next session when its current one
 * finishes), repeatedly, until --seconds of rounds have run. Every
 * session builds its simulated platform from empty caches.
 *
 * With --trace 1, rounds alternate untraced and traced. A traced
 * session records spans (name, start, end, parent, session) around the
 * call into the library and around *stage probes*: direct calls to
 * chan::planDegraded, chan::calibrate and EvictionSetFinder::findFor on
 * the session's resolved config, made just before the call. A probe
 * stands in for the same stage run inside the call, so the call's self
 * time is its span minus the probe time it runs that stage for (once
 * per physical burst, or once per tenant pair for discovery).
 *
 * The last stdout line is one JSON object with the per-round figures;
 * perfbench/run.py turns those into the benchmark's metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "chan/degraded.hh"
#include "chan/eviction_finder.hh"
#include "chan/set_mapping.hh"
#include "chan/tenant.hh"
#include "common/log.hh"
#include "sim/multicore.hh"
#include "sim/observer.hh"
#include "sim/platform.hh"
#include "sim/sweep_runner.hh"

using namespace wb;

// The link step wraps wb::fatal() (CMakeLists.txt) so that it lands
// here: throwing keeps a session's configuration error inside that
// session, where it is counted as a failure.
[[noreturn]] void benchFatal(const std::string &msg) __asm__(
    "__wrap__ZN2wb5fatalERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE");

void
benchFatal(const std::string &msg)
{
    throw std::runtime_error("fatal: " + msg);
}

namespace
{

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/**
 * Process start as the program sees it: taken by the first static
 * initialiser to run (priority 101 precedes the default priority of
 * every initialiser in this binary, the library's included), so
 * setup_s covers the program's own start-up and not the exec or the
 * loading of shared libraries before it.
 */
std::int64_t processStartNs = 0;

[[gnu::constructor(101)]] void
markProcessStart()
{
    processStartNs = nowNs();
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// ------------------------------------------------------------ digest

/** FNV-1a over the simulated outputs, fed field by field. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    byte(std::uint8_t b)
    {
        h ^= b;
        h *= 0x100000001b3ULL;
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(std::uint8_t(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    bits(const BitVec &b)
    {
        u64(b.size());
        for (bool x : b)
            byte(x ? 1 : 0);
    }

    void
    counters(const sim::PerfCounters &c)
    {
        for (std::uint64_t v :
             {c.loads, c.stores, c.l1Hits, c.l1Misses, c.l2Accesses,
              c.l2Hits, c.l2Misses, c.llcAccesses, c.llcHits, c.llcMisses,
              c.l1DirtyWritebacks, c.flushes, c.llcDirtyEvictions,
              c.crossCoreSnoops, c.spinLoads})
            u64(v);
    }

    void
    sched(const sim::SchedulerStats &s)
    {
        u64(s.contextSwitches);
        u64(s.migrations);
        u64(s.pollutionAccesses);
        u64(s.coRunnerAccesses);
    }
};

// ---------------------------------------------------------- sessions

struct TransportSession
{
    chan::ChannelConfig cfg;
    BitVec message;
};

struct CrossTransportSession
{
    chan::CrossCoreChannelConfig cfg;
    BitVec message;
};

/** One call to a public entry point, fully configured. */
struct Session
{
    std::string cls; //!< session class (workload composition)
    std::variant<chan::ChannelConfig, TransportSession,
                 chan::CrossCoreChannelConfig, CrossTransportSession,
                 chan::TenantSweepConfig>
        call;
};

/** A span: one timed interval of one session (ns on the steady clock). */
struct Span
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1; //!< index into the session's spans; -1 = root
};

/** What one session produced: outputs, checks, timing and probes. */
struct Record
{
    bool failed = false;
    std::string error;
    std::uint64_t digest = 0;

    std::int64_t start = 0, end = 0;
    unsigned worker = 0;

    // Simulated outputs the per-layer metrics read.
    bool singleShot = false;
    bool transport = false;
    bool tenant = false;
    Cycles simCycles = 0;
    sim::PerfCounters counters; //!< sender + receiver (single-shot)
    sim::SchedulerStats sched;
    unsigned rounds = 0;
    unsigned framesDelivered = 0;
    std::uint64_t framesSent = 0;
    unsigned pairs = 0, discovered = 0;
    std::uint64_t discoveryTests = 0;
    std::uint64_t privateProbes = 0, scanProbeEquivalent = 0;

    // Traced sessions only: spans, and what the probes did. stageRuns
    // is how many times the call runs each probed stage.
    std::vector<Span> spans;
    unsigned stageRuns = 0;
    unsigned discoverRuns = 0;
    std::uint64_t calMeasurements = 0;
    unsigned planRepetition = 0;
    bool planProbed = false, calProbed = false;
    unsigned discoverCalls = 0, discoverVerified = 0;
    std::uint64_t discoverTests = 0, discoverAccesses = 0;
};

/** Records spans for one traced session. */
class Tracer
{
  public:
    explicit Tracer(Record *rec) : rec_(rec) {}

    bool on() const { return rec_ != nullptr; }

    int
    open(const char *name, int parent)
    {
        if (!rec_)
            return -1;
        rec_->spans.push_back({name, nowNs(), 0, parent});
        return int(rec_->spans.size()) - 1;
    }

    void
    close(int id)
    {
        if (rec_ && id >= 0)
            rec_->spans[std::size_t(id)].end = nowNs();
    }

  private:
    Record *rec_;
};

// ----------------------------------------------------- stage probes

/** Direct planDegraded + calibrate calls on a same-core config. */
void
probeSameCore(const chan::ChannelConfig &cfg, Record &rec, Tracer &tr)
{
    int id = tr.open("plan", 0);
    const chan::DegradedPlan plan = chan::planDegraded(cfg);
    tr.close(id);
    rec.planProbed = true;
    rec.planRepetition = plan.repetition;

    // The calibration runRawSequence performs for this plan.
    const chan::ChannelConfig &pc = plan.cfg;
    chan::CalibrationConfig cc = pc.calibration;
    if (cc.levelsMix.empty())
        cc.levelsMix = pc.protocol.encoding.levels();
    cc.targetSet = pc.protocol.targetSet;
    cc.replacementSize = pc.protocol.replacementSize;
    Rng rng(splitmix(cfg.seed ^ 0xca1ULL));
    id = tr.open("calibrate", 0);
    const chan::Calibration cal =
        chan::calibrate(pc.platform, pc.noise, cc, rng);
    tr.close(id);
    rec.calProbed = true;
    for (const Samples &s : cal.latencyByD)
        rec.calMeasurements += s.count();

    if (pc.noise.observer.cls != sim::ObserverClass::EvictionOnly)
        return;
    // The eviction-only observer's set discovery, as
    // chan::discoverChannelSets runs it: a minimal L1 eviction set for
    // each of the two replacement sets, timing tests only.
    // The span covers only the findFor calls; building the hierarchy
    // and the pools is the call's own set-up, counted in its self time.
    Rng drng(splitmix(cfg.seed ^ 0xd15cULL));
    sim::Hierarchy hierarchy(pc.platform, &drng);
    const unsigned ways = pc.platform.l1.ways;
    chan::EvictionFinderConfig fc;
    fc.associativity = ways;
    fc.threshold = (pc.platform.lat.l1Hit + pc.platform.lat.l2Hit) / 2;
    chan::EvictionSetFinder finder(hierarchy, /*tid=*/1, fc);
    const sim::AddressSpace space(2);
    std::vector<std::pair<Addr, std::vector<Addr>>> targets;
    for (Addr tagBase : {Addr(0x400), Addr(0x500)}) {
        const std::vector<Addr> pool =
            chan::linesForSet(hierarchy.l1().layout(), pc.protocol.targetSet,
                              3 * ways + 1, tagBase);
        std::vector<Addr> candidates;
        for (std::size_t i = 1; i < pool.size(); ++i)
            candidates.push_back(space.translate(pool[i]));
        targets.push_back({space.translate(pool[0]), std::move(candidates)});
    }
    id = tr.open("discover", 0);
    for (const auto &[target, candidates] : targets) {
        const chan::EvictionSetResult r =
            finder.findFor(target, candidates, drng);
        ++rec.discoverCalls;
        rec.discoverVerified += r.verifiedMinimal ? 1 : 0;
        rec.discoverTests += r.timingTests;
        rec.discoverAccesses += r.accesses;
    }
    tr.close(id);
}

/** One tenant pair's receiver discovery, as runTenantSweep runs it. */
void
probeTenant(const chan::TenantSweepConfig &cfg, Record &rec, Tracer &tr)
{
    // The span covers only findFor: runTenantSweep builds its system
    // once for all pairs, so building one here is not per-pair work.
    Rng rng(splitmix(cfg.seed ^ 0xd15cULL));
    sim::MultiCoreSystem mc(cfg.platform, cfg.cores, &rng);
    const sim::AddressLayout llc(cfg.platform.llc.numSets());
    const unsigned set = unsigned(rng.below(
        std::min(std::max(1u, cfg.targetSetRange),
                 cfg.platform.llc.numSets())));
    const sim::AddressSpace space(2);
    std::vector<Addr> candidates;
    for (Addr va : chan::linesForSet(llc, set, cfg.candidatePool, 0x100))
        candidates.push_back(space.translate(va));
    chan::EvictionFinderConfig fc;
    fc.associativity = cfg.platform.llc.ways;
    chan::EvictionSetFinder finder(mc.port(1), /*tid=*/0, fc);
    const Addr target = space.translate(chan::linesForSet(llc, set, 1, 1)[0]);
    const int id = tr.open("discover", 0);
    const chan::EvictionSetResult r = finder.findFor(target, candidates, rng);
    tr.close(id);
    ++rec.discoverCalls;
    rec.discoverVerified += r.verifiedMinimal ? 1 : 0;
    rec.discoverTests += r.timingTests;
    rec.discoverAccesses += r.accesses;
}

// ----------------------------------------------- outputs and checks

void
check(bool ok, const char *what)
{
    if (!ok)
        throw std::runtime_error(std::string("invariant: ") + what);
}

void
takeChannel(const chan::ChannelResult &r, Record &rec)
{
    check(r.ber >= 0.0 && r.ber <= 1.0, "ber in [0, 1]");
    check(r.simulatedCycles > 0, "simulatedCycles > 0");
    rec.singleShot = true;
    rec.simCycles = r.simulatedCycles;
    rec.sched = r.schedulerStats;
    sim::PerfCounters &c = rec.counters;
    for (const sim::PerfCounters *p : {&r.senderCounters, &r.receiverCounters}) {
        c.loads += p->loads;
        c.stores += p->stores;
        c.l1Misses += p->l1Misses;
        c.llcDirtyEvictions += p->llcDirtyEvictions;
        c.crossCoreSnoops += p->crossCoreSnoops;
        c.spinLoads += p->spinLoads;
    }
    Fnv f;
    f.bits(r.decodedBits);
    f.f64(r.ber);
    f.u64(r.simulatedCycles);
    f.u64(r.repetition);
    f.u64(r.evictionDiscoveryVerified);
    f.counters(r.senderCounters);
    f.counters(r.receiverCounters);
    f.sched(r.schedulerStats);
    rec.digest = f.h;
}

void
takeTransport(const chan::TransportResult &r, Record &rec)
{
    check(r.framesDelivered + r.framesFailed == r.framesTotal,
          "framesDelivered + framesFailed == framesTotal");
    check(r.framesDelivered <= r.framesSent, "framesDelivered <= framesSent");
    check(r.residualBer >= 0.0 && r.residualBer <= 1.0, "ber in [0, 1]");
    check(r.simulatedCycles > 0, "simulatedCycles > 0");
    rec.transport = true;
    rec.simCycles = r.simulatedCycles;
    rec.sched = r.schedulerStats;
    rec.rounds = r.rounds;
    rec.framesDelivered = r.framesDelivered;
    rec.framesSent = r.framesSent;
    Fnv f;
    for (std::uint64_t v :
         {std::uint64_t(r.framesTotal), std::uint64_t(r.framesDelivered),
          std::uint64_t(r.framesFailed), r.framesSent, r.retransmissions,
          r.payloadBitsDelivered, r.residualBitErrors,
          std::uint64_t(r.rounds), std::uint64_t(r.finalRateLevel),
          std::uint64_t(r.syncLosses), std::uint64_t(r.resyncs),
          r.fecCorrectedBits, std::uint64_t(r.simulatedCycles)})
        f.u64(v);
    for (unsigned lvl : r.rateLevelByRound)
        f.u64(lvl);
    f.sched(r.schedulerStats);
    rec.digest = f.h;
}

void
takeTenant(const chan::TenantSweepConfig &cfg,
           const chan::TenantSweepResult &r, Record &rec)
{
    check(r.discovered <= cfg.pairs, "discovered <= pairs");
    check(r.pairs.size() == cfg.pairs, "one result per pair");
    rec.tenant = true;
    rec.pairs = cfg.pairs;
    rec.discovered = r.discovered;
    rec.privateProbes = r.coherence.privateProbes;
    rec.scanProbeEquivalent = r.scanProbeEquivalent;
    Fnv f;
    for (const chan::TenantPairResult &p : r.pairs) {
        check(p.ber >= 0.0 && p.ber <= 1.0, "ber in [0, 1]");
        rec.discoveryTests += p.discoveryTests;
        f.u64(p.targetSet);
        f.u64(p.slice);
        f.u64(p.discovered);
        f.u64(p.senderLineCount);
        f.u64(p.discoveryTests);
        f.u64(p.discoveryAccesses);
        f.f64(p.ber);
    }
    const sim::CoherenceStats &c = r.coherence;
    for (std::uint64_t v : {c.invalidateEvents, c.snoopEvents,
                            c.backInvalEvents, c.flushEvents,
                            c.privateProbes, r.scanProbeEquivalent})
        f.u64(v);
    f.f64(r.aggregateKbps);
    rec.digest = f.h;
}

/** Run one session; never throws. */
void
runSession(const Session &s, Record &rec, bool traced)
{
    Tracer tr(traced ? &rec : nullptr);
    const int root = tr.open("session", -1);
    try {
        std::visit(
            [&](const auto &call) {
                using T = std::decay_t<decltype(call)>;
                if constexpr (std::is_same_v<T, chan::ChannelConfig>) {
                    if (tr.on())
                        probeSameCore(call, rec, tr);
                    const int id = tr.open("run", root);
                    const chan::ChannelResult r = chan::runChannel(call);
                    tr.close(id);
                    takeChannel(r, rec);
                    rec.stageRuns = rec.discoverRuns = 1;
                } else if constexpr (std::is_same_v<T, TransportSession>) {
                    if (tr.on())
                        probeSameCore(call.cfg, rec, tr);
                    const int id = tr.open("transport", root);
                    const chan::TransportResult r =
                        chan::runTransport(call.cfg, call.message);
                    tr.close(id);
                    takeTransport(r, rec);
                    // Every round is one burst: plan, calibrate (and
                    // discover) run once per burst.
                    rec.stageRuns = rec.discoverRuns = r.rounds;
                } else if constexpr (std::is_same_v<
                                         T, chan::CrossCoreChannelConfig>) {
                    const int id = tr.open("run", root);
                    const chan::ChannelResult r =
                        chan::runCrossCoreChannel(call);
                    tr.close(id);
                    takeChannel(r, rec);
                } else if constexpr (std::is_same_v<T,
                                                    CrossTransportSession>) {
                    const int id = tr.open("transport", root);
                    const chan::TransportResult r =
                        chan::runCrossCoreTransport(call.cfg, call.message);
                    tr.close(id);
                    takeTransport(r, rec);
                } else {
                    if (tr.on())
                        probeTenant(call, rec, tr);
                    const int id = tr.open("tenant", root);
                    const chan::TenantSweepResult r =
                        chan::runTenantSweep(call);
                    tr.close(id);
                    takeTenant(call, r, rec);
                    rec.discoverRuns = call.pairs;
                }
            },
            s.call);
    } catch (const std::exception &e) {
        rec.failed = true;
        rec.error = e.what();
    } catch (...) {
        rec.failed = true;
        rec.error = "unknown exception";
    }
    tr.close(root);
}

// --------------------------------------------------------- workloads

BitVec
randomMessage(std::uint64_t seed, std::size_t bits)
{
    Rng rng(seed);
    BitVec m;
    m.reserve(bits);
    for (std::size_t i = 0; i < bits; ++i)
        m.push_back(rng.flip());
    return m;
}

/** The small transport geometry the capacity-frontier sweep uses. */
void
smallTransport(chan::TransportConfig &t)
{
    t.enabled = true;
    t.layout.seqBits = 4;
    t.layout.payloadBits = 24;
    t.layout.crcWidth = 16;
    t.layout.interleaveDepth = 2;
    t.messageFrames = 4;
    t.windowFrames = 4;
    t.maxRetries = 3;
    t.maxRounds = 6;
}

/**
 * Collects a workload's sessions. Each session gets its own seed,
 * derived from --seed and its position, so the same --seed gives the
 * same inputs. Workloads add their heaviest sessions first: the pool
 * then finishes on short sessions, which keeps the tail idle small.
 */
class Builder
{
  public:
    explicit Builder(std::uint64_t seed) : seed_(seed) {}

    std::uint64_t
    nextSeed()
    {
        return splitmix(seed_ * 0x100000001b3ULL + count_++);
    }

    void
    add(std::string cls, decltype(Session::call) call)
    {
        list.push_back({std::move(cls), std::move(call)});
    }

    std::vector<Session> list;

  private:
    std::uint64_t seed_;
    std::uint64_t count_ = 0;
};

/**
 * samecore: the paper's channel, sender and receiver as SMT siblings on
 * the single-core presets, across encodings, Ts and the four observer
 * classes; single-shot runChannel plus quiet runTransport sessions.
 */
std::vector<Session>
samecoreWorkload(std::uint64_t seed)
{
    Builder b(seed);
    const char *const platforms[] = {"xeonE5-2650", "desktop-inclusive",
                                     "cortexA53-wt", "xeonE5-2650-dawg"};

    auto base = [&](const char *platform) {
        chan::ChannelConfig cfg;
        cfg.usePlatform(platform);
        cfg.protocol.encoding =
            chan::Encoding::binary(std::min(8u, cfg.platform.l1.ways));
        cfg.protocol.frameBits = 32;
        cfg.protocol.frames = 2;
        cfg.seed = b.nextSeed();
        return cfg;
    };
    // Binary at the widest gap the associativity allows, and a 2-bit
    // encoding (the paper's {0, 3, 5, 8} where the L1 has 8 ways).
    auto twoBit = [](const chan::ChannelConfig &cfg) {
        const unsigned ways = cfg.platform.l1.ways;
        return ways >= 8 ? chan::Encoding::paperTwoBit()
                         : chan::Encoding::multiBit({0, 1, 3, ways});
    };
    auto transport = [&](const chan::ChannelConfig &cfg, const char *cls) {
        const std::size_t bits = std::size_t(cfg.transport.messageFrames) *
                                 cfg.transport.layout.payloadBits;
        b.add(cls, TransportSession{
                       cfg, randomMessage(cfg.seed ^ 0x3e55a9eULL, bits)});
    };

    // Coarse-timer sessions (repetition-amplified, per-burst
    // planDegraded), at small frames: default frames take ~60 s each.
    // The planner sizes R from the gap it measures; with its default
    // sample floor R swings by about +-30% from seed to seed, so these
    // sessions plan from a larger calibration. The transport runs on
    // xeonE5-2650, not on cortexA53-wt: on the write-through preset the
    // same session takes 0.2 to 1.3 s by seed, as long as the rest of a
    // round, and would set wall_s alone.
    const unsigned kCoarseMeasurements = 16384;
    const Cycles kCoarseGranule = sim::kSandboxTimerGranule / 2;
    {
        chan::ChannelConfig cfg = base("xeonE5-2650");
        cfg.noise.observer = sim::ObserverModel::sandboxTimer(kCoarseGranule);
        cfg.calibration.measurements = kCoarseMeasurements;
        smallTransport(cfg.transport);
        cfg.transport.messageFrames = 1;
        cfg.transport.windowFrames = 1;
        cfg.transport.maxRounds = 2;
        transport(cfg, "transport/coarse-timer");
    }
    for (const char *p : {"xeonE5-2650", "desktop-inclusive"}) {
        chan::ChannelConfig cfg = base(p);
        cfg.noise.observer = sim::ObserverModel::sandboxTimer(kCoarseGranule);
        cfg.calibration.measurements = kCoarseMeasurements;
        cfg.protocol.frames = 1;
        b.add("shot/coarse-timer", cfg);
    }
    // Cycle-accurate single shots: encoding x Ts x frame size, from
    // paper-sized frames (128 bits x 90, run-dominated) down to small
    // ones (32 bits x 2, calibration-dominated).
    const std::pair<unsigned, unsigned> frameSizes[] = {
        {128, 90}, {32, 16}, {32, 2}};
    for (const auto &[frameBits, frames] : frameSizes) {
        for (const char *p : platforms) {
            for (Cycles ts : {3000, 5500, 11000}) {
                if (frames == 90 && ts == 3000)
                    continue;
                for (bool multi : {false, true}) {
                    chan::ChannelConfig cfg = base(p);
                    if (multi)
                        cfg.protocol.encoding = twoBit(cfg);
                    cfg.protocol.ts = cfg.protocol.tr = ts;
                    cfg.protocol.frameBits = frameBits;
                    cfg.protocol.frames = frames;
                    b.add(multi ? "shot/cycle-accurate/2bit"
                                : "shot/cycle-accurate/binary",
                          cfg);
                }
            }
        }
    }
    // Flush-latency and eviction-only single shots.
    for (const auto &[frameBits, frames] : frameSizes) {
        if (frames == 16)
            continue;
        for (const char *p : platforms) {
            for (bool flush : {true, false}) {
                chan::ChannelConfig cfg = base(p);
                cfg.protocol.frameBits = frameBits;
                cfg.protocol.frames = frames;
                cfg.noise.observer = flush
                                         ? sim::ObserverModel::flushLatency()
                                         : sim::ObserverModel::evictionOnly();
                b.add(flush ? "shot/flush-latency" : "shot/eviction-only",
                      cfg);
            }
        }
    }
    // Quiet same-core transport sessions (no co-runners).
    for (unsigned rep = 0; rep < 2; ++rep) {
        for (const char *p : platforms) {
            for (bool multi : {false, true}) {
                chan::ChannelConfig cfg = base(p);
                if (multi)
                    cfg.protocol.encoding = twoBit(cfg);
                cfg.calibration.measurements = 200;
                smallTransport(cfg.transport);
                transport(cfg, "transport/cycle-accurate");
            }
        }
    }
    return std::move(b.list);
}

/**
 * frontier: the cross-core capacity frontier, co-runner mix x
 * migration on the open (desktop-inclusive-4core) and the closed
 * (xeonE5-2650-2core) multi-core preset, single-shot and transport
 * sessions, in the capacity-frontier sweep's configuration.
 */
std::vector<Session>
frontierWorkload(std::uint64_t seed)
{
    Builder b(seed);
    const char *const platforms[] = {"desktop-inclusive-4core",
                                     "xeonE5-2650-2core"};
    const std::pair<const char *, Cycles> migrations[] = {{"pinned", 0},
                                                          {"400k", 400'000}};
    // Co-runner cells first (heaviest), transport before single shot.
    for (bool withCoRunners : {true, false}) {
        for (bool transport : {true, false}) {
            for (const char *p : platforms) {
                for (unsigned coRunners : {2u, 3u, 4u, 0u}) {
                    if ((coRunners != 0) != withCoRunners)
                        continue;
                    for (const auto &[migName, period] : migrations) {
                        chan::CrossCoreChannelConfig cfg;
                        cfg.usePlatform(p);
                        cfg.protocol.frames = 2;
                        cfg.calibration.measurements = 40;
                        cfg.scheduler = sim::platform(p).noisePreset;
                        cfg.scheduler.coRunners =
                            sim::SchedulerConfig::mixOf(coRunners);
                        cfg.scheduler.migrationPeriod = period;
                        const std::string cell =
                            std::string(p) + "/" +
                            (coRunners ? std::to_string(coRunners) + "-mixed"
                                       : std::string("quiet")) +
                            "/" + migName;
                        if (!transport) {
                            // Three seeds per single-shot cell and two
                            // per transport cell: the median session
                            // then falls inside the single-shot
                            // cluster and the tail inside the transport
                            // cluster, not at their edges.
                            for (int rep = 0; rep < 3; ++rep) {
                                cfg.seed = b.nextSeed();
                                b.add("shot/" + cell, cfg);
                            }
                            continue;
                        }
                        smallTransport(cfg.transport);
                        cfg.transport.messageFrames = 1;
                        cfg.transport.windowFrames = 1;
                        for (int rep = 0; rep < 2; ++rep) {
                            cfg.seed = b.nextSeed();
                            b.add("transport/" + cell,
                                  CrossTransportSession{
                                      cfg,
                                      randomMessage(cfg.seed ^ 0x3e55a9eULL,
                                                    cfg.transport.layout
                                                        .payloadBits)});
                        }
                    }
                }
            }
        }
    }
    return std::move(b.list);
}

/**
 * tenants: runTenantSweep on the sliced 16- and 64-core presets, at 16
 * and 64 pairs, over several seeds.
 */
std::vector<Session>
tenantsWorkload(std::uint64_t seed)
{
    Builder b(seed);
    for (const auto &[pairs, reps] : {std::pair{64u, 1u}, std::pair{16u, 10u}}) {
        for (unsigned rep = 0; rep < reps; ++rep) {
            for (const char *p : {"dc-sliced-16core", "dc-sliced-64core"}) {
                chan::TenantSweepConfig cfg;
                cfg.usePlatform(p);
                cfg.pairs = pairs;
                cfg.seed = b.nextSeed();
                b.add(std::string(p) + "/" + std::to_string(pairs) + "-pairs",
                      cfg);
            }
        }
    }
    return std::move(b.list);
}

// ------------------------------------------------------------ rounds

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned workers = 2;
    std::string spansPath;
};

/** One pass over the whole session list. */
struct Round
{
    bool traced = false;
    double wallS = 0.0;
    std::vector<Record> records;
};

Round
runRound(const std::vector<Session> &sessions, unsigned workers, bool traced)
{
    Round round;
    round.traced = traced;
    round.records.resize(sessions.size());
    // Worker ids are per round: SweepRunner starts fresh threads each
    // run, and the calling thread is a worker too.
    static std::atomic<unsigned> generation{0};
    const unsigned gen = generation.fetch_add(1) + 1;
    std::atomic<unsigned> nextWorker{0};
    sim::SweepRunner pool(workers);
    const std::int64_t t0 = nowNs();
    pool.run(sessions.size(), [&](std::size_t i) {
        thread_local unsigned seenGen = 0;
        thread_local unsigned id = 0;
        if (seenGen != gen) {
            seenGen = gen;
            id = nextWorker.fetch_add(1);
        }
        Record &rec = round.records[i];
        rec.worker = id;
        rec.start = nowNs();
        runSession(sessions[i], rec, traced);
        rec.end = nowNs();
    });
    round.wallS = double(nowNs() - t0) * 1e-9;
    return round;
}

std::uint64_t
roundDigest(const Round &r)
{
    Fnv f;
    for (const Record &rec : r.records)
        f.u64(rec.digest);
    return f.h;
}

double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    if (v.empty())
        return 0.0;
    // Linear interpolation between closest ranks.
    const double pos = p / 100.0 * double(v.size() - 1);
    const std::size_t lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

/**
 * The highest whole percentile with at least ten sessions beyond it
 * (p90 at 100 sessions); p50 when there are fewer than 20 sessions.
 */
double
tailPercentile(std::size_t n)
{
    return std::max(50.0, std::floor(100.0 * (1.0 - 10.0 / double(n))));
}

/**
 * Nearest-rank percentile: the smallest value with at least p% of the
 * samples at or below it. At the tail percentile this is a session
 * time, never an interpolation across the gap between two session
 * classes.
 */
double
nearestRank(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank =
        std::size_t(std::ceil(p * double(v.size()) / 100.0 - 1e-9));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ------------------------------------------------------------ output

class Json
{
  public:
    Json &
    key(const std::string &k)
    {
        sep();
        out_ += "\"" + k + "\":";
        fresh_ = true;
        return *this;
    }

    Json &
    num(double v)
    {
        sep();
        char buf[64];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof buf, "%.9g", v);
        else
            std::snprintf(buf, sizeof buf, "null");
        out_ += buf;
        return *this;
    }

    Json &
    i64(std::int64_t v)
    {
        sep();
        out_ += std::to_string(v);
        return *this;
    }

    Json &
    str(const std::string &s)
    {
        sep();
        out_ += "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                out_ += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                out_ += c;
        }
        out_ += "\"";
        return *this;
    }

    Json &
    open(char c)
    {
        sep();
        out_ += c;
        fresh_ = true;
        return *this;
    }

    Json &
    close(char c)
    {
        out_ += c;
        fresh_ = false;
        return *this;
    }

    const std::string &text() const { return out_; }

  private:
    void
    sep()
    {
        if (!fresh_ && !out_.empty())
            out_ += ",";
        fresh_ = false;
    }

    std::string out_;
    bool fresh_ = true;
};

double
spanMs(const Span &s)
{
    return double(s.end - s.start) * 1e-6;
}

/** Per-layer figures of one traced round (see README.md). */
std::vector<std::pair<std::string, double>>
layerMetrics(const Round &r)
{
    double calMs = 0, planMs = 0, discMs = 0, runMs = 0, xportMs = 0,
           tenantMs = 0, callMs = 0, calProbeS = 0;
    double calCalls = 0, planCalls = 0, calMeas = 0, repMax = 0;
    double discCalls = 0, discTests = 0, discAcc = 0, discVer = 0;
    double runAccesses = 0, runCycles = 0, spin = 0, loadsStores = 0;
    double l1Miss = 0, dirtyEv = 0, snoops = 0;
    double xSessions = 0, xRounds = 0, xDelivered = 0, xSent = 0, xDead = 0;
    double coAll = 0, coShot = 0, ctx = 0, mig = 0;
    double tTests = 0, tProbes = 0, tScan = 0, tDisc = 0, tPairs = 0;

    for (const Record &rec : r.records) {
        double stageMs = 0.0, call = 0.0;
        for (const Span &s : rec.spans) {
            const std::string name = s.name;
            if (name == "calibrate") {
                calMs += rec.stageRuns * spanMs(s);
                stageMs += rec.stageRuns * spanMs(s);
                calProbeS += spanMs(s) * 1e-3;
            } else if (name == "plan") {
                planMs += rec.stageRuns * spanMs(s);
                stageMs += rec.stageRuns * spanMs(s);
            } else if (name == "discover") {
                discMs += rec.discoverRuns * spanMs(s);
                stageMs += rec.discoverRuns * spanMs(s);
            } else if (name != "session") {
                call = spanMs(s);
            }
        }
        callMs += call;
        const double self = std::max(0.0, call - stageMs);
        calCalls += rec.calProbed;
        planCalls += rec.planProbed;
        calMeas += double(rec.calMeasurements);
        repMax = std::max(repMax, double(rec.planRepetition));
        discCalls += rec.discoverCalls;
        discTests += double(rec.discoverTests);
        discAcc += double(rec.discoverAccesses);
        discVer += rec.discoverVerified;

        coAll += double(rec.sched.coRunnerAccesses);
        ctx += double(rec.sched.contextSwitches);
        mig += double(rec.sched.migrations);
        if (rec.singleShot) {
            const sim::PerfCounters &c = rec.counters;
            runMs += self;
            runCycles += double(rec.simCycles);
            const double party = double(c.loads + c.stores);
            runAccesses += party + double(rec.sched.coRunnerAccesses);
            coShot += double(rec.sched.coRunnerAccesses);
            loadsStores += party;
            spin += double(c.spinLoads);
            l1Miss += double(c.l1Misses);
            dirtyEv += double(c.llcDirtyEvictions);
            snoops += double(c.crossCoreSnoops);
        } else if (rec.transport) {
            xportMs += self;
            xSessions += 1;
            xRounds += rec.rounds;
            xDelivered += rec.framesDelivered;
            xSent += double(rec.framesSent);
            if (rec.framesDelivered == 0)
                xDead += rec.rounds;
        } else if (rec.tenant) {
            tenantMs += self;
            tTests += double(rec.discoveryTests);
            tProbes += double(rec.privateProbes);
            tScan += double(rec.scanProbeEquivalent);
            tDisc += rec.discovered;
            tPairs += rec.pairs;
        }
    }
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    return {
        {"calibrate.calls", calCalls},
        {"calibrate.ms", calMs},
        {"calibrate.share", ratio(calMs, callMs)},
        {"calibrate.measurements_per_s", ratio(calMeas, calProbeS)},
        {"plan.calls", planCalls},
        {"plan.ms", planMs},
        {"plan.repetition_max", repMax},
        {"discover.calls", discCalls},
        {"discover.ms", discMs},
        {"discover.tests", discTests},
        {"discover.accesses", discAcc},
        {"discover.verified_frac", ratio(discVer, discCalls)},
        {"run.ms", runMs},
        {"run.sim_cycles", runCycles},
        {"run.host_ns_per_sim_access", ratio(runMs * 1e6, runAccesses)},
        {"run.spin_load_frac", ratio(spin, spin + loadsStores)},
        {"transport.sessions", xSessions},
        {"transport.ms", xportMs},
        {"transport.rounds", xRounds},
        {"transport.ms_per_round", ratio(xportMs, xRounds)},
        {"transport.delivered_per_sent", ratio(xDelivered, xSent)},
        {"transport.dead_rounds", xDead},
        {"mem.accesses", loadsStores},
        {"mem.l1_miss_frac", ratio(l1Miss, loadsStores)},
        {"mem.llc_dirty_evictions", dirtyEv},
        {"mem.cross_core_snoops", snoops},
        {"sched.corunner_accesses", coAll},
        {"sched.corunner_access_frac", ratio(coShot, coShot + loadsStores)},
        {"sched.context_switches", ctx},
        {"sched.migrations", mig},
        {"tenant.ms", tenantMs},
        {"tenant.discovery_tests", tTests},
        {"tenant.private_probes", tProbes},
        {"tenant.probe_win", ratio(tScan, tProbes)},
        {"tenant.discovered_frac", ratio(tDisc, tPairs)},
    };
}

/** Total time the traced round spent in probes (all stages). */
double
probeMs(const Round &r)
{
    double ms = 0.0;
    for (const Record &rec : r.records)
        for (const Span &s : rec.spans) {
            const std::string name = s.name;
            if (name == "calibrate" || name == "plan" || name == "discover")
                ms += spanMs(s);
        }
    return ms;
}

void
writeSpans(const std::string &path, const std::vector<Round> &rounds,
           std::int64_t epoch)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
    for (std::size_t ri = 0; ri < rounds.size(); ++ri) {
        const Round &r = rounds[ri];
        if (!r.traced)
            continue;
        for (std::size_t si = 0; si < r.records.size(); ++si) {
            const Record &rec = r.records[si];
            for (std::size_t k = 0; k < rec.spans.size(); ++k) {
                const Span &s = rec.spans[k];
                Json j;
                j.open('{')
                    .key("round").i64(std::int64_t(ri))
                    .key("session").i64(std::int64_t(si))
                    .key("span").i64(std::int64_t(k))
                    .key("name").str(s.name)
                    .key("parent").i64(s.parent)
                    .key("worker").i64(rec.worker)
                    .key("start_ns").i64(s.start - epoch)
                    .key("end_ns").i64(s.end - epoch)
                    .close('}');
                out << j.text() << "\n";
            }
        }
    }
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench_e2e --workload "
                 "samecore|frontier|tenants --seed N --seconds S "
                 "[--trace 0|1] [--workers N] [--spans FILE]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--workers")
                o.workers = unsigned(std::stoul(value()));
            else if (a == "--spans")
                o.spansPath = value();
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workers == 0)
        usage("--workers must be at least 1");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    setVerbose(false);

    std::vector<Session> sessions;
    if (opt.workload == "samecore")
        sessions = samecoreWorkload(opt.seed);
    else if (opt.workload == "frontier")
        sessions = frontierWorkload(opt.seed);
    else if (opt.workload == "tenants")
        sessions = tenantsWorkload(opt.seed);
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());

    // Set-up ends here: the first timed session starts next.
    const std::int64_t firstTimed = nowNs();
    const std::int64_t budget = std::int64_t(opt.seconds * 1e9);
    std::vector<Round> rounds;
    double lastWall = 0.0;
    for (;;) {
        const bool traced = opt.trace && rounds.size() % 2 == 1;
        rounds.push_back(runRound(sessions, opt.workers, traced));
        lastWall = std::max(lastWall, rounds.back().wallS);
        const std::int64_t used = nowNs() - firstTimed;
        const std::size_t minRounds = opt.trace ? 2 : 1;
        if (rounds.size() >= minRounds &&
            used + std::int64_t(lastWall * 1e9) > budget)
            break;
    }

    if (!opt.spansPath.empty())
        writeSpans(opt.spansPath, rounds, firstTimed);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    // Human-readable summary on stderr; stdout carries the JSON.
    const double tailP = tailPercentile(sessions.size());
    std::size_t failed = 0;
    std::string firstError;
    for (const Round &r : rounds)
        for (const Record &rec : r.records)
            if (rec.failed) {
                ++failed;
                if (firstError.empty())
                    firstError = rec.error;
            }

    Json j;
    j.open('{');
    j.key("workload").str(opt.workload);
    j.key("seed").num(double(opt.seed));
    j.key("workers").num(opt.workers);
    j.key("sessions").num(double(sessions.size()));
    j.key("tail_percentile").num(tailP);
    j.key("setup_s").num(double(firstTimed - processStartNs) * 1e-9);
    j.key("peak_rss_kb").num(double(ru.ru_maxrss));
    j.key("sessions_failed").num(double(failed));
    j.key("first_error").str(firstError);
    j.key("classes").open('{');
    {
        std::vector<std::pair<std::string, unsigned>> counts;
        for (const Session &s : sessions) {
            auto it = std::find_if(counts.begin(), counts.end(),
                                   [&](const auto &c) { return c.first == s.cls; });
            if (it == counts.end())
                counts.push_back({s.cls, 1});
            else
                ++it->second;
        }
        for (const auto &[cls, n] : counts)
            j.key(cls).num(n);
    }
    j.close('}');
    j.key("rounds").open('[');
    for (const Round &r : rounds) {
        std::vector<double> ms;
        double busy = 0.0;
        std::vector<std::int64_t> lastEnd(opt.workers, 0);
        std::int64_t roundEnd = 0;
        for (const Record &rec : r.records) {
            ms.push_back(double(rec.end - rec.start) * 1e-6);
            busy += double(rec.end - rec.start) * 1e-9;
            if (rec.worker < lastEnd.size())
                lastEnd[rec.worker] = std::max(lastEnd[rec.worker], rec.end);
            roundEnd = std::max(roundEnd, rec.end);
        }
        const std::int64_t firstIdle =
            *std::min_element(lastEnd.begin(), lastEnd.end());
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016" PRIx64, roundDigest(r));
        j.open('{');
        j.key("traced").num(r.traced);
        j.key("wall_s").num(r.wallS);
        j.key("session_ms_p50").num(percentile(ms, 50.0));
        j.key("session_ms_tail").num(nearestRank(ms, tailP));
        j.key("busy_frac").num(busy / (opt.workers * r.wallS));
        j.key("tail_idle_ms").num(
            firstIdle > 0 ? double(roundEnd - firstIdle) * 1e-6 : 0.0);
        j.key("digest").str(digest);
        if (r.traced) {
            j.key("probe_ms").num(probeMs(r));
            j.key("layers").open('{');
            for (const auto &[name, v] : layerMetrics(r))
                j.key(name).num(v);
            j.close('}');
        }
        j.close('}');
    }
    j.close(']');
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}
