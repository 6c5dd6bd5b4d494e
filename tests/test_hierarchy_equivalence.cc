/**
 * @file
 * Batched-vs-scalar hierarchy equivalence suite.
 *
 * Hierarchy::accessBatch() must be indistinguishable from driving the
 * same operations through Hierarchy::access() one at a time: the
 * fused loop and the scalar entry point share one inlined body, and
 * this suite enforces that the sharing actually holds. Randomized
 * multi-thread op streams run through two identically seeded
 * hierarchies — one stepped per access, one stepped per batch — and
 * every chunk must produce bit-identical aggregate latencies, hit
 * counts and dirty-eviction counts, with bit-identical per-thread
 * perf counters and cache state at the end. The grid covers every
 * platform registry preset and the stochastic hierarchy-level
 * defenses (random fill, prefetch guard), whose RNG draws must stay
 * in lockstep between the two execution styles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "sim/hierarchy.hh"
#include "sim/multicore.hh"
#include "sim/platform.hh"
#include "sim/scheduler.hh"

namespace wb::sim
{
namespace
{

/** Which hierarchy-level defenses to layer on a preset. */
struct DefenseVariant
{
    const char *name;
    unsigned randomFillWindow;
    double prefetchGuardProb;
};

const DefenseVariant kDefenseVariants[] = {
    {"none", 0, 0.0},
    {"randomFill", 8, 0.0},
    {"prefetchGuard", 0, 0.5},
    {"both", 8, 0.5},
};

/** One chunk of the randomized op stream. */
struct Chunk
{
    ThreadId tid = 0;
    bool isWrite = false;
    std::vector<Addr> paddrs;
};

/**
 * A randomized multi-thread stream: chunks alternate hardware
 * threads, mix loads and stores, and concentrate on a handful of L1
 * sets so fills evict constantly (the WB-channel regime).
 */
std::vector<Chunk>
makeStream(const AddressLayout &layout, std::uint64_t seed,
           std::size_t chunks)
{
    Rng rng(seed);
    std::vector<Chunk> stream;
    stream.reserve(chunks);
    const unsigned ways = 8; // tag pool scale; exact value uncritical
    for (std::size_t c = 0; c < chunks; ++c) {
        Chunk chunk;
        chunk.tid = static_cast<ThreadId>(rng.below(2));
        chunk.isWrite = rng.chance(0.45);
        const std::size_t len = 1 + rng.below(24);
        chunk.paddrs.reserve(len);
        for (std::size_t i = 0; i < len; ++i) {
            const unsigned set =
                static_cast<unsigned>(rng.below(4)) * 7 % layout.numSets();
            const Addr tag = 1 + rng.below(3 * ways);
            chunk.paddrs.push_back(layout.compose(set, tag));
        }
        stream.push_back(std::move(chunk));
    }
    return stream;
}

void
expectCountersEqual(const PerfCounters &a, const PerfCounters &b,
                    const std::string &label)
{
    EXPECT_EQ(a.loads, b.loads) << label;
    EXPECT_EQ(a.stores, b.stores) << label;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << label;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << label;
    EXPECT_EQ(a.l2Accesses, b.l2Accesses) << label;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << label;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << label;
    EXPECT_EQ(a.llcAccesses, b.llcAccesses) << label;
    EXPECT_EQ(a.llcHits, b.llcHits) << label;
    EXPECT_EQ(a.llcMisses, b.llcMisses) << label;
    EXPECT_EQ(a.l1DirtyWritebacks, b.l1DirtyWritebacks) << label;
    EXPECT_EQ(a.flushes, b.flushes) << label;
}

void
expectCacheStateEqual(Cache &a, Cache &b, const std::string &label)
{
    ASSERT_EQ(a.numSets(), b.numSets()) << label;
    for (unsigned set = 0; set < a.numSets(); ++set) {
        const auto la = a.setContents(set);
        const auto lb = b.setContents(set);
        ASSERT_EQ(la.size(), lb.size()) << label;
        for (std::size_t w = 0; w < la.size(); ++w) {
            EXPECT_EQ(la[w].valid, lb[w].valid)
                << label << " set " << set << " way " << w;
            EXPECT_EQ(la[w].dirty, lb[w].dirty)
                << label << " set " << set << " way " << w;
            EXPECT_EQ(la[w].locked, lb[w].locked)
                << label << " set " << set << " way " << w;
            if (la[w].valid) {
                EXPECT_EQ(la[w].lineAddr, lb[w].lineAddr)
                    << label << " set " << set << " way " << w;
                EXPECT_EQ(la[w].filledBy, lb[w].filledBy)
                    << label << " set " << set << " way " << w;
            }
        }
    }
}

class HierarchyEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::string, unsigned, std::uint64_t>>
{
};

TEST_P(HierarchyEquivalence, BatchedMatchesScalarBitExactly)
{
    const auto &[platformName, variantIdx, seed] = GetParam();
    const DefenseVariant &variant = kDefenseVariants[variantIdx];

    HierarchyParams hp = platform(platformName).params;
    hp.randomFillWindow = variant.randomFillWindow;
    hp.prefetchGuardProb = variant.prefetchGuardProb;

    const std::string label =
        platformName + "/" + variant.name + "/seed" + std::to_string(seed);

    // Identically seeded RNGs: any divergence in draw order between
    // the scalar and batched paths shows up as a state mismatch.
    Rng rngScalar(seed * 7919 + 17);
    Rng rngBatched(seed * 7919 + 17);
    Hierarchy scalar(hp, &rngScalar);
    Hierarchy batched(hp, &rngBatched);

    const auto stream =
        makeStream(scalar.l1().layout(), seed ^ 0xabcdef, 400);

    for (std::size_t c = 0; c < stream.size(); ++c) {
        const Chunk &chunk = stream[c];

        BatchAccessResult viaScalar;
        viaScalar.accesses = chunk.paddrs.size();
        for (Addr paddr : chunk.paddrs) {
            const AccessResult r =
                scalar.access(chunk.tid, paddr, chunk.isWrite);
            viaScalar.l1Hits += r.l1Hit ? 1 : 0;
            viaScalar.l1DirtyEvictions += r.l1VictimDirty ? 1 : 0;
            viaScalar.totalLatency += r.latency;
        }

        const BatchAccessResult viaBatch = batched.accessBatch(
            chunk.tid, chunk.paddrs, chunk.isWrite);

        ASSERT_EQ(viaScalar.accesses, viaBatch.accesses)
            << label << " chunk " << c;
        ASSERT_EQ(viaScalar.l1Hits, viaBatch.l1Hits)
            << label << " chunk " << c;
        ASSERT_EQ(viaScalar.l1DirtyEvictions, viaBatch.l1DirtyEvictions)
            << label << " chunk " << c;
        ASSERT_EQ(viaScalar.totalLatency, viaBatch.totalLatency)
            << label << " chunk " << c;
    }

    for (ThreadId tid = 0; tid < 2; ++tid) {
        expectCountersEqual(scalar.counters(tid), batched.counters(tid),
                            label + " tid " + std::to_string(tid));
    }
    expectCacheStateEqual(scalar.l1(), batched.l1(), label + " L1");
    expectCacheStateEqual(scalar.l2(), batched.l2(), label + " L2");
    expectCacheStateEqual(scalar.llc(), batched.llc(), label + " LLC");
}

std::vector<std::tuple<std::string, unsigned, std::uint64_t>>
equivalenceGrid()
{
    std::vector<std::tuple<std::string, unsigned, std::uint64_t>> grid;
    for (const auto &name : platformNames()) {
        // Sliced-LLC presets exist only as MultiCoreSystems (the
        // single-core Hierarchy is fatal on llcSlices > 1); their
        // equivalence coverage is tests/test_sliced_llc.cc.
        if (findPlatform(name)->params.llcSlices > 1)
            continue;
        for (unsigned v = 0; v < 4; ++v)
            for (std::uint64_t seed : {1ULL, 2ULL})
                grid.emplace_back(name, v, seed);
    }
    return grid;
}

std::string
gridName(const ::testing::TestParamInfo<
         std::tuple<std::string, unsigned, std::uint64_t>> &info)
{
    const auto &[platformName, variantIdx, seed] = info.param;
    std::string name = platformName + "_" +
                       kDefenseVariants[variantIdx].name + "_s" +
                       std::to_string(seed);
    for (char &ch : name)
        if (ch == '-')
            ch = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllPresetsAndDefenses, HierarchyEquivalence,
                         ::testing::ValuesIn(equivalenceGrid()),
                         gridName);

/**
 * Cross-core batched-vs-scalar equivalence: MultiCoreSystem's
 * accessBatch() runs the identical accessProbed body the scalar access()
 * runs, per core, including every coherence action (remote
 * invalidations, snoop downgrades, inclusive back-invalidation) and
 * the noise draw order. Randomized multi-core, multi-thread streams
 * concentrated on a handful of shared-LLC sets must be bit-identical
 * between the two execution styles.
 */
class MultiCoreEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>>
{
};

TEST_P(MultiCoreEquivalence, BatchedMatchesScalarBitExactly)
{
    const auto &[platformName, seed] = GetParam();
    const Platform &plat = platform(platformName);
    const unsigned cores = std::max(2u, plat.cores);
    const std::string label =
        platformName + "/seed" + std::to_string(seed);

    Rng rngScalar(seed * 6271 + 5);
    Rng rngBatched(seed * 6271 + 5);
    MultiCoreSystem scalar(plat.params, cores, &rngScalar);
    MultiCoreSystem batched(plat.params, cores, &rngBatched);

    // Chunks hop cores and threads, mix loads/stores, and concentrate
    // on a few LLC sets so coherence actions and LLC evictions fire
    // constantly (the cross-core channel regime).
    const AddressLayout llcLayout(plat.params.llc.numSets());
    Rng stream(seed ^ 0x5eed);
    for (std::size_t c = 0; c < 300; ++c) {
        const unsigned core = static_cast<unsigned>(stream.below(cores));
        const ThreadId tid = static_cast<ThreadId>(stream.below(2));
        const bool isWrite = stream.chance(0.45);
        const std::size_t len = 1 + stream.below(24);
        std::vector<Addr> paddrs;
        paddrs.reserve(len);
        for (std::size_t i = 0; i < len; ++i) {
            const unsigned set = static_cast<unsigned>(stream.below(3)) *
                                 11 % llcLayout.numSets();
            const Addr tag = 1 + stream.below(3 * plat.params.llc.ways);
            paddrs.push_back(llcLayout.compose(set, tag));
        }

        BatchAccessResult viaScalar;
        viaScalar.accesses = paddrs.size();
        for (Addr paddr : paddrs) {
            const AccessResult r =
                scalar.access(core, tid, paddr, isWrite);
            viaScalar.l1Hits += r.l1Hit ? 1 : 0;
            viaScalar.l1DirtyEvictions += r.l1VictimDirty ? 1 : 0;
            viaScalar.totalLatency += r.latency;
        }
        const BatchAccessResult viaBatch =
            batched.accessBatch(core, tid, paddrs, isWrite);

        ASSERT_EQ(viaScalar.l1Hits, viaBatch.l1Hits)
            << label << " chunk " << c;
        ASSERT_EQ(viaScalar.l1DirtyEvictions, viaBatch.l1DirtyEvictions)
            << label << " chunk " << c;
        ASSERT_EQ(viaScalar.totalLatency, viaBatch.totalLatency)
            << label << " chunk " << c;
    }

    for (unsigned core = 0; core < cores; ++core) {
        for (ThreadId tid = 0; tid < 2; ++tid) {
            expectCountersEqual(
                scalar.counters(core, tid), batched.counters(core, tid),
                label + " core " + std::to_string(core) + " tid " +
                    std::to_string(tid));
            EXPECT_EQ(scalar.counters(core, tid).llcDirtyEvictions,
                      batched.counters(core, tid).llcDirtyEvictions)
                << label << " core " << core;
            EXPECT_EQ(scalar.counters(core, tid).crossCoreSnoops,
                      batched.counters(core, tid).crossCoreSnoops)
                << label << " core " << core;
        }
        expectCacheStateEqual(scalar.l1(core), batched.l1(core),
                              label + " L1 core " + std::to_string(core));
        expectCacheStateEqual(scalar.l2(core), batched.l2(core),
                              label + " L2 core " + std::to_string(core));
    }
    expectCacheStateEqual(scalar.llc(), batched.llc(), label + " LLC");
}

INSTANTIATE_TEST_SUITE_P(
    MultiCorePresets, MultiCoreEquivalence,
    ::testing::Combine(::testing::Values(std::string("xeonE5-2650-2core"),
                                         std::string(
                                             "desktop-inclusive-4core")),
                       ::testing::Values(1ULL, 2ULL)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, std::uint64_t>> &info) {
        std::string name = std::get<0>(info.param) + "_s" +
                           std::to_string(std::get<1>(info.param));
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

/** One chunk of a hit-run stream (see makeHitRunStream). */
struct RunChunk
{
    unsigned core = 0;
    ThreadId tid = 0;
    bool isWrite = false;
    std::vector<Addr> paddrs;
};

/**
 * A stream of long L1 hit runs, the shape the batched hit-run kernel
 * takes apart. Chunks hold up to 1500 accesses, drawn mostly from 32
 * hot lines that every preset's L1 keeps resident, broken by cold
 * lines crowded into two LLC sets. The cold lines miss, evict in L2
 * and the LLC (a random-replacement LLC draws its victim from the
 * shared Rng there, in the middle of a batch), and push hot lines out
 * of L1 now and then. A fifth of the chunks are hot-only, so one run
 * spans the whole chunk. Every core shares the hot lines: store hits
 * find lines clean (a remote load downgraded them) as well as dirty.
 */
std::vector<RunChunk>
makeHitRunStream(const HierarchyParams &hp, unsigned cores,
                 std::uint64_t seed, std::size_t chunks)
{
    const AddressLayout llcLayout(hp.llc.numSets());
    Rng rng(seed);
    std::vector<RunChunk> stream;
    stream.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        RunChunk chunk;
        chunk.core = static_cast<unsigned>(rng.below(cores));
        chunk.tid = static_cast<ThreadId>(rng.below(2));
        chunk.isWrite = rng.chance(0.35);
        const double coldProb = rng.chance(0.2) ? 0.0 : 0.02;
        const std::size_t len =
            1 + rng.below(rng.chance(0.2) ? 1500 : 300);
        chunk.paddrs.reserve(len);
        for (std::size_t i = 0; i < len; ++i) {
            if (rng.chance(coldProb)) {
                const unsigned set =
                    3 + 2 * static_cast<unsigned>(rng.below(2));
                chunk.paddrs.push_back(llcLayout.compose(
                    set, 1 + rng.below(4 * hp.llc.ways)));
            } else {
                chunk.paddrs.push_back((Addr(0x4000) + rng.below(32))
                                       << lineShift);
            }
        }
        stream.push_back(std::move(chunk));
    }
    return stream;
}

/** Fold one scalar access into a batch-shaped total. */
void
addScalar(BatchAccessResult &total, const AccessResult &r)
{
    ++total.accesses;
    total.l1Hits += r.l1Hit ? 1 : 0;
    total.l1DirtyEvictions += r.l1VictimDirty ? 1 : 0;
    total.totalLatency += r.latency;
}

/** Hit-run cases: a preset, and whether its LLC replaces at random. */
using HitRunCase = std::tuple<std::string, bool, std::uint64_t>;

std::string
hitRunName(const ::testing::TestParamInfo<HitRunCase> &info)
{
    const auto &[platformName, randomLlc, seed] = info.param;
    std::string name = platformName + (randomLlc ? "_randomLlc" : "") +
                       "_s" + std::to_string(seed);
    for (char &ch : name)
        if (ch == '-')
            ch = '_';
    return name;
}

/**
 * Long L1 hit runs through Hierarchy::accessBatch() match the scalar
 * path bit for bit, on a write-back and a write-through L1 (where a
 * store hit forwards to L2 and so ends a run), with and without an
 * LLC that draws random victims from the shared Rng.
 */
class HierarchyHitRuns : public ::testing::TestWithParam<HitRunCase>
{
};

TEST_P(HierarchyHitRuns, BatchedMatchesScalarBitExactly)
{
    const auto &[platformName, randomLlc, seed] = GetParam();
    HierarchyParams hp = platform(platformName).params;
    if (randomLlc)
        hp.llc.policy = PolicyKind::RandomIid;
    const std::string label = hitRunName({GetParam(), 0});

    Rng rngScalar(seed * 104729 + 3);
    Rng rngBatched(seed * 104729 + 3);
    Hierarchy scalar(hp, &rngScalar);
    Hierarchy batched(hp, &rngBatched);

    const auto stream = makeHitRunStream(hp, 1, seed ^ 0x41751, 150);
    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
    for (std::size_t c = 0; c < stream.size(); ++c) {
        const RunChunk &chunk = stream[c];
        BatchAccessResult viaScalar;
        for (Addr paddr : chunk.paddrs)
            addScalar(viaScalar,
                      scalar.access(chunk.tid, paddr, chunk.isWrite));
        const BatchAccessResult viaBatch =
            batched.accessBatch(chunk.tid, chunk.paddrs, chunk.isWrite);
        ASSERT_EQ(viaScalar.accesses, viaBatch.accesses)
            << label << " chunk " << c;
        ASSERT_EQ(viaScalar.l1Hits, viaBatch.l1Hits)
            << label << " chunk " << c;
        ASSERT_EQ(viaScalar.l1DirtyEvictions, viaBatch.l1DirtyEvictions)
            << label << " chunk " << c;
        ASSERT_EQ(viaScalar.totalLatency, viaBatch.totalLatency)
            << label << " chunk " << c;
        hits += viaBatch.l1Hits;
        accesses += viaBatch.accesses;
    }
    // The stream is what it claims to be: mostly hits, some misses.
    EXPECT_GT(hits, accesses * 9 / 10) << label;
    EXPECT_LT(hits, accesses) << label;

    for (ThreadId tid = 0; tid < 2; ++tid) {
        expectCountersEqual(scalar.counters(tid), batched.counters(tid),
                            label + " tid " + std::to_string(tid));
    }
    expectCacheStateEqual(scalar.l1(), batched.l1(), label + " L1");
    expectCacheStateEqual(scalar.l2(), batched.l2(), label + " L2");
    expectCacheStateEqual(scalar.llc(), batched.llc(), label + " LLC");
    // Both styles drew the same number of raw values.
    EXPECT_EQ(rngScalar.next(), rngBatched.next()) << label;
}

INSTANTIATE_TEST_SUITE_P(
    Presets, HierarchyHitRuns,
    ::testing::Combine(::testing::Values(std::string("xeonE5-2650"),
                                         std::string("cortexA53-wt")),
                       ::testing::Bool(), ::testing::Values(1ULL, 2ULL)),
    hitRunName);

/**
 * Long L1 hit runs through MultiCoreSystem::accessBatch() match the
 * scalar path bit for bit. A store hit on a clean line must upgrade
 * it (invalidating the other cores' copies), so it ends a run; a store
 * hit on a dirty line does not.
 */
class MultiCoreHitRuns : public ::testing::TestWithParam<HitRunCase>
{
};

TEST_P(MultiCoreHitRuns, BatchedMatchesScalarBitExactly)
{
    const auto &[platformName, randomLlc, seed] = GetParam();
    const Platform &plat = platform(platformName);
    HierarchyParams hp = plat.params;
    if (randomLlc)
        hp.llc.policy = PolicyKind::RandomIid;
    const unsigned cores = std::max(2u, plat.cores);
    const std::string label = hitRunName({GetParam(), 0});

    Rng rngScalar(seed * 7877 + 9);
    Rng rngBatched(seed * 7877 + 9);
    MultiCoreSystem scalar(hp, cores, &rngScalar);
    MultiCoreSystem batched(hp, cores, &rngBatched);

    const auto stream = makeHitRunStream(hp, cores, seed ^ 0x3c0de, 150);
    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
    for (std::size_t c = 0; c < stream.size(); ++c) {
        const RunChunk &chunk = stream[c];
        BatchAccessResult viaScalar;
        for (Addr paddr : chunk.paddrs)
            addScalar(viaScalar, scalar.access(chunk.core, chunk.tid,
                                               paddr, chunk.isWrite));
        const BatchAccessResult viaBatch = batched.accessBatch(
            chunk.core, chunk.tid, chunk.paddrs, chunk.isWrite);
        ASSERT_EQ(viaScalar.accesses, viaBatch.accesses)
            << label << " chunk " << c;
        ASSERT_EQ(viaScalar.l1Hits, viaBatch.l1Hits)
            << label << " chunk " << c;
        ASSERT_EQ(viaScalar.l1DirtyEvictions, viaBatch.l1DirtyEvictions)
            << label << " chunk " << c;
        ASSERT_EQ(viaScalar.totalLatency, viaBatch.totalLatency)
            << label << " chunk " << c;
        hits += viaBatch.l1Hits;
        accesses += viaBatch.accesses;
    }
    EXPECT_GT(hits, accesses * 3 / 4) << label;
    EXPECT_LT(hits, accesses) << label;

    for (unsigned core = 0; core < cores; ++core) {
        for (ThreadId tid = 0; tid < 2; ++tid) {
            const std::string where = label + " core " +
                                      std::to_string(core) + " tid " +
                                      std::to_string(tid);
            expectCountersEqual(scalar.counters(core, tid),
                                batched.counters(core, tid), where);
            EXPECT_EQ(scalar.counters(core, tid).llcDirtyEvictions,
                      batched.counters(core, tid).llcDirtyEvictions)
                << where;
            EXPECT_EQ(scalar.counters(core, tid).crossCoreSnoops,
                      batched.counters(core, tid).crossCoreSnoops)
                << where;
        }
        expectCacheStateEqual(scalar.l1(core), batched.l1(core),
                              label + " L1 core " + std::to_string(core));
        expectCacheStateEqual(scalar.l2(core), batched.l2(core),
                              label + " L2 core " + std::to_string(core));
    }
    expectCacheStateEqual(scalar.llc(), batched.llc(), label + " LLC");
    EXPECT_EQ(scalar.coherenceStats().invalidateEvents,
              batched.coherenceStats().invalidateEvents)
        << label;
    EXPECT_EQ(scalar.coherenceStats().privateProbes,
              batched.coherenceStats().privateProbes)
        << label;
    EXPECT_EQ(rngScalar.next(), rngBatched.next()) << label;
}

INSTANTIATE_TEST_SUITE_P(
    Presets, MultiCoreHitRuns,
    ::testing::Combine(::testing::Values(std::string("xeonE5-2650-2core"),
                                         std::string(
                                             "desktop-inclusive-4core")),
                       ::testing::Bool(), ::testing::Values(1ULL, 2ULL)),
    hitRunName);

/**
 * Scheduler-interleaving equivalence: running the identical chunked
 * workload under the OS-noise Scheduler — with idle co-runners on the
 * other cores and periodic migration of the party — must be bit-exact
 * between batched and scalar execution, like MultiCoreEquivalence is
 * for the bare system. Chunks execute at fixed spin-aligned slots so
 * the surrounding co-runner/migration events land identically in both
 * runs; the chunk *interior* is where batched and scalar execution
 * differ, and where they must not diverge.
 */
class SchedulerEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    /** Slot pitch between chunks (longer than any chunk's latency). */
    static constexpr Cycles kSlot = 20'000;

    /**
     * One chunked, spin-paced workload (batched or scalar ops): every
     * chunk followed by a spin to the next slot.
     */
    static std::vector<MemOp>
    chunkOps(const std::vector<Chunk> &chunks, bool batched)
    {
        std::vector<MemOp> ops;
        for (std::size_t c = 0; c < chunks.size(); ++c) {
            const Chunk &chunk = chunks[c];
            if (batched) {
                ops.push_back(chunk.isWrite
                                  ? MemOp::storeBatch(chunk.paddrs.data(),
                                                      chunk.paddrs.size())
                                  : MemOp::loadBatch(chunk.paddrs.data(),
                                                     chunk.paddrs.size()));
            } else {
                for (Addr va : chunk.paddrs)
                    ops.push_back(chunk.isWrite ? MemOp::store(va)
                                                : MemOp::load(va));
            }
            ops.push_back(MemOp::spinUntil(Cycles(c + 1) * kSlot));
        }
        return ops;
    }

    /**
     * Chunks over sets {7, 14, 21, 28}: away from L1 set 0, where
     * every thread's spin-stack bookkeeping line lives, so co-runner
     * spins cannot touch replacement state the chunks depend on.
     */
    static std::vector<Chunk>
    makeChunks(std::uint64_t seed, std::size_t count)
    {
        Rng rng(seed);
        std::vector<Chunk> chunks;
        chunks.reserve(count);
        for (std::size_t c = 0; c < count; ++c) {
            Chunk chunk;
            chunk.isWrite = rng.chance(0.45);
            const std::size_t len = 1 + rng.below(24);
            chunk.paddrs.reserve(len);
            for (std::size_t i = 0; i < len; ++i) {
                const unsigned set =
                    7 * (1 + static_cast<unsigned>(rng.below(4)));
                chunk.paddrs.push_back(
                    AddressLayout(64).compose(set, 1 + rng.below(24)));
            }
            chunks.push_back(std::move(chunk));
        }
        return chunks;
    }

    /** Run one style, returning the system for state comparison. */
    static std::unique_ptr<MultiCoreSystem>
    runStyle(const Platform &plat, std::uint64_t seed, bool batched,
             std::vector<Chunk> &chunks, Rng &rng, Cycles *end)
    {
        auto mc = std::make_unique<MultiCoreSystem>(plat.params,
                                                    plat.cores, &rng);
        SchedulerConfig cfg;
        cfg.coRunners = {CoRunnerKind::Idle, CoRunnerKind::Idle};
        cfg.timeslice = 0; // idle co-runners never slice anyway
        cfg.migrationPeriod = 4 * kSlot;
        Scheduler sched(*mc, NoiseModel::quiet(), rng, cfg, seed);
        SmtCore &fe = sched.party(0, /*migratable=*/true);
        TraceProgram prog(chunkOps(chunks, batched));
        fe.addThread(&prog, AddressSpace(3));
        *end = sched.run(Cycles(chunks.size() + 2) * kSlot);
        EXPECT_GE(sched.stats().migrations, 2u);
        return mc;
    }
};

TEST_P(SchedulerEquivalence, BatchedMatchesScalarBitExactly)
{
    const std::uint64_t seed = GetParam();
    const Platform &plat = platform("desktop-inclusive-4core");
    auto chunks = makeChunks(seed ^ 0xcafe, 24);

    Cycles endScalar = 0, endBatched = 0;
    Rng rngScalar(seed * 31 + 7), rngBatched(seed * 31 + 7);
    auto scalar = runStyle(plat, seed, false, chunks, rngScalar,
                           &endScalar);
    auto batched = runStyle(plat, seed, true, chunks, rngBatched,
                            &endBatched);

    const std::string label = "sched/seed" + std::to_string(seed);
    EXPECT_EQ(endScalar, endBatched) << label;
    for (unsigned core = 0; core < plat.cores; ++core) {
        for (ThreadId tid = 0; tid < 2; ++tid) {
            expectCountersEqual(
                scalar->counters(core, tid), batched->counters(core, tid),
                label + " core " + std::to_string(core) + " tid " +
                    std::to_string(tid));
        }
        expectCacheStateEqual(scalar->l1(core), batched->l1(core),
                              label + " L1 core " + std::to_string(core));
        expectCacheStateEqual(scalar->l2(core), batched->l2(core),
                              label + " L2 core " + std::to_string(core));
    }
    expectCacheStateEqual(scalar->llc(), batched->llc(), label + " LLC");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence,
                         ::testing::Values(1ULL, 2ULL, 3ULL));

/** The virtual-address overload translates identically. */
TEST(HierarchyEquivalence, VirtualAddressOverloadMatches)
{
    HierarchyParams hp = platform(kDefaultPlatform).params;
    Rng rngA(3), rngB(3);
    Hierarchy a(hp, &rngA);
    Hierarchy b(hp, &rngB);
    AddressSpace space(5);

    Rng stream(11);
    std::vector<Addr> vaddrs;
    for (int i = 0; i < 300; ++i)
        vaddrs.push_back(a.l1().layout().compose(
            static_cast<unsigned>(stream.below(8)),
            1 + stream.below(16)));

    BatchAccessResult viaScalar;
    viaScalar.accesses = vaddrs.size();
    for (Addr va : vaddrs) {
        const auto r = a.access(0, space.translate(va), false);
        viaScalar.l1Hits += r.l1Hit ? 1 : 0;
        viaScalar.l1DirtyEvictions += r.l1VictimDirty ? 1 : 0;
        viaScalar.totalLatency += r.latency;
    }
    const auto viaBatch = b.accessBatch(0, space, vaddrs, false);
    EXPECT_EQ(viaScalar.l1Hits, viaBatch.l1Hits);
    EXPECT_EQ(viaScalar.l1DirtyEvictions, viaBatch.l1DirtyEvictions);
    EXPECT_EQ(viaScalar.totalLatency, viaBatch.totalLatency);
}

} // namespace
} // namespace wb::sim
