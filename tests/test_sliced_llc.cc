/**
 * @file
 * Sliced-LLC correctness: the slice hash itself, bit-exactness of the
 * sharer-directory coherence against the retained global-scan
 * reference (on sliced and unsliced presets), directory rebuild on
 * re-enable, and ground-truth back-invalidation through a slice.
 *
 * The directory-vs-scan equivalence is the load-bearing claim: the
 * scan mode is the pre-directory implementation kept verbatim, so
 * "directory mode produces identical per-access results, PerfCounters
 * and cache state" is exactly "the perf optimisation changed no
 * architecture". CoherenceStats are exempt by design — they count
 * interconnect probes, which is the thing the directory shrinks.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "sim/multicore.hh"
#include "sim/platform.hh"
#include "sim/slice_hash.hh"

namespace wb::sim
{
namespace
{

// ------------------------------------------------------- slice hash

TEST(SliceHash, SingleSliceAlwaysZero)
{
    const SliceHash h(1, 12);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(h.sliceOf(rng.next()), 0u);
}

TEST(SliceHash, StaysInRangeAndIsDeterministic)
{
    Rng rng(3);
    for (unsigned slices : {2u, 4u, 8u}) {
        const SliceHash h(slices, 12);
        for (int i = 0; i < 2000; ++i) {
            const Addr la = rng.next();
            const unsigned s = h.sliceOf(la);
            EXPECT_LT(s, slices);
            EXPECT_EQ(s, h.sliceOf(la)) << "not deterministic";
        }
    }
}

TEST(SliceHash, SpreadsTagsAcrossAllSlices)
{
    // Lines sharing a set index differ only in tag bits; the XOR-of-
    // tag-bits hash must scatter them over every slice with no
    // grossly starved bucket (each gets 1/8 +- a generous factor).
    const SliceHash h(8, 12);
    std::vector<unsigned> hits(8, 0);
    const unsigned n = 4096;
    for (unsigned tag = 1; tag <= n; ++tag)
        ++hits[h.sliceOf((Addr(tag) << 12) | 37)];
    for (unsigned s = 0; s < 8; ++s) {
        EXPECT_GT(hits[s], n / 16) << "slice " << s << " starved";
        EXPECT_LT(hits[s], n / 4) << "slice " << s << " overloaded";
    }
}

TEST(SliceHash, FoldsHighBitsIntoTheHash)
{
    // Address-space ids land far above the tag's low bits; they must
    // still influence slice selection (the hash folds the upper half
    // down), or every tenant pool would scatter identically.
    const SliceHash h(8, 12);
    bool differs = false;
    for (unsigned asid = 1; asid < 64 && !differs; ++asid)
        differs = h.sliceOf((Addr(asid) << 38) | (1u << 12) | 37) !=
                  h.sliceOf((Addr(1) << 12) | 37);
    EXPECT_TRUE(differs);
}

// -------------------------------------- directory vs scan bit-exact

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
    EXPECT_EQ(a.llcDirtyEvictions, b.llcDirtyEvictions) << label;
    EXPECT_EQ(a.crossCoreSnoops, b.crossCoreSnoops) << label;
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
            if (la[w].valid)
                EXPECT_EQ(la[w].lineAddr, lb[w].lineAddr)
                    << label << " set " << set << " way " << w;
        }
    }
}

void
expectSystemsEqual(MultiCoreSystem &a, MultiCoreSystem &b,
                   const std::string &label)
{
    ASSERT_EQ(a.coreCount(), b.coreCount()) << label;
    ASSERT_EQ(a.llcSliceCount(), b.llcSliceCount()) << label;
    for (unsigned core = 0; core < a.coreCount(); ++core) {
        for (ThreadId tid = 0; tid < 2; ++tid)
            expectCountersEqual(a.counters(core, tid),
                                b.counters(core, tid),
                                label + " core " + std::to_string(core) +
                                    " tid " + std::to_string(tid));
        expectCacheStateEqual(a.l1(core), b.l1(core),
                              label + " L1 core " + std::to_string(core));
        expectCacheStateEqual(a.l2(core), b.l2(core),
                              label + " L2 core " + std::to_string(core));
    }
    for (unsigned s = 0; s < a.llcSliceCount(); ++s)
        expectCacheStateEqual(a.llcSlice(s), b.llcSlice(s),
                              label + " LLC slice " + std::to_string(s));
}

/**
 * Random coherence-heavy traffic: core-hopping load/store chunks
 * concentrated on a few aggregate LLC sets, with occasional coherent
 * flushes. Drives @p mc through @p chunks chunks with @p stream.
 */
void
driveTraffic(MultiCoreSystem &mc, Rng &stream, unsigned chunks,
             const HierarchyParams &params)
{
    const AddressLayout llcLayout(params.llc.numSets());
    const unsigned cores = mc.coreCount();
    // Wide tag range: with 8 slices only ~1/8 of the tags land in a
    // given slice-set, so the range must overfill slice-sets, not
    // just the aggregate set.
    const Addr tagRange =
        3ull * params.llc.ways * std::max(1u, params.llcSlices);
    for (unsigned c = 0; c < chunks; ++c) {
        const unsigned core = unsigned(stream.below(cores));
        const ThreadId tid = ThreadId(stream.below(2));
        const bool isWrite = stream.chance(0.45);
        const std::size_t len = 1 + stream.below(24);
        std::vector<Addr> paddrs;
        paddrs.reserve(len);
        for (std::size_t i = 0; i < len; ++i) {
            const unsigned set =
                unsigned(stream.below(3)) * 11 % llcLayout.numSets();
            const Addr tag = 1 + stream.below(tagRange);
            paddrs.push_back(llcLayout.compose(set, tag));
        }
        if (stream.chance(0.06)) {
            mc.flush(core, tid, paddrs[0]);
            continue;
        }
        mc.accessBatch(core, tid, paddrs, isWrite);
    }
}

class SlicedLlcEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>>
{
};

TEST_P(SlicedLlcEquivalence, DirectoryMatchesGlobalScanBitExactly)
{
    const auto &[platformName, seed] = GetParam();
    const Platform &plat = platform(platformName);
    const unsigned cores = std::max(2u, plat.cores);
    const std::string label =
        platformName + "/seed" + std::to_string(seed);

    Rng rngDir(seed * 9241 + 3);
    Rng rngScan(seed * 9241 + 3);
    MultiCoreSystem dir(plat.params, cores, &rngDir);
    MultiCoreSystem scan(plat.params, cores, &rngScan);
    // Force the modes explicitly: the default is topology-dependent
    // (kDirectoryMinCores), and this suite must compare directory
    // against scan on every preset, including the small ones.
    dir.setDirectoryCoherence(true);
    scan.setDirectoryCoherence(false);

    // Identical traffic into both systems, compared access by access:
    // the per-chunk totals catch a divergence where it first appears.
    const AddressLayout llcLayout(plat.params.llc.numSets());
    Rng stream(seed ^ 0xd1f);
    const unsigned chunks = 300;
    const Addr tagRange = 3ull * plat.params.llc.ways *
                          std::max(1u, plat.params.llcSlices);
    for (unsigned c = 0; c < chunks; ++c) {
        const unsigned core = unsigned(stream.below(cores));
        const ThreadId tid = ThreadId(stream.below(2));
        const bool isWrite = stream.chance(0.45);
        const std::size_t len = 1 + stream.below(24);
        std::vector<Addr> paddrs;
        for (std::size_t i = 0; i < len; ++i) {
            const unsigned set =
                unsigned(stream.below(3)) * 11 % llcLayout.numSets();
            const Addr tag = 1 + stream.below(tagRange);
            paddrs.push_back(llcLayout.compose(set, tag));
        }
        if (stream.chance(0.06)) {
            const Cycles fa = dir.flush(core, tid, paddrs[0]);
            const Cycles fb = scan.flush(core, tid, paddrs[0]);
            ASSERT_EQ(fa, fb) << label << " flush chunk " << c;
            continue;
        }
        const BatchAccessResult ra =
            dir.accessBatch(core, tid, paddrs, isWrite);
        const BatchAccessResult rb =
            scan.accessBatch(core, tid, paddrs, isWrite);
        ASSERT_EQ(ra.l1Hits, rb.l1Hits) << label << " chunk " << c;
        ASSERT_EQ(ra.l1DirtyEvictions, rb.l1DirtyEvictions)
            << label << " chunk " << c;
        ASSERT_EQ(ra.totalLatency, rb.totalLatency)
            << label << " chunk " << c;
    }

    expectSystemsEqual(dir, scan, label);

    // The traffic reached the highest core, so its presence bit (bit
    // 63 on the 64-core preset) took part in the comparison.
    PerfCounters top = dir.counters(cores - 1, 0);
    top.merge(dir.counters(cores - 1, 1));
    EXPECT_GT(top.loads + top.stores, 0u) << label;

    // Event counts agree (same architectural history); the directory
    // must have probed no *more* private pairs than the full scan —
    // fewer is the point, more would mean phantom sharers.
    const CoherenceStats &cd = dir.coherenceStats();
    const CoherenceStats &cs = scan.coherenceStats();
    EXPECT_EQ(cd.invalidateEvents, cs.invalidateEvents) << label;
    EXPECT_EQ(cd.snoopEvents, cs.snoopEvents) << label;
    EXPECT_EQ(cd.backInvalEvents, cs.backInvalEvents) << label;
    EXPECT_EQ(cd.flushEvents, cs.flushEvents) << label;
    EXPECT_LE(cd.privateProbes, cs.privateProbes) << label;
}

INSTANTIATE_TEST_SUITE_P(
    Presets, SlicedLlcEquivalence,
    ::testing::Combine(
        ::testing::Values(std::string("dc-sliced-64core"),
                          std::string("dc-sliced-16core"),
                          std::string("desktop-inclusive-4core"),
                          std::string("xeonE5-2650-2core")),
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

// ------------------------------------------ rebuild and introspection

TEST(SlicedLlc, DirectoryRebuildSurvivesMidRunToggle)
{
    const Platform &plat = platform("dc-sliced-16core");
    Rng rngA(41), rngB(41);
    MultiCoreSystem stayOn(plat.params, plat.cores, &rngA);
    MultiCoreSystem toggled(plat.params, plat.cores, &rngB);

    Rng streamA(99), streamB(99);
    driveTraffic(stayOn, streamA, 60, plat.params);
    driveTraffic(toggled, streamB, 60, plat.params);
    // Toggle through scan mode and back: re-enabling must rebuild the
    // sharer directory from live cache contents, not resume a stale
    // (now empty) one — a missing presence bit would skip a required
    // invalidation and the states would diverge below.
    toggled.setDirectoryCoherence(false);
    toggled.setDirectoryCoherence(true);
    driveTraffic(stayOn, streamA, 60, plat.params);
    driveTraffic(toggled, streamB, 60, plat.params);
    expectSystemsEqual(stayOn, toggled, "mid-run directory rebuild");
}

TEST(SlicedLlc, MonolithicViewIsFatalOnShardedLlc)
{
    const Platform &plat = platform("dc-sliced-16core");
    Rng rng(1);
    MultiCoreSystem mc(plat.params, plat.cores, &rng);
    EXPECT_EQ(mc.llcSliceCount(), 8u);
    EXPECT_EXIT((void)mc.llc(), ::testing::ExitedWithCode(1),
                "no monolithic view");
}

TEST(SlicedLlc, SingleSliceKeepsTheMonolithicView)
{
    const Platform &plat = platform("desktop-inclusive-4core");
    ASSERT_LE(plat.params.llcSlices, 1u);
    Rng rng(1);
    MultiCoreSystem mc(plat.params, plat.cores, &rng);
    EXPECT_EQ(mc.llcSliceCount(), 1u);
    // llc() and llcSlice(0) are the same cache, full aggregate size.
    EXPECT_EQ(&mc.llc(), &mc.llcSlice(0));
    EXPECT_EQ(mc.llc().numSets(), plat.params.llc.numSets());
    Rng probe(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(mc.sliceOf(probe.next()), 0u);
}

TEST(SlicedLlc, ShardGeometrySplitsTheAggregate)
{
    const Platform &plat = platform("dc-sliced-64core");
    Rng rng(1);
    MultiCoreSystem mc(plat.params, plat.cores, &rng);
    ASSERT_EQ(mc.llcSliceCount(), plat.params.llcSlices);
    unsigned totalSets = 0;
    for (unsigned s = 0; s < mc.llcSliceCount(); ++s) {
        EXPECT_EQ(mc.llcSlice(s).numSets(),
                  plat.params.llc.numSets() / plat.params.llcSlices);
        totalSets += mc.llcSlice(s).numSets();
    }
    EXPECT_EQ(totalSets, plat.params.llc.numSets());
}

// ------------------------------------- ground-truth back-invalidation

TEST(SlicedLlc, InclusiveBackInvalidationCrossesTheSlice)
{
    const Platform &plat = platform("dc-sliced-16core");
    ASSERT_TRUE(plat.params.inclusiveLlc);
    MultiCoreSystem mc(plat.params, plat.cores, nullptr);

    // Ground truth (test-only): collect ways + 1 lines congruent with
    // the victim — same slice AND same slice-set index.
    const AddressLayout llcLayout(plat.params.llc.numSets());
    const unsigned sliceSets =
        plat.params.llc.numSets() / plat.params.llcSlices;
    const Addr victim = llcLayout.compose(123, 1);
    const unsigned vSlice = mc.sliceOf(victim);
    const Addr vIndex = AddressLayout::lineAddr(victim) & (sliceSets - 1);
    std::vector<Addr> congruent;
    for (Addr tag = 2; congruent.size() < plat.params.llc.ways + 1;
         ++tag) {
        const Addr cand = llcLayout.compose(123, tag);
        if (mc.sliceOf(cand) == vSlice &&
            (AddressLayout::lineAddr(cand) & (sliceSets - 1)) == vIndex)
            congruent.push_back(cand);
    }

    // Core 1 holds the victim; core 0 overfills the victim's
    // slice-set. Inclusion must kill core 1's private copies even
    // though core 1 never saw the traffic.
    mc.access(1, 0, victim, false);
    ASSERT_TRUE(mc.l1(1).contains(victim));
    for (int sweep = 0; sweep < 2; ++sweep)
        for (Addr line : congruent)
            mc.access(0, 0, line, false);
    EXPECT_FALSE(mc.llcSlice(vSlice).contains(victim));
    EXPECT_FALSE(mc.l1(1).contains(victim)) << "no back-invalidation";
    EXPECT_FALSE(mc.l2(1).contains(victim)) << "no back-invalidation";
    EXPECT_GT(mc.coherenceStats().backInvalEvents, 0u);
}

} // namespace
} // namespace wb::sim
