/**
 * @file
 * Randomized equivalence suite for the flat structure-of-arrays Cache
 * against NaiveCache (tests/naive_cache.hh: nested vectors and one
 * naive policy object per set).
 *
 * For every PolicyKind × write-policy × partitioning/locking scenario
 * it replays a long mixed stream of probe / hit / fill / invalidate /
 * lock / unlock / reset operations through both models — each with its
 * own identically seeded Rng, so the stochastic policies' draw
 * sequences must also line up — and asserts bit-identical hit / miss /
 * evict / dirty behavior at every step, plus periodic full-state
 * comparisons. A second geometry (8 ways × 4 sets, true LRU) replays
 * eight longer streams. Across both grids roughly 150k operations are
 * replayed.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "common/rng.hh"
#include "naive_cache.hh"
#include "sim/cache.hh"

namespace wb::sim
{
namespace
{

/** Partitioning / locking scenarios the paper's defenses induce. */
enum class Scenario
{
    None,    //!< no partitioning, no locking
    NoMo,    //!< fill partitioning with a shared overlap way
    Dawg,    //!< disjoint halves, probes isolated too
    PlCache, //!< lock-on-write
};

const char *
scenarioName(Scenario s)
{
    switch (s) {
      case Scenario::None:
        return "none";
      case Scenario::NoMo:
        return "NoMo";
      case Scenario::Dawg:
        return "DAWG";
      case Scenario::PlCache:
        return "PLcache";
    }
    return "?";
}

CacheParams
paramsFor(PolicyKind policy, WritePolicy wp, Scenario scenario,
          unsigned ways, unsigned sets)
{
    CacheParams p;
    p.name = "equiv";
    p.ways = ways;
    p.sizeBytes = std::size_t(ways) * sets * lineBytes;
    p.policy = policy;
    p.writePolicy = wp;
    switch (scenario) {
      case Scenario::None:
        break;
      case Scenario::NoMo: {
        const unsigned half = ways / 2;
        p.fillMaskPerThread = {
            wayMaskRange(0, half) | wayMaskRange(ways - 1, ways),
            wayMaskRange(half, ways),
        };
        break;
      }
      case Scenario::Dawg: {
        const unsigned half = ways / 2;
        p.fillMaskPerThread = {wayMaskRange(0, half),
                               wayMaskRange(half, ways)};
        p.probeIsolated = true;
        break;
      }
      case Scenario::PlCache:
        p.lockOnWrite = true;
        break;
    }
    return p;
}

void
expectSameLine(const Line &a, const Line &b, const std::string &ctx)
{
    EXPECT_EQ(a.valid, b.valid) << ctx;
    EXPECT_EQ(a.dirty, b.dirty) << ctx;
    EXPECT_EQ(a.locked, b.locked) << ctx;
    EXPECT_EQ(a.lineAddr, b.lineAddr) << ctx;
    EXPECT_EQ(a.filledBy, b.filledBy) << ctx;
}

void
expectSameState(const Cache &flat, const NaiveCache &ref,
                const std::string &ctx)
{
    for (unsigned s = 0; s < flat.numSets(); ++s) {
        const auto fl = flat.setContents(s);
        const auto &rl = ref.setContents(s);
        unsigned valid = 0, dirty = 0;
        for (const Line &l : rl) {
            valid += l.valid ? 1 : 0;
            dirty += l.valid && l.dirty ? 1 : 0;
        }
        ASSERT_EQ(flat.validCountInSet(s), valid) << ctx << " set " << s;
        ASSERT_EQ(flat.dirtyCountInSet(s), dirty) << ctx << " set " << s;
        ASSERT_EQ(fl.size(), rl.size());
        for (unsigned w = 0; w < fl.size(); ++w) {
            expectSameLine(fl[w], rl[w],
                           ctx + " set " + std::to_string(s) + " way " +
                               std::to_string(w));
        }
    }
}

struct GridCase
{
    PolicyKind policy;
    WritePolicy wp;
    Scenario scenario;
    unsigned ways = 4;
    unsigned sets = 8;
    unsigned tagsPerSet = 12; //!< tag pool, so sets run full
    int ops = 1500;
    std::uint64_t seed = 0;
};

class CacheEquivalence : public ::testing::TestWithParam<GridCase>
{
};

std::string
gridCaseName(const ::testing::TestParamInfo<GridCase> &info)
{
    std::string name = policyName(info.param.policy);
    for (auto &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    name += info.param.wp == WritePolicy::WriteBack ? "_WB" : "_WT";
    name += "_";
    name += scenarioName(info.param.scenario);
    return name;
}

TEST_P(CacheEquivalence, MixedOpStreamIsBitIdentical)
{
    const auto [policy, wp, scenario, ways, sets, tagsPerSet, ops, seed] =
        GetParam();
    const CacheParams params = paramsFor(policy, wp, scenario, ways, sets);

    Rng flatRng(seed);
    Rng refRng(seed);
    Cache flat(params, &flatRng);
    NaiveCache ref(params, &refRng);

    // Small tag pool so addresses alias heavily and sets run full.
    Rng opRng(seed ^ 0x5eed);
    const auto &layout = flat.layout();
    auto randomAddr = [&]() {
        const auto set = static_cast<unsigned>(opRng.below(sets));
        const Addr tag = 1 + opRng.below(tagsPerSet);
        return layout.compose(set, tag) + opRng.below(lineBytes);
    };

    for (int i = 0; i < ops; ++i) {
        const Addr a = randomAddr();
        const auto tid = static_cast<ThreadId>(opRng.below(2));
        const auto action = opRng.below(100);
        if (action < 40) {
            // The demand-access idiom: probe, then hit or fill.
            const bool isWrite = opRng.flip();
            const auto fw = flat.probe(a, tid);
            const auto rw = ref.probe(a, tid);
            ASSERT_EQ(fw, rw) << "probe @" << i;
            if (fw) {
                flat.onHit(a, *fw, tid, isWrite);
                ref.onHit(a, *rw, tid, isWrite);
            } else {
                const auto fo = flat.fill(a, tid, isWrite);
                const auto ro = ref.fill(a, tid, isWrite);
                ASSERT_EQ(fo.filled, ro.filled) << "fill @" << i;
                ASSERT_EQ(fo.residentHit, ro.residentHit) << "fill @" << i;
                if (fo.filled) {
                    ASSERT_EQ(fo.way, ro.way) << "fill way @" << i;
                    ASSERT_EQ(fo.evicted.any, ro.evicted.any)
                        << "evict @" << i;
                    ASSERT_EQ(fo.evicted.dirty, ro.evicted.dirty)
                        << "evict dirty @" << i;
                    ASSERT_EQ(fo.evicted.lineAddr, ro.evicted.lineAddr)
                        << "evict addr @" << i;
                }
            }
        } else if (action < 80) {
            // Direct fill (write-back arrival / prefetch injection).
            const bool asDirty = opRng.flip();
            const auto fo = flat.fill(a, tid, asDirty);
            const auto ro = ref.fill(a, tid, asDirty);
            ASSERT_EQ(fo.filled, ro.filled) << "fill @" << i;
            ASSERT_EQ(fo.residentHit, ro.residentHit) << "fill @" << i;
            if (fo.filled) {
                ASSERT_EQ(fo.way, ro.way) << "fill way @" << i;
                ASSERT_EQ(fo.evicted.any, ro.evicted.any) << "@" << i;
                ASSERT_EQ(fo.evicted.dirty, ro.evicted.dirty) << "@" << i;
                ASSERT_EQ(fo.evicted.lineAddr, ro.evicted.lineAddr)
                    << "@" << i;
            }
        } else if (action < 88) {
            bool fd = false, rd = false;
            ASSERT_EQ(flat.invalidate(a, fd), ref.invalidate(a, rd))
                << "invalidate @" << i;
            ASSERT_EQ(fd, rd) << "invalidate dirty @" << i;
        } else if (action < 92) {
            ASSERT_EQ(flat.lock(a), ref.lock(a)) << "lock @" << i;
        } else if (action < 96) {
            ASSERT_EQ(flat.unlock(a), ref.unlock(a)) << "unlock @" << i;
        } else if (action < 97) {
            flat.unlockAll();
            ref.unlockAll();
        } else if (action < 99) {
            ASSERT_EQ(flat.contains(a), ref.contains(a)) << "@" << i;
            ASSERT_EQ(flat.isDirty(a), ref.isDirty(a)) << "@" << i;
        } else {
            flat.reset();
            ref.reset();
        }

        if (i % 256 == 255)
            expectSameState(flat, ref, "mid @" + std::to_string(i));
        if (HasFatalFailure() || HasNonfatalFailure())
            FAIL() << "divergence for " << policyName(policy);
    }
    expectSameState(flat, ref, "final");
}

std::vector<GridCase>
fullGrid()
{
    std::vector<GridCase> grid;
    for (PolicyKind policy : allPolicies())
        for (WritePolicy wp :
             {WritePolicy::WriteBack, WritePolicy::WriteThrough})
            for (Scenario s : {Scenario::None, Scenario::NoMo,
                               Scenario::Dawg, Scenario::PlCache}) {
                GridCase gc{policy, wp, s};
                gc.seed = 0xabcd'0000 + static_cast<unsigned>(policy) * 64 +
                          static_cast<unsigned>(wp) * 8 +
                          static_cast<unsigned>(s);
                grid.push_back(gc);
            }
    return grid;
}

INSTANTIATE_TEST_SUITE_P(FullGrid, CacheEquivalence,
                         ::testing::ValuesIn(fullGrid()), gridCaseName);

/** Eight longer true-LRU streams on a wider set (8 ways × 4 sets). */
std::vector<GridCase>
lruStreams()
{
    std::vector<GridCase> grid;
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        grid.push_back({PolicyKind::TrueLru, WritePolicy::WriteBack,
                        Scenario::None, 8, 4, 14, 5000, seed});
    return grid;
}

INSTANTIATE_TEST_SUITE_P(
    LruStreams, CacheEquivalence, ::testing::ValuesIn(lruStreams()),
    [](const ::testing::TestParamInfo<GridCase> &info) {
        return "TrueLRU_8way_seed" + std::to_string(info.param.seed);
    });

/**
 * fillBatch() must be exactly a loop of fill(): two identically seeded
 * caches, one driven by batches and one by single calls, end in the
 * same state with consistent aggregate statistics.
 */
TEST(CacheBatch, FillBatchMatchesSingleFills)
{
    // Every scenario matters here: partitioning and lock-on-write are
    // exactly the configuration fillBatch hoists out of its loop, and
    // PLcache is the only way to reach the bypass accounting.
    for (Scenario scenario : {Scenario::None, Scenario::NoMo,
                              Scenario::Dawg, Scenario::PlCache}) {
        for (PolicyKind policy : allPolicies()) {
            const CacheParams p = paramsFor(
                policy, WritePolicy::WriteBack, scenario, 8, 4);
            const std::string ctx = std::string(scenarioName(scenario)) +
                                    " " + policyName(policy);

            Rng rngA(11), rngB(11);
            Cache a(p, &rngA);
            Cache b(p, &rngB);
            const auto &layout = a.layout();

            Rng addrRng(17);
            std::vector<Addr> addrs;
            for (int i = 0; i < 400; ++i) {
                addrs.push_back(layout.compose(
                    static_cast<unsigned>(addrRng.below(4)),
                    1 + addrRng.below(20)));
            }

            for (ThreadId tid : {ThreadId(0), ThreadId(1)}) {
                std::vector<Evicted> evictedA;
                const BatchStats stats =
                    a.fillBatch(addrs, tid, /*asDirty=*/true,
                                &evictedA);

                std::uint64_t hits = 0, fills = 0, evictions = 0,
                              dirty = 0, bypassed = 0;
                std::vector<Evicted> evictedB;
                for (Addr addr : addrs) {
                    const auto out = b.fill(addr, tid, true);
                    if (!out.filled) {
                        ++bypassed;
                        continue;
                    }
                    if (out.residentHit) {
                        ++hits;
                        continue;
                    }
                    ++fills;
                    if (out.evicted.any) {
                        ++evictions;
                        dirty += out.evicted.dirty ? 1 : 0;
                        evictedB.push_back(out.evicted);
                    }
                }

                EXPECT_EQ(stats.hits, hits) << ctx;
                EXPECT_EQ(stats.fills, fills) << ctx;
                EXPECT_EQ(stats.misses, fills + bypassed) << ctx;
                EXPECT_EQ(stats.evictions, evictions) << ctx;
                EXPECT_EQ(stats.dirtyEvictions, dirty) << ctx;
                EXPECT_EQ(stats.bypassed, bypassed) << ctx;
                if (scenario == Scenario::PlCache)
                    EXPECT_GT(stats.bypassed, 0u) << ctx;
                ASSERT_EQ(evictedA.size(), evictedB.size()) << ctx;
                for (std::size_t i = 0; i < evictedA.size(); ++i)
                    EXPECT_EQ(evictedA[i].lineAddr,
                              evictedB[i].lineAddr);

                for (unsigned s = 0; s < a.numSets(); ++s) {
                    const auto la = a.setContents(s);
                    const auto lb = b.setContents(s);
                    for (unsigned w = 0; w < p.ways; ++w)
                        expectSameLine(la[w], lb[w],
                                       ctx + " set " +
                                           std::to_string(s));
                }
            }
        }
    }
}

/** probeBatch honors DAWG probe isolation exactly like probe(). */
TEST(CacheBatch, ProbeBatchHonorsProbeIsolation)
{
    const CacheParams p = paramsFor(PolicyKind::TrueLru,
                                    WritePolicy::WriteBack,
                                    Scenario::Dawg, 8, 2);
    Cache c(p, nullptr);
    const auto &layout = c.layout();

    std::vector<Addr> addrs;
    for (unsigned t = 0; t < 6; ++t)
        addrs.push_back(layout.compose(t % 2, 1 + t));
    // Alternate owners so each partition holds some of the lines.
    for (std::size_t i = 0; i < addrs.size(); ++i)
        c.fill(addrs[i], ThreadId(i % 2), false);

    for (ThreadId tid : {ThreadId(0), ThreadId(1)}) {
        std::vector<std::uint8_t> hitWay(addrs.size(), 0);
        const BatchStats stats = c.probeBatch(addrs, tid, hitWay.data());
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            const auto single = c.probe(addrs[i], tid);
            EXPECT_EQ(single.has_value(), hitWay[i] != 0xff)
                << "tid " << tid << " addr " << i;
            if (single.has_value()) {
                EXPECT_EQ(*single, hitWay[i]);
                ++hits;
            }
        }
        EXPECT_EQ(stats.hits, hits) << "tid " << tid;
        EXPECT_EQ(stats.misses, addrs.size() - hits) << "tid " << tid;
        // Isolation is real: a thread sees only its own partition.
        EXPECT_EQ(hits, addrs.size() / 2) << "tid " << tid;
    }
}

/** probeBatch() is read-only and reports per-address hit ways. */
TEST(CacheBatch, ProbeBatchReportsHitsWithoutTouchingState)
{
    CacheParams p;
    p.name = "batch";
    p.ways = 4;
    p.sizeBytes = 4 * 2 * lineBytes; // 2 sets
    p.policy = PolicyKind::TrueLru;
    Cache c(p, nullptr);
    const auto &layout = c.layout();

    const Addr resident = layout.compose(0, 1);
    const Addr absent = layout.compose(0, 2);
    c.fill(resident, 0, false);

    const std::vector<Addr> addrs = {resident, absent, resident};
    std::vector<std::uint8_t> hitWay(addrs.size(), 0);
    const auto before = c.setContents(0);
    const BatchStats stats = c.probeBatch(addrs, 0, hitWay.data());
    const auto after = c.setContents(0);

    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(hitWay[1], 0xff);
    EXPECT_EQ(hitWay[0], hitWay[2]);
    EXPECT_LT(hitWay[0], p.ways);
    for (unsigned w = 0; w < p.ways; ++w)
        expectSameLine(before[w], after[w], "probeBatch mutated state");
}

} // namespace
} // namespace wb::sim
