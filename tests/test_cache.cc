/**
 * @file
 * Unit tests for the set-associative cache level (sim/cache.hh):
 * fills, hits, dirty bits, write policies, locking and partitioning.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/cache.hh"

namespace wb::sim
{
namespace
{

CacheParams
tinyParams(PolicyKind policy = PolicyKind::TrueLru, unsigned ways = 4)
{
    CacheParams p;
    p.name = "test";
    p.ways = ways;
    p.sizeBytes = static_cast<std::size_t>(ways) * lineBytes; // 1 set
    p.policy = policy;
    return p;
}

Addr
lineAt(unsigned i)
{
    return static_cast<Addr>(i) * lineBytes;
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyParams(), nullptr);
    EXPECT_FALSE(c.probe(lineAt(1), 0).has_value());
    auto out = c.fill(lineAt(1), 0, false);
    EXPECT_TRUE(out.filled);
    EXPECT_FALSE(out.evicted.any);
    auto way = c.probe(lineAt(1), 0);
    ASSERT_TRUE(way.has_value());
    EXPECT_TRUE(c.contains(lineAt(1)));
}

TEST(Cache, OffsetsWithinLineAlias)
{
    Cache c(tinyParams(), nullptr);
    c.fill(lineAt(1), 0, false);
    EXPECT_TRUE(c.probe(lineAt(1) + 63, 0).has_value());
    EXPECT_FALSE(c.probe(lineAt(2), 0).has_value());
}

TEST(Cache, EvictionWhenFull)
{
    Cache c(tinyParams(PolicyKind::TrueLru, 2), nullptr);
    c.fill(lineAt(1), 0, false);
    c.fill(lineAt(2), 0, false);
    auto out = c.fill(lineAt(3), 0, false);
    EXPECT_TRUE(out.filled);
    EXPECT_TRUE(out.evicted.any);
    EXPECT_EQ(out.evicted.lineAddr, AddressLayout::lineAddr(lineAt(1)));
    EXPECT_FALSE(c.contains(lineAt(1)));
    EXPECT_TRUE(c.contains(lineAt(2)));
    EXPECT_TRUE(c.contains(lineAt(3)));
}

TEST(Cache, DirtyBitOnWriteFill)
{
    Cache c(tinyParams(), nullptr);
    c.fill(lineAt(1), 0, /*asDirty=*/true);
    EXPECT_TRUE(c.isDirty(lineAt(1)));
    c.fill(lineAt(2), 0, /*asDirty=*/false);
    EXPECT_FALSE(c.isDirty(lineAt(2)));
}

TEST(Cache, DirtyBitOnWriteHit)
{
    Cache c(tinyParams(), nullptr);
    c.fill(lineAt(1), 0, false);
    auto way = c.probe(lineAt(1), 0);
    ASSERT_TRUE(way);
    c.onHit(lineAt(1), *way, 0, /*isWrite=*/true);
    EXPECT_TRUE(c.isDirty(lineAt(1)));
}

TEST(Cache, WriteThroughNeverDirty)
{
    auto params = tinyParams();
    params.writePolicy = WritePolicy::WriteThrough;
    Cache c(params, nullptr);
    c.fill(lineAt(1), 0, /*asDirty=*/true);
    EXPECT_FALSE(c.isDirty(lineAt(1)));
    auto way = c.probe(lineAt(1), 0);
    c.onHit(lineAt(1), *way, 0, /*isWrite=*/true);
    EXPECT_FALSE(c.isDirty(lineAt(1)));
    EXPECT_EQ(c.dirtyCountInSet(0), 0u);
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(tinyParams(PolicyKind::TrueLru, 2), nullptr);
    c.fill(lineAt(1), 0, true);
    c.fill(lineAt(2), 0, false);
    auto out = c.fill(lineAt(3), 0, false);
    EXPECT_TRUE(out.evicted.any);
    EXPECT_TRUE(out.evicted.dirty);
}

TEST(Cache, RefillOfResidentLineBecomesHit)
{
    Cache c(tinyParams(), nullptr);
    c.fill(lineAt(1), 0, false);
    auto out = c.fill(lineAt(1), 0, true); // write-back arriving
    EXPECT_TRUE(out.filled);
    EXPECT_FALSE(out.evicted.any);
    EXPECT_TRUE(c.isDirty(lineAt(1)));
    EXPECT_EQ(c.validCountInSet(0), 1u);
}

TEST(Cache, InvalidateReportsDirty)
{
    Cache c(tinyParams(), nullptr);
    c.fill(lineAt(1), 0, true);
    bool wasDirty = false;
    EXPECT_TRUE(c.invalidate(lineAt(1), wasDirty));
    EXPECT_TRUE(wasDirty);
    EXPECT_FALSE(c.contains(lineAt(1)));
    EXPECT_FALSE(c.invalidate(lineAt(1), wasDirty));
}

TEST(Cache, DirtyCountInSet)
{
    Cache c(tinyParams(PolicyKind::TrueLru, 8), nullptr);
    for (unsigned i = 0; i < 5; ++i)
        c.fill(lineAt(i), 0, i < 3);
    EXPECT_EQ(c.dirtyCountInSet(0), 3u);
    EXPECT_EQ(c.validCountInSet(0), 5u);
}

TEST(Cache, LockPreventsEviction)
{
    Cache c(tinyParams(PolicyKind::TrueLru, 2), nullptr);
    c.fill(lineAt(1), 0, true);
    c.fill(lineAt(2), 0, false);
    EXPECT_TRUE(c.lock(lineAt(1)));
    auto out = c.fill(lineAt(3), 0, false);
    EXPECT_TRUE(out.filled);
    EXPECT_TRUE(c.contains(lineAt(1))); // locked line survived
    EXPECT_FALSE(c.contains(lineAt(2)));
}

TEST(Cache, AllLockedBlocksFill)
{
    Cache c(tinyParams(PolicyKind::TrueLru, 2), nullptr);
    c.fill(lineAt(1), 0, true);
    c.fill(lineAt(2), 0, true);
    c.lock(lineAt(1));
    c.lock(lineAt(2));
    auto out = c.fill(lineAt(3), 0, false);
    EXPECT_FALSE(out.filled); // bypass
    EXPECT_FALSE(c.contains(lineAt(3)));
}

TEST(Cache, UnlockRestoresEvictability)
{
    Cache c(tinyParams(PolicyKind::TrueLru, 2), nullptr);
    c.fill(lineAt(1), 0, false);
    c.fill(lineAt(2), 0, false);
    c.lock(lineAt(1));
    c.lock(lineAt(2));
    EXPECT_TRUE(c.unlock(lineAt(1)));
    auto out = c.fill(lineAt(3), 0, false);
    EXPECT_TRUE(out.filled);
    EXPECT_FALSE(c.contains(lineAt(1)));
}

TEST(Cache, UnlockAll)
{
    Cache c(tinyParams(), nullptr);
    c.fill(lineAt(1), 0, false);
    c.lock(lineAt(1));
    c.unlockAll();
    auto lines = c.setContents(0);
    for (const auto &l : lines)
        EXPECT_FALSE(l.locked);
}

TEST(Cache, LockOnWrite)
{
    auto params = tinyParams(PolicyKind::TrueLru, 2);
    params.lockOnWrite = true;
    Cache c(params, nullptr);
    c.fill(lineAt(1), 0, /*asDirty=*/true); // locked on dirty fill
    c.fill(lineAt(2), 0, false);
    auto out = c.fill(lineAt(3), 0, false);
    EXPECT_TRUE(c.contains(lineAt(1)));
    EXPECT_FALSE(c.contains(lineAt(2)));
    (void)out;
}

TEST(Cache, FillPartitioning)
{
    auto params = tinyParams(PolicyKind::TrueLru, 4);
    params.fillMaskPerThread = {0b0011, 0b1100}; // t0: ways 0-1
    Cache c(params, nullptr);
    // Thread 0 fills three lines into its two ways.
    c.fill(lineAt(1), 0, false);
    c.fill(lineAt(2), 0, false);
    c.fill(lineAt(3), 0, false);
    EXPECT_EQ(c.validCountInSet(0), 2u); // capped by partition
    // Thread 1's fill must not evict thread 0's lines.
    auto out = c.fill(lineAt(10), 1, false);
    EXPECT_TRUE(out.filled);
    EXPECT_GE(out.way, 2u);
}

TEST(Cache, ProbeIsolation)
{
    auto params = tinyParams(PolicyKind::TrueLru, 4);
    params.fillMaskPerThread = {0b0011, 0b1100};
    params.probeIsolated = true;
    Cache c(params, nullptr);
    c.fill(lineAt(1), 0, false);
    EXPECT_TRUE(c.probe(lineAt(1), 0).has_value());
    EXPECT_FALSE(c.probe(lineAt(1), 1).has_value()); // DAWG hides it
    EXPECT_TRUE(c.contains(lineAt(1))); // introspection still sees it
}

TEST(Cache, ThreadsBeyondMaskVectorUnrestricted)
{
    auto params = tinyParams(PolicyKind::TrueLru, 4);
    params.fillMaskPerThread = {0b0011, 0b1100};
    Cache c(params, nullptr);
    auto out = c.fill(lineAt(1), /*tid=*/7, false);
    EXPECT_TRUE(out.filled);
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(tinyParams(), nullptr);
    c.fill(lineAt(1), 0, true);
    c.lock(lineAt(1));
    c.reset();
    EXPECT_FALSE(c.contains(lineAt(1)));
    EXPECT_EQ(c.validCountInSet(0), 0u);
}

TEST(Cache, MultiSetIndexing)
{
    CacheParams p;
    p.ways = 2;
    p.sizeBytes = 2 * 4 * lineBytes; // 4 sets x 2 ways
    Cache c(p, nullptr);
    // Lines in different sets never evict each other.
    for (unsigned set = 0; set < 4; ++set) {
        const Addr a = c.layout().compose(set, /*tag=*/1);
        c.fill(a, 0, false);
    }
    for (unsigned set = 0; set < 4; ++set) {
        const Addr a = c.layout().compose(set, 1);
        EXPECT_TRUE(c.contains(a));
        EXPECT_EQ(c.validCountInSet(set), 1u);
    }
}

TEST(Cache, SetContentsSnapshot)
{
    Cache c(tinyParams(), nullptr);
    c.fill(lineAt(3), 2, true);
    auto lines = c.setContents(0);
    unsigned valid = 0;
    for (const auto &l : lines) {
        if (l.valid) {
            ++valid;
            EXPECT_EQ(l.lineAddr, AddressLayout::lineAddr(lineAt(3)));
            EXPECT_TRUE(l.dirty);
            EXPECT_EQ(l.filledBy, 2u);
        }
    }
    EXPECT_EQ(valid, 1u);
}

/** Naive residency lookup: scan the set snapshot for a valid line. */
const Line *
naiveFind(const std::vector<Line> &lines, Addr paddr)
{
    for (const Line &l : lines)
        if (l.valid && l.lineAddr == AddressLayout::lineAddr(paddr))
            return &l;
    return nullptr;
}

/**
 * contains(), isDirty(), downgrade() and invalidate() — the lookups
 * behind the multi-core coherence layer — agree with a naive set scan
 * under random fill/hit/invalidate/downgrade traffic, for the
 * unrolled stripe widths (4, 8, 16), the runtime-width fallback (12)
 * and a probe-isolated L1 partitioned per core.
 *
 * The stripe compare matches 64-bit line addresses, in two 32-bit
 * halves where it is vectorised. Two tag pools test each half alone:
 * in one, line addresses agree in their low 32 bits and differ only
 * above them (as co-runner address spaces do, in the asid bits at
 * paddr bit 44); in the other they share nonzero high 32 bits and
 * differ only below. A compare that checks one half fails one pool.
 */
TEST(Cache, ResidencyLookupsMatchANaiveScan)
{
    enum class Tags
    {
        Small,        //!< tags below 3 * ways
        SameLowHalf,  //!< differ only above line-address bit 31
        SameHighHalf, //!< share high 32 bits, differ only below
    };
    struct Variant
    {
        unsigned ways;
        bool partitioned;
        Tags tags = Tags::Small;
    };
    for (const Variant v :
         {Variant{4, false}, Variant{8, false}, Variant{16, false},
          Variant{12, false}, Variant{8, true},
          Variant{8, false, Tags::SameLowHalf},
          Variant{16, false, Tags::SameLowHalf},
          Variant{8, false, Tags::SameHighHalf},
          Variant{4, false, Tags::SameHighHalf}}) {
        SCOPED_TRACE("ways " + std::to_string(v.ways) +
                     (v.partitioned ? " partitioned" : "") +
                     (v.tags == Tags::SameLowHalf    ? " same-low-half"
                      : v.tags == Tags::SameHighHalf ? " same-high-half"
                                                     : ""));
        // 8 sets: a line address is (tag << 3) | set.
        constexpr unsigned kTagShiftToBit32 = 32 - 3;
        CacheParams p;
        p.ways = v.ways;
        p.sizeBytes = std::size_t(8) * v.ways * lineBytes; // 8 sets
        p.policy = PolicyKind::TreePlru;
        if (v.ways == 12)
            p.policy = PolicyKind::TrueLru; // tree-PLRU needs 2^k ways
        if (v.partitioned) {
            p.fillMaskPerThread = {0x0f, 0xf0};
            p.probeIsolated = true;
        }
        Rng rng(v.ways * 31 + v.partitioned);
        Cache c(p, &rng);
        Rng traffic(v.ways + 101);
        unsigned hits = 0;
        for (int i = 0; i < 20000; ++i) {
            // Three times the capacity of a set in tags, so lookups
            // both hit and miss and fills keep evicting. Tag 0 puts
            // line 0 in play: invalid ways also read line address 0.
            Addr tag = traffic.below(3 * v.ways);
            if (v.tags == Tags::SameLowHalf)
                tag = traffic.below(v.ways) +
                      (traffic.below(3) << kTagShiftToBit32);
            else if (v.tags == Tags::SameHighHalf)
                tag |= Addr(0x2b) << kTagShiftToBit32;
            const Addr a = c.layout().compose(unsigned(traffic.below(8)), tag);
            const ThreadId tid = ThreadId(traffic.below(2));
            const auto before = c.setContents(c.layout().setIndex(a));
            const Line *line = naiveFind(before, a);
            ASSERT_EQ(c.contains(a), line != nullptr) << "op " << i;
            ASSERT_EQ(c.isDirty(a), line != nullptr && line->dirty)
                << "op " << i;
            hits += line != nullptr;
            switch (traffic.below(4)) {
              case 0: {
                bool wasDirty = true;
                ASSERT_EQ(c.invalidate(a, wasDirty), line != nullptr)
                    << "op " << i;
                EXPECT_EQ(wasDirty, line != nullptr && line->dirty);
                EXPECT_FALSE(c.contains(a));
                break;
              }
              case 1:
                ASSERT_EQ(c.downgrade(a), line != nullptr && line->dirty)
                    << "op " << i;
                EXPECT_FALSE(c.isDirty(a));
                EXPECT_EQ(c.contains(a), line != nullptr);
                break;
              default:
                c.fill(a, tid, traffic.chance(0.5));
                break;
            }
        }
        EXPECT_GT(hits, 2000u);
        EXPECT_LT(hits, 18000u);
    }
}

} // namespace
} // namespace wb::sim
