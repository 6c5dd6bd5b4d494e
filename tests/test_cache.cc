/**
 * @file
 * Unit tests for the set-associative cache level (sim/cache.hh):
 * fills, hits, dirty bits, write policies, locking and partitioning,
 * and its zero-page storage (common/zero_pages.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/zero_pages.hh"
#include "sim/cache.hh"
#include "sim/multicore.hh"
#include "sim/platform.hh"

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

/**
 * Impossible geometries exit through fatal() naming the cache and the
 * parameter, instead of panicking in AddressLayout or PolicyTable.
 */
TEST(Cache, BadGeometryFailsWithTheCacheNamed)
{
    const auto fails = ::testing::ExitedWithCode(1);
    CacheParams p;
    p.name = "LLC-test";

    p.ways = 12;
    p.sizeBytes = std::size_t(12) * 64 * lineBytes;
    p.policy = PolicyKind::TreePlru;
    EXPECT_EXIT(Cache(p, nullptr), fails,
                "LLC-test: policy TreePLRU requires power-of-two ways, "
                "got ways = 12");
    p.policy = PolicyKind::QuadAgeLru;
    EXPECT_EXIT(Cache(p, nullptr), fails, "LLC-test: policy QuadAgeLRU");

    p.ways = 8;
    p.policy = PolicyKind::TrueLru;
    p.sizeBytes = std::size_t(8) * 1536 * lineBytes;
    EXPECT_EXIT(Cache(p, nullptr), fails,
                "LLC-test: sizeBytes 786432 gives 1536 sets");
    p.sizeBytes = 0;
    EXPECT_EXIT(Cache(p, nullptr), fails,
                "LLC-test: sizeBytes 0 gives 0 sets");

    p.sizeBytes = std::size_t(8) * 64 * lineBytes;
    p.policy = PolicyKind::RandomIid;
    EXPECT_EXIT(Cache(p, nullptr), fails,
                "LLC-test: policy RandomIID requires an Rng");
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

// ------------------------------------------------ zero-page storage

constexpr std::array kAllPolicies = {
    PolicyKind::TrueLru,    PolicyKind::TreePlru, PolicyKind::BitPlru,
    PolicyKind::Nru,        PolicyKind::Srrip,    PolicyKind::QuadAgeLru,
    PolicyKind::Fifo,       PolicyKind::RandomIid, PolicyKind::LfsrRandom,
};

/** A 4 MiB, 16-way level (4096 sets): far above ZeroPages::kMapBytes. */
CacheParams
largeParams(PolicyKind policy)
{
    CacheParams p;
    p.name = "large";
    p.sizeBytes = 4 * 1024 * 1024;
    p.ways = 16;
    p.policy = policy;
    return p;
}

/** @p a and @p b hold equal words. */
bool
sameWords(const ZeroArray<std::uint64_t> &a, const ZeroArray<std::uint64_t> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/** Every set's lines and the replacement state of @p a and @p b agree. */
void
expectSameState(const Cache &a, const Cache &b)
{
    ASSERT_EQ(a.numSets(), b.numSets());
    EXPECT_TRUE(sameWords(a.policyTable().setWords(),
                          b.policyTable().setWords()));
    EXPECT_TRUE(sameWords(a.policyTable().lineWords(),
                          b.policyTable().lineWords()));
    for (unsigned set = 0; set < a.numSets(); ++set) {
        const std::vector<Line> la = a.setContents(set);
        const std::vector<Line> lb = b.setContents(set);
        for (std::size_t w = 0; w < la.size(); ++w) {
            const bool same = la[w].valid == lb[w].valid &&
                              la[w].dirty == lb[w].dirty &&
                              la[w].locked == lb[w].locked &&
                              la[w].lineAddr == lb[w].lineAddr &&
                              la[w].filledBy == lb[w].filledBy;
            ASSERT_TRUE(same) << "set " << set << " way " << w;
        }
    }
}

TEST(CacheStorage, ResetEqualsAFreshCacheForEveryPolicy)
{
    for (const PolicyKind kind : kAllPolicies) {
        SCOPED_TRACE(policyName(kind));
        // The heap-backed 32 KiB level and the mapped 4 MiB one.
        CacheParams small = largeParams(kind);
        small.sizeBytes = 32 * 1024;
        small.ways = 8;
        for (const CacheParams &params : {small, largeParams(kind)}) {
            Rng rng(static_cast<std::uint64_t>(kind) + 1);
            Cache used(params, &rng);
            const std::uint64_t lines =
                std::uint64_t(params.numSets()) * params.ways;
            for (unsigned i = 0; i < 40000; ++i) {
                const Addr a = rng.below(4 * lines) * lineBytes;
                used.fill(a, static_cast<ThreadId>(rng.below(2)),
                          rng.chance(0.5));
                if (rng.chance(0.01))
                    used.lock(a);
            }
            used.reset();
            // Reset restores the constant LFSR state, which a cache
            // built without an Rng starts from; RandomIid needs one.
            Rng freshRng(99);
            const Cache fresh(params, kind == PolicyKind::LfsrRandom
                                          ? nullptr
                                          : &freshRng);
            expectSameState(used, fresh);
        }
    }
}

TEST(CacheStorage, ARecycledCacheStartsAsAFreshOne)
{
    for (const PolicyKind kind :
         {PolicyKind::TreePlru, PolicyKind::TrueLru, PolicyKind::Nru}) {
        SCOPED_TRACE(policyName(kind));
        {
            // Used, then dropped: its mapping goes to the process pool.
            Rng rng(5);
            Cache used(largeParams(kind), &rng);
            for (unsigned i = 0; i < 20000; ++i)
                used.fill(rng.below(1u << 18) * lineBytes, 0,
                          rng.chance(0.5));
        }
        Rng a(6);
        Rng b(6);
        const Cache recycled(largeParams(kind), &a);
        const Cache fresh(largeParams(kind), &b);
        expectSameState(recycled, fresh);
    }
}

TEST(CacheStorage, ZeroPagesMapLargeArraysAndRecycleThem)
{
    const std::array<std::size_t, 3> big = {ZeroPages::kMapBytes, 8, 0};
    const std::array<std::size_t, 2> tiny = {64, 8};
    ZeroPages heap(tiny);
    EXPECT_FALSE(heap.mapped());
    for (const ZeroArray<std::uint64_t> words :
         {heap.array<std::uint64_t>(0), heap.array<std::uint64_t>(1)})
        for (const std::uint64_t w : words)
            ASSERT_EQ(w, 0u);

    ZeroPages mapped(big);
    EXPECT_EQ(mapped.mapped(), WB_ZERO_PAGES_MAPPED == 1);
    const ZeroArray<std::uint64_t> words = mapped.array<std::uint64_t>(0);
    EXPECT_EQ(words.size(), ZeroPages::kMapBytes / 8);
    EXPECT_EQ(mapped.array<std::uint64_t>(1).size(), 1u);
    EXPECT_TRUE(mapped.array<std::uint8_t>(2).empty());
    for (const std::uint64_t w : words)
        ASSERT_EQ(w, 0u);
    words[3] = 7;

    // Moving hands the storage over; the views stay valid.
    ZeroPages moved(std::move(mapped));
    EXPECT_FALSE(mapped.mapped());
    EXPECT_EQ(moved.array<std::uint64_t>(0).data(), words.data());
    EXPECT_EQ(words[3], 7u);

    // Zeroed and recycled, the mapping serves the next request of the
    // same sizes, and only that.
    words[3] = 0;
    moved.recycle();
    EXPECT_FALSE(moved.mapped());
    const std::array<std::size_t, 3> other = {ZeroPages::kMapBytes, 16, 0};
    const ZeroPages different(other);
    const ZeroPages same(big);
    if (WB_ZERO_PAGES_MAPPED == 1) {
        EXPECT_NE(different.array<std::uint64_t>(0).data(), words.data());
        EXPECT_EQ(same.array<std::uint64_t>(0).data(), words.data());
    }
}

#if WB_ZERO_PAGES_MAPPED
TEST(CacheStorageDeathTest, OverrunningAMappedArrayFaults)
{
    // Each mapped array ends at a PROT_NONE guard page, so one element
    // past the end faults even where no sanitizer watches the mapping.
    const std::array<std::size_t, 2> bytes = {ZeroPages::kMapBytes, 24};
    const ZeroPages pages(bytes);
    ASSERT_TRUE(pages.mapped());
    const ZeroArray<std::uint64_t> first = pages.array<std::uint64_t>(0);
    const ZeroArray<std::uint64_t> second = pages.array<std::uint64_t>(1);
    EXPECT_DEATH(static_cast<volatile std::uint64_t &>(
                     first[first.size()]) = 1,
                 "");
    EXPECT_DEATH(static_cast<volatile std::uint64_t &>(
                     second[second.size()]) = 1,
                 "");
}

/** Pages of @p words the host holds resident (mincore). */
std::size_t
residentPages(const ZeroArray<std::uint64_t> &words)
{
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto at = reinterpret_cast<std::uintptr_t>(words.data());
    const std::uintptr_t start = at & ~(page - 1);
    const std::size_t bytes = at + words.size() * 8 - start;
    std::vector<unsigned char> in((bytes + page - 1) / page);
    if (mincore(reinterpret_cast<void *>(start), bytes, in.data()) != 0)
        return ~std::size_t(0);
    std::size_t pages = 0;
    for (const unsigned char c : in)
        pages += c & 1;
    return pages;
}

TEST(CacheStorage, ThePoolKeepsOnlyWhatTheLiveHighWaterLeavesRoomFor)
{
    // A recycled mapping comes back with the pages it touched still
    // resident; a fresh one has none.
    const std::array<std::size_t, 1> small = {256 * 1024};
    const std::size_t pages = small[0] / std::size_t(sysconf(_SC_PAGESIZE));
    {
        ZeroPages used(small);
        const ZeroArray<std::uint64_t> words = used.array<std::uint64_t>(0);
        std::fill(words.begin(), words.end(), 1);
        std::fill(words.begin(), words.end(), 0);
        used.recycle();
    }
    {
        ZeroPages again(small);
        EXPECT_EQ(residentPages(again.array<std::uint64_t>(0)), pages);
        again.recycle();
    }
    // 64 MiB going live, untouched: more than the process's live
    // mappings ever held, so the pool may hold nothing and the small
    // mapping is unmapped.
    const std::array<std::size_t, 1> huge = {64u << 20};
    const ZeroPages big(huge);
    const ZeroPages fresh(small);
    EXPECT_EQ(residentPages(fresh.array<std::uint64_t>(0)), 0u);
}

/** This process's resident set, in KiB (VmRSS of /proc/self/status). */
std::size_t
residentKib()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmRSS:") {
            std::size_t kib = 0;
            status >> kib;
            return kib;
        }
        status.ignore(4096, '\n');
    }
    return 0;
}

TEST(CacheStorage, ASliced64CoreSystemPaysOnlyForWhatItTouches)
{
    // 32 MiB of sliced LLC plus 64 private hierarchies: about 10 MB of
    // line state when every array is written at construction.
    const Platform &plat = platform("dc-sliced-64core");
    Rng rng(1);
    const std::size_t before = residentKib();
    ASSERT_GT(before, 0u);
    MultiCoreSystem mc(plat.params, plat.cores, &rng);
    (void)mc.access(0, 0, 0x1000, /*isWrite=*/true);
    const std::size_t grown = residentKib() - before;
    EXPECT_LT(grown, 5u * 1024) << "KiB grown by the build";
}
#endif

} // namespace
} // namespace wb::sim
