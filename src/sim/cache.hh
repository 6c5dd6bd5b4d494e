/**
 * @file
 * A single set-associative, physically tagged cache level with
 * write-back/write-through and allocate/no-allocate policies, per-line
 * dirty bits and lock bits (PLcache), and per-thread way partitioning
 * (NoMo/DAWG). This is the structure of paper Fig. 1.
 *
 * Storage is structure-of-arrays for speed: line addresses, packed
 * per-line flag bytes and filling-thread ids live in flat arrays
 * indexed by set * ways + way, and each set additionally keeps 32-bit
 * valid/locked way bitmasks so victim-candidate selection is three
 * bitwise ops instead of a per-way scan. Replacement state is held
 * inline for all sets in one flat PolicyTable (no per-set heap objects
 * or virtual dispatch on the hot path). See docs/PERF.md.
 *
 * All of those arrays, the PolicyTable's included, live in one
 * ZeroPages block per cache level (common/zero_pages.hh): from 32 KiB
 * of state up (an L2 or LLC slice) one anonymous mapping with guard
 * pages, so the sets a run never touches cost no host memory and no
 * build time; smaller levels keep zeroed heap blocks. A cache notes
 * each set it installs a line in, so reset() and the destructor clear
 * only those sets, and the destructor hands a cleared mapping back
 * for the next cache of the same geometry to reuse without page
 * faults, as far as the process pool's byte budget allows. Only
 * LfsrRandom's per-set seeds and Srrip's distant RRPVs are written at
 * construction.
 */

#ifndef WB_SIM_CACHE_HH
#define WB_SIM_CACHE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/rng.hh"
#include "common/types.hh"
#include "common/zero_pages.hh"
#include "sim/address.hh"
#include "sim/replacement.hh"

namespace wb::sim
{

/** When modified data is propagated to the next level. */
enum class WritePolicy
{
    WriteBack,   //!< dirty bit per line; write back on eviction
    WriteThrough //!< every store is forwarded; lines never dirty
};

/** Whether a store miss allocates the line. */
enum class AllocPolicy
{
    WriteAllocate,
    NoWriteAllocate
};

/** Static configuration of one cache level. */
struct CacheParams
{
    std::string name = "L1D";          //!< label used in stats/logs
    std::size_t sizeBytes = 32 * 1024; //!< total capacity
    unsigned ways = 8;                 //!< associativity (at most 32)
    PolicyKind policy = PolicyKind::TreePlru; //!< replacement policy
    WritePolicy writePolicy = WritePolicy::WriteBack;
    AllocPolicy allocPolicy = AllocPolicy::WriteAllocate;

    /**
     * Per-thread way masks for partitioned caches (bit w set = thread
     * may fill way w). Empty means no partitioning. (NoMo/DAWG.)
     */
    std::vector<std::uint32_t> fillMaskPerThread;

    /**
     * DAWG-style isolation: when true a thread's probes can only hit in
     * its own partition ways; NoMo (false) isolates fills only.
     */
    bool probeIsolated = false;

    /**
     * PLcache defense: lines become locked when written (the protected
     * process' dirty data cannot be evicted by other processes, which
     * removes the replacement-latency signal).
     */
    bool lockOnWrite = false;

    /** Number of sets implied by size/ways/line size. */
    unsigned
    numSets() const
    {
        return static_cast<unsigned>(sizeBytes / (ways * lineBytes));
    }
};

/** One cache line's metadata (data values are not simulated). */
struct Line
{
    bool valid = false;
    bool dirty = false;
    bool locked = false;       //!< PLcache lock bit
    Addr lineAddr = 0;         //!< full line-granular physical address
    ThreadId filledBy = 0;     //!< thread that installed the line
};

/** Description of a line pushed out by a fill. */
struct Evicted
{
    bool any = false;   //!< a valid line was evicted
    bool dirty = false; //!< ...and it was dirty (needs write-back)
    Addr lineAddr = 0;  //!< its address
};

/** Result of Cache::fill(). */
struct FillOutcome
{
    bool filled = false; //!< false when locking/partitioning blocked it
    bool residentHit = false; //!< the line was already resident
    unsigned way = 0;
    Evicted evicted;
};

/** Aggregate outcome of a probeBatch()/fillBatch() call. */
struct BatchStats
{
    std::uint64_t hits = 0;     //!< lookups that found the line resident
    std::uint64_t misses = 0;   //!< lookups that did not
    std::uint64_t fills = 0;    //!< lines actually installed
    std::uint64_t bypassed = 0; //!< fills blocked by locks/partitioning
    std::uint64_t evictions = 0;      //!< valid lines pushed out
    std::uint64_t dirtyEvictions = 0; //!< ...of which dirty
};

/**
 * One cache level. The surrounding Hierarchy implements the latency
 * model and inter-level traffic; this class only tracks state.
 */
class Cache
{
  public:
    /**
     * @param params static configuration
     * @param rng randomness for stochastic replacement policies; may be
     *        nullptr if the chosen policy is deterministic
     */
    Cache(const CacheParams &params, Rng *rng);

    /**
     * Hands mapped storage back for the next cache of this geometry
     * (ZeroPages::recycle) after clearing the sets this one used.
     */
    ~Cache();

    Cache(Cache &&) = default;
    Cache &operator=(Cache &&) = default;

    /**
     * Invalidate everything and reset replacement state. Writes only
     * the sets a line was installed in since the last reset (plus,
     * for LfsrRandom, every set's LFSR word).
     */
    void reset();

    /** The static configuration. */
    const CacheParams &params() const { return params_; }

    /** Address decomposition for this geometry. */
    const AddressLayout &layout() const { return layout_; }

    /**
     * Look up @p paddr. Honors probe isolation for @p tid when
     * configured. @return the hit way, or nullopt on miss.
     */
    std::optional<unsigned> probe(Addr paddr, ThreadId tid) const;

    /**
     * Record a hit on @p way for @p paddr: updates replacement state
     * and, for write-back caches, sets the dirty bit on stores.
     */
    void onHit(Addr paddr, unsigned way, ThreadId tid, bool isWrite);

    /**
     * Install @p paddr, evicting a victim if the set is full. A fill of
     * a resident line degenerates to a (write) hit.
     *
     * @param asDirty install already dirty (write-allocate store, or a
     *        write-back arriving from the level above)
     * @return fill outcome including the evicted line, if any
     */
    FillOutcome fill(Addr paddr, ThreadId tid, bool asDirty);

    /**
     * Look up a whole address list in one call (an eviction-set
     * traversal). Read-only: replacement state is not touched.
     *
     * @param hitWay optional out-array of @p n entries; entry i becomes
     *        the hit way for addrs[i], or 0xff on miss.
     */
    BatchStats probeBatch(const Addr *addrs, std::size_t n, ThreadId tid,
                          std::uint8_t *hitWay = nullptr) const;

    /** Convenience overload over a vector. */
    BatchStats
    probeBatch(const std::vector<Addr> &addrs, ThreadId tid,
               std::uint8_t *hitWay = nullptr) const
    {
        return probeBatch(addrs.data(), addrs.size(), tid, hitWay);
    }

    /**
     * Drive a whole traversal of fills in one call: each address is
     * installed via the fill() path (resident lines degenerate to
     * hits). This is the idiom every channel sender/receiver sweep and
     * eviction-set prime uses.
     *
     * @param evictedOut optional sink receiving every evicted valid
     *        line, in eviction order (for write-back propagation)
     */
    BatchStats fillBatch(const Addr *addrs, std::size_t n, ThreadId tid,
                         bool asDirty,
                         std::vector<Evicted> *evictedOut = nullptr);

    /** Convenience overload over a vector. */
    BatchStats
    fillBatch(const std::vector<Addr> &addrs, ThreadId tid, bool asDirty,
              std::vector<Evicted> *evictedOut = nullptr)
    {
        return fillBatch(addrs.data(), addrs.size(), tid, asDirty,
                         evictedOut);
    }

    /**
     * Drop @p paddr if present. Inline (with contains() and
     * downgrade()): the multi-core coherence layer calls these on
     * every miss, and its flattened miss path folds them in.
     * @param wasDirty out-param set when the dropped line was dirty
     * @return true when the line was present
     */
    bool
    invalidate(Addr paddr, bool &wasDirty)
    {
        wasDirty = false;
        const std::size_t idx = findIndex(paddr);
        if (idx == npos)
            return false;
        const unsigned set = layout_.setIndex(paddr);
        const auto way =
            static_cast<unsigned>(idx - std::size_t(set) * params_.ways);
        wasDirty = (unsigned(flags_[idx]) & FlagDirty) != 0;
        lineAddr_[idx] = 0;
        flags_[idx] = LineFlagWord{};
        filledBy_[idx] = 0;
        validMask_[set] &= ~(1u << way);
        lockedMask_[set] &= ~(1u << way);
        return true;
    }

    /** PLcache: lock the line holding @p paddr. @return success. */
    bool lock(Addr paddr);

    /** PLcache: unlock the line holding @p paddr. @return success. */
    bool unlock(Addr paddr);

    /** PLcache: clear every lock bit. */
    void unlockAll();

    /** True when @p paddr is cached (ignores probe isolation). */
    bool contains(Addr paddr) const { return findIndex(paddr) != npos; }

    /** True when @p paddr is cached and dirty. */
    bool isDirty(Addr paddr) const;

    /**
     * MESI-lite downgrade (M -> S): clear the dirty bit of the line
     * holding @p paddr, keeping it resident. Used by the multi-core
     * coherence layer when a remote load snoops a dirty private copy.
     * @return true when the line was present *and* dirty.
     */
    bool
    downgrade(Addr paddr)
    {
        const std::size_t idx = findIndex(paddr);
        if (idx == npos || (unsigned(flags_[idx]) & FlagDirty) == 0)
            return false;
        flags_[idx] = flagWord(unsigned(flags_[idx]) & ~FlagDirty);
        return true;
    }

    // --- Inline hot-path API (used by the Hierarchy and
    // MultiCoreSystem fused access loops; defined inline so
    // calls flatten to straight-line code) ---

    /**
     * Hot-path dirty check of one specific line; the caller just
     * probed @p way for this set, so no consistency check is needed.
     */
    bool
    lineDirty(unsigned set, unsigned way) const
    {
        const std::size_t idx = std::size_t(set) * params_.ways + way;
        return (unsigned(flags_[idx]) & FlagDirty) != 0;
    }

    /**
     * Hot-path lookup with the line address and set precomputed; same
     * semantics as probe() (honors probe isolation for @p tid).
     * @return the hit way, or -1 on miss.
     */
    int
    probeWay(Addr la, unsigned set, ThreadId tid) const
    {
        // At most one valid way can hold a line, so the lowest set
        // bit of the match mask is the hit way.
        const std::uint32_t eq = residentMask(la, set);
        if (eq == 0)
            return -1;
        const unsigned w = lowestWay(eq);
        if (params_.probeIsolated && !((fillMaskFor(tid) >> w) & 1u))
            return -1;
        return static_cast<int>(w);
    }

    /**
     * Hot-path hit bookkeeping: the state effects of onHit() without
     * the way/line consistency check (the caller just probed @p way).
     */
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((always_inline))
#endif
    void
    hitFast(unsigned set, unsigned way, bool isWrite)
    {
        if (isWrite && params_.writePolicy == WritePolicy::WriteBack) {
            LineFlagWord *__restrict flags = flags_.data();
            const std::size_t idx =
                std::size_t(set) * params_.ways + way;
            flags[idx] = flagWord(unsigned(flags[idx]) | FlagDirty);
            if (params_.lockOnWrite) {
                flags[idx] = flagWord(unsigned(flags[idx]) | FlagLocked);
                lockedMask_[set] |= 1u << way;
            }
        }
        policy_.onHit(set, way);
    }

    /**
     * The batched hit-run kernel behind Hierarchy::accessBatch() and
     * MultiCoreSystem::accessBatch(): a batch of @p n accesses
     * (addresses from @p addrAt, one store flag for the batch) cut
     * into runs of pure L1 hits, each taken in two phases, up to 64
     * hits at a time (the run's scratch buffer):
     *
     *  1. probe: each access is probed against the cache as it stands,
     *     for as long as it is a pure hit: resident, and @p pureHit
     *     (set, way) allows it. A hit never changes residency, so
     *     every probe of the run reads the state the first one read;
     *  2. commit: hitFast() for each hit, in order, then
     *     @p commitRun(k) once for the k hits (counters, latency and
     *     the run's noise, as one Rng call).
     *
     * The access that ends a run goes to @p finish(paddr, set, way),
     * with way -1 on a miss, which completes it from the probe made
     * here without probing again. Bit-identical to running the
     * per-access body n times: a hit draws nothing from the shared
     * Rng but its noise deviate (no PolicyKind's onHit draws), so a
     * run's deviates are all taken before the access that ends it
     * runs, as they are one access at a time.
     */
    template <typename AddrAt, typename PureHit, typename CommitRun,
              typename Finish>
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((always_inline))
#endif
    void
    hitRuns(std::size_t n, ThreadId tid, bool isWrite, AddrAt &&addrAt,
            PureHit &&pureHit, CommitRun &&commitRun, Finish &&finish)
    {
        struct Hit
        {
            unsigned set;
            unsigned way;
        };
        constexpr std::size_t kChunk = 64;
        Hit hits[kChunk];
        std::size_t i = 0;
        while (i < n) {
            std::size_t k = 0;
            bool stopped = false;
            Addr paddr = 0;
            unsigned set = 0;
            int way = -1;
            for (; i < n && k < kChunk; ++i) {
                paddr = addrAt(i);
                set = layout_.setIndex(paddr);
                way = probeWay(AddressLayout::lineAddr(paddr), set, tid);
                if (way < 0 || !pureHit(set, static_cast<unsigned>(way))) {
                    stopped = true;
                    break;
                }
                hits[k++] = {set, static_cast<unsigned>(way)};
            }
            for (std::size_t j = 0; j < k; ++j)
                hitFast(hits[j].set, hits[j].way, isWrite);
            if (k > 0)
                commitRun(k);
            if (stopped) {
                finish(paddr, set, way);
                ++i;
            }
        }
    }

    /**
     * Hot-path fill: fill() with the resident-line scan optionally
     * skipped. @p checkResident may be false only when the caller
     * just probed this cache for the line and missed with probe
     * isolation disabled (a demand fill right after a miss) — under
     * probe isolation a probe miss does not rule out residency.
     */
    FillOutcome
    fillFast(Addr paddr, ThreadId tid, bool asDirty, bool checkResident)
    {
        const auto [dirtyFill, newFlags] = fillSpec(asDirty);
        return fillLine(AddressLayout::lineAddr(paddr),
                        layout_.setIndex(paddr), tid, fillMaskFor(tid),
                        dirtyFill, newFlags, checkResident);
    }

    /**
     * The traversal-invariant fill configuration for @p asDirty:
     * {install dirty, composed line flags}. Shared by fill(),
     * fillBatch() and the Hierarchy miss path so write-policy and
     * PLcache lock rules cannot drift between them.
     */
    std::pair<bool, std::uint8_t>
    fillSpec(bool asDirty) const
    {
        const bool dirtyFill =
            asDirty && params_.writePolicy == WritePolicy::WriteBack;
        const bool lockFill = dirtyFill && params_.lockOnWrite;
        return {dirtyFill,
                static_cast<std::uint8_t>(
                    FlagValid | (dirtyFill ? FlagDirty : 0) |
                    (lockFill ? FlagLocked : 0))};
    }

    /** Number of dirty lines currently in @p set. */
    unsigned dirtyCountInSet(unsigned set) const;

    /** Number of valid lines currently in @p set. */
    unsigned validCountInSet(unsigned set) const;

    /** Copy of the lines of @p set (tests/benches introspection). */
    std::vector<Line> setContents(unsigned set) const;

    /** Total number of sets. */
    unsigned numSets() const { return layout_.numSets(); }

    /** The replacement state (tests introspection). */
    const PolicyTable &policyTable() const { return policy_; }

  private:
    /** Packed per-line flag bits (flags_ entries). */
    enum LineFlag : std::uint8_t
    {
        FlagValid = 1,
        FlagDirty = 2,
        FlagLocked = 4,
    };

    /**
     * Storage type of flags_: a distinct 8-bit enum rather than
     * std::uint8_t because the character types' alias-everything rule
     * would force the optimizer to reload every cached invariant
     * (vector data pointers, geometry masks, latency parameters)
     * after each flag store in the fused hierarchy loop.
     */
    enum LineFlagWord : std::uint8_t
    {
    };

    /** Compose a LineFlagWord from LineFlag bits. */
    static LineFlagWord
    flagWord(unsigned bits)
    {
        return static_cast<LineFlagWord>(bits);
    }

    /** Cached fill mask (bit w set = thread may fill way w). */
    std::uint32_t
    fillMaskFor(ThreadId tid) const
    {
        return tid < fillMask_.size() ? fillMask_[tid] : allMask_;
    }

    /**
     * Fixed-width stripe compare: match bitmask. SSE2 has no 64-bit
     * lane compare, so each pair of ways is compared as four 32-bit
     * lanes (pcmpeqd); a way matches when both of its halves do, which
     * an AND with the halves swapped puts in each lane's high half,
     * where movmskpd reads it. Without SSE2 the scalar loop stays.
     */
    template <unsigned Ways>
    static std::uint32_t
    stripeMatch(const Addr *stripe, Addr la)
    {
        std::uint32_t eq = 0;
#if defined(__SSE2__)
        static_assert(Ways % 2 == 0);
        const __m128i key = _mm_set1_epi64x(static_cast<long long>(la));
        for (unsigned w = 0; w < Ways; w += 2) {
            const __m128i half = _mm_cmpeq_epi32(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(stripe + w)),
                key);
            const __m128i both = _mm_and_si128(
                half, _mm_shuffle_epi32(half, _MM_SHUFFLE(2, 3, 0, 1)));
            eq |= static_cast<std::uint32_t>(
                      _mm_movemask_pd(_mm_castsi128_pd(both)))
                  << w;
        }
#else
        for (unsigned w = 0; w < Ways; ++w)
            eq |= static_cast<std::uint32_t>(stripe[w] == la) << w;
#endif
        return eq;
    }

    /**
     * Valid ways of @p set holding line @p la (zero or one bit): a
     * branchless compare of the whole set stripe. The common widths
     * (4, 8, 16) run stripeMatch's SSE2 compare; the runtime-bound
     * fallback stays scalar. Ignores probe isolation.
     */
    std::uint32_t
    residentMask(Addr la, unsigned set) const
    {
        const unsigned ways = params_.ways;
        const Addr *stripe = &lineAddr_[std::size_t(set) * ways];
        std::uint32_t eq;
        if (ways == 8)
            eq = stripeMatch<8>(stripe, la);
        else if (ways == 16)
            eq = stripeMatch<16>(stripe, la);
        else if (ways == 4)
            eq = stripeMatch<4>(stripe, la);
        else {
            eq = 0;
            for (unsigned w = 0; w < ways; ++w)
                eq |= static_cast<std::uint32_t>(stripe[w] == la) << w;
        }
        return eq & validMask_[set];
    }

    /**
     * Reset the line state and replacement words of every set in
     * usedSets_, and empty it.
     */
    void clearUsedSets();

    /** Flat index of the resident line for @p paddr, or npos. */
    std::size_t
    findIndex(Addr paddr) const
    {
        const unsigned set = layout_.setIndex(paddr);
        // An empty set is answered without reading its stripe: the
        // coherence walks probe many remote private sets that hold
        // nothing, and the stripe read is a host cache miss there.
        if (validMask_[set] == 0)
            return npos;
        const std::uint32_t eq =
            residentMask(AddressLayout::lineAddr(paddr), set);
        return eq == 0 ? npos
                       : std::size_t(set) * params_.ways + lowestWay(eq);
    }

    /**
     * The shared per-line fill semantics behind fill(), fillBatch()
     * and the Hierarchy miss path: resident-hit degeneration,
     * candidate masking, victim selection and line install. Callers
     * precompute the per-traversal invariants (@p fillMask,
     * @p dirtyFill and the composed @p newFlags). @p checkResident
     * may be false only when the caller just probed this cache for
     * @p la and missed with probe isolation disabled (the demand-fill
     * fast path), skipping a redundant set scan. Force-inlined: the
     * compiler otherwise outlines it, costing ~8% on the fill-evict
     * benchmark. Defined below.
     */
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((always_inline))
#endif
    inline FillOutcome fillLine(Addr la, unsigned set, ThreadId tid,
                                std::uint32_t fillMask, bool dirtyFill,
                                std::uint8_t newFlags,
                                bool checkResident = true);

    /**
     * Cold panic half of fillLine's ineligible-victim check, kept out
     * of line: panicf's stream formatting would otherwise inline into
     * every fillLine copy in the flattened miss path.
     */
    [[noreturn]] void badVictimWay(unsigned way) const;

    static constexpr std::size_t npos = ~std::size_t(0);

    /** ZeroPages array index of policy_'s setWord (lineWord follows). */
    static constexpr std::size_t kPolicyArrays = 5;

    /** Byte sizes of the line-state arrays, then policy_'s two. */
    static std::array<std::size_t, kPolicyArrays + 2>
    storageBytes(const CacheParams &params);

    CacheParams params_;
    AddressLayout layout_;

    // Structure-of-arrays line storage, indexed by set * ways + way.
    // Views into pages_, which sits after the hot members.
    ZeroArray<Addr> lineAddr_;
    ZeroArray<LineFlagWord> flags_;
    ZeroArray<ThreadId> filledBy_;

    // Per-set way bitmasks (bit w = way w valid / locked).
    ZeroArray<std::uint32_t> validMask_;
    ZeroArray<std::uint32_t> lockedMask_;

    /**
     * One bit per set: a line was installed there since the last
     * reset. Every other set still holds its construction state (no
     * hit, lock or policy update reaches a set without a line), so
     * reset() and the destructor clear only these. A set's first
     * install after a reset goes to an invalid way, so only fills into
     * invalid ways set the bit; evicting fills skip it.
     */
    std::vector<std::uint64_t> usedSets_;

    std::vector<std::uint32_t> fillMask_; //!< cached per-thread masks
    std::uint32_t allMask_ = 0;           //!< bits [0, ways)

    /** Storage of the arrays above and of policy_'s words. */
    ZeroPages pages_;

    PolicyTable policy_;
};

inline FillOutcome
Cache::fillLine(Addr la, unsigned set, ThreadId tid,
                std::uint32_t fillMask, bool dirtyFill,
                std::uint8_t newFlags, bool checkResident)
{
    const std::size_t base = std::size_t(set) * params_.ways;

    // The line-state arrays never overlap; the restrict-qualified
    // locals keep the std::uint8_t flag stores (which otherwise alias
    // everything) from forcing pointer and counter reloads in the
    // flattened miss path.
    Addr *__restrict lineAddr = lineAddr_.data();
    LineFlagWord *__restrict flags = flags_.data();
    ThreadId *__restrict filledBy = filledBy_.data();
    std::uint32_t *__restrict validMask = validMask_.data();
    std::uint32_t *__restrict lockedMask = lockedMask_.data();
    std::uint64_t *__restrict usedSets = usedSets_.data();

    // A fill of a resident line degenerates to a (write) hit. This
    // happens when a write-back from the level above finds the line
    // still cached here.
    if (checkResident) {
        for (std::uint32_t m = validMask[set]; m != 0; m &= m - 1) {
            const unsigned w = lowestWay(m);
            if (lineAddr[base + w] != la)
                continue;
            if (dirtyFill) {
                flags[base + w] =
                    flagWord(unsigned(flags[base + w]) | FlagDirty);
                if (params_.lockOnWrite) {
                    // A write-back arrival dirties the line, so
                    // PLcache locks it — same rule as onHit() on a
                    // store.
                    flags[base + w] = flagWord(
                        unsigned(flags[base + w]) | FlagLocked);
                    lockedMask[set] |= 1u << w;
                }
            }
            policy_.onHit(set, w);
            FillOutcome hitOut;
            hitOut.filled = true;
            hitOut.residentHit = true;
            hitOut.way = w;
            return hitOut;
        }
    }

    // Candidate ways: inside the thread's partition and not locked.
    const std::uint32_t candidates = fillMask & ~lockedMask[set];
    if (candidates == 0)
        return {}; // everything locked / partition empty: bypass

    FillOutcome out;
    out.filled = true;

    // Prefer an invalid candidate way; otherwise every candidate is
    // valid, so ask the policy for a victim among them.
    unsigned way;
    const std::uint32_t invalid = candidates & ~validMask[set];
    if (invalid != 0) {
        way = lowestWay(invalid);
        usedSets[set >> 6] |= std::uint64_t(1) << (set & 63);
    } else {
        way = policy_.victim(set, candidates);
        if (way >= params_.ways || !((candidates >> way) & 1u))
            badVictimWay(way);
        const std::size_t idx = base + way;
        out.evicted.any = true;
        out.evicted.dirty = (unsigned(flags[idx]) & FlagDirty) != 0;
        out.evicted.lineAddr = lineAddr[idx];
    }

    const std::size_t idx = base + way;
    lineAddr[idx] = la;
    filledBy[idx] = tid;
    flags[idx] = flagWord(newFlags);
    validMask[set] |= 1u << way;
    if ((newFlags & FlagLocked) != 0)
        lockedMask[set] |= 1u << way;
    else
        lockedMask[set] &= ~(1u << way);
    policy_.onFill(set, way);
    out.way = way;
    return out;
}

} // namespace wb::sim

#endif // WB_SIM_CACHE_HH
