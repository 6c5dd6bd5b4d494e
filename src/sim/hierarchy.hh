/**
 * @file
 * Multi-level memory hierarchy with a cycle latency model calibrated to
 * the paper's Table IV measurements on the Intel Xeon E5-2650:
 *
 *   L1D hit                              4-5 cycles
 *   L2 hit + replacing a clean L1 line  10-12 cycles
 *   L2 hit + replacing a dirty L1 line  22-23 cycles
 *
 * The dirty-victim penalty charged on the L1 fill path is the hardware
 * vulnerability the WB channel exploits: before the fill can complete,
 * the victim must be written back to L2.
 */

#ifndef WB_SIM_HIERARCHY_HH
#define WB_SIM_HIERARCHY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/round.hh"
#include "common/types.hh"
#include "sim/cache.hh"

namespace wb::sim
{

/** Which level served an access. */
enum class Level
{
    L1,
    L2,
    LLC,
    Mem
};

/** Human-readable level name. */
std::string levelName(Level level);

/** Cycle costs of the hierarchy (see file comment for calibration). */
struct LatencyModel
{
    Cycles l1Hit = 4;        //!< L1 load-to-use
    Cycles l2Hit = 10;       //!< L1 miss served by L2, clean victim
    Cycles llcHit = 35;      //!< served by LLC
    Cycles mem = 200;        //!< served by DRAM

    /** Extra cycles when the L1 fill victim is dirty (the WB channel). */
    Cycles l1DirtyEvictPenalty = 12;

    /** Extra cycles when the L2 fill victim is dirty. */
    Cycles l2DirtyEvictPenalty = 16;

    /**
     * Extra cycles when an LLC eviction must drain dirty data to DRAM
     * — either the LLC victim itself is dirty or (inclusive LLC) a
     * back-invalidated private copy in some core was. Charged by the
     * multi-core system to the access that forced the eviction; this
     * is the cross-core observable the shared-LLC WB channel measures.
     */
    Cycles llcDirtyEvictPenalty = 24;

    /**
     * Extra cycles when a load is served by snooping a dirty copy out
     * of another core's private caches (MESI M->S downgrade with a
     * write-back into the shared LLC). Multi-core only.
     */
    Cycles crossCoreSnoopPenalty = 40;

    /** Store completion cost on top of the lookup (store buffer). */
    Cycles storeExtra = 0;

    /**
     * Visible latency of a store as seen by the issuing thread. Stores
     * retire into the store buffer and drain asynchronously, so the
     * thread does not wait for the miss handling — but the cache state
     * change (fill + dirty bit) is applied immediately. 0 makes stores
     * pay the full access latency (no store buffer).
     */
    Cycles storeVisibleLatency = 3;

    /** Extra store cost through a write-through L1. */
    Cycles writeThroughStore = 6;

    /** Base cost of clflush. */
    Cycles flushBase = 37;

    /** Additional clflush cost when the line was present... */
    Cycles flushPresentExtra = 4;

    /** ...and when it was dirty (needs a write-back). */
    Cycles flushDirtyExtra = 8;

    /**
     * Extra clflush cost per pending L1 dirty write-back queued since
     * the last flush (Flushgeist's observable: clflush serializes
     * against the write-back buffer, so flushing any line stalls until
     * the set's recently-evicted dirty victims drain). 0 — the default
     * on every preset — disables the tracking entirely and keeps
     * flush() bit-identical to the pre-observer model; the
     * flush-latency observer plan opts in (chan/degraded).
     */
    Cycles flushWbDrainExtra = 0;

    /**
     * Sigma of the zero-mean Gaussian measurement noise added per
     * access (bank conflicts, minor queuing). 0 disables noise.
     */
    double noiseSigma = 0.6;
};

/**
 * One access's Gaussian measurement noise in whole cycles:
 * lround(max(lat.noiseSigma * g, 0)) for the next cached deviate g of
 * @p rng, or 0 when @p rng is null or the sigma is not positive.
 * Hierarchy and MultiCoreSystem both charge it on every access, so it
 * is inline and branch-free past the (predictable) enable check: the
 * clamp is roundPositivePart(), not a test of the deviate's sign.
 */
inline Cycles
measurementNoise(const LatencyModel &lat, Rng *rng)
{
    if (rng == nullptr || lat.noiseSigma <= 0.0)
        return 0;
    return roundPositivePart(lat.noiseSigma * rng->gaussianCached());
}

/**
 * measurementNoise() summed over the next @p k accesses: the same k
 * deviates, drawn in one Rng call (the commit of a batched L1 hit
 * run, see Cache::hitRuns).
 */
inline Cycles
measurementNoiseSum(const LatencyModel &lat, Rng *rng, std::size_t k)
{
    if (rng == nullptr || lat.noiseSigma <= 0.0)
        return 0;
    return rng->gaussianCachedRoundedSum(lat.noiseSigma, k);
}

/** Per-thread (and global) demand-access counters, perf-style. */
struct PerfCounters
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t l1DirtyWritebacks = 0;
    std::uint64_t flushes = 0;

    /**
     * LLC evictions (caused by this thread's accesses) that drained
     * dirty data to DRAM — the victim was dirty in the LLC or, under
     * an inclusive LLC, a back-invalidated private copy was. Only the
     * multi-core system charges these today.
     */
    std::uint64_t llcDirtyEvictions = 0;

    /** Loads served by downgrading a remote core's dirty copy. */
    std::uint64_t crossCoreSnoops = 0;

    /**
     * L1 loads retired by busy-wait loops (always hits; see
     * NoiseModel::spinIterCycles). Counted separately so miss rates
     * can be reported with spin traffic included, as `perf` would.
     */
    std::uint64_t spinLoads = 0;

    /** Demand L1 references. */
    std::uint64_t l1Accesses() const { return loads + stores; }

    /** All L1 loads including spin-loop loads (perf's view). */
    std::uint64_t l1LoadsWithSpin() const { return loads + spinLoads; }

    /** L1 miss ratio with spin-loop hits included in the denominator. */
    double
    l1MissRateWithSpin() const
    {
        const auto a = l1Accesses() + spinLoads;
        return a ? double(l1Misses) / double(a) : 0.0;
    }

    /** L1 miss ratio in [0,1]. */
    double
    l1MissRate() const
    {
        const auto a = l1Accesses();
        return a ? double(l1Misses) / double(a) : 0.0;
    }

    /** L2 miss ratio in [0,1]. */
    double
    l2MissRate() const
    {
        return l2Accesses ? double(l2Misses) / double(l2Accesses) : 0.0;
    }

    /** LLC miss ratio in [0,1]. */
    double
    llcMissRate() const
    {
        return llcAccesses ? double(llcMisses) / double(llcAccesses) : 0.0;
    }

    /** Accumulate another counter set into this one. */
    void merge(const PerfCounters &other);

    /**
     * Field-wise subtraction, for window deltas over a monotonically
     * growing snapshot (`now.subtract(prev)`). The caller guarantees
     * `other` is an earlier snapshot of the same counters; counters
     * never decrease, so each field stays non-negative.
     */
    void subtract(const PerfCounters &other);
};

/** Result of one demand access through the hierarchy. */
struct AccessResult
{
    Level servedBy = Level::L1;
    bool l1Hit = false;
    bool l1VictimDirty = false; //!< the access replaced a dirty L1 line
    Cycles latency = 0;
};

/** Aggregate result of Hierarchy::accessBatch(). */
struct BatchAccessResult
{
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1DirtyEvictions = 0; //!< accesses with dirty L1 victim
    Cycles totalLatency = 0;            //!< sum of per-access latencies
};

/** Static configuration of the whole hierarchy. */
struct HierarchyParams
{
    CacheParams l1;
    CacheParams l2;
    CacheParams llc;
    LatencyModel lat;

    /**
     * Random-fill-cache defense (Liu & Lee): when > 0, demand L1 load
     * misses do not fill the requested line; instead a random line
     * within +/- window lines of the request is filled. 0 disables.
     */
    unsigned randomFillWindow = 0;

    /**
     * Prefetch-guard defense (Fang et al.): on each demand L1 miss,
     * with this probability a hardware prefetcher injects an extra
     * clean line into the same set (noise injection). The paper argues
     * clean noisy lines do not disturb the WB channel.
     */
    double prefetchGuardProb = 0.0;

    /**
     * Inclusive LLC (desktop-part behavior): evicting an LLC line
     * back-invalidates any copy in L1/L2. Dirty upper-level copies
     * drain straight to DRAM, which keeps no state, so the
     * back-invalidation is a pure drop here. Exclusive/non-inclusive
     * (false) matches the paper's Xeon E5-2650.
     */
    bool inclusiveLlc = false;

    /**
     * LLC slices (1, 2, 4 or 8). With > 1 the `llc` geometry describes
     * the *aggregate* LLC: MultiCoreSystem splits it into llcSlices
     * equal Cache shards and routes each line address through an
     * Intel-style XOR-of-tag-bits hash (sim/slice_hash.hh), so
     * addresses sharing a set index scatter across slices and
     * eviction sets must be discovered at runtime. 1 keeps the
     * monolithic LLC (bit-exact with the pre-slicing model). Only
     * MultiCoreSystem models slicing; the single-core Hierarchy is
     * fatal on llcSlices > 1.
     */
    unsigned llcSlices = 1;
};

/** The Xeon E5-2650 configuration of paper Table III. */
HierarchyParams xeonE5_2650Params();

/**
 * What a simulated process sees of the memory system: demand
 * accesses, flushes and perf counters. Implemented by Hierarchy (one
 * core, three levels) and by MultiCoreSystem's per-core ports
 * (private L1/L2 over a shared LLC), so SmtCore programs, victims and
 * offline measurement helpers run unchanged on either topology. The
 * hot paths keep static types (Hierarchy is final, so direct calls
 * devirtualize); only the SmtCore front-end dispatches through this
 * interface.
 */
class MemorySystem
{
  public:
    virtual ~MemorySystem() = default;

    /** One demand access (see Hierarchy::access). */
    virtual AccessResult access(ThreadId tid, Addr paddr,
                                bool isWrite) = 0;

    /** Batched demand accesses over physical addresses. */
    virtual BatchAccessResult accessBatch(ThreadId tid, const Addr *paddrs,
                                          std::size_t n, bool isWrite) = 0;

    /** Batched demand accesses over virtual addresses. */
    virtual BatchAccessResult accessBatch(ThreadId tid,
                                          const AddressSpace &space,
                                          const Addr *vaddrs, std::size_t n,
                                          bool isWrite) = 0;

    /** clflush (coherent across the whole system). */
    virtual Cycles flush(ThreadId tid, Addr paddr) = 0;

    /** Counters for one thread (auto-extends). */
    virtual PerfCounters &counters(ThreadId tid) = 0;

    /** Convenience overload over a vector of physical addresses. */
    BatchAccessResult
    accessBatch(ThreadId tid, const std::vector<Addr> &paddrs, bool isWrite)
    {
        return accessBatch(tid, paddrs.data(), paddrs.size(), isWrite);
    }

    /** Convenience overload over a vector of virtual addresses. */
    BatchAccessResult
    accessBatch(ThreadId tid, const AddressSpace &space,
                const std::vector<Addr> &vaddrs, bool isWrite)
    {
        return accessBatch(tid, space, vaddrs.data(), vaddrs.size(),
                           isWrite);
    }
};

/**
 * Three cache levels plus DRAM. All state mutation and latency
 * accounting for demand accesses, write-backs, flushes and injected
 * (prefetch) fills goes through this class.
 */
class Hierarchy final : public MemorySystem
{
  public:
    /**
     * @param params static configuration
     * @param rng randomness for noise and stochastic policies; may be
     *        nullptr for a fully deterministic hierarchy without noise
     */
    Hierarchy(const HierarchyParams &params, Rng *rng);

    /**
     * Invalidate all cached state in every level (lines, dirty/lock
     * bits, replacement state). Perf counters persist — use
     * resetCounters() or resetAll() when a call site wants them gone
     * too.
     */
    void reset();

    /** Zero all perf counters. */
    void resetCounters();

    /**
     * reset() + resetCounters(), plus dropping the Rng's cached
     * deviates (gaussianCached block, Marsaglia spare): a
     * factory-fresh hierarchy. Repeated sweeps that reseed the shared
     * Rng between repetitions are bit-reproducible only if leftover
     * deviates from the previous stream are discarded here.
     */
    void resetAll();

    /**
     * One demand access.
     *
     * @param tid issuing hardware thread
     * @param paddr physical byte address
     * @param isWrite store (true) or load (false)
     */
    AccessResult access(ThreadId tid, Addr paddr, bool isWrite) override;

    /**
     * Drive a whole address list through access() in one call — the
     * idiom of every offline eviction-set sweep (warm-ups, pointer
     * chases, prime loops). Aggregates instead of returning per-access
     * results.
     */
    BatchAccessResult accessBatch(ThreadId tid, const Addr *paddrs,
                                  std::size_t n, bool isWrite) override;

    /**
     * accessBatch() over virtual addresses: translates each one
     * through @p space on the fly (no scratch vector needed).
     */
    BatchAccessResult accessBatch(ThreadId tid, const AddressSpace &space,
                                  const Addr *vaddrs, std::size_t n,
                                  bool isWrite) override;

    /** The base class' vector conveniences stay visible. */
    using MemorySystem::accessBatch;

    /**
     * clflush: drop the line from every level, writing dirty data back
     * to memory. @return cycle cost (depends on presence/dirtiness).
     */
    Cycles flush(ThreadId tid, Addr paddr) override;

    /**
     * Install a clean line into L1 without touching demand counters or
     * charging latency — models a hardware prefetcher (Prefetch-guard
     * defense, noisy-line injection).
     */
    void injectCleanFill(Addr paddr, ThreadId tid = 0);

    /** L1 data cache (introspection for tests and experiments). */
    Cache &l1() { return l1_; }
    /** L2 cache. */
    Cache &l2() { return l2_; }
    /** Last-level cache. */
    Cache &llc() { return llc_; }

    /**
     * Counters for one thread (auto-extends). Inline: the scalar
     * access path looks the stripe up per access, and the out-of-line
     * call was visible in the smt-step profile.
     */
    PerfCounters &
    counters(ThreadId tid) override
    {
        if (tid >= counters_.size()) [[unlikely]]
            counters_.resize(tid + 1);
        return counters_[tid];
    }

    /** Counters summed over all threads. */
    PerfCounters totalCounters() const;

    /** The static configuration. */
    const HierarchyParams &params() const { return params_; }

    /**
     * L1 dirty write-backs queued since the last flush (capped at
     * kPendingWbCap). Always 0 unless lat.flushWbDrainExtra opted the
     * tracking in. Exposed for the observer tests.
     */
    std::uint64_t pendingDirtyWritebacks() const { return pendingDirtyWb_; }

    /**
     * Write-back buffer depth: pending dirty write-backs beyond this
     * have already drained by the time a flush can observe them, which
     * bounds the first-probe spike after a long untimed prime.
     */
    static constexpr std::uint64_t kPendingWbCap = 16;

  private:
    /** Gaussian measurement noise (>= 0), see measurementNoise(). */
    Cycles noise() { return measurementNoise(params_.lat, rng_); }

    /**
     * The rest of one demand access once L1 was probed (@p way, or -1
     * on a miss, in @p set): the inline L1-hit fast path shared
     * verbatim by access() and the accessBatch() loop, which calls it
     * for each access that ends a hit run (the batched-vs-scalar
     * equivalence suite relies on this being one code path). Resolves
     * L1 hits with no out-of-line calls; everything else escalates to
     * missPath() / writeThroughL1Hit(). Loads and stores are counted
     * by the caller.
     */
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((always_inline))
#endif
    inline AccessResult accessProbed(ThreadId tid, Addr paddr,
                                     unsigned set, int way, bool isWrite,
                                     PerfCounters &ctr);

    /**
     * The fused L1-miss → L2 → LLC → fill/write-back path. Flattened:
     * every cache-level probe/fill/policy call inlines into one
     * straight-line body, which is where the batched miss-heavy sweep
     * earns its throughput (see docs/PERF.md). The Plain
     * instantiation compiles out the defense hooks (random fill,
     * prefetch guard, write-through/no-allocate stores) for the
     * common undefended configuration; plainMissPath_ picks the
     * instantiation once per hierarchy, identically for access() and
     * accessBatch().
     */
    template <bool Plain>
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((flatten, always_inline)) inline
#endif
    AccessResult missPath(ThreadId tid, Addr paddr, bool isWrite,
                          PerfCounters &ctr);

    /** Store hit in a write-through L1: forward the store to L2. */
    AccessResult writeThroughL1Hit(ThreadId tid, Addr paddr, unsigned set,
                                   unsigned way, PerfCounters &ctr);

    /**
     * Shared aggregation loop behind both accessBatch() overloads;
     * @p addrAt maps an element index to its physical address.
     */
    template <typename AddrAt>
    BatchAccessResult accessBatchImpl(ThreadId tid, std::size_t n,
                                      bool isWrite, AddrAt addrAt);

    /** Write a dirty L1 victim back into L2 (allocating if needed). */
    void writebackToL2(Addr lineAddr, ThreadId tid);

    /**
     * Install a line into the LLC, applying inclusive back-
     * invalidation of the evicted victim when configured. A dirty LLC
     * victim drains to DRAM, which keeps no state.
     */
    void llcFill(Addr paddr, ThreadId tid, bool asDirty,
                 bool checkResident);

    HierarchyParams params_;
    Rng *rng_;
    Cache l1_;
    Cache l2_;
    Cache llc_;
    std::vector<PerfCounters> counters_;
    bool plainMissPath_; //!< no defense hooks: use missPath<true>

    /** Dirty write-backs queued since the last flush (Flushgeist). */
    std::uint64_t pendingDirtyWb_ = 0;
    bool trackPendingWb_; //!< lat.flushWbDrainExtra > 0
};

} // namespace wb::sim

#endif // WB_SIM_HIERARCHY_HH
