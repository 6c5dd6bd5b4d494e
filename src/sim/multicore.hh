/**
 * @file
 * Multi-core shared-LLC topology: N cores with private L1/L2 pairs
 * over a slice-sharded shared last-level cache, with a MESI-lite
 * coherence layer built on the per-line dirty bits.
 *
 * This is the machine the cross-core variants of the WB channel need
 * (Sec. III generalized beyond the paper's SMT deployment, following
 * the shared-cache channels of Flushgeist and CacheOut):
 *
 *  - a store on core A invalidates the line in every other core's
 *    privates (the M-state upgrade message);
 *  - a load on core A that misses its privates while core B holds the
 *    line dirty snoops B's copy: B is downgraded to clean, the data is
 *    written back into the shared LLC, and A pays
 *    LatencyModel::crossCoreSnoopPenalty;
 *  - with HierarchyParams::inclusiveLlc, an LLC eviction
 *    back-invalidates the victim in every core's privates; if any
 *    dropped copy (or the LLC victim itself) was dirty, the data must
 *    drain to DRAM and the access that forced the eviction pays
 *    LatencyModel::llcDirtyEvictPenalty — the latency difference a
 *    cross-core receiver measures.
 *
 * The LLC is sharded into HierarchyParams::llcSlices slices selected
 * by an Intel-style XOR-of-tag-bits hash (sim/slice_hash.hh), and
 * each slice keeps a sharer directory (line -> 64-bit core presence
 * mask) so the coherence messages above visit only the cores that
 * actually hold the line instead of scanning all N cores per event —
 * the O(cores) -> O(sharers) change that makes 16/64-core presets and
 * thousand-pair tenant sweeps tractable (docs/TENANTS.md). The
 * pre-directory global-scan implementation is retained behind
 * setDirectoryCoherence(false): it is the bit-exactness reference for
 * the SlicedLlcEquivalence suite and the baseline the llc-slice-evict
 * benchmark measures the directory against.
 *
 * Scalar access() and the batched accessBatch() sweeps share one
 * per-access body, so batched and scalar execution are bit-identical
 * (tests/test_hierarchy_equivalence.cc, MultiCoreEquivalence). The
 * sweeps take runs of L1 hits through the two-phase Cache::hitRuns
 * kernel and only the access that ends a run through that body.
 */

#ifndef WB_SIM_MULTICORE_HH
#define WB_SIM_MULTICORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/cache.hh"
#include "sim/hierarchy.hh"
#include "sim/sharer_map.hh"
#include "sim/slice_hash.hh"

namespace wb::sim
{

class MultiCoreSystem;

/**
 * Why MultiCoreSystem cannot stand up @p params, or nullptr when it
 * can. The string names the disqualifying parameter (write-through
 * L1s, hierarchy-level defenses, per-thread LLC partitioning, an
 * unsupported slice count) so sweep skips and constructor fatals can
 * say *which* knob ruled a preset out instead of failing opaquely.
 */
const char *multiCoreIncapableReason(const HierarchyParams &params);

/**
 * True when @p params describes a machine MultiCoreSystem can stand
 * up (multiCoreIncapableReason() == nullptr). Sweeps over the
 * platform registry use this to skip presets that only exist
 * single-core.
 */
bool multiCoreCapable(const HierarchyParams &params);

/**
 * Coherence-event traffic counters, kept separate from PerfCounters:
 * they count *interconnect work* (how many private cache pairs a
 * coherence event had to visit), not architectural events, and the
 * directory-vs-scan equivalence suite requires PerfCounters to be
 * identical across modes while these deliberately differ.
 */
struct CoherenceStats
{
    std::uint64_t invalidateEvents = 0;  //!< M-upgrade broadcasts
    std::uint64_t snoopEvents = 0;       //!< load-miss snoop queries
    std::uint64_t backInvalEvents = 0;   //!< inclusive LLC victim kills
    std::uint64_t flushEvents = 0;       //!< coherent clflushes

    /**
     * Private L1/L2 pairs visited by the events above — the hot-path
     * cost the sharer directory shrinks from (cores - 1) per event to
     * popcount(sharer mask). docs/PERF.md reports the measured ratio.
     */
    std::uint64_t privateProbes = 0;
};

/**
 * One core's view of a MultiCoreSystem: the MemorySystem interface
 * with the core id bound, so SmtCore front-ends, victims and offline
 * measurement helpers drive a core exactly as they drive a Hierarchy.
 */
class CorePort final : public MemorySystem
{
  public:
    AccessResult access(ThreadId tid, Addr paddr, bool isWrite) override;
    BatchAccessResult accessBatch(ThreadId tid, const Addr *paddrs,
                                  std::size_t n, bool isWrite) override;
    BatchAccessResult accessBatch(ThreadId tid, const AddressSpace &space,
                                  const Addr *vaddrs, std::size_t n,
                                  bool isWrite) override;
    using MemorySystem::accessBatch;
    Cycles flush(ThreadId tid, Addr paddr) override;
    PerfCounters &counters(ThreadId tid) override;

    /** The core this port is bound to. */
    unsigned coreId() const { return core_; }

  private:
    friend class MultiCoreSystem;
    MultiCoreSystem *sys_ = nullptr;
    unsigned core_ = 0;
};

/**
 * N per-core private L1/L2 pairs over a shared, slice-sharded LLC.
 * The latency model, write-back semantics and noise handling mirror
 * Hierarchy; the coherence layer (see file comment) is what a single
 * Hierarchy cannot express. Models write-back, write-allocate cores
 * without the hierarchy-level defenses (random fill / prefetch
 * guard) — the constructor is fatal on unsupported parameter
 * combinations and names the offending knob.
 */
class MultiCoreSystem
{
  public:
    /** Sharer masks are 64-bit, which bounds the topology. */
    static constexpr unsigned kMaxCores = 64;

    /**
     * Smallest topology where directory coherence is on by default.
     * Below this the global scan is cheaper: walking 2-4 cores per
     * coherence event costs less than maintaining the sharer map on
     * every miss-path fill and private eviction (the 2-core
     * multicore-access sweep runs ~25% slower with the directory
     * forced on: median 0.75x scan mode over 5 runs, 0.70-0.81x),
     * while at 16 cores the directory wins llc-slice-evict ~1.2x.
     * Both modes produce the same accesses and latencies
     * (SlicedLlcEquivalence), but not the same CoherenceStats, so
     * moving the default changes reported probe counts;
     * setDirectoryCoherence overrides it either way.
     */
    static constexpr unsigned kDirectoryMinCores = 8;

    /**
     * @param params per-core L1/L2 geometry, aggregate shared-LLC
     *        geometry (split over params.llcSlices slices), latency
     *        model and inclusiveLlc flag
     * @param cores number of cores (1 to kMaxCores)
     * @param rng randomness for noise and stochastic policies; may be
     *        nullptr for a fully deterministic system
     */
    MultiCoreSystem(const HierarchyParams &params, unsigned cores,
                    Rng *rng);

    /** Number of cores. */
    unsigned coreCount() const { return unsigned(cores_.size()); }

    /** The MemorySystem port of one core. */
    MemorySystem &port(unsigned core);

    /** One demand access issued by @p core. */
    AccessResult access(unsigned core, ThreadId tid, Addr paddr,
                        bool isWrite);

    /** Batched demand accesses over physical addresses. */
    BatchAccessResult accessBatch(unsigned core, ThreadId tid,
                                  const Addr *paddrs, std::size_t n,
                                  bool isWrite);

    /** Batched demand accesses over virtual addresses. */
    BatchAccessResult accessBatch(unsigned core, ThreadId tid,
                                  const AddressSpace &space,
                                  const Addr *vaddrs, std::size_t n,
                                  bool isWrite);

    /** Convenience overload over a vector of physical addresses. */
    BatchAccessResult
    accessBatch(unsigned core, ThreadId tid,
                const std::vector<Addr> &paddrs, bool isWrite)
    {
        return accessBatch(core, tid, paddrs.data(), paddrs.size(),
                           isWrite);
    }

    /** Convenience overload over a vector of virtual addresses. */
    BatchAccessResult
    accessBatch(unsigned core, ThreadId tid, const AddressSpace &space,
                const std::vector<Addr> &vaddrs, bool isWrite)
    {
        return accessBatch(core, tid, space, vaddrs.data(), vaddrs.size(),
                           isWrite);
    }

    /**
     * clflush issued by @p core: coherent — drops the line from every
     * core's privates and the LLC, writing dirty data back.
     */
    Cycles flush(unsigned core, ThreadId tid, Addr paddr);

    /** One core's private L1 (introspection for tests/experiments). */
    Cache &l1(unsigned core) { return coreRef(core).l1; }
    /** One core's private L2. */
    Cache &l2(unsigned core) { return coreRef(core).l2; }

    /**
     * The shared LLC of a single-slice system. Fatal when the LLC is
     * sharded (llcSliceCount() > 1): a monolithic view of a sliced
     * LLC does not exist — use llcSlice()/sliceOf().
     */
    Cache &llc();

    /** One LLC slice (bounds-checked). */
    Cache &llcSlice(unsigned slice);

    /** Number of LLC slices. */
    unsigned llcSliceCount() const { return unsigned(llcSlices_.size()); }

    /** The slice hash (ground truth for discovery verification). */
    const SliceHash &sliceHash() const { return sliceHash_; }

    /** Slice holding physical address @p paddr. */
    unsigned
    sliceOf(Addr paddr) const
    {
        return sliceHash_.sliceOf(AddressLayout::lineAddr(paddr));
    }

    /**
     * Select the coherence implementation. true: per-slice sharer
     * directory, coherence events visit only the cores in the line's
     * presence mask (~O(sharers)); enabling rebuilds the directory
     * from the current private-cache contents, so the mode can be
     * toggled mid-run. false: the pre-directory global scan — every
     * event walks all cores (the bit-exactness reference and
     * benchmark baseline; no directory maintenance runs at all). The
     * default is topology-dependent (see kDirectoryMinCores).
     */
    void setDirectoryCoherence(bool on);

    /** Current coherence implementation (see setDirectoryCoherence). */
    bool directoryCoherence() const { return directoryCoherence_; }

    /** Coherence interconnect traffic (see CoherenceStats). */
    const CoherenceStats &coherenceStats() const { return coherence_; }

    /** Counters for one hardware thread of one core (auto-extends). */
    PerfCounters &counters(unsigned core, ThreadId tid);

    /** Counters summed over every core and thread. */
    PerfCounters totalCounters() const;

    /** Invalidate all cached state in every core and the LLC. */
    void reset();

    /** Zero all perf counters on every core (and coherence stats). */
    void resetCounters();

    /**
     * reset() + resetCounters(), plus dropping the Rng's cached
     * deviates — the same reseed-reproducibility contract as
     * Hierarchy::resetAll().
     */
    void resetAll();

    /** The static configuration. */
    const HierarchyParams &params() const { return params_; }

  private:
    struct Core
    {
        Core(const CacheParams &l1p, const CacheParams &l2p, Rng *rng)
            : l1(l1p, rng), l2(l2p, rng), counters(2)
        {
        }

        Cache l1;
        Cache l2;
        std::vector<PerfCounters> counters;
        CorePort port;
    };

    /**
     * Per-slice sharer directory: line address -> core presence mask.
     * SharerMap (flat open addressing) rather than std::unordered_map
     * because the directory inserts and erases on the miss path, and
     * node-based maps pay a malloc/free per line churned through the
     * LLC — measurably slower than the scans the directory replaces
     * on 2-4 core presets (see sim/sharer_map.hh).
     */
    using SliceDirectory = SharerMap;

    /** Bounds-checked core lookup. */
    Core &coreRef(unsigned core);

    /** Gaussian measurement noise (same contract as Hierarchy). */
    Cycles noise() { return measurementNoise(params_.lat, rng_); }

    // --- access path. Dir selects the coherence implementation at
    // compile time (true: sharer directory, false: global scan); the
    // entry points read directoryCoherence_ once per access() call and
    // once per accessBatch() sweep. ---

    /**
     * The rest of one demand access once L1 was probed (@p way, or -1
     * on a miss, in @p set): the single body shared by access() and
     * the accessBatch() loops, which call it for each access that ends
     * a hit run (bit-exact batched-vs-scalar execution). Resolves L1
     * hits inline, with the M upgrade of a store to a clean line;
     * misses escalate to missPath(). Loads and stores are counted by
     * the caller.
     */
    template <bool Dir>
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((always_inline))
#endif
    inline AccessResult accessProbed(Core &c, unsigned core, ThreadId tid,
                                     Addr paddr, unsigned set, int way,
                                     bool isWrite, PerfCounters &ctr);

    /**
     * The L1-miss path: L2 -> snoop -> LLC -> DRAM, fills, coherence.
     * Flattened, like Hierarchy::missPath: every probe, fill, victim
     * write-back and directory lookup inlines into one body.
     */
    template <bool Dir>
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((flatten))
#endif
    AccessResult missPath(Core &c, unsigned core, ThreadId tid, Addr paddr,
                          bool isWrite, PerfCounters &ctr);

    /** The accessBatch() loop for one coherence mode. */
    template <bool Dir, typename AddrAt>
    BatchAccessResult sweep(unsigned core, ThreadId tid, std::size_t n,
                            bool isWrite, AddrAt addrAt);

    /** Shared mode dispatch behind the accessBatch() overloads. */
    template <typename AddrAt>
    BatchAccessResult accessBatchImpl(unsigned core, ThreadId tid,
                                      std::size_t n, bool isWrite,
                                      AddrAt addrAt);

    // --- coherence layer. @p slice is always sliceOf(la), hashed once
    // by the caller. ---

    /**
     * Call @p visit on every core that may hold line @p la in its
     * privates, skipping the cores in @p skip, and count one private
     * probe per visit. Scan mode visits every core; directory mode
     * the line's presence mask. @return the line's directory mask
     * (directory mode, entry present), else nullptr. @p visit must
     * not touch the directory.
     */
    template <bool Dir, typename Visit>
    std::uint64_t *visitHolders(Addr la, unsigned slice, std::uint64_t skip,
                                Visit visit);

    /**
     * MESI upgrade: drop the line from every sharing core's privates
     * except @p core (a store is about to own it in M state).
     */
    template <bool Dir>
    void invalidateRemote(unsigned core, Addr paddr, Addr la,
                          unsigned slice);

    /**
     * MESI snoop for a load miss: if any other core holds the line
     * dirty, downgrade it to clean and write the data back into the
     * shared LLC. @return true when a dirty remote copy was found.
     * @p drainExtra accumulates dirty-eviction penalties charged by
     * the LLC write-back this snoop may trigger.
     */
    template <bool Dir>
    bool snoopRemoteDirty(unsigned core, Addr paddr, Addr la, unsigned slice,
                          PerfCounters &ctr, Cycles &drainExtra);

    /**
     * Install a line into its shared-LLC slice. An eviction
     * back-invalidates the victim in the sharing cores' privates when
     * inclusiveLlc is set; if the LLC victim or any dropped private
     * copy was dirty, the drain penalty is added to @p drainExtra and
     * counted in @p ctr (the access that forced the eviction pays —
     * the cross-core signal).
     */
    template <bool Dir>
    void llcFillShared(Addr paddr, unsigned slice, unsigned core,
                       bool asDirty, bool checkResident, PerfCounters &ctr,
                       Cycles &drainExtra);

    /**
     * Line @p victim just left @p core's L2: a dirty victim is written
     * back into its LLC slice, and in directory mode the core's
     * presence bit is trimmed unless L1 still holds a copy.
     */
    template <bool Dir>
    void retireL2Victim(Core &c, unsigned core, const Evicted &victim,
                        PerfCounters &ctr, Cycles &drainExtra);

    /**
     * Write a dirty L1 victim of @p core back into its private L2,
     * cascading a dirty L2 victim into the shared LLC.
     */
    template <bool Dir>
    void writebackToL2(Core &c, unsigned core, Addr lineAddr, ThreadId tid,
                       PerfCounters &ctr, Cycles &drainExtra);

    // --- sharer-directory maintenance (directory mode only) ---

    /** Core @p core now holds line @p la in its privates. */
    void
    noteSharer(unsigned core, Addr la, unsigned slice)
    {
        sharers_[slice].upsert(la) |= std::uint64_t(1) << core;
    }

    /**
     * Store @p left as line @p la's presence mask, held in directory
     * slot @p mask. A zero mask marks the slot free, so the entry is
     * erased instead of written (sharer_map.hh).
     */
    void
    storeMask(Addr la, unsigned slice, std::uint64_t *mask,
              std::uint64_t left)
    {
        if (left == 0)
            sharers_[slice].erase(la);
        else
            *mask = left;
    }

    /**
     * Line @p la was evicted from one of @p core's private levels:
     * clear the core's presence bit unless @p survivor — the *other*
     * private level, the only place a copy can remain — still holds
     * it. Keeping the directory a *superset* of the true holders is
     * the correctness invariant (Cache::invalidate and
     * Cache::downgrade are no-ops on non-holders, so a stale bit
     * costs one wasted probe, while a missing bit would skip a
     * required invalidation); this trim just keeps masks tight so the
     * O(sharers) claim survives eviction churn.
     */
    void dropSharerIfAbsent(Cache &survivor, unsigned core, Addr la);

    /** Rebuild every slice directory from current cache contents. */
    void rebuildDirectory();

    HierarchyParams params_;
    Rng *rng_;
    SliceHash sliceHash_;
    std::vector<Cache> llcSlices_; //!< the sharded shared LLC
    std::vector<SliceDirectory> sharers_; //!< per-slice directories
    std::vector<std::unique_ptr<Core>> cores_; //!< stable port addresses
    CoherenceStats coherence_;
    bool directoryCoherence_ = true; //!< ctor picks per kDirectoryMinCores
};

} // namespace wb::sim

#endif // WB_SIM_MULTICORE_HH
