#include "sim/multicore.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace wb::sim
{

// --------------------------------------------------------------- CorePort

AccessResult
CorePort::access(ThreadId tid, Addr paddr, bool isWrite)
{
    return sys_->access(core_, tid, paddr, isWrite);
}

BatchAccessResult
CorePort::accessBatch(ThreadId tid, const Addr *paddrs, std::size_t n,
                      bool isWrite)
{
    return sys_->accessBatch(core_, tid, paddrs, n, isWrite);
}

BatchAccessResult
CorePort::accessBatch(ThreadId tid, const AddressSpace &space,
                      const Addr *vaddrs, std::size_t n, bool isWrite)
{
    return sys_->accessBatch(core_, tid, space, vaddrs, n, isWrite);
}

Cycles
CorePort::flush(ThreadId tid, Addr paddr)
{
    return sys_->flush(core_, tid, paddr);
}

PerfCounters &
CorePort::counters(ThreadId tid)
{
    return sys_->counters(core_, tid);
}

// --------------------------------------------------------- MultiCoreSystem

const char *
multiCoreIncapableReason(const HierarchyParams &params)
{
    if (params.l1.writePolicy != WritePolicy::WriteBack ||
        params.l1.allocPolicy != AllocPolicy::WriteAllocate) {
        return "only write-back, write-allocate cores are modeled "
               "(write-through L1s keep no dirty state to leak "
               "cross-core)";
    }
    if (params.randomFillWindow != 0) {
        return "the random-fill-window defense (randomFillWindow != 0) "
               "is only modeled single-core";
    }
    if (params.prefetchGuardProb > 0.0) {
        return "the prefetch-guard defense (prefetchGuardProb > 0) is "
               "only modeled single-core";
    }
    if (params.llc.probeIsolated || !params.llc.fillMaskPerThread.empty()) {
        // LLC fills record the *core* id as the filler while probes
        // pass the per-core thread id; per-thread LLC partitioning or
        // probe isolation would act on mismatched identities, so it
        // is rejected rather than silently missimulated. (Per-core
        // L1/L2 partitioning is fine: those caches only ever see one
        // core's thread ids.)
        return "per-thread LLC partitioning/probe isolation "
               "(llc.fillMaskPerThread / llc.probeIsolated) is not "
               "modeled multi-core";
    }
    if (params.llcSlices != 1 && params.llcSlices != 2 &&
        params.llcSlices != 4 && params.llcSlices != 8) {
        return "llcSlices must be 1, 2, 4 or 8 (three XOR-of-tag-bits "
               "parity functions address at most eight slices)";
    }
    if (params.llc.numSets() < params.llcSlices) {
        return "the aggregate LLC has fewer sets than llcSlices (each "
               "slice needs at least one set)";
    }
    return nullptr;
}

bool
multiCoreCapable(const HierarchyParams &params)
{
    return multiCoreIncapableReason(params) == nullptr;
}

MultiCoreSystem::MultiCoreSystem(const HierarchyParams &params,
                                 unsigned cores, Rng *rng)
    : params_(params), rng_(rng)
{
    if (cores == 0)
        fatalf("MultiCoreSystem: at least one core required");
    if (cores > kMaxCores) {
        fatalf("MultiCoreSystem: ", cores, " cores exceed the ",
               kMaxCores, "-core limit (sharer presence masks are "
               "64-bit)");
    }
    if (const char *why = multiCoreIncapableReason(params))
        fatalf("MultiCoreSystem: ", why);

    // Shard the aggregate LLC geometry into llcSlices equal slices;
    // with llcSlices == 1 the single shard is byte-identical to the
    // monolithic pre-slicing LLC (the equivalence suite pins this).
    const unsigned slices = params.llcSlices;
    CacheParams sliceParams = params.llc;
    sliceParams.sizeBytes = params.llc.sizeBytes / slices;
    sliceHash_ = SliceHash(
        slices,
        static_cast<unsigned>(std::countr_zero(sliceParams.numSets())));
    llcSlices_.reserve(slices);
    for (unsigned s = 0; s < slices; ++s)
        llcSlices_.emplace_back(sliceParams, rng);
    sharers_.resize(slices);

    directoryCoherence_ = cores >= kDirectoryMinCores;

    cores_.reserve(cores);
    for (unsigned i = 0; i < cores; ++i) {
        cores_.push_back(
            std::make_unique<Core>(params.l1, params.l2, rng));
        cores_.back()->port.sys_ = this;
        cores_.back()->port.core_ = i;
    }
}

MultiCoreSystem::Core &
MultiCoreSystem::coreRef(unsigned core)
{
    if (core >= cores_.size())
        fatalf("MultiCoreSystem: core ", core, " out of range (",
               cores_.size(), " cores)");
    return *cores_[core];
}

MemorySystem &
MultiCoreSystem::port(unsigned core)
{
    return coreRef(core).port;
}

Cache &
MultiCoreSystem::llc()
{
    if (llcSlices_.size() != 1) {
        fatalf("MultiCoreSystem::llc: the LLC is sharded into ",
               llcSlices_.size(), " slices — no monolithic view "
               "exists; use llcSlice()/llcSliceCount()/sliceOf()");
    }
    return llcSlices_[0];
}

Cache &
MultiCoreSystem::llcSlice(unsigned slice)
{
    if (slice >= llcSlices_.size())
        fatalf("MultiCoreSystem: LLC slice ", slice, " out of range (",
               llcSlices_.size(), " slices)");
    return llcSlices_[slice];
}

PerfCounters &
MultiCoreSystem::counters(unsigned core, ThreadId tid)
{
    Core &c = coreRef(core);
    if (tid >= c.counters.size())
        c.counters.resize(tid + 1);
    return c.counters[tid];
}

PerfCounters
MultiCoreSystem::totalCounters() const
{
    PerfCounters total;
    for (const auto &c : cores_)
        for (const auto &ctr : c->counters)
            total.merge(ctr);
    return total;
}

void
MultiCoreSystem::reset()
{
    for (auto &c : cores_) {
        c->l1.reset();
        c->l2.reset();
    }
    for (auto &slice : llcSlices_)
        slice.reset();
    for (auto &dir : sharers_)
        dir.clear();
}

void
MultiCoreSystem::resetCounters()
{
    for (auto &c : cores_)
        for (auto &ctr : c->counters)
            ctr = PerfCounters{};
    coherence_ = CoherenceStats{};
}

void
MultiCoreSystem::resetAll()
{
    reset();
    resetCounters();
    // Same reseed-reproducibility contract as Hierarchy::resetAll().
    if (rng_ != nullptr)
        rng_->discardCachedDeviates();
}

// -------------------------------------------------------- coherence layer

void
MultiCoreSystem::setDirectoryCoherence(bool on)
{
    if (on == directoryCoherence_)
        return;
    directoryCoherence_ = on;
    // Scan mode runs zero directory maintenance, so whatever the maps
    // held has gone stale; re-derive the exact holder sets from the
    // private caches themselves.
    if (on)
        rebuildDirectory();
}

void
MultiCoreSystem::rebuildDirectory()
{
    for (auto &dir : sharers_)
        dir.clear();
    for (unsigned i = 0; i < cores_.size(); ++i) {
        for (Cache *cache : {&cores_[i]->l1, &cores_[i]->l2}) {
            for (unsigned set = 0; set < cache->numSets(); ++set)
                for (const Line &line : cache->setContents(set))
                    if (line.valid)
                        noteSharer(i, line.lineAddr,
                                   sliceHash_.sliceOf(line.lineAddr));
        }
    }
}

void
MultiCoreSystem::dropSharerIfAbsent(Cache &survivor, unsigned core,
                                    Addr la)
{
    if (survivor.contains(la << lineShift))
        return;
    const unsigned slice = sliceHash_.sliceOf(la);
    if (std::uint64_t *mask = sharers_[slice].find(la))
        storeMask(la, slice, mask, *mask & ~(std::uint64_t(1) << core));
}

template <bool Dir, typename Visit>
std::uint64_t *
MultiCoreSystem::visitHolders(Addr la, unsigned slice, std::uint64_t skip,
                              Visit visit)
{
    if constexpr (!Dir) {
        // Global scan (the pre-directory implementation, retained as
        // the bit-exactness reference and benchmark baseline).
        for (unsigned o = 0; o < cores_.size(); ++o) {
            if ((skip >> o) & 1u)
                continue;
            ++coherence_.privateProbes;
            visit(*cores_[o]);
        }
        return nullptr;
    } else {
        std::uint64_t *mask = sharers_[slice].find(la);
        if (mask == nullptr)
            return nullptr;
        for (std::uint64_t m = *mask & ~skip; m != 0; m &= m - 1) {
            ++coherence_.privateProbes;
            visit(*cores_[std::countr_zero(m)]);
        }
        return mask;
    }
}

template <bool Dir>
void
MultiCoreSystem::invalidateRemote(unsigned core, Addr paddr, Addr la,
                                  unsigned slice)
{
    ++coherence_.invalidateEvents;
    const std::uint64_t self = std::uint64_t(1) << core;
    std::uint64_t *mask =
        visitHolders<Dir>(la, slice, self, [paddr](Core &o) {
            bool d = false;
            o.l1.invalidate(paddr, d);
            o.l2.invalidate(paddr, d);
        });
    // Only the upgrading core may still hold the line.
    if (mask != nullptr)
        storeMask(la, slice, mask, *mask & self);
}

template <bool Dir>
bool
MultiCoreSystem::snoopRemoteDirty(unsigned core, Addr paddr, Addr la,
                                  unsigned slice, PerfCounters &ctr,
                                  Cycles &drainExtra)
{
    ++coherence_.snoopEvents;
    bool found = false;
    // A downgrade keeps the line resident (M -> S), so the presence
    // mask is unchanged.
    visitHolders<Dir>(la, slice, std::uint64_t(1) << core,
                      [paddr, &found](Core &o) {
                          found |= o.l1.downgrade(paddr);
                          found |= o.l2.downgrade(paddr);
                      });
    if (found) {
        // The downgraded M copy's data is written back into the
        // shared LLC (which may itself have to evict to take it).
        llcFillShared<Dir>(paddr, slice, core, /*asDirty=*/true,
                           /*checkResident=*/true, ctr, drainExtra);
    }
    return found;
}

template <bool Dir>
void
MultiCoreSystem::llcFillShared(Addr paddr, unsigned slice, unsigned core,
                               bool asDirty, bool checkResident,
                               PerfCounters &ctr, Cycles &drainExtra)
{
    auto out =
        llcSlices_[slice].fillFast(paddr, core, asDirty, checkResident);
    if (!out.filled || out.residentHit || !out.evicted.any)
        return;

    const Addr victimLa = out.evicted.lineAddr;
    const Addr victimPaddr = victimLa << lineShift;
    bool dirtyDrain = out.evicted.dirty;
    if (params_.inclusiveLlc) {
        // Inclusive LLC: the victim may not survive in any core's
        // privates. Dropped dirty copies must drain to DRAM along
        // with the victim. The victim was installed through the same
        // slice hash, so its directory entry lives in this slice.
        ++coherence_.backInvalEvents;
        if (visitHolders<Dir>(victimLa, slice, 0,
                              [victimPaddr, &dirtyDrain](Core &o) {
                                  bool d = false;
                                  o.l1.invalidate(victimPaddr, d);
                                  dirtyDrain |= d;
                                  o.l2.invalidate(victimPaddr, d);
                                  dirtyDrain |= d;
                              }) != nullptr)
            sharers_[slice].erase(victimLa);
    }
    if (dirtyDrain) {
        // The access that forced the eviction stalls for the drain:
        // this latency difference is the cross-core WB signal.
        drainExtra += params_.lat.llcDirtyEvictPenalty;
        ++ctr.llcDirtyEvictions;
    }
}

template <bool Dir>
void
MultiCoreSystem::retireL2Victim(Core &c, unsigned core,
                                const Evicted &victim, PerfCounters &ctr,
                                Cycles &drainExtra)
{
    if (victim.dirty) {
        llcFillShared<Dir>(victim.lineAddr << lineShift,
                           sliceHash_.sliceOf(victim.lineAddr), core,
                           /*asDirty=*/true, /*checkResident=*/true, ctr,
                           drainExtra);
    }
    // Only L1 can still hold a copy.
    if constexpr (Dir)
        dropSharerIfAbsent(c.l1, core, victim.lineAddr);
}

template <bool Dir>
void
MultiCoreSystem::writebackToL2(Core &c, unsigned core, Addr lineAddr,
                               ThreadId tid, PerfCounters &ctr,
                               Cycles &drainExtra)
{
    auto out = c.l2.fillFast(lineAddr << lineShift, tid, /*asDirty=*/true,
                             /*checkResident=*/true);
    if (out.filled && out.evicted.any)
        retireL2Victim<Dir>(c, core, out.evicted, ctr, drainExtra);
}

// ------------------------------------------------------------ access path

template <bool Dir>
AccessResult
MultiCoreSystem::missPath(Core &c, unsigned core, ThreadId tid, Addr paddr,
                          bool isWrite, PerfCounters &ctr)
{
    AccessResult res;
    const LatencyModel &lat = params_.lat;
    const Addr la = AddressLayout::lineAddr(paddr);
    // Hashed once: picks the LLC shard and the directory slice.
    const unsigned slice = sliceHash_.sliceOf(la);
    Cycles drainExtra = 0;

    // --- Find the data below L1 ---
    ++ctr.l1Misses;
    ++ctr.l2Accesses;
    Cycles base = 0;
    const unsigned l2set = c.l2.layout().setIndex(paddr);
    if (const int w2 = c.l2.probeWay(la, l2set, tid); w2 >= 0) {
        ++ctr.l2Hits;
        c.l2.hitFast(l2set, static_cast<unsigned>(w2), /*isWrite=*/false);
        res.servedBy = Level::L2;
        base = lat.l2Hit;
    } else {
        ++ctr.l2Misses;
        ++ctr.llcAccesses;
        Cache &llc = llcSlices_[slice];
        const unsigned llcSet = llc.layout().setIndex(paddr);
        const int w3 = llc.probeWay(la, llcSet, tid);
        if (snoopRemoteDirty<Dir>(core, paddr, la, slice, ctr,
                                  drainExtra)) {
            // A remote core held the line in M: it was downgraded and
            // its data written back into the shared LLC, which now
            // serves the request.
            ++ctr.crossCoreSnoops;
            if (w3 >= 0)
                ++ctr.llcHits;
            else
                ++ctr.llcMisses;
            res.servedBy = Level::LLC;
            base = lat.llcHit + lat.crossCoreSnoopPenalty;
        } else if (w3 >= 0) {
            ++ctr.llcHits;
            llc.hitFast(llcSet, static_cast<unsigned>(w3),
                        /*isWrite=*/false);
            res.servedBy = Level::LLC;
            base = lat.llcHit;
        } else {
            ++ctr.llcMisses;
            res.servedBy = Level::Mem;
            base = lat.mem;
            // checkResident=false: the probe above just missed, and
            // LLC probe isolation (which would invalidate that
            // deduction) is rejected at construction.
            llcFillShared<Dir>(paddr, slice, core, /*asDirty=*/false,
                               /*checkResident=*/false, ctr, drainExtra);
        }
        // Fill own L2 on the way up (residency only possible under
        // probe isolation, as in Hierarchy::missPath).
        auto out2 = c.l2.fillFast(paddr, tid, /*asDirty=*/false,
                                  c.l2.params().probeIsolated);
        if (out2.filled && out2.evicted.any) {
            if (out2.evicted.dirty)
                base += lat.l2DirtyEvictPenalty;
            retireL2Victim<Dir>(c, core, out2.evicted, ctr, drainExtra);
        }
    }

    // MESI upgrade: a store ends with this core owning the only copy.
    if (isWrite)
        invalidateRemote<Dir>(core, paddr, la, slice);

    res.latency = base + (isWrite ? lat.storeExtra : Cycles(0));

    // --- L1 allocation (write-allocate; store fills install dirty) ---
    auto out = c.l1.fillFast(paddr, tid, /*asDirty=*/isWrite,
                             c.l1.params().probeIsolated);
    if constexpr (Dir)
        noteSharer(core, la, slice);
    if (out.filled && out.evicted.dirty) {
        res.l1VictimDirty = true;
        res.latency += lat.l1DirtyEvictPenalty;
        ++ctr.l1DirtyWritebacks;
        writebackToL2<Dir>(c, core, out.evicted.lineAddr, tid, ctr,
                           drainExtra);
    } else if (Dir && out.filled && out.evicted.any) {
        // A clean L1 victim vanished without a write-back; trim its
        // presence bit unless L2 (the only other private level) still
        // holds a copy.
        dropSharerIfAbsent(c.l2, core, out.evicted.lineAddr);
    }

    res.latency += drainExtra + noise();

    // Store-buffer semantics, as in Hierarchy::missPath: the issuing
    // thread sees only the store-buffer insertion latency.
    if (isWrite && lat.storeVisibleLatency > 0)
        res.latency = lat.storeVisibleLatency;

    return res;
}

template <bool Dir>
inline AccessResult
MultiCoreSystem::accessProbed(Core &c, unsigned core, ThreadId tid,
                              Addr paddr, unsigned set, int way,
                              bool isWrite, PerfCounters &ctr)
{
    if (way < 0)
        return missPath<Dir>(c, core, tid, paddr, isWrite, ctr);

    ++ctr.l1Hits;
    if (isWrite && !c.l1.lineDirty(set, static_cast<unsigned>(way))) {
        // E/S -> M upgrade on a store hit to a clean line: remote
        // copies are invalidated. A store to an already-dirty line
        // needs no message — M guarantees exclusivity.
        const Addr la = AddressLayout::lineAddr(paddr);
        invalidateRemote<Dir>(core, paddr, la, sliceHash_.sliceOf(la));
    }
    c.l1.hitFast(set, static_cast<unsigned>(way), isWrite);
    AccessResult res;
    res.servedBy = Level::L1;
    res.l1Hit = true;
    res.latency = params_.lat.l1Hit +
                  (isWrite ? params_.lat.storeExtra : Cycles(0)) + noise();
    return res;
}

AccessResult
MultiCoreSystem::access(unsigned core, ThreadId tid, Addr paddr,
                        bool isWrite)
{
    Core &c = coreRef(core);
    PerfCounters &ctr = counters(core, tid);
    if (isWrite)
        ++ctr.stores;
    else
        ++ctr.loads;

    const unsigned set = c.l1.layout().setIndex(paddr);
    const int way =
        c.l1.probeWay(AddressLayout::lineAddr(paddr), set, tid);
    return directoryCoherence_
               ? accessProbed<true>(c, core, tid, paddr, set, way, isWrite,
                                    ctr)
               : accessProbed<false>(c, core, tid, paddr, set, way, isWrite,
                                     ctr);
}

template <bool Dir, typename AddrAt>
BatchAccessResult
MultiCoreSystem::sweep(unsigned core, ThreadId tid, std::size_t n,
                       bool isWrite, AddrAt addrAt)
{
    // Same shape as Hierarchy::accessBatchImpl: runs of pure L1 hits
    // go through Cache::hitRuns, and the access that ends each run
    // through accessProbed, the body the scalar entry point runs after
    // its probe. A store hit is pure only on a dirty line: a clean one
    // needs the M upgrade. Counter deltas accumulate in a loop-local
    // struct merged once at the end.
    Core &c = coreRef(core);
    BatchAccessResult batch;
    batch.accesses = n;
    PerfCounters local;
    if (isWrite)
        local.stores = n;
    else
        local.loads = n;
    const Cycles hitLatency =
        params_.lat.l1Hit + (isWrite ? params_.lat.storeExtra : Cycles(0));
    const auto pureHit = [&](unsigned set, unsigned way) {
        return !isWrite || c.l1.lineDirty(set, way);
    };
    const auto commitRun = [&](std::size_t k) {
        local.l1Hits += k;
        batch.l1Hits += k;
        batch.totalLatency +=
            k * hitLatency + measurementNoiseSum(params_.lat, rng_, k);
    };
    const auto finish = [&](Addr paddr, unsigned set, int way) {
        const AccessResult res = accessProbed<Dir>(c, core, tid, paddr, set,
                                                   way, isWrite, local);
        batch.l1Hits += res.l1Hit ? 1 : 0;
        batch.l1DirtyEvictions += res.l1VictimDirty ? 1 : 0;
        batch.totalLatency += res.latency;
    };
    c.l1.hitRuns(n, tid, isWrite, addrAt, pureHit, commitRun, finish);
    counters(core, tid).merge(local);
    return batch;
}

template <typename AddrAt>
BatchAccessResult
MultiCoreSystem::accessBatchImpl(unsigned core, ThreadId tid, std::size_t n,
                                 bool isWrite, AddrAt addrAt)
{
    return directoryCoherence_
               ? sweep<true>(core, tid, n, isWrite, addrAt)
               : sweep<false>(core, tid, n, isWrite, addrAt);
}

BatchAccessResult
MultiCoreSystem::accessBatch(unsigned core, ThreadId tid,
                             const Addr *paddrs, std::size_t n,
                             bool isWrite)
{
    return accessBatchImpl(core, tid, n, isWrite,
                           [&](std::size_t i) { return paddrs[i]; });
}

BatchAccessResult
MultiCoreSystem::accessBatch(unsigned core, ThreadId tid,
                             const AddressSpace &space, const Addr *vaddrs,
                             std::size_t n, bool isWrite)
{
    return accessBatchImpl(core, tid, n, isWrite, [&](std::size_t i) {
        return space.translate(vaddrs[i]);
    });
}

Cycles
MultiCoreSystem::flush(unsigned core, ThreadId tid, Addr paddr)
{
    PerfCounters &ctr = counters(core, tid);
    ++ctr.flushes;
    ++coherence_.flushEvents;
    const LatencyModel &lat = params_.lat;
    const Addr la = AddressLayout::lineAddr(paddr);
    const unsigned slice = sliceHash_.sliceOf(la);
    bool present = false;
    bool dirty = false;
    const auto drop = [&](Cache &cache) {
        bool d = false;
        if (cache.invalidate(paddr, d)) {
            present = true;
            dirty |= d;
        }
    };
    const auto dropPrivates = [&](Core &o) {
        drop(o.l1);
        drop(o.l2);
    };
    // clflush is coherent: every core's privates and the LLC drop the
    // line, dirty data drains to memory.
    if (!directoryCoherence_)
        visitHolders<false>(la, slice, 0, dropPrivates);
    else if (visitHolders<true>(la, slice, 0, dropPrivates) != nullptr)
        sharers_[slice].erase(la);
    drop(llcSlices_[slice]);
    Cycles cost = lat.flushBase;
    if (present)
        cost += lat.flushPresentExtra;
    if (dirty)
        cost += lat.flushDirtyExtra;
    return cost + noise();
}

} // namespace wb::sim
