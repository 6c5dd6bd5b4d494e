#include "sim/hierarchy.hh"

#include "common/log.hh"

namespace wb::sim
{

std::string
levelName(Level level)
{
    switch (level) {
      case Level::L1:
        return "L1";
      case Level::L2:
        return "L2";
      case Level::LLC:
        return "LLC";
      case Level::Mem:
        return "Mem";
    }
    return "?";
}

void
PerfCounters::merge(const PerfCounters &other)
{
    loads += other.loads;
    stores += other.stores;
    l1Hits += other.l1Hits;
    l1Misses += other.l1Misses;
    l2Accesses += other.l2Accesses;
    l2Hits += other.l2Hits;
    l2Misses += other.l2Misses;
    llcAccesses += other.llcAccesses;
    llcHits += other.llcHits;
    llcMisses += other.llcMisses;
    l1DirtyWritebacks += other.l1DirtyWritebacks;
    flushes += other.flushes;
    llcDirtyEvictions += other.llcDirtyEvictions;
    crossCoreSnoops += other.crossCoreSnoops;
    spinLoads += other.spinLoads;
}

void
PerfCounters::subtract(const PerfCounters &other)
{
    loads -= other.loads;
    stores -= other.stores;
    l1Hits -= other.l1Hits;
    l1Misses -= other.l1Misses;
    l2Accesses -= other.l2Accesses;
    l2Hits -= other.l2Hits;
    l2Misses -= other.l2Misses;
    llcAccesses -= other.llcAccesses;
    llcHits -= other.llcHits;
    llcMisses -= other.llcMisses;
    l1DirtyWritebacks -= other.l1DirtyWritebacks;
    flushes -= other.flushes;
    llcDirtyEvictions -= other.llcDirtyEvictions;
    crossCoreSnoops -= other.crossCoreSnoops;
    spinLoads -= other.spinLoads;
}

Hierarchy::Hierarchy(const HierarchyParams &params, Rng *rng)
    : params_(params), rng_(rng), l1_(params.l1, rng), l2_(params.l2, rng),
      llc_(params.llc, rng), counters_(2),
      plainMissPath_(params.l1.writePolicy == WritePolicy::WriteBack &&
                     params.l1.allocPolicy == AllocPolicy::WriteAllocate &&
                     params.randomFillWindow == 0 &&
                     params.prefetchGuardProb <= 0.0),
      trackPendingWb_(params.lat.flushWbDrainExtra > 0)
{
    if (params.llcSlices > 1) {
        fatalf("Hierarchy: llcSlices=", params.llcSlices,
               " — LLC slicing is modeled by MultiCoreSystem only "
               "(a single-core machine has no slice interconnect to "
               "model; stand the preset up as a MultiCoreSystem)");
    }
}

void
Hierarchy::reset()
{
    l1_.reset();
    l2_.reset();
    llc_.reset();
    pendingDirtyWb_ = 0;
}

void
Hierarchy::resetAll()
{
    reset();
    resetCounters();
    // A reseeded sweep must not consume deviates precomputed from the
    // previous run's stream (see Rng::discardCachedDeviates).
    if (rng_ != nullptr)
        rng_->discardCachedDeviates();
}

void
Hierarchy::resetCounters()
{
    for (auto &c : counters_)
        c = PerfCounters{};
}

PerfCounters
Hierarchy::totalCounters() const
{
    PerfCounters total;
    for (const auto &c : counters_)
        total.merge(c);
    return total;
}

void
Hierarchy::llcFill(Addr paddr, ThreadId tid, bool asDirty,
                   bool checkResident)
{
    auto out = llc_.fillFast(paddr, tid, asDirty, checkResident);
    if (params_.inclusiveLlc && out.filled && !out.residentHit &&
        out.evicted.any) {
        // Inclusive LLC: a victim leaving the LLC may not survive in
        // the levels above. Dirty upper-level copies drain to DRAM,
        // which keeps no state, so the invalidation is a pure drop.
        const Addr victimPaddr = out.evicted.lineAddr << lineShift;
        bool wasDirty = false;
        l1_.invalidate(victimPaddr, wasDirty);
        l2_.invalidate(victimPaddr, wasDirty);
    }
}

void
Hierarchy::writebackToL2(Addr lineAddr, ThreadId tid)
{
    const Addr paddr = lineAddr << lineShift;
    auto outcome = l2_.fillFast(paddr, tid, /*asDirty=*/true,
                                /*checkResident=*/true);
    if (outcome.filled && outcome.evicted.dirty)
        llcFill(outcome.evicted.lineAddr << lineShift, tid,
                /*asDirty=*/true, /*checkResident=*/true);
}

AccessResult
Hierarchy::writeThroughL1Hit(ThreadId tid, Addr paddr, unsigned set,
                             unsigned way, PerfCounters &ctr)
{
    const LatencyModel &lat = params_.lat;
    l1_.hitFast(set, way, /*isWrite=*/true);
    AccessResult res;
    res.servedBy = Level::L1;
    res.l1Hit = true;
    res.latency = lat.l1Hit + lat.storeExtra + noise();

    // Forward the store to L2 (write-through traffic).
    ++ctr.l2Accesses;
    const Addr la = AddressLayout::lineAddr(paddr);
    const unsigned l2set = l2_.layout().setIndex(paddr);
    if (const int w2 = l2_.probeWay(la, l2set, tid); w2 >= 0) {
        ++ctr.l2Hits;
        l2_.hitFast(l2set, static_cast<unsigned>(w2), /*isWrite=*/true);
    } else {
        ++ctr.l2Misses;
        auto out2 = l2_.fillFast(paddr, tid, /*asDirty=*/true,
                                 l2_.params().probeIsolated);
        if (out2.filled && out2.evicted.dirty)
            llcFill(out2.evicted.lineAddr << lineShift, tid,
                    /*asDirty=*/true, /*checkResident=*/true);
    }
    res.latency += lat.writeThroughStore;
    return res;
}

template <bool Plain>
AccessResult
Hierarchy::missPath(ThreadId tid, Addr paddr, bool isWrite,
                    PerfCounters &ctr)
{
    AccessResult res;
    const LatencyModel &lat = params_.lat;
    const Addr la = AddressLayout::lineAddr(paddr);

    // --- Find the data below L1 ---
    ++ctr.l1Misses;
    ++ctr.l2Accesses;
    Cycles base = 0;
    const unsigned l2set = l2_.layout().setIndex(paddr);
    if (const int w2 = l2_.probeWay(la, l2set, tid); w2 >= 0) {
        ++ctr.l2Hits;
        l2_.hitFast(l2set, static_cast<unsigned>(w2), /*isWrite=*/false);
        res.servedBy = Level::L2;
        base = lat.l2Hit;
    } else {
        ++ctr.l2Misses;
        ++ctr.llcAccesses;
        const unsigned llcSet = llc_.layout().setIndex(paddr);
        if (const int w3 = llc_.probeWay(la, llcSet, tid); w3 >= 0) {
            ++ctr.llcHits;
            llc_.hitFast(llcSet, static_cast<unsigned>(w3),
                         /*isWrite=*/false);
            res.servedBy = Level::LLC;
            base = lat.llcHit;
        } else {
            ++ctr.llcMisses;
            res.servedBy = Level::Mem;
            base = lat.mem;
            llcFill(paddr, tid, /*asDirty=*/false,
                    llc_.params().probeIsolated);
        }
        // Fill L2 on the way up (we just missed it; residency is only
        // possible under probe isolation).
        auto out2 = l2_.fillFast(paddr, tid, /*asDirty=*/false,
                                 l2_.params().probeIsolated);
        if (out2.filled && out2.evicted.dirty) {
            llcFill(out2.evicted.lineAddr << lineShift, tid,
                    /*asDirty=*/true, /*checkResident=*/true);
            base += lat.l2DirtyEvictPenalty;
        }
    }

    res.latency = base + (isWrite ? lat.storeExtra : Cycles(0));

    // --- L1 allocation decision (Plain: always allocate) ---
    const bool writeThrough =
        !Plain && params_.l1.writePolicy == WritePolicy::WriteThrough;
    bool allocate = true;
    if (!Plain) {
        if (isWrite &&
            params_.l1.allocPolicy == AllocPolicy::NoWriteAllocate)
            allocate = false;
        if (!isWrite && params_.randomFillWindow > 0)
            allocate = false; // random-fill defense: no demand fill
    }

    if (allocate) {
        const bool asDirty = isWrite && !writeThrough;
        auto out = l1_.fillFast(paddr, tid, asDirty,
                                l1_.params().probeIsolated);
        if (out.filled && out.evicted.dirty) {
            // The fill must wait for the dirty victim's write-back:
            // this is the latency difference the WB channel measures.
            res.l1VictimDirty = true;
            res.latency += lat.l1DirtyEvictPenalty;
            ++ctr.l1DirtyWritebacks;
            if (trackPendingWb_ && pendingDirtyWb_ < kPendingWbCap)
                ++pendingDirtyWb_;
            writebackToL2(out.evicted.lineAddr, tid);
        }
    }

    if (!Plain && isWrite && (writeThrough || !allocate)) {
        // The store data itself goes to L2.
        auto out2 = l2_.fillFast(paddr, tid, /*asDirty=*/true,
                                 /*checkResident=*/true);
        if (out2.filled && out2.evicted.dirty)
            llcFill(out2.evicted.lineAddr << lineShift, tid,
                    /*asDirty=*/true, /*checkResident=*/true);
        res.latency += lat.writeThroughStore;
    }

    if (!Plain && params_.prefetchGuardProb > 0.0 && rng_ != nullptr &&
        rng_->chance(params_.prefetchGuardProb)) {
        // Prefetch-guard: drop a random clean line into the missed set.
        const unsigned set = l1_.layout().setIndex(paddr);
        const Addr tag = 0x800000 + rng_->below(0x10000);
        injectCleanFill(l1_.layout().compose(set, tag), tid);
    }

    if (!Plain && !isWrite && params_.randomFillWindow > 0 &&
        rng_ != nullptr) {
        // Random-fill defense: fill a random neighbour instead of the
        // requested line. The neighbour fill is off the critical path.
        const auto w = static_cast<std::int64_t>(params_.randomFillWindow);
        const std::int64_t delta = rng_->range(-w, w);
        const Addr lineAddr = AddressLayout::lineAddr(paddr);
        const Addr neighbour =
            static_cast<Addr>(static_cast<std::int64_t>(lineAddr) + delta)
            << lineShift;
        auto out = l1_.fillFast(neighbour, tid, /*asDirty=*/false,
                                /*checkResident=*/true);
        if (out.filled && out.evicted.dirty) {
            ++ctr.l1DirtyWritebacks;
            writebackToL2(out.evicted.lineAddr, tid);
        }
    }

    res.latency += noise();

    // Store-buffer semantics: the issuing thread sees only the store
    // buffer insertion latency; the miss handling above drains
    // asynchronously (its state effects are already applied). A
    // write-through store still pays the forwarding cost: the store
    // buffer cannot retire it until the next level acknowledges.
    if (isWrite && lat.storeVisibleLatency > 0) {
        res.latency = lat.storeVisibleLatency;
        if (writeThrough)
            res.latency += lat.writeThroughStore;
    }

    return res;
}

inline AccessResult
Hierarchy::accessProbed(ThreadId tid, Addr paddr, unsigned set, int way,
                        bool isWrite, PerfCounters &ctr)
{
    // --- Inline L1-hit fast path: no out-of-line calls ---
    if (way < 0) {
        return plainMissPath_ ? missPath<true>(tid, paddr, isWrite, ctr)
                              : missPath<false>(tid, paddr, isWrite, ctr);
    }

    ++ctr.l1Hits;
    if (isWrite && params_.l1.writePolicy == WritePolicy::WriteThrough)
        return writeThroughL1Hit(tid, paddr, set,
                                 static_cast<unsigned>(way), ctr);

    l1_.hitFast(set, static_cast<unsigned>(way), isWrite);
    AccessResult res;
    res.servedBy = Level::L1;
    res.l1Hit = true;
    res.latency = params_.lat.l1Hit +
                  (isWrite ? params_.lat.storeExtra : Cycles(0)) + noise();
    return res;
}

AccessResult
Hierarchy::access(ThreadId tid, Addr paddr, bool isWrite)
{
    PerfCounters &ctr = counters(tid);
    if (isWrite)
        ++ctr.stores;
    else
        ++ctr.loads;

    const unsigned set = l1_.layout().setIndex(paddr);
    const int way = l1_.probeWay(AddressLayout::lineAddr(paddr), set, tid);
    return accessProbed(tid, paddr, set, way, isWrite, ctr);
}

template <typename AddrAt>
BatchAccessResult
Hierarchy::accessBatchImpl(ThreadId tid, std::size_t n, bool isWrite,
                           AddrAt addrAt)
{
    // The fused sweep loop: runs of pure L1 hits retire through the
    // two-phase Cache::hitRuns kernel (probe the run, then commit its
    // replacement touches, counters and noise in bulk), and the access
    // that ends each run through accessProbed(), the same code
    // access() runs after its probe, so batched and scalar execution
    // are bit-identical (tests/test_hierarchy_equivalence.cc). A store
    // hit in a write-through L1 forwards to L2, so it ends a run.
    // Counter deltas accumulate in a loop-local struct and merge into
    // the thread's counters once at the end.
    BatchAccessResult batch;
    batch.accesses = n;
    PerfCounters local;
    if (isWrite)
        local.stores = n;
    else
        local.loads = n;
    const LatencyModel &lat = params_.lat;
    const Cycles hitLatency = lat.l1Hit + (isWrite ? lat.storeExtra : 0);
    const bool hitsArePure =
        !isWrite || params_.l1.writePolicy != WritePolicy::WriteThrough;
    const auto pureHit = [hitsArePure](unsigned, unsigned) {
        return hitsArePure;
    };
    const auto commitRun = [&](std::size_t k) {
        local.l1Hits += k;
        batch.l1Hits += k;
        batch.totalLatency +=
            k * hitLatency + measurementNoiseSum(lat, rng_, k);
    };
    const auto finish = [&](Addr paddr, unsigned set, int way) {
        const AccessResult res =
            accessProbed(tid, paddr, set, way, isWrite, local);
        batch.l1Hits += res.l1Hit ? 1 : 0;
        batch.l1DirtyEvictions += res.l1VictimDirty ? 1 : 0;
        batch.totalLatency += res.latency;
    };
    l1_.hitRuns(n, tid, isWrite, addrAt, pureHit, commitRun, finish);
    counters(tid).merge(local);
    return batch;
}

BatchAccessResult
Hierarchy::accessBatch(ThreadId tid, const Addr *paddrs, std::size_t n,
                       bool isWrite)
{
    return accessBatchImpl(tid, n, isWrite,
                           [&](std::size_t i) { return paddrs[i]; });
}

BatchAccessResult
Hierarchy::accessBatch(ThreadId tid, const AddressSpace &space,
                       const Addr *vaddrs, std::size_t n, bool isWrite)
{
    return accessBatchImpl(tid, n, isWrite, [&](std::size_t i) {
        return space.translate(vaddrs[i]);
    });
}

Cycles
Hierarchy::flush(ThreadId tid, Addr paddr)
{
    PerfCounters &ctr = counters(tid);
    ++ctr.flushes;
    const LatencyModel &lat = params_.lat;
    bool present = false;
    bool dirty = false;
    bool d = false;
    if (l1_.invalidate(paddr, d)) {
        present = true;
        dirty |= d;
    }
    if (l2_.invalidate(paddr, d)) {
        present = true;
        dirty |= d;
    }
    if (llc_.invalidate(paddr, d)) {
        present = true;
        dirty |= d;
    }
    Cycles cost = lat.flushBase;
    if (present)
        cost += lat.flushPresentExtra;
    if (dirty)
        cost += lat.flushDirtyExtra;
    if (trackPendingWb_) {
        // Flushgeist's observable: clflush serializes against the
        // write-back buffer, so it pays for every dirty victim queued
        // since the last flush — *that* drain time, not the flushed
        // line's own state, is what the flush-latency receiver reads.
        cost += lat.flushWbDrainExtra * pendingDirtyWb_;
        pendingDirtyWb_ = 0;
    }
    return cost + noise();
}

void
Hierarchy::injectCleanFill(Addr paddr, ThreadId tid)
{
    auto out = l1_.fillFast(paddr, tid, /*asDirty=*/false,
                            /*checkResident=*/true);
    if (out.filled && out.evicted.dirty)
        writebackToL2(out.evicted.lineAddr, tid);
}

} // namespace wb::sim
