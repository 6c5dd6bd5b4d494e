#include "sim/scheduler.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/multicore.hh"

namespace wb::sim
{

const char *
coRunnerKindName(CoRunnerKind kind)
{
    switch (kind) {
      case CoRunnerKind::Idle:
        return "idle";
      case CoRunnerKind::Streaming:
        return "streaming";
      case CoRunnerKind::PointerChase:
        return "pointer-chase";
      case CoRunnerKind::RandomStore:
        return "random-store";
    }
    return "?";
}

std::uint64_t
coRunnerSeed(std::uint64_t masterSeed, unsigned index)
{
    // SplitMix64 finalizer over a salted combination: stream i is a
    // pure function of (masterSeed, i), uncorrelated across i.
    std::uint64_t z = masterSeed ^ (0x9e3779b97f4a7c15ULL *
                                    (static_cast<std::uint64_t>(index) + 1));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<CoRunnerKind>
SchedulerConfig::mixOf(unsigned n)
{
    static constexpr CoRunnerKind rotation[] = {
        CoRunnerKind::Streaming,
        CoRunnerKind::PointerChase,
        CoRunnerKind::RandomStore,
        CoRunnerKind::Idle,
    };
    std::vector<CoRunnerKind> mix;
    mix.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        mix.push_back(rotation[i % 4]);
    return mix;
}

// --------------------------------------------------------------------
// CoRunnerProgram
// --------------------------------------------------------------------

CoRunnerProgram::CoRunnerProgram(CoRunnerKind kind, unsigned lines,
                                 Cycles gap, std::uint64_t seed)
    : kind_(kind), lines_(std::max(1u, lines)), gap_(std::max<Cycles>(1, gap)),
      rng_(seed)
{
    buffer_.reserve(lines_);
    for (unsigned i = 0; i < lines_; ++i)
        buffer_.push_back(static_cast<Addr>(i) * 64);
}

void
CoRunnerProgram::reseed(std::uint64_t seed)
{
    rng_.reseed(seed);
    rng_.discardCachedDeviates();
    pass_.clear();
    accesses_ = 0;
}

void
CoRunnerProgram::prepareBurst()
{
    switch (kind_) {
      case CoRunnerKind::Idle:
        pass_.clear();
        break;
      case CoRunnerKind::Streaming:
        // A sequential sweep of the whole working set (memcpy-style).
        // The pass never changes, so copy it once and reuse.
        if (pass_.size() != buffer_.size())
            pass_ = buffer_;
        break;
      case CoRunnerKind::PointerChase:
        // The whole working set in a fresh dependent-load order.
        pass_ = buffer_;
        rng_.shuffle(pass_);
        break;
      case CoRunnerKind::RandomStore: {
        // A random quarter of the working set, dirtied.
        const std::size_t n = std::max<std::size_t>(1, lines_ / 4);
        pass_.clear();
        pass_.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            pass_.push_back(buffer_[rng_.below(lines_)]);
        break;
      }
    }
}

const Trace *
CoRunnerProgram::nextTrace(ProcView &view)
{
    if (kind_ == CoRunnerKind::Idle) {
        // Idle spinners re-base each wait on the time they are picked.
        traceOps_[0] = MemOp::spinUntil(view.now() + 8 * gap_);
        trace_ = {traceOps_.data(), 1, nullptr, 0};
        return &trace_;
    }
    // The burst is prepared when the program is picked, from its
    // private Rng; the trailing gap delay draws nothing. No result
    // hooks: nothing downstream depends on a co-runner's op results.
    prepareBurst();
    accesses_ += pass_.size();
    traceOps_[0] = kind_ == CoRunnerKind::RandomStore
                       ? MemOp::storeBatch(pass_.data(), pass_.size())
                       : MemOp::loadBatch(pass_.data(), pass_.size());
    traceOps_[1] = MemOp::delay(gap_);
    trace_ = {traceOps_.data(), 2, nullptr, 0};
    return &trace_;
}

std::uint64_t
CoRunnerProgram::burst(MemorySystem &mem, ThreadId tid,
                       const AddressSpace &space)
{
    if (kind_ == CoRunnerKind::Idle)
        return 0;
    prepareBurst();
    mem.accessBatch(tid, space, pass_.data(), pass_.size(),
                    /*isWrite=*/kind_ == CoRunnerKind::RandomStore);
    accesses_ += pass_.size();
    return pass_.size();
}

// --------------------------------------------------------------------
// PollutionStream
// --------------------------------------------------------------------

std::uint64_t
PollutionStream::burst(MemorySystem &mem, unsigned lines,
                       double storeFraction)
{
    for (unsigned i = 0; i < lines; ++i) {
        const Addr va = rng_.below(4096) * 64;
        const bool isWrite = rng_.chance(storeFraction);
        mem.access(Scheduler::osTid, space_.translate(va), isWrite);
    }
    return lines;
}

// --------------------------------------------------------------------
// Scheduler
// --------------------------------------------------------------------

Scheduler::Scheduler(MultiCoreSystem &sys, const NoiseModel &noise,
                     Rng &rng, const SchedulerConfig &cfg,
                     std::uint64_t masterSeed)
    : multi_(&sys), noise_(noise), rng_(&rng), cfg_(cfg),
      masterSeed_(masterSeed), coreCount_(sys.coreCount())
{
    coreShare_.resize(coreCount_);
    lastSlice_.assign(coreCount_, 0);
    for (unsigned c = 0; c < coreCount_; ++c) {
        pollution_.emplace_back(coRunnerSeed(masterSeed, 0x8000 + c),
                                AddressSpaceId(200 + c));
    }
    nextMigrationAt_ = cfg_.migrationPeriod;
    nextSampleAt_ = cfg_.samplePeriod;
}

Scheduler::Scheduler(MemorySystem &mem, const NoiseModel &noise, Rng &rng,
                     const SchedulerConfig &cfg, std::uint64_t masterSeed)
    : single_(&mem), noise_(noise), rng_(&rng), cfg_(cfg),
      masterSeed_(masterSeed), coreCount_(1)
{
    coreShare_.resize(1);
    lastSlice_.assign(1, 0);
    pollution_.emplace_back(coRunnerSeed(masterSeed, 0x8000),
                            AddressSpaceId(200));
    nextMigrationAt_ = cfg_.migrationPeriod;
    nextSampleAt_ = cfg_.samplePeriod;
}

MemorySystem &
Scheduler::portOf(unsigned core)
{
    if (multi_ != nullptr)
        return multi_->port(core);
    return *single_;
}

ThreadId
Scheduler::allocTidBase(bool isParty)
{
    // Parties get room for sender+receiver+legacy noise threads;
    // co-runners are single-threaded. osTid stays reserved above.
    const ThreadId base = nextTid_;
    nextTid_ = base + (isParty ? partyTids : 2);
    if (nextTid_ > osTid)
        fatalf("Scheduler: thread-id space exhausted (", nextTid_,
               " > OS tid ", osTid, "); fewer front-ends, please");
    return base;
}

SmtCore &
Scheduler::party(unsigned core, bool migratable)
{
    if (materialized_)
        fatalf("Scheduler::party: called after run()");
    if (core >= coreCount_)
        fatalf("Scheduler::party: core ", core, " out of range (",
               coreCount_, " cores)");
    auto fe = std::make_unique<FrontEnd>();
    fe->core = std::make_unique<SmtCore>(portOf(core), noise_, *rng_,
                                         allocTidBase(true),
                                         /*tidSpan=*/partyTids);
    fe->homeCore = core;
    fe->migratable = migratable;
    fe->isParty = true;
    coreShare_[core].push_back(fe.get());
    frontEnds_.push_back(std::move(fe));
    return *frontEnds_.back()->core;
}

void
Scheduler::materialize()
{
    if (materialized_)
        return;
    materialized_ = true;
    if (cfg_.coRunners.empty())
        return;

    // Co-runners fill in after the highest party core: free cores
    // first, then they start sharing (and timeslicing) party cores —
    // the Table-VII progression from background load to direct
    // co-residency.
    unsigned maxPartyCore = 0;
    for (const auto &fe : frontEnds_)
        maxPartyCore = std::max(maxPartyCore, fe->homeCore);

    coRunnerSpaces_.reserve(cfg_.coRunners.size());
    for (unsigned i = 0; i < cfg_.coRunners.size(); ++i) {
        const unsigned core =
            multi_ != nullptr ? (maxPartyCore + 1 + i) % coreCount_ : 0;
        coRunnerSpaces_.emplace_back(AddressSpaceId(100 + i));
        auto program = std::make_unique<CoRunnerProgram>(
            cfg_.coRunners[i], cfg_.coRunnerLines, cfg_.coRunnerGap,
            coRunnerSeed(masterSeed_, i));
        auto fe = std::make_unique<FrontEnd>();
        fe->core = std::make_unique<SmtCore>(portOf(core), noise_, *rng_,
                                             allocTidBase(false),
                                             /*tidSpan=*/2);
        fe->homeCore = core;
        fe->program = program.get();
        // Staggered launch so identical co-runners do not start in
        // lockstep on different cores.
        fe->core->addThread(program.get(), coRunnerSpaces_[i],
                            /*startTime=*/100 * i);
        // Idle co-runners model blocked/yielding processes: they get
        // no slice of the core (a real scheduler skips sleepers), so
        // they neither deschedule the parties nor trigger switch
        // pollution — an idle mix leaves the channel untouched.
        fe->inRotation = cfg_.coRunners[i] != CoRunnerKind::Idle;
        if (fe->inRotation)
            coreShare_[core].push_back(fe.get());
        frontEnds_.push_back(std::move(fe));
        coRunners_.push_back(std::move(program));
    }
}

void
Scheduler::pollute(unsigned core)
{
    stats_.pollutionAccesses +=
        pollution_.at(core).burst(portOf(core), cfg_.pollutionLines,
                                  cfg_.pollutionStoreFraction);
}

void
Scheduler::migrate()
{
    for (auto &fe : frontEnds_) {
        if (!fe->migratable)
            continue;
        // Next core (cyclically) hosting no *other* party — migrating
        // onto a free core or one with only co-runners. When every
        // core hosts a party (2-core machines), the front-end is
        // descheduled and rescheduled in place: the port stays, but
        // the spin-stack translation is flushed all the same.
        unsigned target = fe->homeCore;
        for (unsigned k = 1; k <= coreCount_; ++k) {
            const unsigned c = (fe->homeCore + k) % coreCount_;
            bool hostsOtherParty = false;
            for (const FrontEnd *other : coreShare_[c])
                if (other != fe.get() && other->isParty)
                    hostsOtherParty = true;
            if (!hostsOtherParty) {
                target = c;
                break;
            }
        }
        if (target != fe->homeCore) {
            auto &from = coreShare_[fe->homeCore];
            from.erase(std::find(from.begin(), from.end(), fe.get()));
            coreShare_[target].push_back(fe.get());
            fe->homeCore = target;
        }
        fe->core->rebind(portOf(fe->homeCore));
        ++stats_.migrations;
    }
}

unsigned
Scheduler::horizonStretch()
{
    materialize();
    if (cfg_.timeslice == 0)
        return 1;
    std::size_t stretch = 1;
    for (const auto &fe : frontEnds_)
        if (fe->isParty)
            stretch = std::max(stretch, coreShare_[fe->homeCore].size());
    return static_cast<unsigned>(stretch);
}

Cycles
Scheduler::run(Cycles horizon)
{
    materialize();
    const std::size_t nFe = frontEnds_.size();

    // Once every party has halted, nothing a co-runner still does can
    // reach a latency, a decoded bit or a party counter, so the run
    // ends there. A sampling hook keeps the horizon (the online
    // detector reads every window up to it), and so does a run with
    // no party to wait for.
    std::size_t liveParties = 0;
    bool anyParty = false;
    for (const auto &fe : frontEnds_) {
        if (!fe->isParty)
            continue;
        anyParty = true;
        if (fe->core->nextTime() != SmtCore::noPendingTime)
            ++liveParties;
    }
    const bool stopAtPartyEnd = anyParty && !cfg_.sampling();
    const auto noteHalt = [&liveParties](const FrontEnd &fe) {
        if (fe.isParty && fe.core->nextTime() == SmtCore::noPendingTime)
            --liveParties;
    };

    for (;;) {
        if (stopAtPartyEnd && liveParties == 0)
            break;
        FrontEnd *pick = nullptr;
        std::size_t pickIdx = 0;
        Cycles t = SmtCore::noPendingTime;
        for (std::size_t i = 0; i < nFe; ++i) {
            const Cycles n = frontEnds_[i]->core->nextTime();
            if (n < t) {
                t = n;
                pick = frontEnds_[i].get();
                pickIdx = i;
            }
        }
        if (pick == nullptr || t >= horizon)
            break;

        // Sampling fires first: the window that just closed must be
        // read before a migration scheduled at the same boundary
        // reshuffles anything (both only act between operations, so
        // the order is about reporting, not simulation state).
        while (cfg_.sampling() && t >= nextSampleAt_) {
            cfg_.sampleHook(*this, nextSampleAt_);
            nextSampleAt_ += cfg_.samplePeriod;
        }

        while (cfg_.migrationPeriod != 0 && t >= nextMigrationAt_) {
            migrate();
            nextMigrationAt_ += cfg_.migrationPeriod;
        }

        // The picked front-end may run a whole trace slice, but only
        // up to the next point where this loop's per-pick decisions
        // (migration, slice ownership, pollution, the global earliest-
        // op-first order) could go differently — so batching is
        // invisible to the simulated machine.
        Cycles bound = horizon;
        if (cfg_.migrationPeriod != 0)
            bound = std::min(bound, nextMigrationAt_);
        if (cfg_.sampling())
            bound = std::min(bound, nextSampleAt_);

        const unsigned core = pick->homeCore;
        auto &share = coreShare_[core];
        if (cfg_.timeslice != 0 && share.size() > 1 && pick->inRotation) {
            const std::uint64_t slice = t / cfg_.timeslice;
            FrontEnd *owner = share[slice % share.size()];
            if (owner != pick) {
                // Descheduled: the whole front-end shifts rigidly to
                // its next owned slice (phase-preserving gang freeze;
                // see SmtCore::descheduleShift), mid-burst threads
                // first finishing within a bounded overrun so a tick
                // never splits a timed measurement.
                std::uint64_t k = slice + 1;
                while (share[k % share.size()] != pick)
                    ++k;
                const Cycles from = slice * cfg_.timeslice;
                pick->core->descheduleShift(
                    from, k * cfg_.timeslice,
                    /*grace=*/from + cfg_.timeslice / 4);
                if (pick->core->nextTime() != t)
                    continue; // frozen (or moved): re-pick globally
                // The earliest thread is mid-burst within its grace
                // budget: let it finish exactly one op, then re-check
                // ownership — the grace overrun is per-op by design.
                pick->core->stepEarliest(horizon);
                noteHalt(*pick);
                continue;
            }
            if (slice != lastSlice_[core]) {
                lastSlice_[core] = slice;
                ++stats_.contextSwitches;
                pollute(core);
            }
            // Stop at the slice boundary so ownership is re-evaluated
            // (and switch pollution charged) exactly on the tick.
            bound = std::min(bound, (slice + 1) * cfg_.timeslice);
        }

        // Front-end ties resolve to the lowest index, as in the pick
        // scan above: the pick keeps winning while strictly earlier
        // than lower-indexed peers and no later than higher-indexed
        // ones.
        for (std::size_t i = 0; i < nFe; ++i) {
            if (i == pickIdx)
                continue;
            const Cycles n = frontEnds_[i]->core->nextTime();
            if (n == SmtCore::noPendingTime)
                continue;
            bound = std::min(bound, i < pickIdx ? n : n + 1);
        }
        pick->core->runUntil(bound);
        noteHalt(*pick);
    }

    // Every operation issued before `horizon` has now executed, so
    // every complete window up to the horizon can be read — including
    // trailing windows in which the remaining threads were done. The
    // offline tumbling-window collector produces exactly these
    // windows, which is what the online-vs-offline feature-equivalence
    // test compares against.
    while (cfg_.sampling() && nextSampleAt_ <= horizon) {
        cfg_.sampleHook(*this, nextSampleAt_);
        nextSampleAt_ += cfg_.samplePeriod;
    }

    Cycles maxTime = 0;
    for (const auto &fe : frontEnds_)
        maxTime = std::max(maxTime, fe->core->maxTime());
    return maxTime;
}

SchedulerStats
Scheduler::stats() const
{
    SchedulerStats s = stats_;
    for (const auto &program : coRunners_)
        s.coRunnerAccesses += program->accesses();
    return s;
}

void
Scheduler::reseed(std::uint64_t masterSeed)
{
    masterSeed_ = masterSeed;
    for (unsigned i = 0; i < coRunners_.size(); ++i)
        coRunners_[i]->reseed(coRunnerSeed(masterSeed, i));
    for (unsigned c = 0; c < coreCount_; ++c)
        pollution_[c].reseed(coRunnerSeed(masterSeed, 0x8000 + c));
    lastSlice_.assign(coreCount_, 0);
    nextMigrationAt_ = cfg_.migrationPeriod;
    nextSampleAt_ = cfg_.samplePeriod;
    stats_ = SchedulerStats{};
}

PerfCounters
Scheduler::tidCounters(ThreadId tid)
{
    if (multi_ != nullptr) {
        PerfCounters sum;
        for (unsigned c = 0; c < multi_->coreCount(); ++c)
            sum.merge(multi_->counters(c, tid));
        return sum;
    }
    return single_->counters(tid);
}

unsigned
Scheduler::coreOf(const SmtCore &frontEnd) const
{
    for (const auto &fe : frontEnds_)
        if (fe->core.get() == &frontEnd)
            return fe->homeCore;
    fatalf("Scheduler::coreOf: unknown front-end");
}

std::vector<const CoRunnerProgram *>
Scheduler::coRunnerPrograms() const
{
    std::vector<const CoRunnerProgram *> out;
    out.reserve(coRunners_.size());
    for (const auto &program : coRunners_)
        out.push_back(program.get());
    return out;
}

} // namespace wb::sim
