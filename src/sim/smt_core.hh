/**
 * @file
 * Deterministic two-hyper-thread core executor.
 *
 * Each simulated process implements Program: a state machine that emits
 * its MemOps as compiled traces. The core executes, in global
 * virtual-time order, the next op of whichever thread is earliest,
 * against the shared memory hierarchy. Spin-waits jump a thread's
 * clock forward (plus overshoot noise). This reproduces the paper's
 * deployment: sender and receiver as two processes co-resident on one
 * physical core via sched_setaffinity, sharing the L1D (Sec. III).
 */

#ifndef WB_SIM_SMT_CORE_HH
#define WB_SIM_SMT_CORE_HH

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/address.hh"
#include "sim/hierarchy.hh"
#include "sim/noise_model.hh"

namespace wb::sim
{

/** One primitive operation a Program can issue. */
struct MemOp
{
    /** Operation kinds. */
    enum class Kind
    {
        Load,       //!< demand load of vaddr
        Store,      //!< demand store to vaddr
        LoadBatch,  //!< back-to-back demand loads of addrs[0..count)
        StoreBatch, //!< back-to-back demand stores to addrs[0..count)
        LoadUntil,  //!< pipelined loads of vaddr while the clock < until
        Flush,      //!< clflush vaddr
        TscRead,    //!< serialized timestamp read (rdtscp)
        SpinUntil,  //!< busy-wait until TSC >= until
        Delay,      //!< consume `until` cycles without touching memory
        Halt        //!< finish the program
    };

    Kind kind = Kind::Halt;
    Addr vaddr = 0;   //!< target of Load/Store/Flush
    Cycles until = 0; //!< SpinUntil/LoadUntil target, Delay duration

    /**
     * Pipelined loads model independent (non-pointer-chased) accesses
     * that retire at L1 throughput rather than L1 latency when they
     * hit; misses still pay the full latency. Used by tight access
     * loops (the LRU channel's modulation loop, streaming workloads).
     */
    bool pipelined = false;

    /**
     * Virtual-address list of a LoadBatch/StoreBatch: a whole sweep
     * (a prime loop, a pointer-chased traversal, a warm-up) executed
     * through Hierarchy::accessBatch in one core step. Not owned: the
     * issuing Program must keep the array alive and unmoved until the
     * op has executed.
     */
    const Addr *addrs = nullptr;
    std::size_t count = 0; //!< number of addresses in the batch

    /** Convenience constructors. */
    static MemOp load(Addr va) { return {Kind::Load, va, 0, false}; }
    static MemOp store(Addr va) { return {Kind::Store, va, 0, false}; }
    static MemOp flush(Addr va) { return {Kind::Flush, va, 0, false}; }
    static MemOp tscRead() { return {Kind::TscRead, 0, 0, false}; }
    static MemOp spinUntil(Cycles t) { return {Kind::SpinUntil, 0, t, false}; }
    static MemOp delay(Cycles d) { return {Kind::Delay, 0, d, false}; }
    static MemOp halt() { return {Kind::Halt, 0, 0, false}; }

    /** A load retiring at pipeline throughput on an L1 hit. */
    static MemOp
    pipelinedLoad(Addr va)
    {
        return {Kind::Load, va, 0, true};
    }

    /**
     * A hammer: pipelinedLoad(va) issued again and again while the
     * thread's clock is below @p until, zero times if it already is
     * not. Each load is one op for the core's pick and bound rules,
     * counters, contention and preemption trials; the op delivers no
     * result, so it is never a trace result point.
     */
    static MemOp
    loadUntil(Addr va, Cycles until)
    {
        return {Kind::LoadUntil, va, until, true};
    }

    /** A batched load sweep over @p n caller-owned addresses. */
    static MemOp
    loadBatch(const Addr *addrs, std::size_t n)
    {
        return {Kind::LoadBatch, 0, 0, false, addrs, n};
    }

    /** A batched store sweep over @p n caller-owned addresses. */
    static MemOp
    storeBatch(const Addr *addrs, std::size_t n)
    {
        return {Kind::StoreBatch, 0, 0, false, addrs, n};
    }
};

/**
 * A compiled slice of a Program: operations emitted ahead of time so
 * the core can execute them back to back without re-entering the
 * program between them (docs/ENGINE.md).
 *
 * `resultPoints` lists, in ascending order, the indices of the ops
 * whose results the program actually needs (timed-measurement
 * boundaries, spin re-bases); only those bounce back into the program
 * via Program::onTraceResult(). Everything the trace references —
 * the op array, the result-point array, and any batch address lists
 * the ops point at — must stay alive and unmoved until the trace's
 * last op has executed. Batch address *contents* may be updated from
 * an onTraceResult hook (the receiver reshuffles its chase order at
 * the post-spin result point); the storage itself must not move.
 */
struct Trace
{
    const MemOp *ops = nullptr;
    std::size_t count = 0;
    const std::uint32_t *resultPoints = nullptr; //!< ascending op indices
    std::size_t resultCount = 0;
};

/** Result of executing one MemOp, delivered to Program::onTraceResult. */
struct OpResult
{
    Cycles latency = 0;         //!< cycles the op consumed
    Cycles tsc = 0;             //!< quantized TSC after the op
    Level servedBy = Level::L1; //!< for Load/Store
    bool l1Hit = false;         //!< for Load/Store
    bool l1VictimDirty = false; //!< the fill replaced a dirty line

    /** Aggregates of a LoadBatch/StoreBatch sweep. */
    BatchAccessResult batch;
};

/** Read-only view a Program gets of its execution context. */
class ProcView
{
  public:
    ProcView(ThreadId tid, Cycles now, Rng &rng, const NoiseModel &noise)
        : tid_(tid), now_(now), rng_(rng), noise_(noise)
    {
    }

    /** This thread's id. */
    ThreadId tid() const { return tid_; }

    /** This thread's current virtual time. */
    Cycles now() const { return now_; }

    /** Shared run RNG (deterministic draw order). */
    Rng &rng() const { return rng_; }

    /** The platform noise model. */
    const NoiseModel &noise() const { return noise_; }

  private:
    ThreadId tid_;
    Cycles now_;
    Rng &rng_;
    const NoiseModel &noise_;
};

/**
 * A simulated process: an explicit state machine that emits its
 * operations as compiled traces and receives the results it asked for.
 */
class Program
{
  public:
    virtual ~Program() = default;

    /**
     * Hand the core the next ops to run, called whenever the thread
     * needs new work; nullptr halts the thread (so does a Halt op).
     * The core runs the trace to its end before asking again, though
     * possibly split across several picks.
     *
     * A program compiles a trace only up to its next data-dependent
     * decision point (a spin target derived from a post-spin
     * timestamp, a decode threshold, ARQ feedback): the result point
     * there updates its state, and the next trace starts from it. The
     * returned Trace and everything it references stay owned by the
     * program (see Trace).
     */
    virtual const Trace *nextTrace(ProcView &view) = 0;

    /**
     * Result delivery for the ops a trace registered in resultPoints.
     * @p opIdx is the op's index within the trace.
     */
    virtual void
    onTraceResult(std::uint32_t opIdx, const MemOp &op, const OpResult &res,
                  ProcView &view)
    {
        (void)opIdx;
        (void)op;
        (void)res;
        (void)view;
    }
};

/**
 * Simple Program running a fixed list of operations (tests, noise
 * processes, simple workload loops).
 */
class TraceProgram : public Program
{
  public:
    /**
     * @param ops the operation sequence
     * @param loop restart from the beginning when exhausted
     */
    explicit TraceProgram(std::vector<MemOp> ops, bool loop = false)
        : ops_(std::move(ops)), loop_(loop)
    {
    }

    /** The whole remaining pass as one compiled trace (no hooks). */
    const Trace *
    nextTrace(ProcView &) override
    {
        if (ops_.empty())
            return nullptr;
        if (pos_ >= ops_.size()) {
            if (!loop_)
                return nullptr; // halts the thread
            pos_ = 0;
        }
        if (loop_ && pos_ == 0) {
            // Looping bodies are unrolled into a longer compiled block
            // so the engine re-enters this virtual once per ~kUnroll
            // ops instead of once per pass. The op sequence is the
            // same, so are the draws.
            if (unrolled_.empty()) {
                const std::size_t passes =
                    std::max<std::size_t>(1, kUnroll / ops_.size());
                unrolled_.reserve(passes * ops_.size());
                for (std::size_t p = 0; p < passes; ++p)
                    unrolled_.insert(unrolled_.end(), ops_.begin(),
                                     ops_.end());
            }
            pos_ = ops_.size();
            trace_ = {unrolled_.data(), unrolled_.size(), nullptr, 0};
            return &trace_;
        }
        trace_ = {ops_.data() + pos_, ops_.size() - pos_, nullptr, 0};
        pos_ = ops_.size();
        return &trace_;
    }

  private:
    /** Ops per compiled block handed out for looping programs. */
    static constexpr std::size_t kUnroll = 128;

    std::vector<MemOp> ops_;
    std::vector<MemOp> unrolled_; //!< lazily built loop unroll
    bool loop_;
    std::size_t pos_ = 0;
    Trace trace_;
};

/**
 * The two-hyper-thread core. Owns thread contexts (program pointer,
 * address space, virtual clock) and executes them in time order.
 *
 * The memory backend is any MemorySystem: a single Hierarchy (the
 * paper's SMT deployment) or one core's port of a MultiCoreSystem.
 * When the backend is a Hierarchy the per-op calls are devirtualized
 * through a typed fast path (Hierarchy is final), so the single-core
 * configurations pay nothing for the indirection.
 */
class SmtCore
{
  public:
    /**
     * @param mem the memory system this core issues into
     * @param noise platform noise model
     * @param rng run RNG (shared with the memory system's noise)
     * @param tidBase first hardware-thread id this front-end hands
     *        out. Several front-ends time-sharing one memory system
     *        (the Scheduler's co-runners) use disjoint bases so their
     *        perf-counter views stay separate; the default 0 keeps
     *        the single-front-end behaviour bit-identical.
     * @param tidSpan thread ids this front-end may occupy starting at
     *        tidBase; addThread is fatal past it. 0 = unlimited (the
     *        standalone default). The Scheduler passes its allocation
     *        stride so a party with too many legacy noise threads
     *        fails loudly instead of silently sharing a co-runner's
     *        counter slot.
     */
    SmtCore(MemorySystem &mem, const NoiseModel &noise, Rng &rng,
            ThreadId tidBase = 0, ThreadId tidSpan = 0);

    /**
     * Re-point this front-end at another memory system — the core
     * migration primitive. Clears every thread's cached spin-stack
     * translation (the migrated process faults its bookkeeping line
     * back in on the new core) and re-resolves the devirtualized
     * Hierarchy fast path. Thread programs, clocks and ids persist:
     * the process keeps running, only the machine under it changed.
     */
    void rebind(MemorySystem &mem);

    /**
     * Deschedule this front-end across the window [@p from, @p resume):
     * every non-halted thread whose clock c lies below @p resume moves
     * to resume + (c - from), i.e. the whole process group shifts
     * rigidly, preserving the threads' relative phase (a sender/
     * receiver pair slips slots together instead of collapsing onto
     * the same instant and dropping a symbol). Two exceptions keep
     * the shift honest at the compressed simulated timescale:
     *
     *  - a thread whose last op was not a spin-wait or delay is
     *    mid-burst (e.g. between the two timestamp reads of one
     *    measurement) and keeps running until it reaches a quiescent
     *    point, unless its clock already passed @p grace (the overrun
     *    budget) — on real hardware a tick is ~10^6 cycles and a
     *    measurement ~10^3, so tick-split measurements are rare, and
     *    at 50k-cycle simulated slices they would otherwise dominate;
     *  - threads already at or beyond @p resume are untouched.
     */
    void descheduleShift(Cycles from, Cycles resume, Cycles grace);

    /**
     * Register a thread.
     * @param program state machine driving the thread (not owned)
     * @param space the process' address space (copied)
     * @param startTime initial virtual time (models staggered launch)
     * @return the assigned thread id
     */
    ThreadId addThread(Program *program, AddressSpace space,
                       Cycles startTime = 0);

    /**
     * Run until every thread halted or all clocks pass @p horizon.
     * @return the largest thread time reached
     */
    Cycles run(Cycles horizon);

    /**
     * Execute one op of the earliest non-halted thread, provided its
     * clock is below @p horizon. @return false when nothing ran
     * (everything halted or past the horizon). This is the
     * single-op stepping primitive the Scheduler's gang-freeze grace
     * path uses; bulk execution goes through runUntil().
     */
    bool stepEarliest(Cycles horizon);

    /**
     * Execute ops of this core's threads, earliest-first with the
     * lowest-index tie rule, while the next op's start time lies
     * below @p bound. Exactly equivalent to calling stepEarliest(
     * bound) in a loop, but compiled traces run as whole slices: a
     * thread keeps executing its trace inline until another thread
     * (or the bound — a scheduler tick, a migration point, a sibling
     * core's next op) would win the pick, which is where the batch
     * splits. The caller guarantees that nothing outside this core
     * can alter the interleaving before @p bound. With
     * NoiseModel::traceExecution off it is that stepEarliest() loop:
     * the single-step reference.
     */
    void runUntil(Cycles bound);

    /**
     * Virtual time of the next op this core would execute: the
     * minimum clock over non-halted threads, or noPendingTime when
     * every thread halted.
     */
    Cycles nextTime() const;

    /** Largest thread time reached so far (halted threads included). */
    Cycles maxTime() const;

    /** nextTime() result when every thread has halted. */
    static constexpr Cycles noPendingTime = ~Cycles(0);

    /** A thread's current virtual time. */
    Cycles threadTime(ThreadId tid) const;

    /** True when the thread's program has finished. */
    bool halted(ThreadId tid) const;

    /** The noise model in use. */
    const NoiseModel &noise() const { return noise_; }

  private:
    struct ThreadCtx
    {
        Program *program = nullptr;
        AddressSpace space{0};
        Cycles time = 0;
        bool halted = false;
        Cycles lastMemOpAt = 0;
        bool everIssuedMem = false;

        /**
         * True when the last executed op was a spin-wait or delay —
         * the thread sits between bursts and can be descheduled
         * without splitting a timed sequence (descheduleShift).
         */
        bool quiescent = true;

        /**
         * Cached physical address of the spin-wait bookkeeping line
         * (translated once instead of per SpinUntil, which keeps the
         * shared-segment scan out of the spin hot path).
         */
        Addr spinStackPaddr = 0;
        bool spinStackKnown = false;

        /**
         * Compiled trace in flight, if any: ops [tracePos, count) are
         * still to execute. A paused trace (split at a batch bound)
         * resumes where it stopped the next time the thread wins the
         * pick; rebinds and deschedule shifts leave it intact.
         */
        const Trace *trace = nullptr;
        std::size_t tracePos = 0;
        std::size_t traceNextResult = 0; //!< next resultPoints index
    };

    /**
     * Execute trace ops of the thread with local index @p idx while
     * ctx.time < @p bound, fetching the next trace when one ends
     * (0 = exactly one op).
     */
    void step(ThreadCtx &ctx, ThreadId idx, Cycles bound);

    /**
     * Execute one MemOp (one iteration of a LoadUntil) against the
     * memory system. Advances ctx.time, rolls every noise draw, sets
     * ctx.quiescent and res. @return false on Halt.
     */
    bool execOp(ThreadCtx &ctx, ThreadId tid, ThreadId idx,
                const MemOp &op, OpResult &res);

    /**
     * Stall cycles from SMT port contention for an op (or batch)
     * issued by @p tid at ctx.time, rolled against every sibling
     * whose last memory op falls inside the coincidence window.
     */
    Cycles contentionDelay(const ThreadCtx &ctx, ThreadId tid);

    /**
     * Draw a fresh inter-preemption gap: how many Bernoulli
     * (preemptProbPerOp) trials fail before the next success. One
     * geometric draw replaces a per-op (and per-batch-element) chance
     * roll — distributionally identical, and because preemptions are
     * memoryless the one countdown serves every thread's trials in
     * issue order.
     */
    std::uint64_t drawPreemptGap();

    /**
     * Consume @p trials per-op preemption trials and return the
     * number of successes (out of line: called only when the noise
     * model enables per-op preemption).
     */
    unsigned preemptHits(std::size_t trials);

    /**
     * Quantize a cycle count to the effective observer-visible timer
     * granularity (max of platform tscGranularity and the observer's
     * own resolution floor; see NoiseModel::timerGranule). Every
     * OpResult::tsc the cores hand to programs passes through here —
     * the in-simulation half of the observer choke point.
     */
    Cycles quantize(Cycles t) const;

    // --- Devirtualized backend dispatch: when the backend is the
    // (final) Hierarchy, per-op calls bind statically; only the
    // multi-core ports go through the MemorySystem vtable. ---

    AccessResult
    memAccess(ThreadId tid, Addr paddr, bool isWrite)
    {
        return fastHier_ != nullptr
                   ? fastHier_->access(tid, paddr, isWrite)
                   : mem_->access(tid, paddr, isWrite);
    }

    BatchAccessResult
    memAccessBatch(ThreadId tid, const AddressSpace &space,
                   const Addr *vaddrs, std::size_t n, bool isWrite)
    {
        return fastHier_ != nullptr
                   ? fastHier_->accessBatch(tid, space, vaddrs, n, isWrite)
                   : mem_->accessBatch(tid, space, vaddrs, n, isWrite);
    }

    Cycles
    memFlush(ThreadId tid, Addr paddr)
    {
        return fastHier_ != nullptr ? fastHier_->flush(tid, paddr)
                                    : mem_->flush(tid, paddr);
    }

    PerfCounters &
    memCounters(ThreadId tid)
    {
        return fastHier_ != nullptr ? fastHier_->counters(tid)
                                    : mem_->counters(tid);
    }

    MemorySystem *mem_;
    Hierarchy *fastHier_; //!< non-null when mem_ is a Hierarchy
    NoiseModel noise_;
    Rng &rng_;
    Cycles obsGranule_ = 1; //!< cached noise_.timerGranule()
    ThreadId tidBase_;
    ThreadId tidSpan_; //!< max threads (0 = unlimited)
    std::vector<ThreadCtx> threads_;

    /** Failing per-op preemption trials left before the next hit. */
    std::uint64_t preemptCountdown_ = 0;
    bool preemptGapValid_ = false; //!< countdown drawn yet?
};

} // namespace wb::sim

#endif // WB_SIM_SMT_CORE_HH
