/**
 * @file
 * Deterministic OS-noise scheduler (paper Sec. VIII / Table VII).
 *
 * The paper evaluates the WB channel under realistic interference:
 * co-running workloads sharing the sender's or receiver's core,
 * timer-tick preemption, and migration of a party to another core.
 * This layer reproduces those regimes on top of the simulator, fully
 * deterministically:
 *
 *  - **Co-runners.** A pool of workload-generator processes (idle
 *    spinner, streaming sweep, pointer chase, random store) placed
 *    round-robin over the machine's cores. Each owns an Rng derived
 *    from the run's master seed via coRunnerSeed(), so interference
 *    streams are bit-reproducible and re-derivable (reseed()).
 *  - **Timeslices.** When a core hosts more front-ends than it has
 *    hardware contexts for, they round-robin in fixed virtual-time
 *    slices. A descheduled process does not execute but wall time
 *    still passes for it (SmtCore::descheduleShift — a rigid,
 *    phase-preserving shift), so paced senders and receivers slip
 *    slots exactly as co-scheduled preempted processes do.
 *  - **Context-switch pollution.** Every slice boundary the "OS" (and
 *    the incoming process' warm-up misses) touches a burst of lines on
 *    that core — the cache-state cost of a switch, charged to a
 *    dedicated OS thread id so party counters stay clean.
 *  - **Migration.** Every migrationPeriod cycles, each migratable
 *    front-end is rebound to the next free core: its private caches go
 *    cold, its spin-stack translation is flushed, and — on an
 *    inclusive shared LLC — the dirty-state channel keeps working,
 *    which is exactly the contrast the Table-VII sweeps measure.
 *
 * With no co-runners and no migration the run loop only interleaves
 * the party front-ends in global earliest-op-first order, with zero
 * extra RNG draws or accesses: one front-end runs bit-identically to
 * a plain SmtCore::run (tests/test_scheduler.cc, CoRunnerIsolation).
 * That is why every channel wiring (src/chan/pipeline.hh) always runs
 * on a Scheduler, active config or not.
 */

#ifndef WB_SIM_SCHEDULER_HH
#define WB_SIM_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/smt_core.hh"

namespace wb::sim
{

class MultiCoreSystem;
class Scheduler;

/**
 * Counter-sampling hook: called by Scheduler::run() at every
 * samplePeriod boundary of virtual time, after every operation issued
 * before that boundary has executed and before any operation issued at
 * or after it. The hook may read state through the Scheduler (e.g.
 * tidCounters()) but must not mutate the simulation or draw from any
 * Rng — sampling must leave the run bit-identical to an unsampled one
 * (tests/test_detection.cc, SamplingHookIsInvisible).
 */
using SampleHook = std::function<void(Scheduler &, Cycles)>;

/** The co-runner workload archetypes of the Table-VII mixes. */
enum class CoRunnerKind
{
    Idle,         //!< pure spin-waits; touches only its spin stack
    Streaming,    //!< sequential batched loads over a large buffer
    PointerChase, //!< dependent loads in a reshuffled order
    RandomStore   //!< random stores — dirties lines (the WB killer)
};

/** Human-readable workload name ("idle", "streaming", ...). */
const char *coRunnerKindName(CoRunnerKind kind);

/**
 * Deterministic per-co-runner seed derivation from the run's master
 * seed (SplitMix64 finalizer over seed ^ f(index)): stream i is a
 * pure function of (masterSeed, i), which is what lets reseed()
 * re-derive every interference stream without re-wiring anything.
 */
std::uint64_t coRunnerSeed(std::uint64_t masterSeed, unsigned index);

/** OS-noise configuration (the Table-VII knobs). */
struct SchedulerConfig
{
    /** Co-runner processes, one entry each. */
    std::vector<CoRunnerKind> coRunners;

    /**
     * Timeslice length on shared cores, in cycles. 0 disables
     * timeslicing (front-ends interleave freely in virtual time).
     */
    Cycles timeslice = 50000;

    /** Lines the OS touches on a core per context switch. */
    unsigned pollutionLines = 8;

    /** Fraction of pollution touches that are stores (dirty lines). */
    double pollutionStoreFraction = 0.25;

    /**
     * Period of victim/receiver core migration, in cycles. 0 keeps
     * every party pinned. Only front-ends registered migratable move.
     */
    Cycles migrationPeriod = 0;

    /** Lines in each co-runner's working set. */
    unsigned coRunnerLines = 192;

    /** Idle cycles between a co-runner's bursts (its duty cycle). */
    Cycles coRunnerGap = 2500;

    /**
     * Virtual-time period of the counter-sampling hook, in cycles.
     * 0 disables sampling. With a hook set, every complete window up
     * to the run horizon fires exactly once, including trailing
     * windows in which no thread had work left.
     */
    Cycles samplePeriod = 0;

    /**
     * The observer called every samplePeriod cycles (the online
     * detector's window boundary). Read-only by contract: the
     * scheduler fires it between operations, so a hook that only
     * reads counters leaves the interleaving, the RNG streams and
     * every cache bit unchanged.
     */
    SampleHook sampleHook;

    /** True when the sampling hook is configured to fire. */
    bool
    sampling() const
    {
        return samplePeriod != 0 && static_cast<bool>(sampleHook);
    }

    /**
     * True when the config gives the run loop anything to do beyond
     * interleaving the parties: co-runners, migration or sampling.
     * The channel wirings run on a Scheduler either way; the offline
     * attack loop (src/sidechan) skips its per-trial noise without
     * it. A sampling hook does not perturb the simulation, but it
     * keeps a run going to its horizon.
     */
    bool
    active() const
    {
        return !coRunners.empty() || migrationPeriod != 0 || sampling();
    }

    /**
     * The canonical mix of n co-runners, cycling streaming ->
     * pointer-chase -> random-store -> idle (the composition the
     * noise_sweep tables use).
     */
    static std::vector<CoRunnerKind> mixOf(unsigned n);
};

/** What the scheduler did during a run. */
struct SchedulerStats
{
    std::uint64_t contextSwitches = 0;   //!< slice-boundary switches
    std::uint64_t migrations = 0;        //!< front-end rebinds
    std::uint64_t pollutionAccesses = 0; //!< OS lines touched
    std::uint64_t coRunnerAccesses = 0;  //!< co-runner demand accesses
};

/**
 * One co-runner process: a Program usable under any SmtCore, plus an
 * offline burst() entry for the (SMT-less) side-channel attack loop.
 * All its randomness comes from its own Rng, never the shared run
 * Rng — adding a co-runner must not perturb the party's draw order.
 */
class CoRunnerProgram final : public Program
{
  public:
    /**
     * @param kind workload archetype
     * @param lines working-set size in cache lines
     * @param gap idle cycles between bursts
     * @param seed this runner's stream seed (see coRunnerSeed)
     */
    CoRunnerProgram(CoRunnerKind kind, unsigned lines, Cycles gap,
                    std::uint64_t seed);

    const Trace *nextTrace(ProcView &view) override;

    /**
     * Restart the interference stream from @p seed exactly as a
     * freshly constructed program (burst phase, order, Rng state).
     */
    void reseed(std::uint64_t seed);

    /**
     * Issue one burst directly against @p mem (no SMT interleaving):
     * the attack loop's per-trial interference. @return accesses made.
     */
    std::uint64_t burst(MemorySystem &mem, ThreadId tid,
                        const AddressSpace &space);

    /** Demand accesses issued so far (both paths). */
    std::uint64_t accesses() const { return accesses_; }

    /** The workload archetype. */
    CoRunnerKind kind() const { return kind_; }

    /** Draw the next raw value of the stream (reseed verification). */
    std::uint64_t nextRaw() { return rng_.next(); }

  private:
    /** Build pass_ (this burst's address order) from the stream. */
    void prepareBurst();

    CoRunnerKind kind_;
    unsigned lines_;
    Cycles gap_;
    Rng rng_;
    std::vector<Addr> buffer_; //!< working-set virtual addresses
    std::vector<Addr> pass_;   //!< current burst order (subset)
    std::uint64_t accesses_ = 0;
    std::array<MemOp, 2> traceOps_{}; //!< [burst, gap delay] or [spin]
    Trace trace_;                     //!< compiled burst+gap pair
};

/**
 * One core's OS context-switch pollution stream: the lines the kernel
 * and the incoming process' warm-up misses drag through that core's
 * caches per switch. One definition shared by the Scheduler's
 * slice-boundary pollution and the offline attack loop's per-trial
 * re-expression, so the two experiments model the identical OS.
 */
class PollutionStream
{
  public:
    /** @param seed stream seed @param asid the OS address-space id */
    PollutionStream(std::uint64_t seed, AddressSpaceId asid)
        : rng_(seed), space_(asid)
    {
    }

    /**
     * Touch @p lines random lines of a 256 KiB OS working range on
     * @p mem (the page-linear translation spreads them uniformly over
     * every level's sets), dirtying each with @p storeFraction
     * probability. @return accesses issued.
     */
    std::uint64_t burst(MemorySystem &mem, unsigned lines,
                        double storeFraction);

    /** Restart the stream (Scheduler::reseed). */
    void
    reseed(std::uint64_t seed)
    {
        rng_.reseed(seed);
        rng_.discardCachedDeviates();
    }

  private:
    Rng rng_;
    AddressSpace space_;
};

/**
 * The OS-noise layer: owns the party front-ends (SmtCore instances
 * the channel/attack runners add their programs to) and the co-runner
 * pool, and runs everything in global earliest-op-first order with
 * timeslicing, context-switch pollution and migration applied.
 *
 * Backends: a MultiCoreSystem (co-runners spread over the cores,
 * migration moves front-ends between ports) or any single-core
 * MemorySystem — the paper's SMT deployment — where every front-end
 * time-shares core 0 and migration degenerates to a deschedule/
 * reschedule that flushes the spin-stack translation.
 */
class Scheduler
{
  public:
    /** Multi-core backend. @p masterSeed derives all noise streams. */
    Scheduler(MultiCoreSystem &sys, const NoiseModel &noise, Rng &rng,
              const SchedulerConfig &cfg, std::uint64_t masterSeed);

    /** Single-core backend (a Hierarchy, usually). */
    Scheduler(MemorySystem &mem, const NoiseModel &noise, Rng &rng,
              const SchedulerConfig &cfg, std::uint64_t masterSeed);

    /**
     * Create a party front-end pinned to @p core. Must be called
     * before the first run(); the runner adds its sender/receiver/
     * victim threads to the returned SmtCore exactly as it would to a
     * standalone one. @p migratable front-ends are the ones
     * migrationPeriod moves.
     */
    SmtCore &party(unsigned core, bool migratable = false);

    /**
     * Run the front-ends under the configured noise regime until
     * every party front-end has halted or @p horizon is reached. With
     * a sampling hook installed, or with no party registered, the run
     * goes on to @p horizon (co-runners keep running after the
     * parties halt). @return the latest clock any front-end reached.
     */
    Cycles run(Cycles horizon);

    /**
     * Worst-case slowdown of a party's wall-clock progress from
     * timeslice core sharing: the largest number of front-ends
     * sharing any party's core (1 when timeslicing is off). Runners
     * scale their simulation horizon by this, so a transmission whose
     * parties are descheduled two thirds of the time still completes.
     * Materializes the co-runner placement on first call.
     */
    unsigned horizonStretch();

    /**
     * Re-derive every noise stream (co-runner Rngs, per-core
     * pollution Rngs) from @p masterSeed and reset the slice/
     * migration bookkeeping and stats — the scheduler half of the
     * resetAll() reseed-reproducibility contract. Party thread state
     * is owned by the caller's programs and is not touched.
     */
    void reseed(std::uint64_t masterSeed);

    /** Core a front-end currently runs on (after migrations). */
    unsigned coreOf(const SmtCore &frontEnd) const;

    /**
     * Global per-thread counter view for the sampling hook: on the
     * multi-core backend the per-core counters of @p tid are summed
     * (a migrated thread's events stay attributed to it wherever it
     * ran), on a single-core backend this is the backend's own
     * per-tid view. Cheap enough to call per tid per window.
     */
    PerfCounters tidCounters(ThreadId tid);

    /** Number of cores of the backing machine. */
    unsigned coreCount() const { return coreCount_; }

    /** Run statistics (co-runner accesses summed at call time). */
    SchedulerStats stats() const;

    /** The co-runner programs, in configured order (introspection). */
    std::vector<const CoRunnerProgram *> coRunnerPrograms() const;

    /** Thread id pollution accesses are charged to. */
    static constexpr ThreadId osTid = 62;

    /** Thread ids a party front-end holds: its sender and receiver
     *  and up to six threads more (a channel's noise processes). */
    static constexpr ThreadId partyTids = 8;

  private:
    struct FrontEnd
    {
        std::unique_ptr<SmtCore> core;
        unsigned homeCore = 0;
        bool migratable = false;
        bool isParty = false;

        /**
         * In its core's slice rotation. Idle co-runners are not —
         * they model yielding processes a scheduler skips — so they
         * never deschedule anyone and are never descheduled.
         */
        bool inRotation = true;
        CoRunnerProgram *program = nullptr; //!< co-runners only
    };

    /** The memory port of @p core on the backing machine. */
    MemorySystem &portOf(unsigned core);

    /** Place and create the co-runner front-ends (first run()). */
    void materialize();

    /** Slice-boundary pollution on @p core. */
    void pollute(unsigned core);

    /** Move every migratable front-end to its next core. */
    void migrate();

    /**
     * Next system-wide thread-id base (parties 8 apart, runners 2).
     * Global, not per core: a migrated front-end must never collide
     * with another front-end's counters on the destination core.
     */
    ThreadId allocTidBase(bool isParty);

    MultiCoreSystem *multi_ = nullptr; //!< null for single-core
    MemorySystem *single_ = nullptr;   //!< null for multi-core
    NoiseModel noise_;
    Rng *rng_;
    SchedulerConfig cfg_;
    std::uint64_t masterSeed_;
    unsigned coreCount_ = 1;

    std::vector<std::unique_ptr<FrontEnd>> frontEnds_;
    std::vector<std::unique_ptr<CoRunnerProgram>> coRunners_;
    std::vector<AddressSpace> coRunnerSpaces_;

    /** Per core: front-ends sharing it, in slice rotation order. */
    std::vector<std::vector<FrontEnd *>> coreShare_;
    std::vector<std::uint64_t> lastSlice_; //!< per-core slice index
    ThreadId nextTid_ = 0;                 //!< system-wide tid allocator
    std::vector<PollutionStream> pollution_; //!< per-core OS streams

    Cycles nextMigrationAt_ = 0;
    Cycles nextSampleAt_ = 0; //!< next counter-sampling boundary
    bool materialized_ = false;
    SchedulerStats stats_;
};

} // namespace wb::sim

#endif // WB_SIM_SCHEDULER_HH
