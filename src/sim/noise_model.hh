/**
 * @file
 * Central noise model for the simulated SMT platform.
 *
 * The paper's channel errors come from real-machine effects: rdtscp
 * serialization and timestamp granularity, spin-loop release overshoot
 * (which makes the sender's and receiver's slot phases drift as a random
 * walk, producing bit insertions/losses and encode/decode overlap
 * bursts), OS preemptions, and SMT port contention that inflates the
 * variance of the receiver's latency measurement as the sampling period
 * shrinks. Every knob lives here so experiments can state exactly which
 * noise produced which error (DESIGN.md "noise model" section).
 */

#ifndef WB_SIM_NOISE_MODEL_HH
#define WB_SIM_NOISE_MODEL_HH

#include "common/types.hh"
#include "sim/observer.hh"

namespace wb::sim
{

/** Scheduling/measurement noise parameters of the simulated platform. */
struct NoiseModel
{
    /** Cost of one rdtscp (serializing) read. */
    Cycles tscReadCost = 30;

    /** Timestamp counter granularity in cycles. */
    Cycles tscGranularity = 1;

    /** Fixed issue overhead added to every memory operation. */
    Cycles opOverhead = 1;

    /**
     * Cost of a pipelined load that hits L1 (throughput, not latency:
     * independent loads overlap in the pipeline). See MemOp::pipelined.
     */
    Cycles pipelinedHitCost = 3;

    /**
     * Mean of the exponential overshoot when a spin-wait releases.
     * Because Algorithm 3 re-bases Tlast on the post-spin TSC value,
     * overshoot accumulates into a random-walk phase drift between the
     * two hyper-threads — the source of bit slips at high rates.
     */
    double spinOvershootMean = 18.0;

    /**
     * Probability a spin-wait suffers an OS preemption. Calibrated to
     * roughly a timer tick's worth of involuntary switches for a
     * busy-spinning pinned thread.
     */
    double preemptProbPerSpin = 0.001;

    /** Probability any single memory op suffers a preemption. */
    double preemptProbPerOp = 1e-6;

    /** Mean preempted time (exponential), in cycles (~5 us at 2.2 GHz). */
    double preemptMean = 12000.0;

    /**
     * SMT port contention: when both hyper-threads issue memory ops
     * within portContentionWindow cycles, the later op pays
     * portContentionDelay extra with this probability.
     */
    double portContentionProb = 0.25;
    Cycles portContentionWindow = 6; //!< coincidence window (cycles)
    Cycles portContentionDelay = 2;  //!< extra cycles when contended

    /**
     * Spin-wait accounting (paper Tables VI/VII): a busy-wait loop
     * (`while (TSC < Tlast + Ts);`) retires spinLoadsPerIter L1 loads
     * every spinIterCycles cycles (loop bookkeeping hitting the stack
     * line next to the serializing rdtscp). These loads are credited to
     * PerfCounters::spinLoads so perf-style load counts include them.
     */
    Cycles spinIterCycles = 7;
    unsigned spinLoadsPerIter = 1;

    /**
     * Receiver measurement dispersion: sigma of a zero-mean Gaussian
     * added to each whole pointer-chase measurement,
     * sigma = measBaseSigma + measRateSigma / samplingPeriod.
     * The rate-dependent term is a calibrated stand-in for the
     * fill-buffer and scheduler interference a real receiver suffers
     * when it samples faster (see DESIGN.md substitution notes).
     */
    double measBaseSigma = 1.2;
    double measRateSigma = 1800.0;

    /**
     * Run each thread's trace as a slice for as long as it would win
     * the next pick. Off, the core single-steps the same traces, one
     * op per pick. The two modes are bit-exact by contract
     * (tests/test_trace_equivalence.cc); the flag exists so that suite
     * can run the single-step reference, and as an escape hatch while
     * debugging the engine's split rules.
     */
    bool traceExecution = true;

    /**
     * What the observer's measurement apparatus can do (timer
     * resolution/jitter, flush availability, eviction-only fallback).
     * The default is the legacy full-strength observer; see
     * sim/observer.hh and docs/OBSERVERS.md.
     */
    ObserverModel observer;

    /**
     * Effective observer-visible timer granule: the platform rdtscp
     * coarseness (tscGranularity, also set by the fuzzy-time defense)
     * and the observer's own floor both apply to every timestamp.
     */
    Cycles
    timerGranule() const
    {
        return tscGranularity > observer.timerGranularity
                   ? tscGranularity
                   : observer.timerGranularity;
    }

    /**
     * Route an offline duration measurement through the observer choke
     * point (sim/observer.hh observeDuration): quantize to the
     * effective granule with a uniform unknown phase, plus timer
     * jitter. No-op (and no RNG draws) for the default observer on a
     * granule-1 platform.
     */
    double
    observeDuration(double duration, Rng &rng) const
    {
        return sim::observeDuration(duration, timerGranule(),
                                    observer.timerJitterSigma, rng);
    }

    /** Measurement sigma for a given sampling period in cycles. */
    double
    measSigma(Cycles samplingPeriod) const
    {
        if (samplingPeriod == 0)
            return measBaseSigma;
        return measBaseSigma +
               measRateSigma / static_cast<double>(samplingPeriod);
    }

    /** A fully quiet model: deterministic, zero-overhead timing. */
    static NoiseModel
    quiet()
    {
        NoiseModel n;
        n.tscReadCost = 0;
        n.tscGranularity = 1;
        n.opOverhead = 0;
        n.spinOvershootMean = 0.0;
        n.preemptProbPerSpin = 0.0;
        n.preemptProbPerOp = 0.0;
        n.preemptMean = 0.0;
        n.portContentionProb = 0.0;
        n.measBaseSigma = 0.0;
        n.measRateSigma = 0.0;
        return n;
    }
};

} // namespace wb::sim

#endif // WB_SIM_NOISE_MODEL_HH
