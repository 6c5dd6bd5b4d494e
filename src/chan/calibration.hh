/**
 * @file
 * Offline latency calibration (paper Fig. 4).
 *
 * For each d in 0..W, the target set is loaded with d dirty lines and
 * the replacement-set access latency is measured many times. The
 * resulting per-d latency distributions (CDFs) are narrow and
 * separable — each extra dirty line adds roughly the dirty-victim
 * write-back penalty — and their medians become the classifier
 * centroids used by the live receiver.
 */

#ifndef WB_CHAN_CALIBRATION_HH
#define WB_CHAN_CALIBRATION_HH

#include <functional>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "chan/modulation.hh"
#include "chan/set_mapping.hh"
#include "sim/hierarchy.hh"
#include "sim/noise_model.hh"

namespace wb::chan
{

/**
 * What the receiver times to read a symbol — and therefore what
 * calibration must measure. LoadTiming is the paper's receiver (timed
 * pointer chase over the replacement set); FlushLatency is the
 * Flushgeist-style observer that primes the set untimed and times a
 * single clflush, whose cost carries the pending dirty write-backs the
 * prime just queued (LatencyModel::flushWbDrainExtra).
 */
enum class CalibrationProbe
{
    LoadTiming,
    FlushLatency,
};

/** Calibration inputs. */
struct CalibrationConfig
{
    unsigned targetSet = 13;      //!< agreed cache set
    unsigned replacementSize = 10; //!< lines per replacement set
    unsigned measurements = 1000; //!< samples per d (paper: 1000)
    unsigned discard = 3;         //!< cold samples dropped per d

    /** Which receiver primitive to calibrate for. */
    CalibrationProbe probe = CalibrationProbe::LoadTiming;

    /**
     * Dirty-line counts interleaved during calibration. Empty means
     * all of 0..W (the Fig. 4 sweep). A live channel calibrates with
     * exactly its encoding's levels: under non-stack replacement
     * policies the steady-state baseline depends on the traffic mix
     * (leftover lines hit in L1), so thresholds must be measured
     * under the mix the receiver will actually see.
     */
    std::vector<unsigned> levelsMix;
};

/** Per-d latency distributions and medians. */
struct Calibration
{
    std::vector<Samples> latencyByD; //!< index d = 0..W
    std::vector<double> medianByD;   //!< medians of the above
    std::vector<double> meanByD;     //!< means (repetition decoding)
    std::vector<double> stddevByD;   //!< per-level dispersion

    /** The calibration whose per-level samples are @p latencyByD,
     *  with their medians, means and dispersions (0 when empty). */
    static Calibration fromSamples(std::vector<Samples> latencyByD);

    /**
     * The closed-link test: true when the smallest gap between the
     * means of @p encoding's adjacent levels is at most
     * max(0.5 cycle, 3 * sqrt(s_lo²/n_lo + s_hi²/n_hi)), computed from
     * latencyByD alone (so it covers every calibrator, same-core or
     * cross-core). A level with no samples shows no gap. Statistical
     * rather than a fixed threshold: a coarse timer's per-sample
     * dispersion hides a real gap in a small calibration and fakes one
     * in a closed link's large one.
     */
    bool closedFor(const Encoding &encoding) const;

    /** Classifier for a binary encoding with the given d2. */
    Classifier binaryClassifier(unsigned d2) const;

    /** Classifier whose centroids follow @p encoding's levels. */
    Classifier classifierFor(const Encoding &encoding) const;

    /**
     * Classifier over per-level *means* instead of medians. A
     * coarse-timer observer's samples are dither-quantized to granule
     * multiples: their median is one of two point masses (useless),
     * but their mean is the unbiased true latency that block-averaged
     * repetition decoding recovers — so the repetition decoder
     * classifies block means against mean centroids (chan/degraded).
     */
    Classifier meanClassifierFor(const Encoding &encoding) const;
};

/** The two parties' views of one calibration platform. */
struct CalibrationPorts
{
    sim::MemorySystem &sender;
    ThreadId senderTid;
    sim::MemorySystem &receiver;
    ThreadId receiverTid;
    unsigned warmSweeps = 2; //!< replacement-set warm-up passes

    /** Sender phase for level d; empty = store to d sender lines. */
    std::function<void(unsigned d)> encode = {};
};

/**
 * The calibration loop every load-timing placement shares (Fig. 4 at
 * any cache level): per measurement, draw d from @p mix, run the
 * sender phase, then time the alternating replacement-set traversal —
 * or, for the FlushLatency probe, one clflush after an untimed prime —
 * through the observer choke point. Covers levels 0..@p maxLevel.
 */
Calibration calibrateOnPorts(const CalibrationPorts &ports,
                             const ChannelSets &sets,
                             const std::vector<unsigned> &mix,
                             unsigned maxLevel, const CalibrationConfig &cfg,
                             const sim::NoiseModel &noise, Rng &rng);

/**
 * Run the calibration on a fresh hierarchy.
 *
 * @param hp hierarchy configuration (the platform)
 * @param noise platform noise model (per-measurement base dispersion)
 * @param cfg calibration parameters
 * @param rng randomness source
 */
Calibration calibrate(const sim::HierarchyParams &hp,
                      const sim::NoiseModel &noise,
                      const CalibrationConfig &cfg, Rng &rng);

/**
 * Measure one replacement-set traversal directly against a memory
 * system (no SMT interleaving): the sum of the permuted dependent-load
 * latencies plus timestamp-read cost. Shared by calibration and the
 * single-process side-channel attacks of Sec. IX; @p mem may be a
 * Hierarchy or one core's port of a MultiCoreSystem (the cross-core
 * attacker's probe).
 *
 * @param mem the memory system to measure against
 * @param tid issuing thread id
 * @param order replacement-set lines in traversal order (physical
 *        addresses are formed by @p translate-ing each)
 * @param space address space of the issuing process
 * @param noise noise model (timestamp cost, op overhead)
 */
double measureChaseOffline(sim::MemorySystem &mem, ThreadId tid,
                           const sim::AddressSpace &space,
                           const std::vector<Addr> &order,
                           const sim::NoiseModel &noise);

} // namespace wb::chan

#endif // WB_CHAN_CALIBRATION_HH
