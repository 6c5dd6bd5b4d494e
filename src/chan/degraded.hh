/**
 * @file
 * Degraded-observer channel families: how the WB channel runs when the
 * attacker's apparatus is weaker than a cycle-accurate rdtscp plus
 * clflush at will (sim/observer.hh; docs/OBSERVERS.md).
 *
 * Three variants, selected by NoiseModel::observer:
 *
 *  - **Coarse timer** (Spy-in-the-Sandbox): every timestamp is floored
 *    to the observer granule, so one sample carries a fraction of a
 *    granule of signal. The dithered quantization makes each sample an
 *    unbiased estimator of the true latency, and the plan repeats each
 *    symbol R times so the decoder can average blocks of R samples
 *    against *mean* centroids. R is auto-scaled from a planning
 *    calibration (measured per-level dispersion vs the smallest
 *    adjacent centroid gap), and the reported rate divides by R — the
 *    goodput-honesty rule applied to amplification.
 *
 *  - **Flush latency** (Flushgeist): the receiver never times loads;
 *    it primes the set untimed and times one clflush, whose cost
 *    carries the dirty write-backs the prime just queued
 *    (LatencyModel::flushWbDrainExtra, Hierarchy's pending-WB model).
 *
 *  - **Eviction only** (CacheOut): no flush instruction anywhere. The
 *    WB load-timing receiver is naturally flushless — the plan's only
 *    change is that the replacement sets are *discovered* at run time
 *    with EvictionSetFinder (timing tests alone) instead of taken
 *    from architectural set arithmetic, and flush-family baselines
 *    are denied (SmtCore fatals on a Flush op).
 */

#ifndef WB_CHAN_DEGRADED_HH
#define WB_CHAN_DEGRADED_HH

#include <vector>

#include "chan/channel.hh"
#include "chan/receiver.hh"
#include "chan/set_mapping.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

/**
 * Hard ceiling on the repetition factor: past this the amplification
 * cost exceeds any realistic attacker budget (a µs-granule timer
 * against the 96-cycle binary gap already needs R in the thousands).
 */
inline constexpr unsigned kMaxRepetition = 4096;

/**
 * Repetition budget the planner settles on when the planning
 * calibration fails the closed-link test (Calibration::closedFor: a
 * closed channel — write-through, DAWG — seen through a coarse
 * timer). No R recovers a signal that is not there; this bounded
 * budget keeps sweep cells honest (~50% BER) without running the full
 * ceiling for nothing.
 */
inline constexpr unsigned kClosedChannelRepetition = 256;

/**
 * Default LatencyModel::flushWbDrainExtra the flush-latency plan opts
 * into when the platform leaves it 0: per pending dirty write-back,
 * slightly under the 12-cycle L1 dirty-evict penalty the load-timing
 * receiver reads (the WB buffer drains at L2 port bandwidth).
 */
inline constexpr Cycles kDefaultFlushWbDrain = 9;

/** A channel config adjusted for its observer, plus the repetition. */
struct DegradedPlan
{
    ChannelConfig cfg;       //!< adjusted copy (== input when default)
    unsigned repetition = 1; //!< samples averaged per symbol
};

/**
 * Adjust @p cfg for its configured observer: coarse-timer plans get
 * granule-aligned pacing, an auto-scaled repetition factor and a
 * calibration sample budget to match; flush-latency plans select the
 * flush calibration probe and default the drain penalty in. A
 * default-observer config is returned unchanged (and the legacy path
 * stays bit-identical). Fatal on contradictory capability (a
 * flush-latency observer with hasFlush == false).
 */
DegradedPlan planDegraded(const ChannelConfig &cfg);

/**
 * Auto-scale the repetition factor for a coarse-timer config: run a
 * planning calibration through the observer choke point, estimate the
 * smallest adjacent gap between per-level means and the largest
 * per-level dispersion, and size R so a block mean of R samples
 * separates adjacent levels at ~2.75 sigma. Two-pass: when the first
 * estimate says more calibration samples are needed to trust the
 * centroids, it recalibrates once at the larger budget. Honors
 * ProtocolConfig::repetitionOverride.
 */
unsigned planRepetition(const ChannelConfig &cfg);

/**
 * Block-average @p latencies in consecutive groups of @p repetition
 * (trailing partial block dropped): the repetition decoder's collapse
 * from sample stream to symbol-rate stream.
 */
std::vector<double> collapseRepetition(const std::vector<double> &latencies,
                                       unsigned repetition);

/**
 * Discover the receiver's replacement sets by timing tests alone
 * (the eviction-only observer): for each of A and B, reduce a pool of
 * same-set-index lines to a minimal L1 eviction set with
 * EvictionSetFinder — threshold at the L1-hit / L2-hit midpoint, no
 * flushes — then pad back to @p replacementSize with leftover
 * congruent pool lines. The sender's lines are untouched (the sender
 * is not the observer). Discovery runs live against @p hierarchy
 * under @p tid, so its footprint lands in the run's counters like a
 * real attacker's setup phase would.
 *
 * @param verified set to whether both reductions verified minimal;
 *        on failure the architectural pool lines are used as-is (they
 *        are congruent by VIPT construction — discovery is the
 *        observer's *verification* that they evict).
 */
ChannelSets discoverChannelSets(sim::Hierarchy &hierarchy, ThreadId tid,
                                unsigned targetSet, unsigned ways,
                                unsigned replacementSize, Rng &rng,
                                bool *verified);

/**
 * The Flushgeist receiver: per slot, prime the current replacement
 * set untimed (evicting whatever dirty lines the sender left in the
 * target set into the write-back queue), then time a single clflush
 * of a probe line — its latency carries the queued write-backs'
 * drain. Composes with the coarse-timer observer (dither delay before
 * the timed section, same as ReceiverProgram). Per-op only: the
 * variant is rare enough that a compiled trace isn't worth a second
 * draw-order contract.
 */
class FlushLatencyReceiverProgram : public sim::Program
{
  public:
    FlushLatencyReceiverProgram(std::vector<Addr> replacementA,
                                std::vector<Addr> replacementB, Cycles tr,
                                std::size_t sampleCount,
                                unsigned warmupSweeps = 2);

    std::optional<sim::MemOp> next(sim::ProcView &view) override;
    void onResult(const sim::MemOp &op, const sim::OpResult &res,
                  sim::ProcView &view) override;

    /** The recorded flush latencies (valid after the run). */
    const std::vector<double> &latencies() const { return latencies_; }

    /** True once sampleCount observations were recorded. */
    bool done() const { return done_; }

  private:
    enum class Phase
    {
        Warmup,  //!< untimed batched sweeps of A and B
        Init,    //!< read TSC once to establish Tlast
        Wait,    //!< spin until Tlast + Tr
        Measure, //!< prime, [dither], TscRead, Flush, TscRead
        Done
    };

    std::vector<Addr> setA_;
    std::vector<Addr> setB_;
    Cycles tr_;
    std::size_t sampleCount_;
    std::vector<Addr> warmupOrder_;

    Phase phase_ = Phase::Warmup;
    bool useA_ = true;
    bool warmupDone_ = false;

    std::vector<sim::MemOp> measureOps_;
    std::size_t measurePos_ = 0;
    Cycles tscStart_ = 0;
    bool sawFirstTsc_ = false;

    Cycles tlast_ = 0;
    std::vector<double> latencies_;
    bool done_ = false;
};

} // namespace wb::chan

#endif // WB_CHAN_DEGRADED_HH
