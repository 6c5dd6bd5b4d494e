/**
 * @file
 * Resilient transport layer for the WB covert channels.
 *
 * The paper's protocol was evaluated on a quiet machine; under the
 * OS-noise scheduler the cross-core channel collapses because nothing
 * below this layer can re-acquire synchronization after a gang freeze
 * or a migration (docs/SCHEDULER.md). The transport stack makes the
 * channels degrade gracefully instead:
 *
 *  1. **Resynchronization.** Frames are self-clocking: each starts
 *     with the raw 16-bit sync preamble, and FrameSync — a sliding-
 *     correlation state machine (Searching <-> Locked) — re-acquires
 *     frame alignment mid-stream after a deschedule swallowed slots,
 *     instead of scoring garbage for the rest of the run.
 *  2. **Adaptive symbol rate.** A rate ladder widens Ts/Tr (and falls
 *     back from multi-bit to binary encoding) when the measured
 *     per-round frame error rate crosses a threshold; hysteresis
 *     (a sustained-good-rounds requirement before stepping back up)
 *     keeps an idle burst from thrashing the rate.
 *  3. **ARQ.** Sequence-numbered CRC frames with selective-repeat
 *     retransmission and bounded retries (chan/arq.hh) turn residual
 *     frame errors into retransmissions and an honest goodput number.
 *
 * The layer is generic over a TransportLink — one physical burst of
 * bits through a channel at a given rate — which chan/pipeline.hh
 * binds to the simulated platforms (and tests bind to synthetic
 * corruption models). Evaluation follows the trace-based
 * capacity methodology (raw bps x error bits x effective goodput per
 * run); examples/capacity_frontier.cpp sweeps the full frontier.
 */

#ifndef WB_CHAN_TRANSPORT_HH
#define WB_CHAN_TRANSPORT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bitvec.hh"
#include "common/types.hh"
#include "chan/arq.hh"
#include "chan/modulation.hh"
#include "chan/protocol.hh"
#include "sim/scheduler.hh"

namespace wb::chan
{

/** One rung of the rate ladder: pacing plus symbol encoding. */
struct RateStep
{
    Cycles ts = 5500;  //!< sender/receiver period at this rung
    Encoding encoding = Encoding::binary(1);

    /** Raw channel rate at this rung, in kbps. */
    double
    rateKbps(double cpuGhz) const
    {
        return encoding.bitsPerSymbol() * cpuGhz * 1e6 /
               static_cast<double>(ts);
    }
};

/**
 * Build the rate ladder for @p proto: rung 0 is the configured rate;
 * a multi-bit encoding falls back to binary (same pacing) at rung 1;
 * then up to @p signalShrinks rungs halve the dirty-line count d at
 * unchanged pacing; each further rung doubles Ts/Tr, up to
 * @p maxDoublings doublings. The binary fallback keeps the widest
 * latency gap the associativity allows (min(4, maxLevel) dirty
 * lines).
 *
 * The d-shrink rungs degrade the channel's *footprint*, not its
 * pacing: fewer dirty lines per symbol means less per-slot work on a
 * time-shared core and a smaller cross-tenant collision cross-section
 * on a crowded socket (docs/TENANTS.md), while the unchanged Ts keeps
 * the Tr:Ts ratio of the link binding (pipeline::runTransportOver)
 * exact. Only once the footprint floor (d = 1) is reached does the
 * ladder start paying with time. Shrinking stops silently at d = 1, so
 * a binary(1) protocol gets no shrink rungs regardless of the budget.
 */
std::vector<RateStep> rateLadder(const ProtocolConfig &proto,
                                 unsigned maxDoublings,
                                 unsigned signalShrinks = 0);

/** Transport-layer configuration, plumbed next to SchedulerConfig. */
struct TransportConfig
{
    /**
     * Route runTransport through the transport engine. Off by
     * default: a disabled transport degenerates to the legacy
     * single-shot protocol path, bit-identical to the pre-transport
     * runners (TransportOffEquivalence tests).
     */
    bool enabled = false;

    FrameLayout layout;      //!< frame geometry (seq/payload/CRC/FEC)
    unsigned guardBits = 8;  //!< idle (d=0) bits between frames

    /** Payload chunks per random message (runTransport convenience). */
    unsigned messageFrames = 8;

    /** Frames per transmission round (the ARQ window). */
    unsigned windowFrames = 8;

    /** Retransmissions allowed per chunk beyond the first attempt. */
    unsigned maxRetries = 4;

    /** Hard cap on rounds (bounds a dead link). */
    unsigned maxRounds = 32;

    // --- adaptive-rate controller ---
    bool adaptiveRate = true;
    unsigned maxSlowdownDoublings = 3; //!< ladder depth past fallback

    /**
     * d-shrink rungs between the binary fallback and the Ts
     * doublings (see rateLadder). 0 (the default) reproduces the
     * pacing-only ladder bit-for-bit; crowded-socket deployments
     * raise it to shed footprint before shedding rate.
     */
    unsigned signalShrinks = 0;

    /** Step down (slower) when round FER reaches this. */
    double degradeFer = 0.5;

    /** A round at or below this FER counts toward stepping back up. */
    double upgradeFer = 0.125;

    /** Consecutive good rounds required before stepping up (hysteresis). */
    unsigned upgradeAfterRounds = 2;

    /**
     * FEC corrected-bit density (corrections / coded body bits over
     * the round's validated frames) that counts as degradation even
     * while every CRC still passes — the early-warning half of the
     * link-quality signal HammingCode::decode reports.
     */
    double correctedDegradeFrac = 0.10;

    // --- FrameSync thresholds ---
    unsigned acquireMaxErrors = 1; //!< preamble errors to lock (strict)
    unsigned trackMaxErrors = 2;   //!< preamble errors while locked
    unsigned relockWindow = 24;    //!< +/- bits searched around expected
};

/** What one physical burst through a link produced. */
struct LinkRun
{
    BitVec bits;                //!< receiver's classified bit stream
    Cycles simulatedCycles = 0; //!< wall virtual time of the burst
    sim::SchedulerStats schedulerStats; //!< OS-noise activity

    /**
     * Raw rate the burst ran at, in kbps, as ChannelResult::rateKbps
     * counts it: the placement's rate at the burst's own pacing (a
     * coarse-timer plan aligns Ts to the timer granule), over the
     * slots it held each symbol for (the plan's repetition factor R).
     */
    double rateKbps = 0.0;

    /**
     * The burst's own calibration shows no signal gap
     * (Calibration::closedFor): the link is closed, and no slower rung
     * or retransmission can reopen it.
     */
    bool closed = false;
};

/**
 * One physical transmission: modulate @p stream at @p rate, return
 * what the receiver decoded. @p roundSeed makes every round's
 * platform/noise trajectory independent and reproducible.
 */
using TransportLink = std::function<LinkRun(
    const BitVec &stream, const RateStep &rate, std::uint64_t roundSeed)>;

/** Everything a transport session reports. */
struct TransportResult
{
    unsigned framesTotal = 0;     //!< payload chunks in the message
    unsigned framesDelivered = 0; //!< CRC-validated unique chunks
    unsigned framesFailed = 0;    //!< chunks out of retries
    std::uint64_t framesSent = 0; //!< frame transmissions incl. retries
    std::uint64_t retransmissions = 0;

    std::uint64_t payloadBitsTotal = 0;
    std::uint64_t payloadBitsDelivered = 0;
    std::uint64_t residualBitErrors = 0; //!< wrong bits in delivered chunks
    double residualBer = 0.0; //!< errors / delivered bits (0 if none)

    /**
     * The message as the session delivered it: as long as the message
     * sent, each delivered chunk's payload in place and every failed
     * chunk zeroed. Empty for a disabled transport (the single shot
     * sends its own frame, not the message).
     */
    BitVec deliveredMessage;

    /** Delivered payload bits over total simulated time, in kbps. */
    double goodputKbps = 0.0;

    /**
     * Raw rate of the final burst, in kbps (LinkRun::rateKbps); 0 when
     * no burst ran. finalRateLevel is the rung after that burst's
     * round, so the two disagree when the round moved the rate.
     */
    double rawRateKbps = 0.0;

    unsigned rounds = 0;
    unsigned finalRateLevel = 0;
    std::vector<unsigned> rateLevelByRound;
    std::vector<double> ferByRound;

    unsigned syncLosses = 0; //!< locked -> searching transitions
    unsigned resyncs = 0;    //!< phase slips absorbed while locked
    std::uint64_t fecCorrectedBits = 0;

    Cycles simulatedCycles = 0; //!< summed over rounds
    sim::SchedulerStats schedulerStats; //!< summed over rounds

    /**
     * The session stopped at a burst whose link reported closed
     * (LinkRun::closed): that burst is its last round, and every chunk
     * it did not deliver counts as failed.
     */
    bool closed = false;
};

/**
 * The sliding-correlation frame synchronizer.
 *
 * Searching: slide the 16-bit preamble over the stream and lock on
 * the first offset with at most acquireMaxErrors mismatches (strict,
 * to avoid false locks in noise). Locked: expect the next preamble
 * one stride ahead and re-search within +/- relockWindow bits with
 * the looser trackMaxErrors budget — absorbing the insertion/deletion
 * slips a deschedule leaves (counted as resyncs when the phase
 * moved). A miss is a sync loss: back to Searching from just past the
 * last frame, so a receiver frozen mid-stream re-acquires at the next
 * surviving frame instead of never.
 */
class FrameSync
{
  public:
    /**
     * @param stride expected bits between frame starts (frame +
     *        guard)
     */
    FrameSync(unsigned acquireMaxErrors, unsigned trackMaxErrors,
              unsigned relockWindow, std::size_t stride);

    /** One scan's outcome. */
    struct Scan
    {
        std::vector<std::size_t> frameStarts; //!< located preambles
        unsigned syncLosses = 0;
        unsigned resyncs = 0;
    };

    /**
     * Locate every frame start in @p stream. Guaranteed to terminate:
     * every emitted frame and every search step advances the scan
     * position monotonically.
     */
    Scan scan(const BitVec &stream) const;

  private:
    unsigned acquireMaxErrors_;
    unsigned trackMaxErrors_;
    unsigned relockWindow_;
    std::size_t stride_;
};

/**
 * The adaptive symbol-rate controller.
 *
 * Degrade immediately (one bad round steps one rung down the ladder):
 * a link that just lost half a window is losing wall-clock time every
 * slot. Upgrade conservatively (upgradeAfterRounds consecutive rounds
 * at or below upgradeFer, with a quiet FEC): hysteresis, so one idle
 * burst between two noisy phases does not thrash the rate.
 */
class RateController
{
  public:
    RateController(const TransportConfig &cfg, unsigned ladderSize);

    /** Current ladder rung. */
    unsigned level() const { return level_; }

    /** Feed one round's frame error rate + FEC correction density. */
    void onRound(double fer, double correctedFrac);

  private:
    const TransportConfig cfg_;
    unsigned top_;        //!< last ladder rung
    unsigned level_ = 0;
    unsigned goodStreak_ = 0;
};

/**
 * Run one transport session: split @p message into frames, transmit
 * in selective-repeat rounds over @p link, adapt the rate from the
 * per-round frame error rate, and report delivery/goodput honestly.
 * A burst whose link reports closed ends the session after its round
 * is accounted (TransportResult::closed) instead of walking the ARQ
 * retries and the rate ladder down a link with no signal.
 *
 * @param baseProto the channel's protocol config (rung 0 of the rate
 *        ladder; cpuGhz scales goodput)
 * @param seed session seed; every round derives its own sub-seed
 */
TransportResult runTransportSession(const TransportConfig &cfg,
                                    const ProtocolConfig &baseProto,
                                    const BitVec &message,
                                    const TransportLink &link,
                                    std::uint64_t seed);

} // namespace wb::chan

#endif // WB_CHAN_TRANSPORT_HH
