/**
 * @file
 * End-to-end WB covert channel runner.
 *
 * Orchestrates one complete transmission experiment: calibrate the
 * classifier offline, stand up a simulated hyper-threaded platform with
 * sender and receiver as separate processes (disjoint address spaces),
 * run the protocol, decode, and report BER/throughput — the measurement
 * loop behind paper Figs. 5, 6, 7 and Tables VI, VII.
 */

#ifndef WB_CHAN_CHANNEL_HH
#define WB_CHAN_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "chan/calibration.hh"
#include "chan/noise_process.hh"
#include "chan/protocol.hh"
#include "chan/transport.hh"
#include "sim/hierarchy.hh"
#include "sim/noise_model.hh"
#include "sim/platform.hh"
#include "sim/scheduler.hh"

namespace wb::chan
{

/**
 * What every placement with a ProtocolConfig reads (same-core and
 * cross-core): the platform, the protocol and its calibration, the
 * launch timing, the OS-noise regime and the transport layer.
 */
struct LinkConfig
{
    /**
     * Registry preset this config was built from (informational; set
     * by usePlatform()). The resolved parameters below are what the
     * runner uses, so defenses and experiments can still tweak them
     * after selecting a platform.
     */
    std::string platformName = sim::kDefaultPlatform;

    sim::HierarchyParams platform = sim::xeonE5_2650Params();
    sim::NoiseModel noise;         //!< platform noise (default realistic)
    ProtocolConfig protocol;       //!< pacing/encoding/framing
    CalibrationConfig calibration; //!< offline calibration parameters
    std::uint64_t seed = 1;        //!< run seed (bit-exact reproducible)

    /** Sender launch delay in slots (receiver starts first). */
    unsigned senderStartSlots = 8;

    /** Extra receiver samples beyond the expected symbol count. */
    unsigned sampleMargin = 96;

    /**
     * OS-noise regime (Table VII): co-runner mix, timeslices with
     * context-switch pollution, migration (cross-core: of the receiver
     * front-end to the next party-free core). Inactive by default:
     * the wirings still run on a sim::Scheduler, which then adds no
     * access and no draw (CoRunnerIsolation).
     * Platform presets carry a tuned default in Platform::noisePreset;
     * opt in with cfg.scheduler = sim::platform(name).noisePreset (and
     * set scheduler.coRunners, e.g. via SchedulerConfig::mixOf).
     */
    sim::SchedulerConfig scheduler;

    /**
     * Resilient transport layer (resync + adaptive rate + ARQ), used
     * by the run*Transport() entries. Disabled by default — the
     * single-shot runners never read it, and a disabled session
     * degenerates to the single-shot path, bit-identical to the
     * pre-transport runner (same guarantee SchedulerConfig makes).
     */
    TransportConfig transport;
};

/** Complete same-core experiment configuration. */
struct ChannelConfig : LinkConfig
{
    /**
     * Reconfigure for a named registry preset: resolves the platform's
     * hierarchy parameters and noise model and records the name.
     * Fatal on an unknown name. @return *this, for chaining.
     */
    ChannelConfig &
    usePlatform(const std::string &name)
    {
        sim::applyPlatform(name, platformName, platform, noise);
        return *this;
    }

    /** Number of co-resident noise processes (Sec. VI experiments). */
    unsigned noiseProcesses = 0;
    NoiseProcessConfig noiseCfg; //!< their behaviour
};

/** Everything a transmission experiment produces. */
struct ChannelResult
{
    /** Edit-distance bit error rate: each frame re-locks on its
     *  preamble within +/-24 bits (scoreFrames), so it is not
     *  positional (docs/README.md, "Channel pipeline"). */
    double ber = 1.0;
    EditBreakdown breakdown;           //!< error-type totals
    double rateKbps = 0.0;             //!< raw channel rate
    double goodputKbps = 0.0;          //!< rate * (1 - ber)
    bool aligned = false;              //!< preamble ever found
    unsigned framesScored = 0;
    unsigned framesExpected = 0;

    BitVec sentFrame;                  //!< the repeated frame
    BitVec decodedBits;                //!< full decoded bit stream
    std::vector<double> latencies;     //!< receiver raw observations

    /**
     * Samples averaged per symbol by the coarse-timer repetition
     * decoder (1 = no amplification). rateKbps and goodputKbps are
     * already divided by it — the *effective* bit rate, not the raw
     * slot rate (the goodput-honesty rule; see chan/degraded.hh).
     */
    unsigned repetition = 1;

    /**
     * Eviction-only observer: did EvictionSetFinder verify both
     * discovered replacement sets minimal? False means the run fell
     * back to the architectural sets (always true for observers that
     * don't discover).
     */
    bool evictionDiscoveryVerified = true;

    /**
     * The run's calibration shows no signal gap between adjacent
     * encoding levels (Calibration::closedFor): the channel is closed
     * on this platform, and ber is chance, not a measurement. Reported
     * only; the run itself is unchanged.
     */
    bool closed = false;

    std::vector<double> calibrationMedians; //!< classifier centroids

    sim::PerfCounters senderCounters;   //!< sender process perf view
    sim::PerfCounters receiverCounters; //!< receiver process perf view
    Cycles simulatedCycles = 0;         //!< wall virtual time

    /**
     * Thread ids the parties ran under (set by every runner). Detection
     * harnesses use these to label which monitored tids were the
     * covert pair — everything else on the machine is benign.
     */
    ThreadId senderTid = 0;
    ThreadId receiverTid = 0;

    /** What the OS-noise layer did (zeros when it was inactive). */
    sim::SchedulerStats schedulerStats;
};

/** Run one complete covert-channel transmission experiment. */
ChannelResult runChannel(const ChannelConfig &cfg);

/**
 * Run a transport session (resync + adaptive rate + ARQ) over the
 * single-core channel: @p message is chunked into sequence-numbered
 * CRC frames, each round is one physical burst through the simulated
 * platform at the controller's current rate rung, and lost frames are
 * selectively retransmitted within cfg.transport's retry budget.
 * Disabled, it is runChannel() repackaged by legacyTransportResult().
 */
TransportResult runTransport(const ChannelConfig &cfg,
                             const BitVec &message);

/** runTransport over a seed-derived random message of
 *  cfg.transport.messageFrames * layout.payloadBits bits. */
TransportResult runTransport(const ChannelConfig &cfg);

/**
 * Map a legacy single-shot ChannelResult into transport terms (used by
 * the transport-off degenerate path): one "frame" per protocol frame
 * scored, goodput, BER and the closed flag carried over verbatim.
 */
TransportResult legacyTransportResult(const ChannelResult &r,
                                      const ProtocolConfig &proto);

/**
 * Convenience: transmit an arbitrary byte string once (no frame
 * repetition) and return the decoded string. Used by the quickstart
 * example; BER and metadata are still reported via @p result when
 * non-null.
 */
std::string transmitString(const ChannelConfig &cfg, const std::string &msg,
                           ChannelResult *result = nullptr);

} // namespace wb::chan

#endif // WB_CHAN_CHANNEL_HH
