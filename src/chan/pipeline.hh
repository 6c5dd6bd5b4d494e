/**
 * @file
 * The one channel pipeline every placement runs through (internal to
 * src/chan and src/baselines; docs/README.md "Channel pipeline"). A
 * placement — same-core, cross-core, L2, multi-set or a baseline —
 * builds one self-contained Pass from its config: what is physical
 * (RNG streams, line sets, calibration, programs, the shot's frame).
 * The pipeline owns everything above that and never asks which
 * placement it serves: frame -> level expansion with repetition,
 * decoding into ChannelResult (runShot), the transport link binding
 * and the transport entry (runTransportOver). The platform wiring
 * comes in two shapes, shared by every placement of that shape:
 * SameCoreWiring (SMT siblings on one Hierarchy) and CrossCoreWiring
 * (two cores of one MultiCoreSystem). Both run on a sim::Scheduler,
 * whatever the config: Scheduler::run is the one run loop.
 */

#ifndef WB_CHAN_PIPELINE_HH
#define WB_CHAN_PIPELINE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/log.hh"
#include "chan/calibration.hh"
#include "chan/channel.hh"
#include "chan/paced.hh"
#include "chan/transport.hh"
#include "sim/multicore.hh"
#include "sim/scheduler.hh"
#include "sim/smt_core.hh"

namespace wb::chan::pipeline
{

/**
 * A placement, ready to modulate. It owns all it needs (the RNG
 * streams split from the seed in the placement's own order, the line
 * sets, the calibration, the frame), so it outlives its config.
 */
struct Pass
{
    Encoding encoding = Encoding::binary(1); //!< symbol alphabet
    unsigned repetition = 1; //!< slots per symbol (coarse-timer plan)
    double rateKbps = 0.0;   //!< raw rate before repetition
    BitVec frame;            //!< what a single shot sends, per copy
    Calibration calibration; //!< centroids, indexed by encoding level

    /** Modulate per-slot levels through a fresh platform: the run-side
     *  half of a ChannelResult. It runs on copies of the Pass's RNG
     *  streams, so the same levels replay the same run. */
    std::function<ChannelResult(const std::vector<unsigned> &levels)> run;

    /**
     * The fast symbol is the top level (Flush+Reload: a sender touch
     * makes the reload faster): decoded symbols are flipped between
     * classification and bit packing. Binary encodings only.
     */
    bool invert = false;
};

/**
 * The same-core platform wiring (the WB same-core, L2 and multi-set
 * placements and every same-core baseline): one Hierarchy, the
 * Scheduler that runs it and the party front-end it hands out, then
 * the parties, cfg's noise processes on protocol.targetSet, the run
 * and its counters. Under an inactive cfg.scheduler the Scheduler
 * adds no access and no draw (CoRunnerIsolation). It runs on its own
 * copy of @p runRng, and the platform draws from it before anything
 * else does (set discovery, the parties), as every same-core pass's
 * draw order has it.
 */
class SameCoreWiring
{
  public:
    /** Stand up the platform for a pass of @p slots sender slots. */
    SameCoreWiring(const ChannelConfig &cfg, std::size_t slots,
                   const Rng &runRng);
    // The Scheduler and its front-end hold the address of hierarchy_.
    SameCoreWiring(const SameCoreWiring &) = delete;
    SameCoreWiring &operator=(const SameCoreWiring &) = delete;

    sim::Hierarchy &hierarchy() { return hierarchy_; }

    /** When the sender launches, the receiver's sample count, the
     *  horizon. */
    const TransmissionSchedule &schedule() const { return schedule_; }

    /** Launch the parties in their address spaces, run until they
     *  halt or the horizon passes (Scheduler::run); the run-side half
     *  of a ChannelResult. */
    ChannelResult run(sim::Program &sender, PacedProgram &receiver,
                      const sim::AddressSpace &txSpace = sim::AddressSpace(1),
                      const sim::AddressSpace &rxSpace = sim::AddressSpace(2));

  private:
    const ChannelConfig &cfg_;
    TransmissionSchedule schedule_;
    Rng rng_; //!< the run stream: the platform, then the parties
    sim::Hierarchy hierarchy_;
    sim::Scheduler sched_;
    sim::SmtCore &core_; //!< the parties' front-end, owned by sched_
};

/**
 * The two-core platform wiring (cross-core WB and cross-core
 * Prime+Probe): one MultiCoreSystem, the Scheduler that runs it and
 * one party front-end per core from it (the receiver's migratable),
 * then the run and each party's counters, summed over the cores it
 * ran on. It runs on its own copy of @p runRng.
 */
class CrossCoreWiring
{
  public:
    /** Stand up @p cores cores for a pass of @p slots sender slots. */
    CrossCoreWiring(const LinkConfig &cfg, unsigned cores,
                    unsigned senderCore, unsigned receiverCore,
                    std::size_t slots, const Rng &runRng);
    // The Scheduler and its front-ends hold the address of mc_.
    CrossCoreWiring(const CrossCoreWiring &) = delete;
    CrossCoreWiring &operator=(const CrossCoreWiring &) = delete;

    const TransmissionSchedule &schedule() const { return schedule_; }

    /** Launch the parties in their address spaces, run until they
     *  halt or the horizon passes (Scheduler::run); the run-side half
     *  of a ChannelResult. */
    ChannelResult run(sim::Program &sender, PacedProgram &receiver,
                      const sim::AddressSpace &txSpace = sim::AddressSpace(1),
                      const sim::AddressSpace &rxSpace = sim::AddressSpace(2));

  private:
    TransmissionSchedule schedule_;
    Rng rng_; //!< the run stream: the platform, then the parties
    sim::MultiCoreSystem mc_;
    sim::Scheduler sched_;
    sim::SmtCore &senderFront_;   //!< owned by sched_
    sim::SmtCore &receiverFront_; //!< owned by sched_
};

/**
 * Fatal, naming @p param, unless @p index is one of @p sets cache
 * sets: AddressLayout::compose would OR an out-of-range index into the
 * tag bits and silently land the lines on another set.
 */
inline void
requireSetIndex(const char *param, unsigned index, unsigned sets)
{
    if (index >= sets)
        fatalf(param, " = ", index, " is out of range: the cache has ",
               sets, " sets");
}

/**
 * The top level d of a binary @p encoding (levels 0 and d), the dirty
 * lines a 1-bit writes. Fatal, naming @p runner, for any other
 * alphabet or a d beyond the target set's @p ways.
 */
inline unsigned
binaryTopLevel(const char *runner, const Encoding &encoding, unsigned ways)
{
    const unsigned d = encoding.maxLevel();
    if (encoding.levels() != Encoding::binary(d).levels())
        fatalf(runner, ": ProtocolConfig::encoding must be binary "
               "(levels 0 and d), got ", encoding.symbols(), " levels");
    if (d > ways)
        fatalf(runner, ": encoding level ", d, " exceeds associativity ",
               ways);
    return d;
}

/**
 * Fatal, naming the field, on a protocol no run can carry: a
 * ProtocolConfig::frameBits not above the 16-bit preamble or not whole
 * symbols, or a zero ::ts or ::tr.
 */
void requireProtocol(const ProtocolConfig &proto);

/**
 * The frame a placement's single shot sends, once requireProtocol
 * passes: the preamble and frameBits - 16 payload bits drawn from
 * @p frameRng.
 */
BitVec shotFrame(const ProtocolConfig &proto, Rng &frameRng);

/** A placement's single shot: @p frames (non-zero) copies of
 *  pass.frame, decoded. */
ChannelResult runShot(const Pass &pass, unsigned frames);

/** One transport burst: @p stream padded to whole symbols, sent once. */
LinkRun runBurst(const Pass &pass, const BitVec &stream);

/** The seed-derived random message of t.messageFrames chunks. */
BitVec randomMessage(const TransportConfig &t, std::uint64_t seed);

/**
 * A placement's transport session over the Passes @p prepare builds
 * (any callable from const Config & to Pass). Disabled, it is the
 * single shot, repackaged (TransportOffEquivalence). Enabled, every
 * round reshapes @p cfg for its rate rung and seed and runs one burst.
 */
template <class Config, class Prepare>
TransportResult
runTransportOver(const Config &cfg, const BitVec &message,
                 const Prepare &prepare)
{
    if (!cfg.transport.enabled)
        return legacyTransportResult(
            runShot(prepare(cfg), cfg.protocol.frames), cfg.protocol);
    // Before the link divides by Ts.
    requireProtocol(cfg.protocol);
    const TransportLink link = [&cfg, &prepare](const BitVec &stream,
                                                const RateStep &rate,
                                                std::uint64_t seed) {
        Config burst = cfg;
        burst.seed = seed;
        // The ladder only keeps Ts or widens it by powers of two, so
        // the Tr:Ts ratio survives the integer arithmetic exactly.
        burst.protocol.tr = cfg.protocol.tr * (rate.ts / cfg.protocol.ts);
        burst.protocol.ts = rate.ts;
        burst.protocol.encoding = rate.encoding;
        return runBurst(prepare(burst), stream);
    };
    return runTransportSession(cfg.transport, cfg.protocol, message, link,
                               cfg.seed);
}

} // namespace wb::chan::pipeline

#endif // WB_CHAN_PIPELINE_HH
