/**
 * @file
 * The one WB channel pipeline every placement runs through (internal
 * to src/chan; docs/README.md "Channel pipeline"). A placement — same-
 * core, cross-core, L2 or multi-set — supplies only what is physical
 * (its line sets, calibration and platform wiring) as one Pass. The
 * driver owns everything above that and never asks which placement it
 * serves: frame -> level expansion with repetition, decoding into
 * ChannelResult, the transport link binding and the transport entry.
 */

#ifndef WB_CHAN_PIPELINE_HH
#define WB_CHAN_PIPELINE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/log.hh"
#include "chan/calibration.hh"
#include "chan/channel.hh"
#include "chan/transport.hh"

namespace wb::chan::pipeline
{

/** One physical pass: the run-side half of a ChannelResult plus the
 *  pass's calibration, indexed by the Pass encoding's levels. */
struct RawRun : ChannelResult
{
    Calibration calibration;
};

/** A placement, ready to modulate. */
struct Pass
{
    Encoding encoding = Encoding::binary(1); //!< symbol alphabet
    unsigned repetition = 1; //!< slots per symbol (coarse-timer plan)
    double rateKbps = 0.0;   //!< raw rate before repetition

    /** Modulate per-slot levels through a fresh platform. */
    std::function<RawRun(const std::vector<unsigned> &levels)> run;
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

/** Modulate @p frames copies of @p frame through @p pass and decode. */
ChannelResult runFrames(const Pass &pass, const BitVec &frame,
                        unsigned frames);

/** One transport burst: @p stream padded to whole symbols, sent once. */
LinkRun runBurst(const Pass &pass, const BitVec &stream);

/** The seed-derived random message of t.messageFrames chunks. */
BitVec randomMessage(const TransportConfig &t, std::uint64_t seed);

/**
 * A placement's single shot: a seed-derived random frame, sent
 * cfg.protocol.frames times through the Pass @p prepare builds.
 */
template <class Config>
ChannelResult
runShot(const Config &cfg, Pass (*prepare)(const Config &))
{
    Rng frameRng(cfg.seed ^ 0xf00dULL);
    const BitVec frame =
        randomFrame(cfg.protocol.frameBits - 16, frameRng);
    return runFrames(prepare(cfg), frame, cfg.protocol.frames);
}

/**
 * A placement's transport session. Disabled, it is the single shot,
 * repackaged (TransportOffEquivalence). Enabled, every round reshapes
 * @p cfg for its rate rung and seed and runs one burst.
 */
template <class Config>
TransportResult
runTransportOver(const Config &cfg, const BitVec &message,
                 Pass (*prepare)(const Config &))
{
    if (!cfg.transport.enabled)
        return legacyTransportResult(runShot(cfg, prepare), cfg.protocol);
    const TransportLink link = [&cfg, prepare](const BitVec &stream,
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
