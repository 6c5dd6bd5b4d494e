/**
 * @file
 * FNV-1a digests of channel, baseline, transport and tenant-sweep
 * results, shared by the pin suites (test_runner_pins,
 * test_closed_link, test_observer), plus the transport geometry their
 * transport pins run. A pin is one 64-bit constant captured from a known-good tree:
 * any drift in RNG draw order, scheduling, calibration or decoding
 * changes it.
 */

#ifndef WB_TESTS_DIGEST_HH
#define WB_TESTS_DIGEST_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "chan/channel.hh"
#include "chan/tenant.hh"
#include "chan/transport.hh"
#include "sim/scheduler.hh"

namespace wb::test
{

/** FNV-1a over 64-bit words (doubles by bit pattern). */
class Fnv
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
    }

    void
    f64(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        u64(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** FNV-1a over the raw bit patterns of a latency vector. */
inline std::uint64_t
fnvLatencies(const std::vector<double> &v)
{
    Fnv f;
    for (double d : v)
        f.f64(d);
    return f.value();
}

inline void
hashSched(Fnv &f, const sim::SchedulerStats &s)
{
    f.u64(s.contextSwitches);
    f.u64(s.migrations);
    f.u64(s.pollutionAccesses);
    f.u64(s.coRunnerAccesses);
}

inline void
hashCounters(Fnv &f, const sim::PerfCounters &c)
{
    f.u64(c.l1Hits);
    f.u64(c.l1Misses);
    f.u64(c.l1DirtyWritebacks);
    f.u64(c.llcDirtyEvictions);
    f.u64(c.crossCoreSnoops);
}

/** Digest of every tally a transport session reports. */
inline std::uint64_t
transportDigest(const chan::TransportResult &r)
{
    Fnv f;
    for (std::uint64_t v :
         {std::uint64_t(r.framesTotal), std::uint64_t(r.framesDelivered),
          std::uint64_t(r.framesFailed), r.framesSent, r.retransmissions,
          r.payloadBitsTotal, r.payloadBitsDelivered, r.residualBitErrors,
          std::uint64_t(r.rounds), std::uint64_t(r.finalRateLevel),
          std::uint64_t(r.syncLosses), std::uint64_t(r.resyncs),
          r.fecCorrectedBits, std::uint64_t(r.simulatedCycles)})
        f.u64(v);
    f.f64(r.residualBer);
    f.f64(r.goodputKbps);
    f.f64(r.rawRateKbps);
    for (unsigned lvl : r.rateLevelByRound)
        f.u64(lvl);
    for (double fer : r.ferByRound)
        f.f64(fer);
    hashSched(f, r.schedulerStats);
    return f.value();
}

/** Digest of a single shot: latency stream, decode, centroids, counters. */
inline std::uint64_t
shotDigest(const chan::ChannelResult &r)
{
    Fnv f;
    for (double lat : r.latencies)
        f.f64(lat);
    for (bool b : r.decodedBits)
        f.u64(b);
    f.f64(r.ber);
    f.u64(r.simulatedCycles);
    f.u64(r.repetition);
    for (double m : r.calibrationMedians)
        f.f64(m);
    hashCounters(f, r.senderCounters);
    hashCounters(f, r.receiverCounters);
    hashSched(f, r.schedulerStats);
    return f.value();
}

/**
 * Digest of a baseline run: latency stream, BER, frames, counters —
 * the fields the baseline pins were captured over.
 */
inline std::uint64_t
baselineDigest(const chan::ChannelResult &r)
{
    Fnv f;
    for (double lat : r.latencies)
        f.f64(lat);
    f.f64(r.ber);
    f.u64(r.framesScored);
    hashCounters(f, r.senderCounters);
    hashCounters(f, r.receiverCounters);
    return f.value();
}

/**
 * Digest of a many-tenant sweep: each pair's outcome, the coherence
 * traffic and the socket-wide aggregates.
 */
inline std::uint64_t
tenantDigest(const chan::TenantSweepResult &r)
{
    Fnv f;
    for (const chan::TenantPairResult &p : r.pairs) {
        for (std::uint64_t v :
             {std::uint64_t(p.senderCore), std::uint64_t(p.receiverCore),
              std::uint64_t(p.targetSet), std::uint64_t(p.slice),
              std::uint64_t(p.discovered), std::uint64_t(p.senderLineCount),
              p.discoveryTests, p.discoveryAccesses,
              std::uint64_t(p.collides)})
            f.u64(v);
        f.f64(p.ber);
    }
    const sim::CoherenceStats &c = r.coherence;
    for (std::uint64_t v :
         {c.invalidateEvents, c.snoopEvents, c.backInvalEvents,
          c.flushEvents, c.privateProbes, r.scanProbeEquivalent,
          std::uint64_t(r.discovered), std::uint64_t(r.collidingPairs)})
        f.u64(v);
    for (double v : {r.meanBer, r.maxBer, r.meanBerClean,
                     r.meanBerColliding, r.aggregateBitsPerSlot,
                     r.aggregateKbps, r.busiestCoreUtil})
        f.f64(v);
    return f.value();
}

/** The small transport geometry the capacity frontier uses. */
inline void
smallTransport(chan::TransportConfig &t)
{
    t.enabled = true;
    t.layout.seqBits = 4;
    t.layout.payloadBits = 24;
    t.layout.crcWidth = 16;
    t.layout.interleaveDepth = 2;
    t.messageFrames = 2;
    t.windowFrames = 2;
    t.maxRetries = 3;
    t.maxRounds = 6;
}

} // namespace wb::test

#endif // WB_TESTS_DIGEST_HH
