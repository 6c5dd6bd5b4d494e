#include "chan/calibration.hh"

#include <algorithm>
#include <cmath>

#include "chan/pointer_chase.hh"
#include "common/log.hh"

namespace wb::chan
{

namespace
{

/** Classifier over @p byD's entries at @p encoding's levels. */
Classifier
centroidClassifier(const std::vector<double> &byD, const Encoding &encoding)
{
    std::vector<double> centroids;
    centroids.reserve(encoding.symbols());
    for (unsigned s = 0; s < encoding.symbols(); ++s) {
        const unsigned d = encoding.level(s);
        if (d >= byD.size())
            fatalf("classifier: level ", d, " out of calibrated range");
        centroids.push_back(byD[d]);
    }
    return Classifier(std::move(centroids));
}

/**
 * Standard errors a level gap must clear before the closed-link test
 * calls it a signal: a gap of zero exceeds 3 se by chance in ~0.13% of
 * calibrations, so a closed link reads closed with ~99.9% confidence
 * per adjacent level pair.
 */
constexpr double kClosedLinkZ = 3.0;

/** Gap (cycles) below which no sample size makes a link open. */
constexpr double kClosedLinkMinGap = 0.5;

} // namespace

bool
Calibration::closedFor(const Encoding &encoding) const
{
    const std::vector<unsigned> &levels = encoding.levels();
    for (std::size_t i = 1; i < levels.size(); ++i) {
        if (levels[i] >= latencyByD.size())
            fatalf("closedFor: level ", levels[i],
                   " out of calibrated range");
        const Samples &lo = latencyByD[levels[i - 1]];
        const Samples &hi = latencyByD[levels[i]];
        if (lo.empty() || hi.empty())
            return true;
        const double sLo = lo.stddev();
        const double sHi = hi.stddev();
        const double se = std::sqrt(sLo * sLo / double(lo.count()) +
                                    sHi * sHi / double(hi.count()));
        if (hi.mean() - lo.mean() <=
            std::max(kClosedLinkMinGap, kClosedLinkZ * se))
            return true;
    }
    return false;
}

Calibration
Calibration::fromSamples(std::vector<Samples> latencyByD)
{
    Calibration out;
    for (const Samples &level : latencyByD) {
        out.medianByD.push_back(level.median());
        out.meanByD.push_back(level.mean());
        out.stddevByD.push_back(level.stddev());
    }
    out.latencyByD = std::move(latencyByD);
    return out;
}

Classifier
Calibration::binaryClassifier(unsigned d2) const
{
    return classifierFor(Encoding::binary(d2));
}

Classifier
Calibration::classifierFor(const Encoding &encoding) const
{
    return centroidClassifier(medianByD, encoding);
}

Classifier
Calibration::meanClassifierFor(const Encoding &encoding) const
{
    return centroidClassifier(meanByD, encoding);
}

double
measureChaseOffline(sim::MemorySystem &mem, ThreadId tid,
                    const sim::AddressSpace &space,
                    const std::vector<Addr> &order,
                    const sim::NoiseModel &noise)
{
    const auto batch =
        mem.accessBatch(tid, space, order, /*isWrite=*/false);
    return static_cast<double>(batch.totalLatency +
                               noise.opOverhead * batch.accesses +
                               noise.tscReadCost);
}

Calibration
calibrateOnPorts(const CalibrationPorts &ports, const ChannelSets &sets,
                 const std::vector<unsigned> &mix, unsigned maxLevel,
                 const CalibrationConfig &cfg, const sim::NoiseModel &noise,
                 Rng &rng)
{
    std::vector<Samples> latencyByD(maxLevel + 1);

    sim::AddressSpace senderSpace(1);
    sim::AddressSpace receiverSpace(2);
    PointerChase chaseA(sets.replacementA);
    PointerChase chaseB(sets.replacementB);

    // Warm both replacement sets into the level below the target.
    for (unsigned sweep = 0; sweep < ports.warmSweeps; ++sweep) {
        ports.receiver.accessBatch(ports.receiverTid, receiverSpace,
                                   sets.replacementA, false);
        ports.receiver.accessBatch(ports.receiverTid, receiverSpace,
                                   sets.replacementB, false);
    }

    for (unsigned d : mix) {
        if (d > maxLevel)
            fatalf("calibrate: level ", d, " exceeds the top level ",
                   maxLevel);
    }

    const std::size_t total = mix.size() * cfg.measurements + cfg.discard;
    bool useA = true;
    for (std::size_t m = 0; m < total; ++m) {
        const unsigned d = mix[rng.below(mix.size())];
        // Sender phase: dirty d lines (Algorithm 1 encode).
        if (ports.encode)
            ports.encode(d);
        else
            ports.sender.accessBatch(ports.senderTid, senderSpace,
                                     sets.senderLines.data(), d,
                                     /*isWrite=*/true);
        // Receiver phase: timed traversal (Algorithm 2 decode), or —
        // for the Flushgeist observer — an *untimed* prime followed by
        // one timed clflush of a probe line, whose cost carries the
        // dirty write-backs the prime just queued.
        PointerChase &chase = useA ? chaseA : chaseB;
        chase.reshuffle(rng);
        double lat;
        if (cfg.probe == CalibrationProbe::FlushLatency) {
            ports.receiver.accessBatch(ports.receiverTid, receiverSpace,
                                       chase.order(), /*isWrite=*/false);
            const Addr probeVa =
                useA ? sets.replacementA[0] : sets.replacementB[0];
            lat = static_cast<double>(
                ports.receiver.flush(ports.receiverTid,
                                     receiverSpace.translate(probeVa)) +
                noise.opOverhead + noise.tscReadCost);
        } else {
            lat = measureChaseOffline(ports.receiver, ports.receiverTid,
                                      receiverSpace, chase.order(), noise);
        }
        if (noise.measBaseSigma > 0.0)
            lat += rng.gaussian(0.0, noise.measBaseSigma);
        // The observer choke point (quantization-bypass audit fix):
        // offline measurements pass through the same resolution floor
        // and jitter the live receiver's timestamps suffer, so a
        // coarse-timer config cannot be beaten by calibrating with a
        // secretly perfect clock. No-op for the default observer on a
        // granule-1 platform.
        lat = noise.observeDuration(lat, rng);
        useA = !useA;
        if (m >= cfg.discard)
            latencyByD[d].add(lat);
    }
    return Calibration::fromSamples(std::move(latencyByD));
}

Calibration
calibrate(const sim::HierarchyParams &hp, const sim::NoiseModel &noise,
          const CalibrationConfig &cfg, Rng &rng)
{
    const unsigned ways = hp.l1.ways;
    // One hierarchy for the whole calibration, with the d values
    // interleaved at random. This matters for non-stack replacement
    // policies (PLRU variants, SRRIP, random): leftover lines from
    // previous slots shift the steady-state baseline, so calibrating
    // each d in isolation would misplace the thresholds the live
    // receiver needs (an in-situ attacker calibrates the same way).
    sim::Hierarchy hierarchy(hp, &rng);
    const auto sets = makeChannelSets(hierarchy.l1().layout(),
                                      cfg.targetSet, ways,
                                      cfg.replacementSize);
    std::vector<unsigned> mix = cfg.levelsMix;
    if (mix.empty()) {
        for (unsigned d = 0; d <= ways; ++d)
            mix.push_back(d);
    }
    return calibrateOnPorts({hierarchy, /*senderTid=*/0, hierarchy,
                             /*receiverTid=*/1},
                            sets, mix, ways, cfg, noise, rng);
}

} // namespace wb::chan
