#include "chan/degraded.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/log.hh"
#include "chan/eviction_finder.hh"

namespace wb::chan
{

namespace
{

/**
 * Sigma multiple at which a block mean of R samples must separate two
 * adjacent centroids: half-gap / se(block mean) >= kRepetitionZ gives
 * a per-symbol misclassification around 0.3%, comfortably inside the
 * frame decoder's tolerance while keeping R (and the run length)
 * within an order of magnitude of the information-theoretic floor.
 */
constexpr double kRepetitionZ = 2.75;

/** Planning-calibration sample floor (per level): the centroid and
 *  dispersion estimates must be trusted before they size R. */
constexpr unsigned kPlanMeasurementsFloor = 4000;

/** Calibration samples per level the planner may escalate to. */
constexpr unsigned kPlanMeasurementsCap = 65536;

} // namespace

unsigned
planRepetition(const ChannelConfig &cfg)
{
    const Encoding &enc = cfg.protocol.encoding;
    const std::vector<unsigned> &levels = enc.levels();
    if (levels.size() < 2)
        return 1;

    CalibrationConfig calCfg = cfg.calibration;
    calCfg.levelsMix = levels;
    calCfg.targetSet = cfg.protocol.targetSet;
    calCfg.replacementSize = cfg.protocol.replacementSize;

    // The planner's own RNG: the attacker sizes R from a separate
    // planning experiment, leaving the run streams untouched.
    Rng planRng(cfg.seed ^ 0x0b5e77e5a11a5ULL);
    unsigned n = std::max(calCfg.measurements, kPlanMeasurementsFloor);
    for (int pass = 0;; ++pass) {
        calCfg.measurements = n;
        const Calibration cal =
            calibrate(cfg.platform, cfg.noise, calCfg, planRng);
        if (cal.closedFor(enc)) {
            // No gap the sample size can vouch for: the channel is
            // closed under this platform/defense, and repetition
            // cannot reopen it.
            return kClosedChannelRepetition;
        }

        double minGap = std::numeric_limits<double>::infinity();
        double sigma = 0.0;
        for (std::size_t i = 0; i < levels.size(); ++i) {
            sigma = std::max(sigma, cal.stddevByD[levels[i]]);
            if (i > 0) {
                minGap = std::min(minGap, cal.meanByD[levels[i]] -
                                              cal.meanByD[levels[i - 1]]);
            }
        }
        if (sigma <= 0.0)
            return 1;

        const double need =
            std::ceil(std::pow(kRepetitionZ * sigma / (minGap / 2.0), 2.0));
        const unsigned r = static_cast<unsigned>(
            std::clamp(need, 1.0, double(kMaxRepetition)));

        // Centroid trust: the classifier means must be estimated to
        // well under the half-gap too (se = sigma / sqrt(n)), which
        // needs n of the same order as R. One escalation pass.
        const unsigned nNeeded = std::min(kPlanMeasurementsCap, 2 * r);
        if (pass == 0 && nNeeded > n) {
            n = nNeeded;
            continue;
        }
        return r;
    }
}

DegradedPlan
planDegraded(const ChannelConfig &in)
{
    DegradedPlan plan;
    plan.cfg = in;
    ChannelConfig &cfg = plan.cfg;
    const sim::ObserverModel &obs = in.noise.observer;

    if (obs.cls == sim::ObserverClass::FlushLatency) {
        if (!obs.hasFlush) {
            fatalf("planDegraded: flush-latency observer with "
                   "hasFlush=false — the variant *is* the flush "
                   "primitive; use the eviction-only class instead");
        }
        if (cfg.platform.lat.flushWbDrainExtra == 0)
            cfg.platform.lat.flushWbDrainExtra = kDefaultFlushWbDrain;
        cfg.calibration.probe = CalibrationProbe::FlushLatency;
    }

    if (obs.coarseTimer()) {
        // Granule-aligned pacing: both parties live in the same
        // sandbox, so their slot spins release at granule boundaries
        // and the pair stays in lockstep under quantization (the
        // post-spin re-based Tlast is itself a floored reading).
        const Cycles g = cfg.noise.timerGranule();
        const auto align = [g](Cycles t) { return ((t + g - 1) / g) * g; };
        cfg.protocol.ts = align(cfg.protocol.ts);
        cfg.protocol.tr = align(cfg.protocol.tr);

        const unsigned r =
            cfg.protocol.repetitionOverride != 0
                ? std::min(cfg.protocol.repetitionOverride, kMaxRepetition)
                : planRepetition(cfg);
        plan.repetition = r;
        if (r > 1) {
            // Keep the sender's launch on a block boundary so every
            // R-sample block the receiver averages covers exactly one
            // symbol (a fractional offset would smear adjacent
            // symbols into each block mean).
            cfg.senderStartSlots =
                ((cfg.senderStartSlots + r - 1) / r) * r;
            cfg.sampleMargin = std::max(cfg.sampleMargin, 2 * r);
            // The run calibration's mean centroids carry the same
            // trust requirement the planner applied to its own.
            cfg.calibration.measurements =
                std::max(cfg.calibration.measurements, 2 * r);
        }
    }
    return plan;
}

std::vector<double>
collapseRepetition(const std::vector<double> &latencies, unsigned repetition)
{
    if (repetition <= 1)
        return latencies;
    std::vector<double> blocks;
    blocks.reserve(latencies.size() / repetition);
    for (std::size_t i = 0; i + repetition <= latencies.size();
         i += repetition) {
        double sum = 0.0;
        for (std::size_t j = 0; j < repetition; ++j)
            sum += latencies[i + j];
        blocks.push_back(sum / double(repetition));
    }
    return blocks;
}

ChannelSets
discoverChannelSets(sim::Hierarchy &hierarchy, ThreadId tid,
                    unsigned targetSet, unsigned ways,
                    unsigned replacementSize, Rng &rng, bool *verified)
{
    const sim::AddressLayout &layout = hierarchy.l1().layout();
    ChannelSets sets =
        makeChannelSets(layout, targetSet, ways, replacementSize);

    EvictionFinderConfig fc;
    fc.associativity = ways;
    // The finder's auto-calibration assumes DRAM-vs-cache contrast;
    // an L1 eviction set needs the L1-hit / L2-hit boundary instead.
    fc.threshold = (hierarchy.params().lat.l1Hit +
                    hierarchy.params().lat.l2Hit) /
                   2;
    EvictionSetFinder finder(hierarchy, tid, fc);

    // The receiver times its sets through its own address space; the
    // finder works in physical addresses, so discovery runs over the
    // translated pool and maps the survivors back.
    const sim::AddressSpace space(2);
    bool allVerified = true;
    for (int which = 0; which < 2; ++which) {
        // Disjoint tag ranges, clear of the sender (1..), the
        // architectural replacement sets (0x100/0x200) and the noise
        // processes (0x300+). Page-linear translation preserves the
        // set-index bits, so every pool line is L1-congruent with the
        // victim by VIPT construction — discovery is the observer's
        // timing-only *verification* of that, not a guess.
        const Addr tagBase = which == 0 ? 0x400 : 0x500;
        const std::vector<Addr> poolVa =
            linesForSet(layout, targetSet, 3 * ways + 1, tagBase);

        std::unordered_map<Addr, Addr> vaByPa;
        std::vector<Addr> candidates;
        candidates.reserve(poolVa.size() - 1);
        const Addr victimPa = space.translate(poolVa[0]);
        for (std::size_t i = 1; i < poolVa.size(); ++i) {
            const Addr pa = space.translate(poolVa[i]);
            vaByPa.emplace(pa, poolVa[i]);
            candidates.push_back(pa);
        }

        const EvictionSetResult found =
            finder.findFor(victimPa, candidates, rng);
        if (!found.verifiedMinimal) {
            // Honest fallback: keep the architectural set (congruent
            // by construction) and report the discovery failure.
            allVerified = false;
            continue;
        }
        std::vector<Addr> repl;
        repl.reserve(replacementSize);
        for (Addr pa : found.set)
            repl.push_back(vaByPa.at(pa));
        for (std::size_t i = 1;
             i < poolVa.size() && repl.size() < replacementSize; ++i) {
            if (std::find(repl.begin(), repl.end(), poolVa[i]) ==
                repl.end())
                repl.push_back(poolVa[i]);
        }
        (which == 0 ? sets.replacementA : sets.replacementB) =
            std::move(repl);
    }
    if (verified != nullptr)
        *verified = allVerified;
    return sets;
}

} // namespace wb::chan
