/**
 * @file
 * Shared scaffolding for the baseline covert channels the paper
 * compares against (Table I / Secs. II, VI): the LRU-state channel
 * (Xiong & Szefer), Prime+Probe, Flush+Reload, Flush+Flush, and a
 * coherence-state (dirty/M vs clean/S flush timing) channel.
 *
 * All baselines share the WB channel's pacing (Algorithm 3, through
 * chan::PacedProgram) and the frame/edit-distance evaluation. The
 * comparison numbers differ in one more way than the transmission
 * mechanism: the WB receivers add a NoiseModel::measSigma(Tr)
 * Gaussian to every latency sample (measurement noise that grows with
 * the sampling rate), while the baseline receivers record the raw TSC
 * difference.
 */

#ifndef WB_BASELINES_FRAMEWORK_HH
#define WB_BASELINES_FRAMEWORK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/bitvec.hh"
#include "common/edit_distance.hh"
#include "chan/noise_process.hh"
#include "chan/paced.hh"
#include "chan/protocol.hh"
#include "sim/hierarchy.hh"
#include "sim/noise_model.hh"
#include "sim/platform.hh"
#include "sim/smt_core.hh"

namespace wb::baselines
{

/** Configuration shared by every baseline channel. */
struct BaselineConfig
{
    /** Registry preset this config was built from (see usePlatform). */
    std::string platformName = sim::kDefaultPlatform;
    sim::HierarchyParams platform = sim::xeonE5_2650Params();
    sim::NoiseModel noise;
    Cycles ts = 5500;        //!< sender period
    Cycles tr = 5500;        //!< receiver period
    unsigned frameBits = 128;
    unsigned frames = 30;
    unsigned targetSet = 13;
    std::uint64_t seed = 1;
    double cpuGhz = 2.2;

    /** Co-resident noise processes touching the target set. */
    unsigned noiseProcesses = 0;
    chan::NoiseProcessConfig noiseCfg;

    /** Sender launch delay in slots. */
    unsigned senderStartSlots = 8;

    /** Extra receiver samples beyond the expected bit count. */
    unsigned sampleMargin = 96;

    /** Channel rate in kbps (binary symbols). */
    double rateKbps() const { return cpuGhz * 1e6 / double(ts); }

    /**
     * Reconfigure for a named registry preset (hierarchy parameters +
     * noise model). Fatal on an unknown name. @return *this.
     */
    BaselineConfig &
    usePlatform(const std::string &name)
    {
        sim::applyPlatform(name, platformName, platform, noise);
        return *this;
    }
};

/** Result of one baseline transmission experiment. */
struct BaselineResult
{
    double ber = 1.0;
    EditBreakdown breakdown;
    double rateKbps = 0.0;
    bool aligned = false;
    unsigned framesScored = 0;
    unsigned framesExpected = 0;
    std::vector<double> latencies;
    BitVec sentFrame;
    sim::PerfCounters senderCounters;
    sim::PerfCounters receiverCounters;
};

/**
 * What a baseline channel module hands to the shared runner: a paced
 * bit sender/receiver pair, created once the hierarchy layout and the
 * frame bit sequence are known. The runner reads the receiver's
 * per-slot samples from PacedProgram::latencies().
 */
struct BaselineParts
{
    std::unique_ptr<sim::Program> sender;
    std::unique_ptr<chan::PacedProgram> receiver;

    /**
     * Calibrated centroids in increasing latency order. When the fast
     * symbol corresponds to bit 1 (Flush+Reload: a sender touch makes
     * the reload *faster*), set invert so the runner flips decoded
     * bits after classification.
     */
    double centroidLow = 0.0;
    double centroidHigh = 0.0;
    bool invert = false;

    /** Address spaces (factories add shared segments here). */
    sim::AddressSpace senderSpace{1};
    sim::AddressSpace receiverSpace{2};
};

/** Builds the two programs for a specific channel mechanism. */
using PartsFactory = std::function<BaselineParts(
    const BaselineConfig &cfg, const std::vector<bool> &frameBits,
    sim::Hierarchy &hierarchy, Rng &rng)>;

/**
 * Shared experiment loop: build platform, run sender+receiver (+noise
 * processes), classify the receiver's latencies against the two
 * calibrated centroids, align frames and score with edit distance.
 */
BaselineResult runBaseline(const BaselineConfig &cfg,
                           const PartsFactory &factory);

/**
 * The shared decode tail of every binary baseline: classify
 * res.latencies against {centroidLow, centroidHigh}, optionally
 * invert, align the repeated @p frame and score it with the edit
 * distance, filling res.ber/breakdown/aligned/framesScored.
 * @pre centroidHigh > centroidLow — panics otherwise; callers that
 * cannot guarantee separation branch before calling (see
 * runCrossCorePrimeProbe).
 */
void scoreBinaryLatencies(BaselineResult &res, double centroidLow,
                          double centroidHigh, bool invert,
                          const BitVec &frame, unsigned framesExpected);

} // namespace wb::baselines

#endif // WB_BASELINES_FRAMEWORK_HH
