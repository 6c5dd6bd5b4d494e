/**
 * @file
 * What the baseline covert channels the paper compares against share
 * (Table I / Secs. II, VI): the LRU-state channel (Xiong & Szefer),
 * Prime+Probe, Flush+Reload, Flush+Flush, a coherence-state (dirty/M
 * vs clean/S flush timing) channel and Hit+Hit.
 *
 * Every baseline is a placement of the channel pipeline
 * (chan/pipeline.hh), configured by a chan::ChannelConfig and reported
 * as a chan::ChannelResult: it hands one Pass to runShot, on the
 * same platform wiring as the WB placement of its shape (same-core or
 * cross-core), so it honours cfg.scheduler and reports a closed flag.
 * Its pacing is Algorithm 3 (chan::PacedProgram) and its frames are
 * scored by the same edit distance.
 *
 * The comparison numbers differ in one more way than the transmission
 * mechanism: the WB receivers add a NoiseModel::measSigma(Tr) Gaussian
 * to every latency sample (measurement noise that grows with the
 * sampling rate), while the baseline receivers record the raw TSC
 * difference.
 */

#ifndef WB_BASELINES_FRAMEWORK_HH
#define WB_BASELINES_FRAMEWORK_HH

#include "chan/calibration.hh"
#include "chan/channel.hh"
#include "chan/paced.hh"

namespace wb::baselines
{

/**
 * Fatal, naming the ProtocolConfig field, unless @p proto.targetSet is
 * one of the @p sets sets of the cache the baseline meets in and
 * @p proto.encoding is binary(1): every baseline sends one bit per
 * slot as touch / no touch.
 */
void requireBaselineProtocol(const chan::ProtocolConfig &proto,
                             unsigned sets);

/**
 * The calibration of a baseline whose centroids have a closed form:
 * one sample per level, @p low for bit 0 and @p high for bit 1.
 * Calibration::closedFor then reads closed exactly when
 * high - low <= 0.5 cycle.
 */
chan::Calibration closedFormCalibration(double low, double high);

} // namespace wb::baselines

#endif // WB_BASELINES_FRAMEWORK_HH
