/**
 * @file
 * A CacheBleed-style Hit+Hit covert channel (paper Table I / Fig. 2(b)
 * class): both parties' accesses *hit*, and the signal is contention —
 * the sender hammers loads so the receiver's timed burst of L1 hits is
 * delayed by port/bank conflicts when (and only when) a 1 is sent.
 *
 * Completes the taxonomy with a working exemplar of the third class:
 * unlike the WB channel it requires the two hyper-threads to execute
 * *simultaneously* (the paper: "Hit+Hit attacks such as CacheBleed
 * always require the sender and receiver to be two concurrent
 * hyper-threads, making them challenging to deploy") and its per-bit
 * signal is a couple of cycles of added mean latency, so it needs many
 * accesses per bit.
 */

#ifndef WB_BASELINES_HIT_HIT_CHANNEL_HH
#define WB_BASELINES_HIT_HIT_CHANNEL_HH

#include "baselines/framework.hh"

namespace wb::baselines
{

/** Receiver: times a burst of same-line L1 hits every slot. */
class HitHitReceiver : public chan::PacedProgram
{
  public:
    /**
     * @param line the receiver's private hot line
     * @param burst loads per timed measurement
     * @param tr sampling period
     * @param sampleCount observations before halting
     */
    HitHitReceiver(Addr line, unsigned burst, Cycles tr,
                   std::size_t sampleCount);

  private:
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    Addr line_;
    unsigned burst_;
    std::size_t sampleCount_;
};

/** Sender: hammers loads all slot for 1, spins for 0. */
class HitHitSender : public chan::PacedProgram
{
  public:
    /**
     * @param line the sender's private hammered line
     * @param bits the bit sequence
     * @param ts sending period
     */
    HitHitSender(Addr line, std::vector<bool> bits, Cycles ts);

  private:
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    Addr line_;
    std::vector<bool> bits_;
};

/**
 * Run the Hit+Hit channel end to end, a same-core placement of the
 * channel pipeline (baselines/framework.hh). The platform's
 * port-contention parameters supply the physics; the default
 * NoiseModel's modest contention gives a small (cycles-scale)
 * per-burst signal. With contention off the result reads closed.
 */
chan::ChannelResult runHitHitChannel(const chan::ChannelConfig &cfg,
                                     unsigned burst = 64);

} // namespace wb::baselines

#endif // WB_BASELINES_HIT_HIT_CHANNEL_HH
