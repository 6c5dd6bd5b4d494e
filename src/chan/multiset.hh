/**
 * @file
 * Multi-set parallel WB channels.
 *
 * The paper reports 1300-4400 kbps *per cache set* and notes that all
 * cache lines in a set can be used equally; nothing stops the parties
 * from agreeing on k disjoint target sets and striping the message
 * across them — k bits per slot. The receiver's slot must fit k timed
 * replacements, so the aggregate rate saturates near
 * k / (k * chase_time) ~ 1 / chase_time regardless of k; this module
 * measures exactly where that ceiling sits on the modeled Xeon.
 *
 * The channel runs on a same-core ChannelConfig and reads: platform,
 * noise, seed and scheduler (co-runners share the parties' core);
 * protocol.ts/tr/frames/frameBits/cpuGhz; protocol.targetSet as
 * stripe 0's L1 set, stripe j using (targetSet + 8j) mod 64;
 * protocol.replacementSize; the top level of the binary
 * protocol.encoding as d, the dirty lines per 1-bit per set;
 * calibration (run on stripe 0, as runChannel does); noiseProcesses/
 * noiseCfg, which land on stripe 0; and transport.
 */

#ifndef WB_CHAN_MULTISET_HH
#define WB_CHAN_MULTISET_HH

#include "chan/channel.hh"
#include "chan/paced.hh"
#include "chan/pointer_chase.hh"

namespace wb::chan
{

/** Striped sender: slot s, set j carries message bit s*k + j. */
class MultiSetSender : public PacedProgram
{
  public:
    /**
     * @param linePools per-set sender line pools
     * @param bits the striped message
     * @param d dirty lines per 1-bit
     * @param ts slot period
     */
    MultiSetSender(std::vector<std::vector<Addr>> linePools,
                   std::vector<bool> bits, unsigned d, Cycles ts);

  private:
    /** d stores per 1-bit, set by set; halts at the message's end. */
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    std::vector<std::vector<Addr>> pools_;
    std::vector<bool> bits_;
    unsigned d_;
};

/** Receiver timing k replacements per slot, set-major order. */
class MultiSetReceiver : public PacedProgram
{
  public:
    /**
     * @param replA per-set replacement sets A
     * @param replB per-set replacement sets B
     * @param tr slot period
     * @param slots number of slots to record
     */
    MultiSetReceiver(std::vector<std::vector<Addr>> replA,
                     std::vector<std::vector<Addr>> replB, Cycles tr,
                     std::size_t slots);

  private:
    /**
     * Slot 0 only waits; every later slot times all k sets' chases
     * (A or B, alternating per slot). Samples come out slot-major,
     * set-minor: message order.
     */
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    /** Draw the next set's chase order once the previous one closed. */
    void onSample(sim::ProcView &view) override;

    std::vector<PointerChase> chaseA_;
    std::vector<PointerChase> chaseB_;
    std::size_t slots_;

    std::vector<PointerChase> *chases_ = nullptr; //!< this slot's sets
    unsigned setIdx_ = 0;                         //!< set being timed
    bool useA_ = true;
};

/**
 * Run the striped multi-set channel end to end: the aggregate rate is
 * setCount x protocol.rateKbps().
 *
 * @param setCount k, the parallel target sets (1..8)
 */
ChannelResult runMultiSetChannel(const ChannelConfig &cfg,
                                 unsigned setCount = 4);

/**
 * Run a transport session over the striped channel, one burst through
 * the k sets per round; rawRateKbps is the aggregate, setCount x the
 * final burst's per-set rate. Disabled, it is runMultiSetChannel()
 * repackaged.
 */
TransportResult runMultiSetTransport(const ChannelConfig &cfg,
                                     const BitVec &message,
                                     unsigned setCount = 4);

} // namespace wb::chan

#endif // WB_CHAN_MULTISET_HH
