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
 */

#ifndef WB_CHAN_MULTISET_HH
#define WB_CHAN_MULTISET_HH

#include "chan/channel.hh"
#include "chan/paced.hh"
#include "chan/pointer_chase.hh"

namespace wb::chan
{

/** Multi-set experiment configuration. */
struct MultiSetConfig
{
    /** Registry preset this config was built from (see usePlatform). */
    std::string platformName = sim::kDefaultPlatform;
    sim::HierarchyParams platform = sim::xeonE5_2650Params();
    sim::NoiseModel noise;
    Cycles ts = 5500;  //!< slot period
    Cycles tr = 5500;
    unsigned frames = 15;
    unsigned frameBits = 128;
    unsigned d = 4;             //!< dirty lines per 1-bit per set
    unsigned setCount = 4;      //!< k parallel target sets
    unsigned firstSet = 8;      //!< sets used: firstSet + 8*j
    unsigned replacementSize = 10;
    unsigned calMeasurements = 150;
    std::uint64_t seed = 1;
    double cpuGhz = 2.2;

    /** Aggregate channel rate in kbps (k bits per slot). */
    double
    rateKbps() const
    {
        return setCount * cpuGhz * 1e6 / double(ts);
    }

    /** The j-th target set index. */
    unsigned
    targetSet(unsigned j) const
    {
        return (firstSet + 8 * j) % 64;
    }

    /**
     * Reconfigure for a named registry preset (hierarchy parameters +
     * noise model). Fatal on an unknown name. @return *this.
     */
    MultiSetConfig &
    usePlatform(const std::string &name)
    {
        sim::applyPlatform(name, platformName, platform, noise);
        return *this;
    }
};

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

    /** True when the receiver's k chases no longer fit the slot. */
    bool overran() const { return overruns_ > slots_ / 10; }

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
    std::size_t overruns_ = 0;
};

/** Run the striped multi-set channel end to end. */
ChannelResult runMultiSetChannel(const MultiSetConfig &cfg);

} // namespace wb::chan

#endif // WB_CHAN_MULTISET_HH
