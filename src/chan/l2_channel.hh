/**
 * @file
 * The WB channel deployed on the L2 cache (paper Sec. III: "The WB
 * time channel can be deployed not only on the L1 cache but also on
 * other cache levels. However, this requires more operations from the
 * sender." — the paper states this but never evaluates it; this module
 * does).
 *
 * Mechanics: the parties agree on an L2 *set*. Because the L1 index
 * bits are a subset of the L2 index bits, every line of one L2 set
 * also maps to one L1 set, so:
 *
 *  - the sender cannot just store (that only dirties L1): after
 *    writing each line it sweeps "pusher" lines that share the L1 set
 *    but live in *other* L2 sets, evicting its dirty line from L1 so
 *    the write-back lands in the target L2 set — the extra sender
 *    work the paper predicted;
 *  - the receiver times a pointer-chased replacement of the L2 set
 *    (two alternating replacement sets, as at L1). Each traversal load
 *    misses L1 and L2 and is served by the LLC; an L2 fill that evicts
 *    a dirty L2 victim pays the L2 write-back penalty, which is the
 *    signal.
 */

#ifndef WB_CHAN_L2_CHANNEL_HH
#define WB_CHAN_L2_CHANNEL_HH

#include "chan/channel.hh"
#include "chan/paced.hh"
#include "chan/set_mapping.hh"

namespace wb::chan
{

/**
 * Sender for the L2 channel: per 1-bit, writes d target-set lines and
 * evicts each from L1 through the pusher sweep.
 */
class L2SenderProgram : public PacedProgram
{
  public:
    /**
     * @param lines sender lines mapping to the target L2 set
     * @param pushers lines sharing the L1 set but in other L2 sets
     * @param bits bit sequence (binary encoding)
     * @param d dirty lines per 1-bit
     * @param ts slot period
     */
    L2SenderProgram(std::vector<Addr> lines, std::vector<Addr> pushers,
                    std::vector<bool> bits, unsigned d, Cycles ts);

    /** True once every bit was modulated. */
    bool done() const { return slotIndex() >= bits_.size(); }

  private:
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    std::vector<Addr> lines_;
    std::vector<Addr> pushers_;
    std::vector<bool> bits_;
    unsigned d_;
};

/**
 * Run the L2-level covert channel end to end.
 *
 * @param pusherLines size of the sender's L1-eviction sweep
 */
ChannelResult runL2Channel(const ChannelConfig &cfg,
                           unsigned pusherLines = 10);

/**
 * Helper: lines mapping to a given L2 set (they also share one L1
 * set), and pusher lines for that L1 set in other L2 sets.
 */
struct L2Sets : ChannelSets
{
    std::vector<Addr> pushers;
};

/** Build the L2-channel line pools. Fatal when the L2 has no more
 *  sets than the L1: no other L2 set then holds a pusher line. */
L2Sets makeL2Sets(const sim::AddressLayout &l1Layout,
                  const sim::AddressLayout &l2Layout, unsigned targetL2Set,
                  unsigned senderCount, unsigned pusherCount,
                  unsigned replacementSize);

} // namespace wb::chan

#endif // WB_CHAN_L2_CHANNEL_HH
