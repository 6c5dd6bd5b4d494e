/**
 * @file
 * The WB-channel sender (paper Algorithm 1 + sender half of
 * Algorithm 3).
 *
 * Every Ts cycles the sender encodes one symbol by dirtying d lines of
 * the target set (d = 0 means no access at all) with one batched store
 * sweep, then busy-waits for the period boundary and re-bases its
 * period clock on the post-spin timestamp, exactly as Algorithm 3's
 * `while (TSC < Tlast + Ts); Tlast = TSC;` does (chan/paced.hh).
 */

#ifndef WB_CHAN_SENDER_HH
#define WB_CHAN_SENDER_HH

#include <vector>

#include "chan/paced.hh"
#include "common/types.hh"

namespace wb::chan
{

/** Sender: one batched store sweep of d lines per symbol slot. */
class SenderProgram : public PacedProgram
{
  public:
    /**
     * @param lines sender-owned lines mapping to the target set; at
     *        least max(dSequence) entries
     * @param dSequence dirty-line count per symbol slot, in order
     * @param ts sending period in cycles (Algorithm 3's Ts)
     */
    SenderProgram(std::vector<Addr> lines, std::vector<unsigned> dSequence,
                  Cycles ts);

    /** True once every symbol has been modulated. */
    bool done() const { return slotIndex() >= dSeq_.size(); }

    /** Number of symbols modulated so far. */
    std::size_t symbolsSent() const { return slotIndex(); }

  private:
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    std::vector<Addr> lines_;
    std::vector<unsigned> dSeq_;
};

} // namespace wb::chan

#endif // WB_CHAN_SENDER_HH
