/**
 * @file
 * The LRU-state covert channel of Xiong & Szefer (HPCA'20), as the
 * paper describes it in Sec. VI / Fig. 8(a) — the no-shared-memory
 * variant used for all stability and stealth comparisons.
 *
 * Mechanism (8-way set): the receiver keeps eight of its own lines in
 * the target set, split into an init half (lines 0-3) and a decode half
 * (lines 4-7). To send 1, the sender accesses its own line 8 during the
 * slot, pushing the replacement state so that the receiver's decode
 * accesses evict line 0; to send 0 it stays silent. The receiver then
 * times a single load of line 0: an L1 hit decodes 0, an L1 miss
 * decodes 1.
 *
 * Unlike the WB sender (one store per bit), the LRU sender must
 * modulate continuously for the whole slot — the source of its ~1.7x
 * higher cache-load footprint (paper Table VI).
 */

#ifndef WB_BASELINES_LRU_CHANNEL_HH
#define WB_BASELINES_LRU_CHANNEL_HH

#include "baselines/framework.hh"

namespace wb::baselines
{

/** Receiver of the LRU channel (init half + decode half + timed line). */
class LruReceiver : public chan::PacedProgram
{
  public:
    /**
     * @param lines the receiver's W lines mapping to the target set;
     *        lines[0] is the timed line
     * @param tr sampling period
     * @param sampleCount observations before halting
     */
    LruReceiver(std::vector<Addr> lines, Cycles tr,
                std::size_t sampleCount);

  private:
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    std::vector<Addr> lines_;
    std::size_t sampleCount_;
    std::vector<Addr> warmupOrder_; //!< two full sweeps, batched
};

/** Sender of the LRU channel. */
class LruSender : public chan::PacedProgram
{
  public:
    /**
     * @param line the sender's line mapping to the target set
     * @param bits the full bit sequence to modulate
     * @param ts sending period
     * @param modulateCycles how long the 1-bit access burst lasts. A
     *        short burst (default 150 cycles) keeps the receiver's
     *        re-init self-restoring; 0 means modulate the entire slot
     *        (Xiong's continuous modulation — the configuration whose
     *        load footprint paper Table VI measures, but which corrupts
     *        the replacement state whenever the receiver's decode
     *        overlaps it).
     */
    LruSender(Addr line, std::vector<bool> bits, Cycles ts,
              Cycles modulateCycles = 150);

  private:
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    Addr line_;
    std::vector<bool> bits_;
    Cycles modulateCycles_;
};

/**
 * Run the LRU covert channel end to end.
 * @param modulateCycles see LruSender (0 = whole-slot modulation)
 */
BaselineResult runLruChannel(const BaselineConfig &cfg,
                             Cycles modulateCycles = 150);

} // namespace wb::baselines

#endif // WB_BASELINES_LRU_CHANNEL_HH
