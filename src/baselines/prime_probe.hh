/**
 * @file
 * Prime+Probe covert channel (Osvik, Shamir & Tromer; paper Secs. II,
 * VI). Contention-based, no shared memory.
 *
 * The receiver primes the target set with W of its own lines, sleeps,
 * then probes them with a timed traversal: extra misses mean the sender
 * touched the set (sent 1). The probe is walked in the reverse of the
 * previous traversal order, the classic trick that avoids self-eviction
 * thrashing under LRU (paper Sec. VI-A).
 */

#ifndef WB_BASELINES_PRIME_PROBE_HH
#define WB_BASELINES_PRIME_PROBE_HH

#include "baselines/framework.hh"

namespace wb::baselines
{

/** Prime+Probe receiver: timed whole-set probe each slot. */
class PrimeProbeReceiver : public chan::PacedProgram
{
  public:
    /**
     * @param lines the receiver's W prime lines
     * @param tr sampling period
     * @param sampleCount observations before halting
     * @param reprimeEachSlot issue an untimed full prime sweep after
     *        every timed probe. The L1 variant does not need it (the
     *        probe itself restores the set), but on an inclusive
     *        shared LLC a perturbed probe's misses back-invalidate
     *        the receiver's own private copies and the elevated state
     *        persists across slots; re-priming resets it.
     */
    PrimeProbeReceiver(std::vector<Addr> lines, Cycles tr,
                       std::size_t sampleCount,
                       bool reprimeEachSlot = false);

  private:
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    std::vector<Addr> lines_;
    std::vector<Addr> reversed_; //!< lines_ back to front
    std::size_t sampleCount_;
    bool reprimeEachSlot_;
    std::vector<Addr> warmupOrder_; //!< two full sweeps, batched
};

/** Prime+Probe sender: one burst of accesses per 1-bit. */
class PrimeProbeSender : public chan::PacedProgram
{
  public:
    /**
     * @param lines sender lines mapping to the target set
     * @param linesPerOne how many to touch when sending 1
     * @param bits the bit sequence
     * @param ts sending period
     */
    PrimeProbeSender(std::vector<Addr> lines, unsigned linesPerOne,
                     std::vector<bool> bits, Cycles ts);

  private:
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    std::vector<Addr> lines_;
    unsigned linesPerOne_;
    std::vector<bool> bits_;
};

/**
 * Run the Prime+Probe covert channel end to end: a same-core placement
 * of the channel pipeline (baselines/framework.hh), meeting in L1 set
 * cfg.protocol.targetSet.
 */
chan::ChannelResult runPrimeProbeChannel(const chan::ChannelConfig &cfg,
                                         unsigned linesPerOne = 2);

/**
 * Cross-core Prime+Probe over the shared LLC: the receiver (core 1)
 * primes cfg.protocol.targetSet of the LLC with llc.ways of its own
 * lines and times whole-set probes; the sender (core 0) touches
 * @p linesPerOne lines of the same LLC set for a 1-bit. On an
 * inclusive LLC the sender's fills evict the receiver's lines from
 * every level (back-invalidation), so probe misses rise; a
 * non-inclusive LLC leaves the receiver's private copies alive and
 * closes the channel — the result's closed flag then reads true.
 * Classifier centroids are the medians of 40 + 40 offline probes (the
 * steady-state probe latency is platform-dependent). targetSet indexes
 * the LLC layout here, and protocol.ts/tr should leave room for a
 * whole-LLC-set probe (llc.ways DRAM-latency misses in the worst
 * case). Runs on the cross-core WB wiring (chan::pipeline).
 */
chan::ChannelResult runCrossCorePrimeProbe(const chan::ChannelConfig &cfg,
                                           unsigned linesPerOne = 2,
                                           unsigned cores = 2);

} // namespace wb::baselines

#endif // WB_BASELINES_PRIME_PROBE_HH
