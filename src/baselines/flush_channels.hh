/**
 * @file
 * The shared-memory ("reuse-based") baseline channels of paper
 * Table I: Flush+Reload, Flush+Flush, and a coherence-state channel.
 *
 * All three require the sender and receiver to map a common physical
 * line (the WB channel explicitly does not), which is exactly why cloud
 * providers' page-deduplication bans defeat them (paper Sec. VI).
 *
 *  - Flush+Reload (Hit+Miss): receiver times a reload of the shared
 *    line; a sender touch makes it a cache hit, silence a DRAM miss.
 *    The receiver clflushes the line after every measurement.
 *  - Flush+Flush (Miss+Miss): receiver times the clflush itself, which
 *    is slower when the line is present somewhere in the hierarchy.
 *  - Coherence-state (Miss+Miss, after Yao et al.): the sender leaves
 *    the shared line modified (M, dirty) or shared/clean; the receiver
 *    times the clflush, which must write back an M line — the same
 *    dirty-state asymmetry the WB channel exploits, but via coherence.
 */

#ifndef WB_BASELINES_FLUSH_CHANNELS_HH
#define WB_BASELINES_FLUSH_CHANNELS_HH

#include "baselines/framework.hh"

namespace wb::baselines
{

/** Which flush-family mechanism to run. */
enum class FlushKind
{
    FlushReload,
    FlushFlush,
    CoherenceState
};

/** Human-readable channel name. */
std::string flushKindName(FlushKind kind);

/**
 * Whether the configured observer permits the flush family at all: the
 * three mechanisms are built on clflush, so an observer with
 * hasFlush == false (ObserverClass::EvictionOnly) denies them outright
 * — no fallback exists that is still "the same channel". Sweeps call
 * this to print those cells as denied instead of crashing into the
 * SmtCore Flush guard; runFlushChannel() fatals when it is false.
 */
bool flushChannelAvailable(const BaselineConfig &cfg);

/**
 * Receiver for the flush-family channels: per slot either a timed
 * reload followed by clflush (FlushReload), or a timed clflush
 * (FlushFlush / CoherenceState).
 */
class FlushReceiver : public chan::PacedProgram
{
  public:
    /**
     * @param sharedLine the shared line's virtual address (receiver's
     *        mapping)
     * @param kind which mechanism
     * @param tr sampling period
     * @param sampleCount observations before halting
     */
    FlushReceiver(Addr sharedLine, FlushKind kind, Cycles tr,
                  std::size_t sampleCount);

  private:
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    Addr line_;
    FlushKind kind_;
    std::size_t sampleCount_;
};

/**
 * Sender for the flush-family channels: touches (or, for the coherence
 * channel, stores to) the shared line to send 1.
 */
class FlushSender : public chan::PacedProgram
{
  public:
    /**
     * @param sharedLine the shared line's virtual address (sender's
     *        mapping)
     * @param kind which mechanism (CoherenceState stores; others load)
     * @param bits the bit sequence
     * @param ts sending period
     */
    FlushSender(Addr sharedLine, FlushKind kind, std::vector<bool> bits,
                Cycles ts);

  private:
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    Addr line_;
    FlushKind kind_;
    std::vector<bool> bits_;
};

/** Run one of the flush-family channels end to end. */
BaselineResult runFlushChannel(const BaselineConfig &cfg, FlushKind kind);

} // namespace wb::baselines

#endif // WB_BASELINES_FLUSH_CHANNELS_HH
