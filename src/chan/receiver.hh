/**
 * @file
 * The WB-channel receiver (paper Algorithm 2 + receiver half of
 * Algorithm 3).
 *
 * Every Tr cycles the receiver times one pointer-chased traversal of a
 * replacement set. Replacing the target set both measures the number of
 * dirty lines the sender left there (each costs the dirty-victim
 * write-back penalty) and re-initializes the set with clean lines, so
 * no separate initialization phase is needed. Two replacement sets are
 * used alternately so the lines being timed always come from L2, not
 * from the L1 they were left in by the previous measurement.
 *
 * The Flushgeist variant (CalibrationProbe::FlushLatency; see
 * chan/degraded.hh) never times loads: per slot it primes the current
 * replacement set untimed, queueing whatever dirty lines the sender
 * left into the write-back buffer, then times a single clflush of a
 * probe line, whose latency carries the queued write-backs' drain.
 */

#ifndef WB_CHAN_RECEIVER_HH
#define WB_CHAN_RECEIVER_HH

#include <vector>

#include "chan/calibration.hh"
#include "chan/paced.hh"
#include "chan/pointer_chase.hh"
#include "common/types.hh"

namespace wb::chan
{

/** Receiver: one timed replacement-set probe per slot. */
class ReceiverProgram : public PacedProgram
{
  public:
    /**
     * @param replacementA replacement set A (line addresses)
     * @param replacementB replacement set B, address-disjoint from A
     * @param tr sampling period in cycles (Algorithm 3's Tr)
     * @param sampleCount observations to record before halting
     * @param warmupSweeps untimed sweeps of both sets at startup (warms
     *        L2 and performs the paper's initialization phase)
     * @param probe what each slot times: the pointer chase (the
     *        paper's receiver) or a clflush after an untimed prime
     */
    ReceiverProgram(std::vector<Addr> replacementA,
                    std::vector<Addr> replacementB, Cycles tr,
                    std::size_t sampleCount, unsigned warmupSweeps = 2,
                    CalibrationProbe probe = CalibrationProbe::LoadTiming);

    /** True once sampleCount observations were recorded. */
    bool done() const { return latencies().size() >= sampleCount_; }

  private:
    /**
     * Slot 0 only waits; every later slot measures what the sender
     * did in the one before it, alternating sets A and B (Algorithm
     * 2), and the slot recording the last sample halts.
     */
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    PointerChase chaseA_;
    PointerChase chaseB_;
    std::size_t sampleCount_;
    CalibrationProbe probe_;
    bool useA_ = true;
    std::vector<Addr> warmupOrder_;
};

} // namespace wb::chan

#endif // WB_CHAN_RECEIVER_HH
