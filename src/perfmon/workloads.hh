/**
 * @file
 * Benign workloads the detection experiments must tell apart from the
 * covert channels (paper Table VII compares the WB sender against
 * `sender & g++`). Used by both the offline trace collector
 * (perfmon/detector.hh) and the online detection scenarios
 * (perfmon/arms_race.hh).
 *
 * CompilerWorkload approximates a compiler's cache behaviour: a
 * pointer-heavy random walk over an AST-sized working set interleaved
 * with streaming passes over a larger buffer, plus a store share. Its
 * working set straddles L1 and L2 so a co-scheduled process sees real
 * L1/L2 contention.
 */

#ifndef WB_PERFMON_WORKLOADS_HH
#define WB_PERFMON_WORKLOADS_HH

#include <array>
#include <vector>

#include "chan/paced.hh"
#include "common/types.hh"
#include "sim/smt_core.hh"

namespace wb::perfmon
{

/** Compiler-like mixed workload (runs forever; stopped by horizon). */
class CompilerWorkload : public sim::Program
{
  public:
    /**
     * Workload shape parameters. The default working set (96 KiB walk
     * + 128 KiB stream) exceeds the L1 by ~7x but stays L2-resident,
     * so the workload runs at L2 speed and exerts heavy, continuous
     * L1 pressure on a co-scheduled hyper-thread — the behaviour that
     * makes a benign compiler look worse than the WB receiver in the
     * paper's Table VII comparison.
     */
    struct Params
    {
        unsigned walkLines = 1536;    //!< AST walk working set (96 KiB)
        unsigned streamLines = 4096;  //!< streaming buffer (256 KiB)
        unsigned walkBurst = 768;     //!< walk accesses per phase
        unsigned streamBurst = 256;   //!< stream accesses per phase
        double storeFraction = 0.25;  //!< stores among walk accesses
    };

    /** Construct with default parameters. */
    CompilerWorkload();

    /** Construct with explicit parameters. */
    explicit CompilerWorkload(const Params &params);

    /** The next phase (a walk or a stream burst) as one trace. */
    const sim::Trace *nextTrace(sim::ProcView &view) override;

  private:
    Params params_;
    bool walking_ = true;
    Addr streamPos_ = 0;
    std::uint64_t walkState_ = 0x1234567;
    std::vector<sim::MemOp> ops_; //!< the current phase
    sim::Trace trace_;
};

/**
 * A process that only busy-waits (periodic wakeups, no data work): the
 * "idle" half of benign pairs in both the offline trace collector and
 * the online detection scenarios. Its only perf-visible footprint is
 * spin loads.
 */
class Spinner : public chan::PacedProgram
{
  public:
    /** @param period cycles between wakeups. */
    explicit Spinner(Cycles period) : PacedProgram(period) {}

  protected:
    /** Empty slots: Algorithm 3's spin and re-base alone. */
    void
    buildSlot(std::size_t, const sim::OpResult &, sim::ProcView &) override
    {
    }
};

/** Pure streaming workload (memory bandwidth bound). */
class StreamingWorkload : public sim::Program
{
  public:
    /** @param lines buffer size in cache lines. */
    explicit StreamingWorkload(unsigned lines = 16384) : lines_(lines) {}

    /** The next kChunk loads of the sweep as one trace. */
    const sim::Trace *
    nextTrace(sim::ProcView &) override
    {
        for (sim::MemOp &op : ops_) {
            op = sim::MemOp::pipelinedLoad(0x4000000 +
                                           (pos_ % lines_) * lineBytes);
            ++pos_;
        }
        trace_ = {ops_.data(), ops_.size(), nullptr, 0};
        return &trace_;
    }

  private:
    /** Loads per compiled trace. */
    static constexpr std::size_t kChunk = 128;

    unsigned lines_;
    Addr pos_ = 0;
    std::array<sim::MemOp, kChunk> ops_{};
    sim::Trace trace_;
};

} // namespace wb::perfmon

#endif // WB_PERFMON_WORKLOADS_HH
