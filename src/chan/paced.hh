/**
 * @file
 * Algorithm 3, written once: the base of every TSC-paced sender and
 * receiver (the WB channel's and the baselines').
 *
 * Every party in the paper paces itself the same way:
 *
 *     Tlast = TSC;
 *     loop { <slot body>; while (TSC < Tlast + T); Tlast = TSC; }
 *
 * PacedProgram owns that loop: the startup ops (warm-up sweeps) and
 * the initial TSC read, the spin to Tlast + T after each slot body,
 * the re-base of Tlast on the post-spin TSC, the halt after the last
 * slot, and timed windows (a TSC pair whose signed difference is one
 * latency sample). A subclass supplies only its slot body and result
 * hooks.
 *
 * The body of a slot is built once, at the op result that starts the
 * slot (the initial TSC read or the previous slot's spin), as a list
 * of ops with hook marks, and handed to the core as one compiled trace
 * whose result points are the hooked ops (docs/ENGINE.md).
 */

#ifndef WB_CHAN_PACED_HH
#define WB_CHAN_PACED_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

/** A TSC-paced program: slot bodies separated by Algorithm 3 spins. */
class PacedProgram : public sim::Program
{
  public:
    const sim::Trace *nextTrace(sim::ProcView &view) final;
    void onTraceResult(std::uint32_t opIdx, const sim::MemOp &op,
                       const sim::OpResult &res,
                       sim::ProcView &view) final;

    /** One signed latency per closed timed window, in order. */
    const std::vector<double> &latencies() const { return latencies_; }

    /** Virtual time at which each latency was recorded. */
    const std::vector<Cycles> &sampleTimes() const { return sampleTimes_; }

  protected:
    /**
     * @param period slot period T (Algorithm 3's Ts or Tr)
     * @param measNoise add the platform's NoiseModel::measSigma(T)
     *        Gaussian to every latency sample (the WB receivers do;
     *        the baseline receivers record the raw TSC difference)
     */
    explicit PacedProgram(Cycles period, bool measNoise = false);

    /**
     * Build slot @p index's body with op(), openWindow()/closeWindow(),
     * hammer() and halt(). Slot 0 starts at the initial TSC read's
     * result; slot k > 0 at the result of slot k - 1's spin (@p start
     * is that op's result). Tlast is already re-based, and any RNG
     * draw made here lands at that op result. Unless the body ends in
     * halt(), the base appends the spin to Tlast + T.
     */
    virtual void buildSlot(std::size_t index, const sim::OpResult &start,
                           sim::ProcView &view) = 0;

    /** A timed window closed: latencies().back() is its sample. */
    virtual void
    onSample(sim::ProcView &view)
    {
        (void)view;
    }

    /** Result of an op added with op(op, true). */
    virtual void
    onOpResult(const sim::OpResult &res, sim::ProcView &view)
    {
        (void)res;
        (void)view;
    }

    /** Queue an untimed op before the initial TSC read (constructors). */
    void startupOp(const sim::MemOp &op);

    /** Append an op to the body; @p hooked delivers it to onOpResult. */
    void
    op(const sim::MemOp &op, bool hooked = false)
    {
        push(op, hooked ? Hook::Op : Hook::None);
    }

    /** Append the TSC read that opens a timed window. */
    void openWindow() { push(sim::MemOp::tscRead(), Hook::WindowOpen); }

    /** Append the TSC read that closes it and records one sample. */
    void closeWindow() { push(sim::MemOp::tscRead(), Hook::WindowClose); }

    /**
     * Append pipelined loads of @p line repeated while the thread's
     * clock is below @p until (a sender hammering until a deadline).
     */
    void
    hammer(Addr line, Cycles until)
    {
        push(sim::MemOp::loadUntil(line, until), Hook::None);
    }

    /** End the program after the body instead of spinning. */
    void halt() { push(sim::MemOp::halt(), Hook::None); }

    /** Tlast: the TSC reading the current slot started at. */
    Cycles tlast() const { return tlast_; }

    /** The slot period T. */
    Cycles period() const { return period_; }

    /** Index of the current slot (= slots completed). */
    std::size_t slotIndex() const { return slot_; }

  private:
    /** What the base does with an op's result. */
    enum class Hook : std::uint8_t
    {
        None,
        Op,          //!< onOpResult
        WindowOpen,  //!< remember the window's start TSC
        WindowClose, //!< record one latency sample
        Start,       //!< initial TSC read: Tlast, build slot 0
        Spin         //!< slot spin: Tlast, build the next slot
    };

    void
    push(const sim::MemOp &op, Hook hook)
    {
        if (hook != Hook::None)
            points_.push_back(static_cast<std::uint32_t>(ops_.size()));
        ops_.push_back(op);
        hooks_.push_back(hook);
    }

    /** Run the hook of body op @p at. */
    void dispatch(std::size_t at, const sim::OpResult &res,
                  sim::ProcView &view);

    Cycles period_;
    bool measNoise_;

    std::vector<sim::MemOp> ops_;       //!< the current body
    std::vector<Hook> hooks_;           //!< one per op
    std::vector<std::uint32_t> points_; //!< hooked ops (trace results)

    Cycles tlast_ = 0;
    std::size_t slot_ = 0;
    Cycles windowStart_ = 0;
    std::vector<double> latencies_;
    std::vector<Cycles> sampleTimes_;

    sim::Trace trace_;
};

} // namespace wb::chan

#endif // WB_CHAN_PACED_HH
