/**
 * @file
 * Noisy-cache-line processes (paper Sec. VI / Fig. 8).
 *
 * A noise process models "another part of the program or other
 * processes on the core" periodically loading (or, rarely, storing)
 * lines that map to the target set. Clean noisy lines break the LRU
 * channel but not the WB channel; dirty noisy lines (stores) are the
 * one interference source the WB channel admits.
 */

#ifndef WB_CHAN_NOISE_PROCESS_HH
#define WB_CHAN_NOISE_PROCESS_HH

#include <vector>

#include "chan/paced.hh"
#include "common/types.hh"

namespace wb::chan
{

/** Noise process parameters. */
struct NoiseProcessConfig
{
    Cycles period = 15000;     //!< cycles between bursts
    unsigned burstLines = 1;   //!< lines touched per burst
    double storeFraction = 0.0; //!< probability a touch is a store
};

/**
 * The noise program: periodic bursts of target-set accesses, issued
 * as batched load/store sweeps.
 */
class NoiseProcess : public PacedProgram
{
  public:
    /**
     * @param lines noise lines mapping to the target set (own space)
     * @param cfg burst timing/composition
     */
    NoiseProcess(std::vector<Addr> lines, const NoiseProcessConfig &cfg);

    /** Total accesses issued. */
    std::uint64_t accesses() const { return accesses_; }

  private:
    /** A run of consecutive same-kind touches within one burst. */
    struct BurstRun
    {
        bool isStore = false;
        std::vector<Addr> lines;
    };

    /**
     * Slot 0 only waits; every later slot draws its burst's load/store
     * decisions (per line, as the scalar path did) and issues each run
     * of consecutive same-kind touches as one batched sweep,
     * preserving the original line order.
     */
    void buildSlot(std::size_t index, const sim::OpResult &start,
                   sim::ProcView &view) override;

    void onOpResult(const sim::OpResult &res, sim::ProcView &view) override;

    std::vector<Addr> lines_;
    NoiseProcessConfig cfg_;
    std::size_t nextLine_ = 0;
    std::vector<BurstRun> runs_; //!< this burst's batched sweeps
    std::uint64_t accesses_ = 0;
};

} // namespace wb::chan

#endif // WB_CHAN_NOISE_PROCESS_HH
