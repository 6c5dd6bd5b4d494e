/**
 * @file
 * The receiver's measurement primitive (paper Fig. 3 / Sec. IV-B).
 *
 * The replacement set is organized as a linked list in random order;
 * each element stores the address of the next, so traversal is a chain
 * of data-dependent loads the hardware cannot reorder or prefetch. The
 * traversal is bracketed by serialized timestamp reads. In simulation
 * the same structure is expressed as a permuted load order whose
 * latencies are summed between two TscRead operations.
 */

#ifndef WB_CHAN_POINTER_CHASE_HH
#define WB_CHAN_POINTER_CHASE_HH

#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

/**
 * A randomly permuted traversal order over a replacement set, with the
 * op sequence to execute one timed measurement.
 */
class PointerChase
{
  public:
    /** @param lines the replacement-set line addresses. */
    explicit PointerChase(std::vector<Addr> lines);

    /** Re-randomize the traversal order (defeats the prefetcher). */
    void reshuffle(Rng &rng);

    /** The current traversal order. */
    const std::vector<Addr> &order() const { return order_; }

    /**
     * The measurement op sequence: TscRead, |lines| dependent loads in
     * the permuted order, TscRead.
     */
    std::vector<sim::MemOp> measurementOps() const;

    /** Number of lines in the set. */
    std::size_t size() const { return order_.size(); }

  private:
    std::vector<Addr> order_;
};

} // namespace wb::chan

#endif // WB_CHAN_POINTER_CHASE_HH
