/**
 * @file
 * Wagner-Fischer edit distance over bit sequences.
 *
 * The paper evaluates channel bit error rates with the edit distance
 * between the sent and received sequences (Sec. V), which captures the
 * three transmission error types: bit flips (substitutions), bit
 * insertions, and bit losses (deletions).
 */

#ifndef WB_COMMON_EDIT_DISTANCE_HH
#define WB_COMMON_EDIT_DISTANCE_HH

#include <cstddef>
#include <vector>

namespace wb
{

/** Breakdown of an optimal edit script between two sequences. */
struct EditBreakdown
{
    std::size_t distance = 0;      //!< total edit distance
    std::size_t substitutions = 0; //!< bit flips
    std::size_t insertions = 0;    //!< spurious received bits
    std::size_t deletions = 0;     //!< lost bits
};

/**
 * Classic Wagner-Fischer edit distance (unit costs).
 *
 * @param sent the transmitted sequence
 * @param received the observed sequence
 * @return minimum number of substitutions/insertions/deletions turning
 *         @p sent into @p received
 */
std::size_t editDistance(const std::vector<bool> &sent,
                         const std::vector<bool> &received);

/**
 * Edit distance plus a breakdown into error types from one optimal
 * edit script (backtrace; ties resolved substitution-first). Only a
 * diagonal band of the table as wide as the distance is computed
 * (Ukkonen), with the same result as the full table.
 */
EditBreakdown editBreakdown(const std::vector<bool> &sent,
                            const std::vector<bool> &received);

/**
 * Bit error rate as used in the paper: edit distance divided by the
 * number of transmitted bits. Returns 0 for an empty @p sent.
 */
double bitErrorRate(const std::vector<bool> &sent,
                    const std::vector<bool> &received);

} // namespace wb

#endif // WB_COMMON_EDIT_DISTANCE_HH
