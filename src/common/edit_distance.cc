#include "common/edit_distance.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace wb
{

std::size_t
editDistance(const std::vector<bool> &sent, const std::vector<bool> &received)
{
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    // Two-row rolling DP keeps memory at O(m).
    std::vector<std::size_t> prev(m + 1), cur(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub =
                prev[j - 1] + (sent[i - 1] == received[j - 1] ? 0 : 1);
            cur[j] = std::min({sub, prev[j] + 1, cur[j - 1] + 1});
        }
        std::swap(prev, cur);
    }
    return prev[m];
}

namespace
{

/** Value of a cell the band leaves out (never on an optimal path). */
constexpr std::size_t kFar = std::numeric_limits<std::size_t>::max() / 2;

/**
 * The Wagner-Fischer table restricted to the diagonal band
 * |i - j| <= k. Cell (i, j) sits in row i at column j - i + k + 1;
 * columns 0 and 2k + 2 stay kFar, so the fill reads its out-of-band
 * neighbours without a branch.
 */
class BandTable
{
  public:
    /**
     * Fill the band of @p sent x @p received for half-width @p k.
     * @return the corner cell (n, m); the caller keeps k >= |n - m|.
     */
    std::size_t
    fill(const std::vector<std::uint8_t> &sent,
         const std::vector<std::uint8_t> &received, std::size_t k)
    {
        const std::size_t n = sent.size();
        const std::size_t m = received.size();
        k_ = k;
        stride_ = 2 * k + 3;
        d_.assign((n + 1) * stride_, kFar);
        for (std::size_t j = 0; j <= std::min(m, k); ++j)
            d_[j + k + 1] = j;
        for (std::size_t i = 1; i <= n; ++i) {
            std::size_t *cur = &d_[i * stride_];
            const std::size_t *prev = cur - stride_;
            std::size_t j = i > k ? i - k : 0;
            if (j == 0) {
                cur[k + 1 - i] = i;
                j = 1;
            }
            const std::uint8_t s = sent[i - 1];
            for (const std::size_t hi = std::min(m, i + k); j <= hi; ++j) {
                const std::size_t c = j + k + 1 - i;
                cur[c] = std::min({prev[c] + (s == received[j - 1] ? 0 : 1),
                                   prev[c + 1] + 1, cur[c - 1] + 1});
            }
        }
        return at(n, m);
    }

    /** Cell (i, j); kFar outside the band. */
    std::size_t
    at(std::size_t i, std::size_t j) const
    {
        if (j + k_ < i || j > i + k_)
            return kFar;
        return d_[i * stride_ + j + k_ + 1 - i];
    }

  private:
    std::size_t k_ = 0;
    std::size_t stride_ = 3;
    std::vector<std::size_t> d_;
};

} // namespace

EditBreakdown
editBreakdown(const std::vector<bool> &sent, const std::vector<bool> &received)
{
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    // Bytes, not packed bits: the fill reads one of each per cell.
    const std::vector<std::uint8_t> sentBytes(sent.begin(), sent.end());
    const std::vector<std::uint8_t> receivedBytes(received.begin(),
                                                  received.end());
    // Ukkonen's band: every cell on an optimal path has
    // |i - j| <= distance, so a band of half-width k >= distance holds
    // each such cell at its full-table value. A cell it leaves out, or
    // holds above k, can never equal a path cell's value minus its
    // step cost, so the backtrace below takes the same steps as over
    // the full table. A narrow band settles a frame with few errors in
    // one pass; otherwise its corner, the cost of an edit script that
    // stays inside it, bounds the distance, and a second pass that
    // wide is exact.
    BandTable band;
    const std::size_t k = std::max<std::size_t>(n > m ? n - m : m - n, 4);
    const std::size_t corner = band.fill(sentBytes, receivedBytes, k);
    if (corner > k)
        band.fill(sentBytes, receivedBytes, corner);
    const auto at = [&band](std::size_t i, std::size_t j) {
        return band.at(i, j);
    };

    EditBreakdown out;
    out.distance = at(n, m);
    std::size_t i = n, j = m;
    while (i > 0 || j > 0) {
        if (i > 0 && j > 0 &&
            at(i, j) == at(i - 1, j - 1) +
                (sent[i - 1] == received[j - 1] ? 0 : 1)) {
            if (sent[i - 1] != received[j - 1])
                ++out.substitutions;
            --i;
            --j;
        } else if (i > 0 && at(i, j) == at(i - 1, j) + 1) {
            ++out.deletions;
            --i;
        } else {
            ++out.insertions;
            --j;
        }
    }
    return out;
}

double
bitErrorRate(const std::vector<bool> &sent, const std::vector<bool> &received)
{
    if (sent.empty())
        return 0.0;
    return static_cast<double>(editDistance(sent, received)) /
           static_cast<double>(sent.size());
}

} // namespace wb
