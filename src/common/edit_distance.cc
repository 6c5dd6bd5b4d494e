#include "common/edit_distance.hh"

#include <algorithm>

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

EditBreakdown
editBreakdown(const std::vector<bool> &sent, const std::vector<bool> &received)
{
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    // Full DP table for backtrace, in one row-major allocation;
    // sequences in this project are short (hundreds of bits), so
    // O(n*m) memory is fine.
    const std::size_t cols = m + 1;
    std::vector<std::size_t> d((n + 1) * cols);
    const auto at = [&d, cols](std::size_t i, std::size_t j) -> std::size_t & {
        return d[i * cols + j];
    };
    for (std::size_t i = 0; i <= n; ++i)
        at(i, 0) = i;
    for (std::size_t j = 0; j <= m; ++j)
        at(0, j) = j;
    for (std::size_t i = 1; i <= n; ++i) {
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub =
                at(i - 1, j - 1) + (sent[i - 1] == received[j - 1] ? 0 : 1);
            at(i, j) = std::min({sub, at(i - 1, j) + 1, at(i, j - 1) + 1});
        }
    }

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
