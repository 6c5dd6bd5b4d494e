/**
 * @file
 * Round-half-away-from-zero for non-negative doubles, without libm.
 *
 * The per-access measurement noise of Hierarchy and MultiCoreSystem
 * rounds a clamped Gaussian deviate to whole cycles on every simulated
 * access. std::lround compiles to a libm call there (x86-64 without
 * SSE4.1 has no rounding instruction), so the noise draw left
 * straight-line code once per access. This helper is the same
 * function written with a truncating conversion and one exact
 * compare.
 */

#ifndef WB_COMMON_ROUND_HH
#define WB_COMMON_ROUND_HH

#include <cstdint>

namespace wb
{

/**
 * std::lround(x) for 0 <= x < 2^63, bit for bit.
 *
 * t = trunc(x) is exact, and so is x - t: for t >= 1, t <= x < 2t
 * (Sterbenz), and for t = 0 it is x itself. So x - t >= 0.5 decides
 * the half-away-from-zero step exactly, including x = k + 0.5, the
 * largest double below 0.5, and x >= 2^52 where every double is an
 * integer (x - t = 0). tests/test_rng.cc checks it against lround.
 */
inline std::uint64_t
roundNonNegative(double x)
{
    const auto t = static_cast<std::int64_t>(x);
    return static_cast<std::uint64_t>(t) +
           (x - static_cast<double>(t) >= 0.5 ? 1u : 0u);
}

} // namespace wb

#endif // WB_COMMON_ROUND_HH
