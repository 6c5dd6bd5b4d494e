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
 * compare. roundPositivePart() adds the noise draw's clamp at zero
 * without a branch.
 */

#ifndef WB_COMMON_ROUND_HH
#define WB_COMMON_ROUND_HH

#include <bit>
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

/**
 * std::lround(std::max(x, 0.0)) for x < 2^63, bit for bit, with no
 * branch on the sign.
 *
 * The per-access noise clamps a Gaussian deviate whose sign is a coin
 * flip, so a sign branch there mispredicts every other access. gcc 12
 * at -O3 turns roundNonNegative(std::max(x, 0.0)) into exactly that
 * branch (comisd; ja: it sees the result is 0 for x <= 0). Clearing
 * every bit of a negative x instead (sign bit set, so the arithmetic
 * shift yields an all-ones mask) maps -0.0 and every x < 0 to +0.0,
 * and leaves x >= +0.0 untouched, with integer ops the optimiser does
 * not turn back into a compare. tests/test_rng.cc checks it against
 * lround(max(x, 0)).
 */
inline std::uint64_t
roundPositivePart(double x)
{
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const auto negative = static_cast<std::uint64_t>(
        std::bit_cast<std::int64_t>(bits) >> 63);
    return roundNonNegative(std::bit_cast<double>(bits & ~negative));
}

} // namespace wb

#endif // WB_COMMON_ROUND_HH
