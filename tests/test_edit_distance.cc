/**
 * @file
 * Unit and property tests for the Wagner-Fischer edit distance
 * (common/edit_distance.hh), the paper's BER metric.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/bitvec.hh"
#include "common/edit_distance.hh"
#include "common/rng.hh"

namespace wb
{
namespace
{

BitVec
bits(const std::string &s)
{
    return fromBitString(s);
}

TEST(EditDistance, IdenticalIsZero)
{
    EXPECT_EQ(editDistance(bits("101010"), bits("101010")), 0u);
    EXPECT_EQ(editDistance({}, {}), 0u);
}

TEST(EditDistance, EmptyVsNonEmpty)
{
    EXPECT_EQ(editDistance({}, bits("1011")), 4u);
    EXPECT_EQ(editDistance(bits("1011"), {}), 4u); // deletion of all
}

TEST(EditDistance, SingleSubstitution)
{
    EXPECT_EQ(editDistance(bits("1010"), bits("1110")), 1u);
}

TEST(EditDistance, SingleInsertion)
{
    EXPECT_EQ(editDistance(bits("1010"), bits("10110")), 1u);
}

TEST(EditDistance, SingleDeletion)
{
    EXPECT_EQ(editDistance(bits("1010"), bits("110")), 1u);
}

TEST(EditDistance, ShiftCostsTwo)
{
    // A one-position shift inside a fixed-length window costs one
    // deletion plus one insertion.
    EXPECT_EQ(editDistance(bits("11001"), bits("10011")), 2u);
}

TEST(EditDistance, Symmetric)
{
    Rng rng(3);
    for (int i = 0; i < 30; ++i) {
        const BitVec a = randomBits(20, rng);
        const BitVec b = randomBits(23, rng);
        EXPECT_EQ(editDistance(a, b), editDistance(b, a));
    }
}

TEST(EditDistance, BoundedByLongerLength)
{
    Rng rng(5);
    for (int i = 0; i < 30; ++i) {
        const BitVec a = randomBits(15, rng);
        const BitVec b = randomBits(40, rng);
        EXPECT_LE(editDistance(a, b), 40u);
        EXPECT_GE(editDistance(a, b), 25u); // at least the length gap
    }
}

TEST(EditBreakdown, SumsToDistance)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        const BitVec a = randomBits(30, rng);
        const BitVec b = randomBits(28 + (i % 5), rng);
        const auto br = editBreakdown(a, b);
        EXPECT_EQ(br.distance, editDistance(a, b));
        EXPECT_EQ(br.substitutions + br.insertions + br.deletions,
                  br.distance);
    }
}

TEST(EditBreakdown, PureSubstitutions)
{
    const auto br = editBreakdown(bits("0000"), bits("1111"));
    EXPECT_EQ(br.distance, 4u);
    EXPECT_EQ(br.substitutions, 4u);
    EXPECT_EQ(br.insertions, 0u);
    EXPECT_EQ(br.deletions, 0u);
}

TEST(EditBreakdown, LengthDeltaShowsUp)
{
    const auto br = editBreakdown(bits("1111"), bits("111111"));
    EXPECT_EQ(br.insertions, 2u);
    EXPECT_EQ(br.deletions, 0u);
}

/**
 * Naive oracle: the full textbook table of row vectors with the same
 * tie-break order (diagonal, then deletion, then insertion) in the
 * backtrace, so a storage change in editBreakdown cannot move a
 * single count.
 */
EditBreakdown
referenceBreakdown(const BitVec &a, const BitVec &b)
{
    const std::size_t n = a.size(), m = b.size();
    std::vector<std::vector<std::size_t>> d(
        n + 1, std::vector<std::size_t>(m + 1, 0));
    for (std::size_t i = 0; i <= n; ++i)
        d[i][0] = i;
    for (std::size_t j = 0; j <= m; ++j)
        d[0][j] = j;
    for (std::size_t i = 1; i <= n; ++i)
        for (std::size_t j = 1; j <= m; ++j)
            d[i][j] = std::min({d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                                d[i - 1][j] + 1, d[i][j - 1] + 1});
    EditBreakdown out;
    out.distance = d[n][m];
    std::size_t i = n, j = m;
    while (i > 0 || j > 0) {
        if (i > 0 && j > 0 &&
            d[i][j] == d[i - 1][j - 1] + (a[i - 1] != b[j - 1])) {
            out.substitutions += a[i - 1] != b[j - 1];
            --i;
            --j;
        } else if (i > 0 && d[i][j] == d[i - 1][j] + 1) {
            ++out.deletions;
            --i;
        } else {
            ++out.insertions;
            --j;
        }
    }
    return out;
}

TEST(EditBreakdown, RandomPairsMatchDistanceAndBacktrace)
{
    Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        const BitVec a = randomBits(rng.below(160), rng);
        // Half the pairs are noisy copies (sparse flips, drops and
        // spurious bits, like a decoded frame), half unrelated.
        BitVec b;
        if (trial % 2 == 0) {
            for (bool bit : a) {
                const unsigned r = rng.below(40);
                if (r == 0)
                    continue; // dropped
                b.push_back(r == 1 ? !bit : bit);
                if (r == 2)
                    b.push_back(rng.flip()); // spurious
            }
        } else {
            b = randomBits(rng.below(160), rng);
        }
        const auto br = editBreakdown(a, b);
        const auto ref = referenceBreakdown(a, b);
        EXPECT_EQ(br.distance, editDistance(a, b));
        EXPECT_EQ(br.substitutions + br.insertions + br.deletions,
                  br.distance);
        // The backtrace's length bookkeeping: every insertion adds a
        // received bit, every deletion drops a sent one.
        EXPECT_EQ(b.size() + br.deletions, a.size() + br.insertions);
        EXPECT_EQ(br.substitutions, ref.substitutions);
        EXPECT_EQ(br.insertions, ref.insertions);
        EXPECT_EQ(br.deletions, ref.deletions);
    }
}

/**
 * One random pair of the banded-table sweep, drawn from the shapes a
 * decoded frame takes and the band's edge cases: sparse flips on
 * equal lengths, unrelated sequences, an empty side, every bit
 * flipped, and insertion or deletion bursts.
 */
std::pair<BitVec, BitVec>
bandCasePair(unsigned shape, Rng &rng)
{
    BitVec a = randomBits(rng.below(65), rng);
    BitVec b = a;
    switch (shape) {
      case 0: // sparse flips, equal lengths
        for (std::size_t i = 0; i < b.size(); ++i)
            if (rng.below(16) == 0)
                b[i] = !b[i];
        break;
      case 1: // unrelated, any lengths
        b = randomBits(rng.below(65), rng);
        break;
      case 2: // one side (or both) empty
        if (rng.flip())
            a.clear();
        else
            b.clear();
        if (rng.below(8) == 0)
            a.clear(), b.clear();
        break;
      case 3: // every bit flipped
        for (std::size_t i = 0; i < b.size(); ++i)
            b[i] = !b[i];
        break;
      case 4: { // an insertion burst
        const std::size_t at = rng.below(b.size() + 1);
        const BitVec burst = randomBits(1 + rng.below(24), rng);
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), burst.begin(),
                 burst.end());
        break;
      }
      default: { // a deletion burst, plus a few flips
        const std::size_t at = rng.below(b.size() + 1);
        const std::size_t len =
            std::min<std::size_t>(b.size() - at, 1 + rng.below(24));
        b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
                b.begin() + static_cast<std::ptrdiff_t>(at + len));
        for (std::size_t i = 0; i < b.size(); ++i)
            if (rng.below(32) == 0)
                b[i] = !b[i];
        break;
      }
    }
    return {a, b};
}

/**
 * editBreakdown computes only a diagonal band of the table; 10^5
 * pairs must give the full table's distance and the same split into
 * substitutions, insertions and deletions.
 */
TEST(EditBreakdown, BandMatchesFullTable)
{
    Rng rng(23);
    for (unsigned trial = 0; trial < 100'000; ++trial) {
        const auto [a, b] = bandCasePair(trial % 6, rng);
        const auto br = editBreakdown(a, b);
        const auto ref = referenceBreakdown(a, b);
        ASSERT_EQ(br.distance, ref.distance) << "trial " << trial;
        ASSERT_EQ(br.substitutions, ref.substitutions) << "trial " << trial;
        ASSERT_EQ(br.insertions, ref.insertions) << "trial " << trial;
        ASSERT_EQ(br.deletions, ref.deletions) << "trial " << trial;
    }
}

TEST(BitErrorRate, Values)
{
    EXPECT_DOUBLE_EQ(bitErrorRate(bits("1111"), bits("1111")), 0.0);
    EXPECT_DOUBLE_EQ(bitErrorRate(bits("1111"), bits("0000")), 1.0);
    EXPECT_DOUBLE_EQ(bitErrorRate(bits("1010"), bits("1011")), 0.25);
    EXPECT_DOUBLE_EQ(bitErrorRate({}, bits("1")), 0.0);
}

/** Property sweep: planting k flips yields distance <= k (and == k
 * when flips are isolated). */
class EditDistanceFlips : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EditDistanceFlips, PlantedFlipsBounded)
{
    const unsigned k = GetParam();
    Rng rng(100 + k);
    BitVec a = randomBits(64, rng);
    BitVec b = a;
    // Flip k well-separated positions.
    for (unsigned i = 0; i < k; ++i)
        b[i * 5] = !b[i * 5];
    EXPECT_EQ(editDistance(a, b), k);
    const auto br = editBreakdown(a, b);
    EXPECT_EQ(br.substitutions, k);
}

INSTANTIATE_TEST_SUITE_P(Flips, EditDistanceFlips,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u, 12u));

} // namespace
} // namespace wb
