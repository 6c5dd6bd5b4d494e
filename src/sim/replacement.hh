/**
 * @file
 * Cache replacement policies.
 *
 * One implementation, PolicyTable: a flat, devirtualized table holds
 * the replacement state of *all* sets of a cache level inline (no
 * per-set heap objects, no virtual dispatch): one 64-bit word per set
 * (tree-PLRU bits / MRU bits / NRU bits / LFSR state / stamp clock,
 * interpreted per PolicyKind) plus, for stamp- and RRPV-based
 * policies, one 64-bit word per line. The table does not own them:
 * both are views (ZeroArray) into zero storage its owner keeps, a
 * Cache's one ZeroPages block (common/zero_pages.hh). Only the non-zero
 * initial states are written (LfsrRandom's per-set seeds, drawn in
 * set order, and Srrip's distant RRPVs), so a large table's untouched
 * sets cost nothing, and resetSet() lets the cache reset just the
 * sets it used.
 *
 * Its independent oracle lives under tests/: the naive per-set model
 * in tests/naive_cache.hh, which makes the same Rng draws in the same
 * order and must pick the same victims
 * (tests/test_replacement.cc, tests/test_cache_equivalence.cc).
 *
 * Eligibility is communicated as a 32-bit way bitmask everywhere: bit w
 * set means way w may be evicted (not locked, inside the requesting
 * thread's partition). Associativity is limited to 32 ways.
 *
 * The framework covers every policy the paper discusses:
 *
 *  - TrueLru      — exact LRU stack (Table II row 1)
 *  - TreePlru     — tree pseudo-LRU as modeled on gem5 (Table II row 2)
 *  - BitPlru      — MRU-bit pseudo-LRU variant
 *  - Nru          — not-recently-used (1-bit age)
 *  - Srrip        — 2-bit re-reference interval prediction
 *  - QuadAgeLru   — SRRIP-style stand-in for the undocumented Sandy
 *                   Bridge L1 policy (Table II row 3); see DESIGN.md
 *  - Fifo         — insertion order
 *  - RandomIid    — uniform independent victim (Sec. VI-A formula)
 *  - LfsrRandom   — LFSR clocked on every set access, as in commercial
 *                   "pseudo-random" ARM designs; victim choice is
 *                   correlated with access activity, which biases the
 *                   eviction probabilities (paper Table V)
 */

#ifndef WB_SIM_REPLACEMENT_HH
#define WB_SIM_REPLACEMENT_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/zero_pages.hh"

namespace wb::sim
{

/** Enumerates all implemented replacement policies. */
enum class PolicyKind
{
    TrueLru,
    TreePlru,
    BitPlru,
    Nru,
    Srrip,
    QuadAgeLru,
    Fifo,
    RandomIid,
    LfsrRandom,
};

/** Human-readable policy name ("TreePLRU", ...). */
std::string policyName(PolicyKind kind);

/** Way mask with bits [0, ways) set. @pre ways <= 32. */
constexpr std::uint32_t
wayMaskAll(unsigned ways)
{
    return ways >= 32 ? ~std::uint32_t(0)
                      : ((std::uint32_t(1) << ways) - 1);
}

/** Way mask with bits [lo, hi) set. */
constexpr std::uint32_t
wayMaskRange(unsigned lo, unsigned hi)
{
    return wayMaskAll(hi) & ~wayMaskAll(lo);
}

/** Lowest set way of a non-zero way mask. */
inline unsigned
lowestWay(std::uint32_t mask)
{
    return static_cast<unsigned>(std::countr_zero(mask));
}

namespace detail
{

/** Initial LFSR state after reset (and when no Rng seeds it). */
constexpr std::uint64_t lfsrResetState = 0x2aau;

/** One step of the x^15 + x^14 + 1 maximal-length Fibonacci LFSR. */
inline std::uint64_t
lfsrStep(std::uint64_t s)
{
    const std::uint64_t bit = ((s >> 0) ^ (s >> 1)) & 1u;
    s = (s >> 1) | (bit << 14);
    return s == 0 ? lfsrResetState : s;
}

constexpr unsigned srripBits = 2;
constexpr std::uint64_t srripMax = (1u << srripBits) - 1;

/**
 * Fraction of QuadAgeLru fills whose tree update is perturbed.
 * QuadAgeLru stands in for the undocumented Sandy Bridge L1D policy
 * (paper Table II, "Intel Xeon E5-2650" row): tree-PLRU whose state is
 * perturbed by the rest of the core (TLB walks, instruction-side
 * traffic, the sibling thread), modeled as a random tree-bit flip on
 * this fraction of fills. A recently written line then survives an
 * 8- or 9-line sweep with sizable probability but is gone after 10+;
 * the exact percentages are calibration, not microarchitecture (see
 * DESIGN.md and bench/table2_eviction).
 */
constexpr double quadAgePerturbProb = 0.55;

} // namespace detail

/**
 * Flat replacement state for every set of one cache level.
 *
 * The owning cache calls onFill()/onHit() to keep the state current and
 * victim() to pick a way when the set is full. Ways holding locked
 * lines (PLcache) or outside the requesting thread's partition
 * (NoMo/DAWG) are excluded via the eligibility bitmask.
 */
class PolicyTable
{
  public:
    /**
     * @param kind which policy governs every set
     * @param ways set associativity (power of two required by the tree
     *        policies; at most 32)
     * @param rng randomness source; required by RandomIid, used for
     *        seeding LfsrRandom and perturbing QuadAgeLru; may be
     *        nullptr for fully deterministic policies
     * @param setWord one zero word per set (setWordBytes); its length
     *        is the set count
     * @param lineWord one zero word per line (lineWordBytes), empty
     *        when @p kind keeps none
     *
     * The storage behind both views must outlive the table.
     */
    PolicyTable(PolicyKind kind, unsigned ways, Rng *rng,
                ZeroArray<std::uint64_t> setWord,
                ZeroArray<std::uint64_t> lineWord);

    /** Bytes of the per-set word array for @p sets sets. */
    static std::size_t setWordBytes(unsigned sets);

    /** Bytes of the per-line word array (0 when @p kind keeps none). */
    static std::size_t lineWordBytes(PolicyKind kind, unsigned sets,
                                     unsigned ways);

    /** Reset every set to the initial (power-on) state. */
    void reset();

    /**
     * Reset @p set alone: zero words, or LfsrRandom's constant reset
     * state and Srrip's distant RRPVs. A Cache resets only the sets it
     * used since the last reset.
     */
    void resetSet(unsigned set);

    /** The per-set words, for comparing two tables' states. */
    const ZeroArray<std::uint64_t> &setWords() const { return setWord_; }

    /** The per-line words (empty when the policy keeps none). */
    const ZeroArray<std::uint64_t> &lineWords() const { return lineWord_; }

    /** Note that @p way of @p set was just filled with a new line. */
    void onFill(unsigned set, unsigned way);

    /** Note a hit on @p way of @p set. */
    void onHit(unsigned set, unsigned way);

    /**
     * Choose a victim among eligible ways of @p set.
     *
     * @param eligibleMask per-way eligibility (bit w set = way w may be
     *        evicted); must be non-zero.
     * @return the victim way index
     */
    unsigned victim(unsigned set, std::uint32_t eligibleMask);

  private:
    /** Promote @p way to most-recently-used (tree/MRU-bit policies). */
    void touch(unsigned set, unsigned way);

    /** BitPlru: set @p way's MRU bit, restarting a saturated set. */
    void touchBitPlru(unsigned set, unsigned way);

    /** TreePlru fallback when the PLRU leaf is ineligible (cold). */
    unsigned bestAgreement(std::uint64_t bits,
                           std::uint32_t eligibleMask) const;

    /**
     * bestAgreement(bits, @p eligibleMask) for every bit pattern of a
     * tree of at most 7 nodes, indexed by bits; built on the mask's
     * first use by calling bestAgreement once per pattern.
     */
    const std::uint8_t *agreementLut(std::uint32_t eligibleMask);

    /** Uncommon victim cases kept out of line (SRRIP aging, random). */
    unsigned victimSlow(unsigned set, std::uint32_t eligibleMask);

    PolicyKind kind_;
    unsigned ways_;
    unsigned nodes_; //!< tree node count for the PLRU policies
    Rng *rng_;

    /**
     * Tree-policy fast paths, precomputed at construction: promoting
     * way w flips a fixed set of tree bits to fixed values, so
     * touch() is one masked assign (touchMask_/touchVal_, indexed by
     * way); and for trees of at most 7 nodes (<= 8 ways) the
     * bits -> leaf walk is a 128-entry lookup (victimLut_).
     */
    std::vector<std::uint64_t> touchMask_;
    std::vector<std::uint64_t> touchVal_;
    std::vector<std::uint8_t> victimLut_;

    /**
     * TreePlru's ineligible-leaf fallback for the same small trees:
     * one victimLut_-sized table per distinct eligible mask (a
     * partitioned cache uses one or two), stored back to back in
     * agreeLut_. agreeSlot_[mask] is 1 + the mask's table index, 0
     * until the mask first reaches the fallback; both stay empty in a
     * cache whose fills never do.
     */
    std::vector<std::uint16_t> agreeSlot_;
    std::vector<std::uint8_t> agreeLut_;

    /**
     * One word per set: tree bits (TreePlru/QuadAgeLru), MRU bits
     * (BitPlru), reference bits (Nru), LFSR state (LfsrRandom), or the
     * recency/insertion clock (TrueLru/Fifo). Zero-page backed: only
     * LfsrRandom's per-set seeds are written at construction.
     */
    ZeroArray<std::uint64_t> setWord_;

    /**
     * One word per line (set * ways + way), allocated only when the
     * policy needs per-line state: recency stamps (TrueLru), insertion
     * stamps (Fifo), or RRPV counters (Srrip, written to srripMax at
     * construction and on reset; the others start at zero).
     */
    ZeroArray<std::uint64_t> lineWord_;
};

// ------------------------------------------------------------------
// PolicyTable hot-path definitions. Kept in the header so the owning
// cache's per-access calls inline (the whole point of devirtualizing).

inline void
PolicyTable::touch(unsigned set, unsigned way)
{
    // Point every parent on way's root path at the sibling subtree:
    // fixed bits to fixed values, precomputed at construction.
    setWord_[set] =
        (setWord_[set] & ~touchMask_[way]) | touchVal_[way];
}

inline void
PolicyTable::touchBitPlru(unsigned set, unsigned way)
{
    std::uint64_t mru = setWord_[set] | (std::uint64_t(1) << way);
    if (mru == wayMaskAll(ways_))
        mru = std::uint64_t(1) << way;
    setWord_[set] = mru;
}

inline void
PolicyTable::onFill(unsigned set, unsigned way)
{
    switch (kind_) {
      case PolicyKind::TrueLru:
      case PolicyKind::Fifo:
        lineWord_[std::size_t(set) * ways_ + way] = ++setWord_[set];
        break;
      case PolicyKind::TreePlru:
        touch(set, way);
        break;
      case PolicyKind::BitPlru:
        touchBitPlru(set, way);
        break;
      case PolicyKind::Nru:
        setWord_[set] |= std::uint64_t(1) << way;
        break;
      case PolicyKind::Srrip:
        lineWord_[std::size_t(set) * ways_ + way] = detail::srripMax - 1;
        break;
      case PolicyKind::QuadAgeLru:
        touch(set, way);
        if (rng_ != nullptr && rng_->chance(detail::quadAgePerturbProb)) {
            const auto node = rng_->below(nodes_);
            setWord_[set] ^= std::uint64_t(1) << node;
        }
        break;
      case PolicyKind::RandomIid:
        break;
      case PolicyKind::LfsrRandom:
        setWord_[set] = detail::lfsrStep(setWord_[set]);
        break;
    }
}

inline void
PolicyTable::onHit(unsigned set, unsigned way)
{
    switch (kind_) {
      case PolicyKind::TrueLru:
        lineWord_[std::size_t(set) * ways_ + way] = ++setWord_[set];
        break;
      case PolicyKind::TreePlru:
      case PolicyKind::QuadAgeLru:
        touch(set, way);
        break;
      case PolicyKind::BitPlru:
        touchBitPlru(set, way);
        break;
      case PolicyKind::Nru:
        setWord_[set] |= std::uint64_t(1) << way;
        break;
      case PolicyKind::Srrip:
        lineWord_[std::size_t(set) * ways_ + way] = 0;
        break;
      case PolicyKind::Fifo:
      case PolicyKind::RandomIid:
        break;
      case PolicyKind::LfsrRandom:
        setWord_[set] = detail::lfsrStep(setWord_[set]);
        break;
    }
}

inline unsigned
PolicyTable::victim(unsigned set, std::uint32_t eligibleMask)
{
    eligibleMask &= wayMaskAll(ways_);
    switch (kind_) {
      case PolicyKind::TrueLru:
      case PolicyKind::Fifo: {
        if (eligibleMask == 0)
            break;
        const std::uint64_t *stamp =
            &lineWord_[std::size_t(set) * ways_];
        unsigned best = 0;
        std::uint64_t bestStamp = ~std::uint64_t(0);
        for (std::uint32_t m = eligibleMask; m != 0; m &= m - 1) {
            const unsigned w = lowestWay(m);
            if (stamp[w] < bestStamp) {
                bestStamp = stamp[w];
                best = w;
            }
        }
        return best;
      }
      case PolicyKind::TreePlru:
      case PolicyKind::QuadAgeLru: {
        if (eligibleMask == 0)
            break;
        const std::uint64_t bits = setWord_[set];
        unsigned leaf;
        if (!victimLut_.empty()) {
            leaf = victimLut_[bits & (victimLut_.size() - 1)];
        } else {
            unsigned node = 0;
            while (node < nodes_)
                node = 2 * node + 1 +
                       static_cast<unsigned>((bits >> node) & 1);
            leaf = node - nodes_;
        }
        if ((eligibleMask >> leaf) & 1)
            return leaf;
        break; // ineligible PLRU leaf: out-of-line fallback
      }
      case PolicyKind::BitPlru: {
        if (eligibleMask == 0)
            break;
        const auto mru = static_cast<std::uint32_t>(setWord_[set]);
        const std::uint32_t notMru = eligibleMask & ~mru;
        return lowestWay(notMru != 0 ? notMru : eligibleMask);
      }
      case PolicyKind::Nru: {
        if (eligibleMask == 0)
            break;
        const auto recent = static_cast<std::uint32_t>(setWord_[set]);
        const std::uint32_t old = eligibleMask & ~recent;
        if (old != 0)
            return lowestWay(old);
        // Aging pass: clear all reference bits; every way qualifies.
        setWord_[set] = 0;
        return lowestWay(eligibleMask);
      }
      default:
        break; // stateful-search and stochastic policies
    }
    return victimSlow(set, eligibleMask);
}

} // namespace wb::sim

#endif // WB_SIM_REPLACEMENT_HH
