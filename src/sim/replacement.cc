#include "sim/replacement.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace wb::sim
{

namespace
{

using detail::lfsrResetState;
using detail::lfsrStep;
using detail::quadAgePerturbProb;
using detail::srripMax;

} // namespace

// ====================================================== PolicyTable

PolicyTable::PolicyTable(PolicyKind kind, unsigned sets, unsigned ways,
                         Rng *rng)
    : kind_(kind), sets_(sets), ways_(ways),
      nodes_(ways > 1 ? ways - 1 : 1), rng_(rng)
{
    if (ways_ == 0 || ways_ > 32)
        panicf("PolicyTable: ways ", ways_, " outside [1, 32]");
    if ((kind_ == PolicyKind::TreePlru || kind_ == PolicyKind::QuadAgeLru)
        && (ways_ & (ways_ - 1)) != 0) {
        panicf(policyName(kind_), " requires power-of-two ways, got ",
               ways_);
    }
    if (kind_ == PolicyKind::RandomIid && rng_ == nullptr)
        panic("RandomIid requires an Rng");

    if (kind_ == PolicyKind::TreePlru || kind_ == PolicyKind::QuadAgeLru) {
        // Precompute the tree fast paths (see the member comment):
        // per-way masked-assign touch updates...
        touchMask_.assign(ways_, 0);
        touchVal_.assign(ways_, 0);
        for (unsigned w = 0; w < ways_; ++w) {
            unsigned node = nodes_ + w;
            while (node != 0) {
                const unsigned parent = (node - 1) / 2;
                touchMask_[w] |= std::uint64_t(1) << parent;
                if (node == 2 * parent + 1)
                    touchVal_[w] |= std::uint64_t(1) << parent;
                node = parent;
            }
        }
        // ...and, for small trees, the bits -> victim-leaf lookup,
        // built by running the reference root-to-leaf walk once per
        // possible bit pattern.
        if (nodes_ <= 7) {
            victimLut_.assign(std::size_t(1) << nodes_, 0);
            for (std::size_t bits = 0; bits < victimLut_.size(); ++bits) {
                unsigned node = 0;
                while (node < nodes_)
                    node = 2 * node + 1 +
                           static_cast<unsigned>((bits >> node) & 1);
                victimLut_[bits] =
                    static_cast<std::uint8_t>(node - nodes_);
            }
        }
    }

    setWord_.assign(sets_, 0);
    switch (kind_) {
      case PolicyKind::TrueLru:
      case PolicyKind::Fifo:
        lineWord_.assign(std::size_t(sets_) * ways_, 0);
        break;
      case PolicyKind::Srrip:
        lineWord_.assign(std::size_t(sets_) * ways_, srripMax);
        break;
      case PolicyKind::LfsrRandom:
        // Seed each set's LFSR exactly as the per-set reference does:
        // one draw per set, in set order.
        for (unsigned s = 0; s < sets_; ++s) {
            setWord_[s] = rng_ != nullptr ? rng_->below(0x7fff) + 1
                                          : lfsrResetState;
        }
        break;
      default:
        break;
    }
}

void
PolicyTable::reset()
{
    switch (kind_) {
      case PolicyKind::Srrip:
        std::fill(setWord_.begin(), setWord_.end(), 0);
        std::fill(lineWord_.begin(), lineWord_.end(), srripMax);
        break;
      case PolicyKind::LfsrRandom:
        std::fill(setWord_.begin(), setWord_.end(), lfsrResetState);
        break;
      default:
        std::fill(setWord_.begin(), setWord_.end(), 0);
        std::fill(lineWord_.begin(), lineWord_.end(), 0);
        break;
    }
}

unsigned
PolicyTable::bestAgreement(std::uint64_t bits,
                           std::uint32_t eligibleMask) const
{
    // Pick the eligible way whose root-to-leaf path agrees most with
    // the current tree bits (fewest flips needed to point at it).
    unsigned best = 0;
    int bestScore = -1;
    for (std::uint32_t m = eligibleMask; m != 0; m &= m - 1) {
        const unsigned w = lowestWay(m);
        int score = 0;
        unsigned node = nodes_ + w;
        while (node != 0) {
            const unsigned parent = (node - 1) / 2;
            const bool towardRight = (node == 2 * parent + 2);
            const bool bit = (bits >> parent) & 1;
            if (bit == towardRight)
                ++score;
            node = parent;
        }
        if (score > bestScore) {
            bestScore = score;
            best = w;
        }
    }
    return best;
}

const std::uint8_t *
PolicyTable::agreementLut(std::uint32_t eligibleMask)
{
    const std::size_t patterns = victimLut_.size();
    if (agreeSlot_.empty())
        agreeSlot_.assign(std::size_t(1) << ways_, 0);
    std::uint16_t &slot = agreeSlot_[eligibleMask];
    if (slot == 0) {
        const std::size_t base = agreeLut_.size();
        agreeLut_.resize(base + patterns);
        for (std::size_t bits = 0; bits < patterns; ++bits)
            agreeLut_[base + bits] = static_cast<std::uint8_t>(
                bestAgreement(bits, eligibleMask));
        slot = static_cast<std::uint16_t>(base / patterns + 1);
    }
    return &agreeLut_[(slot - 1) * patterns];
}

unsigned
PolicyTable::victimSlow(unsigned set, std::uint32_t eligibleMask)
{
    // Cold remainder of victim(): the zero-mask panic, the tree
    // policies' ineligible-leaf fallbacks, SRRIP's aging search and
    // the stochastic policies' draw loops.
    if (eligibleMask == 0)
        panic("PolicyTable::victim: no eligible way");

    switch (kind_) {
      case PolicyKind::TreePlru:
        if (!victimLut_.empty())
            return agreementLut(eligibleMask)[setWord_[set] &
                                               (victimLut_.size() - 1)];
        return bestAgreement(setWord_[set], eligibleMask);
      case PolicyKind::QuadAgeLru:
        return lowestWay(eligibleMask);
      case PolicyKind::Srrip: {
        std::uint64_t *rrpv = &lineWord_[std::size_t(set) * ways_];
        for (;;) {
            for (std::uint32_t m = eligibleMask; m != 0; m &= m - 1) {
                const unsigned w = lowestWay(m);
                if (rrpv[w] >= srripMax)
                    return w;
            }
            for (unsigned w = 0; w < ways_; ++w)
                if (rrpv[w] < srripMax)
                    ++rrpv[w];
        }
      }
      case PolicyKind::RandomIid:
        for (;;) {
            const auto w = static_cast<unsigned>(rng_->below(ways_));
            if ((eligibleMask >> w) & 1)
                return w;
        }
      case PolicyKind::LfsrRandom:
        for (;;) {
            const auto w =
                static_cast<unsigned>(setWord_[set] % ways_);
            setWord_[set] = lfsrStep(setWord_[set]);
            if ((eligibleMask >> w) & 1)
                return w;
        }
      default:
        break;
    }
    panic("PolicyTable::victimSlow: unexpected kind");
}

// ======================================== virtual reference policies

void
ReplacementPolicy::checkCandidates(std::uint32_t eligibleMask)
{
    if (eligibleMask == 0)
        panic("ReplacementPolicy::victim: no eligible way");
}

namespace
{

/** True when bit @p way of @p mask is set. */
inline bool
hasWay(std::uint32_t mask, unsigned way)
{
    return ((mask >> way) & 1u) != 0;
}

/** Exact LRU via a monotonically increasing recency stamp per way. */
class TrueLru : public ReplacementPolicy
{
  public:
    explicit TrueLru(unsigned ways)
        : ReplacementPolicy(ways), stamp_(ways, 0)
    {
    }

    void
    reset() override
    {
        std::fill(stamp_.begin(), stamp_.end(), 0);
        clock_ = 0;
    }

    void onFill(unsigned way) override { touch(way); }
    void onHit(unsigned way) override { touch(way); }

    unsigned
    victim(std::uint32_t eligibleMask) override
    {
        checkCandidates(eligibleMask);
        unsigned best = 0;
        std::uint64_t bestStamp = ~std::uint64_t(0);
        for (unsigned w = 0; w < ways_; ++w) {
            if (hasWay(eligibleMask, w) && stamp_[w] < bestStamp) {
                bestStamp = stamp_[w];
                best = w;
            }
        }
        return best;
    }

  private:
    void touch(unsigned way) { stamp_[way] = ++clock_; }

    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = 0;
};

/**
 * Classic tree-PLRU over a power-of-two associativity. Internal nodes
 * hold one bit; 0 means "LRU side is the left subtree". An access flips
 * the bits on its path to point away from the accessed way.
 */
class TreePlru : public ReplacementPolicy
{
  public:
    explicit TreePlru(unsigned ways)
        : ReplacementPolicy(ways), bits_(ways > 1 ? ways - 1 : 1, false)
    {
        if ((ways & (ways - 1)) != 0)
            panicf("TreePlru requires power-of-two ways, got ", ways);
    }

    void
    reset() override
    {
        std::fill(bits_.begin(), bits_.end(), false);
    }

    void onFill(unsigned way) override { touch(way); }
    void onHit(unsigned way) override { touch(way); }

    unsigned
    victim(std::uint32_t eligibleMask) override
    {
        checkCandidates(eligibleMask);
        // Walk the tree toward the PLRU leaf. If that leaf is not an
        // eligible candidate (locked/partitioned), fall back to the
        // eligible way whose path disagrees least with the tree bits.
        unsigned node = 0;
        while (node < bits_.size()) {
            node = 2 * node + 1 + (bits_[node] ? 1 : 0);
        }
        unsigned leaf = node - static_cast<unsigned>(bits_.size());
        if (hasWay(eligibleMask, leaf))
            return leaf;

        unsigned best = 0;
        int bestScore = -1;
        for (unsigned w = 0; w < ways_; ++w) {
            if (!hasWay(eligibleMask, w))
                continue;
            const int score = agreement(w);
            if (score > bestScore) {
                bestScore = score;
                best = w;
            }
        }
        return best;
    }

  private:
    /** Flip the path bits so they point away from @p way. */
    void
    touch(unsigned way)
    {
        unsigned node = static_cast<unsigned>(bits_.size()) + way;
        while (node != 0) {
            const unsigned parent = (node - 1) / 2;
            // Point the parent at the sibling subtree.
            bits_[parent] = (node == 2 * parent + 1);
            node = parent;
        }
    }

    /** How many path bits currently point at @p way. */
    int
    agreement(unsigned way) const
    {
        int score = 0;
        unsigned node = static_cast<unsigned>(bits_.size()) + way;
        while (node != 0) {
            const unsigned parent = (node - 1) / 2;
            const bool towardRight = (node == 2 * parent + 2);
            if (bits_[parent] == towardRight)
                ++score;
            node = parent;
        }
        return score;
    }

    std::vector<bool> bits_;
};

/** MRU-bit pseudo-LRU: one bit per way; clears all when full. */
class BitPlru : public ReplacementPolicy
{
  public:
    explicit BitPlru(unsigned ways)
        : ReplacementPolicy(ways), mru_(ways, false)
    {
    }

    void
    reset() override
    {
        std::fill(mru_.begin(), mru_.end(), false);
    }

    void onFill(unsigned way) override { touch(way); }
    void onHit(unsigned way) override { touch(way); }

    unsigned
    victim(std::uint32_t eligibleMask) override
    {
        checkCandidates(eligibleMask);
        for (unsigned w = 0; w < ways_; ++w)
            if (hasWay(eligibleMask, w) && !mru_[w])
                return w;
        for (unsigned w = 0; w < ways_; ++w)
            if (hasWay(eligibleMask, w))
                return w;
        return 0; // unreachable; checkCandidates guarantees a candidate
    }

  private:
    void
    touch(unsigned way)
    {
        mru_[way] = true;
        if (std::all_of(mru_.begin(), mru_.end(),
                        [](bool b) { return b; })) {
            std::fill(mru_.begin(), mru_.end(), false);
            mru_[way] = true;
        }
    }

    std::vector<bool> mru_;
};

/** Not-recently-used: like BitPlru but ages only on victim search. */
class Nru : public ReplacementPolicy
{
  public:
    explicit Nru(unsigned ways)
        : ReplacementPolicy(ways), recent_(ways, false)
    {
    }

    void
    reset() override
    {
        std::fill(recent_.begin(), recent_.end(), false);
    }

    void onFill(unsigned way) override { recent_[way] = true; }
    void onHit(unsigned way) override { recent_[way] = true; }

    unsigned
    victim(std::uint32_t eligibleMask) override
    {
        checkCandidates(eligibleMask);
        for (;;) {
            for (unsigned w = 0; w < ways_; ++w)
                if (hasWay(eligibleMask, w) && !recent_[w])
                    return w;
            // Aging pass: clear all reference bits and rescan.
            std::fill(recent_.begin(), recent_.end(), false);
        }
    }

  private:
    std::vector<bool> recent_;
};

/**
 * SRRIP with 2-bit re-reference prediction values. Insertion uses a
 * "long" prediction (rrpvMax - 1); hits promote to 0; victim search
 * ages every way until one reaches rrpvMax.
 */
class Srrip : public ReplacementPolicy
{
  public:
    Srrip(unsigned ways, unsigned bits, Rng *rng)
        : ReplacementPolicy(ways), rrpvMax_((1u << bits) - 1),
          rrpv_(ways, rrpvMax_), rng_(rng)
    {
    }

    void
    reset() override
    {
        std::fill(rrpv_.begin(), rrpv_.end(), rrpvMax_);
    }

    void onFill(unsigned way) override { rrpv_[way] = rrpvMax_ - 1; }
    void onHit(unsigned way) override { rrpv_[way] = 0; }

    unsigned
    victim(std::uint32_t eligibleMask) override
    {
        checkCandidates(eligibleMask);
        for (;;) {
            // Textbook SRRIP: evict the lowest-index eligible way at
            // the maximum RRPV; age everyone when none qualifies.
            for (unsigned w = 0; w < ways_; ++w)
                if (hasWay(eligibleMask, w) && rrpv_[w] >= rrpvMax_)
                    return w;
            for (unsigned w = 0; w < ways_; ++w)
                if (rrpv_[w] < rrpvMax_)
                    ++rrpv_[w];
        }
    }

  protected:
    unsigned rrpvMax_;
    std::vector<unsigned> rrpv_;
    Rng *rng_;
};

/**
 * Stand-in for the undocumented Sandy Bridge L1D policy (paper Table II,
 * "Intel Xeon E5-2650" row): Tree-PLRU whose state is perturbed by the
 * rest of the core (TLB walks, instruction-side traffic, the sibling
 * thread) — modeled as a random tree-bit flip on a fraction of fills.
 * The effect the paper measured emerges: a recently written line
 * survives an 8- or 9-line sweep with sizable probability but is gone
 * after 10+; exact percentages are calibration, not microarchitecture
 * (see DESIGN.md substitution table and bench/table2_eviction).
 */
class QuadAgeLru : public ReplacementPolicy
{
  public:
    QuadAgeLru(unsigned ways, Rng *rng)
        : ReplacementPolicy(ways), bits_(ways > 1 ? ways - 1 : 1, false),
          rng_(rng)
    {
        if ((ways & (ways - 1)) != 0)
            panicf("QuadAgeLru requires power-of-two ways, got ", ways);
    }

    void
    reset() override
    {
        std::fill(bits_.begin(), bits_.end(), false);
    }

    void
    onFill(unsigned way) override
    {
        touch(way);
        if (rng_ != nullptr && rng_->chance(perturbProb)) {
            const auto node =
                static_cast<std::size_t>(rng_->below(bits_.size()));
            bits_[node] = !bits_[node];
        }
    }

    void onHit(unsigned way) override { touch(way); }

    unsigned
    victim(std::uint32_t eligibleMask) override
    {
        checkCandidates(eligibleMask);
        unsigned node = 0;
        while (node < bits_.size())
            node = 2 * node + 1 + (bits_[node] ? 1 : 0);
        const unsigned leaf = node - static_cast<unsigned>(bits_.size());
        if (hasWay(eligibleMask, leaf))
            return leaf;
        for (unsigned w = 0; w < ways_; ++w)
            if (hasWay(eligibleMask, w))
                return w;
        return 0; // unreachable; checkCandidates guarantees one
    }

    /** Fraction of fills whose tree update is perturbed (calibrated). */
    static constexpr double perturbProb = quadAgePerturbProb;

  private:
    void
    touch(unsigned way)
    {
        unsigned node = static_cast<unsigned>(bits_.size()) + way;
        while (node != 0) {
            const unsigned parent = (node - 1) / 2;
            bits_[parent] = (node == 2 * parent + 1);
            node = parent;
        }
    }

    std::vector<bool> bits_;
    Rng *rng_;
};

/** FIFO: victim is the oldest fill; hits do not refresh. */
class Fifo : public ReplacementPolicy
{
  public:
    explicit Fifo(unsigned ways)
        : ReplacementPolicy(ways), order_(ways, 0)
    {
    }

    void
    reset() override
    {
        std::fill(order_.begin(), order_.end(), 0);
        clock_ = 0;
    }

    void onFill(unsigned way) override { order_[way] = ++clock_; }
    void onHit(unsigned) override {}

    unsigned
    victim(std::uint32_t eligibleMask) override
    {
        checkCandidates(eligibleMask);
        unsigned best = 0;
        std::uint64_t bestOrder = ~std::uint64_t(0);
        for (unsigned w = 0; w < ways_; ++w) {
            if (hasWay(eligibleMask, w) && order_[w] < bestOrder) {
                bestOrder = order_[w];
                best = w;
            }
        }
        return best;
    }

  private:
    std::vector<std::uint64_t> order_;
    std::uint64_t clock_ = 0;
};

/** Uniform random victim, independent across misses (textbook model). */
class RandomIid : public ReplacementPolicy
{
  public:
    RandomIid(unsigned ways, Rng *rng) : ReplacementPolicy(ways), rng_(rng)
    {
        if (rng == nullptr)
            panic("RandomIid requires an Rng");
    }

    void reset() override {}
    void onFill(unsigned) override {}
    void onHit(unsigned) override {}

    unsigned
    victim(std::uint32_t eligibleMask) override
    {
        checkCandidates(eligibleMask);
        for (;;) {
            auto w = static_cast<unsigned>(rng_->below(ways_));
            if (hasWay(eligibleMask, w))
                return w;
        }
    }

  private:
    Rng *rng_;
};

/**
 * LFSR-based pseudo-random replacement as deployed on many ARM cores:
 * a 15-bit Fibonacci LFSR advances on every access to the set (hit or
 * fill), and the victim is the LFSR value modulo the associativity.
 * Because the LFSR is clocked by the access stream itself, victim
 * choices are correlated with the access pattern — the source of the
 * bias between the paper's measured Table V and the IID formula.
 */
class LfsrRandom : public ReplacementPolicy
{
  public:
    LfsrRandom(unsigned ways, Rng *rng)
        : ReplacementPolicy(ways),
          state_(rng ? static_cast<std::uint16_t>(rng->below(0x7fff) + 1)
                     : 0x2aau)
    {
    }

    void reset() override { state_ = 0x2aau; }
    void onFill(unsigned) override { step(); }
    void onHit(unsigned) override { step(); }

    unsigned
    victim(std::uint32_t eligibleMask) override
    {
        checkCandidates(eligibleMask);
        for (;;) {
            const auto w = static_cast<unsigned>(state_ % ways_);
            step();
            if (hasWay(eligibleMask, w))
                return w;
        }
    }

  private:
    void
    step()
    {
        state_ = static_cast<std::uint16_t>(lfsrStep(state_));
    }

    std::uint16_t state_;
};

} // namespace

std::string
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::TrueLru:
        return "TrueLRU";
      case PolicyKind::TreePlru:
        return "TreePLRU";
      case PolicyKind::BitPlru:
        return "BitPLRU";
      case PolicyKind::Nru:
        return "NRU";
      case PolicyKind::Srrip:
        return "SRRIP";
      case PolicyKind::QuadAgeLru:
        return "QuadAgeLRU(intel-like)";
      case PolicyKind::Fifo:
        return "FIFO";
      case PolicyKind::RandomIid:
        return "RandomIID";
      case PolicyKind::LfsrRandom:
        return "LFSR-PseudoRandom";
    }
    return "unknown";
}

std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, unsigned ways, Rng *rng)
{
    switch (kind) {
      case PolicyKind::TrueLru:
        return std::make_unique<TrueLru>(ways);
      case PolicyKind::TreePlru:
        return std::make_unique<TreePlru>(ways);
      case PolicyKind::BitPlru:
        return std::make_unique<BitPlru>(ways);
      case PolicyKind::Nru:
        return std::make_unique<Nru>(ways);
      case PolicyKind::Srrip:
        return std::make_unique<Srrip>(ways, 2, rng);
      case PolicyKind::QuadAgeLru:
        return std::make_unique<QuadAgeLru>(ways, rng);
      case PolicyKind::Fifo:
        return std::make_unique<Fifo>(ways);
      case PolicyKind::RandomIid:
        return std::make_unique<RandomIid>(ways, rng);
      case PolicyKind::LfsrRandom:
        return std::make_unique<LfsrRandom>(ways, rng);
    }
    panic("makePolicy: unknown kind");
}

const std::vector<PolicyKind> &
allPolicies()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::TrueLru,   PolicyKind::TreePlru,
        PolicyKind::BitPlru,   PolicyKind::Nru,
        PolicyKind::Srrip,     PolicyKind::QuadAgeLru,
        PolicyKind::Fifo,      PolicyKind::RandomIid,
        PolicyKind::LfsrRandom,
    };
    return kinds;
}

} // namespace wb::sim
