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
using detail::srripMax;

} // namespace

// ====================================================== PolicyTable

std::size_t
PolicyTable::setWordBytes(unsigned sets)
{
    return std::size_t(sets) * sizeof(std::uint64_t);
}

std::size_t
PolicyTable::lineWordBytes(PolicyKind kind, unsigned sets, unsigned ways)
{
    switch (kind) {
      case PolicyKind::TrueLru:
      case PolicyKind::Fifo:
      case PolicyKind::Srrip:
        return std::size_t(sets) * ways * sizeof(std::uint64_t);
      default:
        return 0;
    }
}

PolicyTable::PolicyTable(PolicyKind kind, unsigned ways, Rng *rng,
                         ZeroArray<std::uint64_t> setWord,
                         ZeroArray<std::uint64_t> lineWord)
    : kind_(kind), ways_(ways), nodes_(ways > 1 ? ways - 1 : 1), rng_(rng),
      setWord_(setWord), lineWord_(lineWord)
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

    // The storage starts zero; only the non-zero initial states are
    // written, so a large table's untouched pages stay unmapped.
    switch (kind_) {
      case PolicyKind::Srrip:
        std::fill(lineWord_.begin(), lineWord_.end(), srripMax);
        break;
      case PolicyKind::LfsrRandom:
        // One seed draw per set, in set order: every stream and pin
        // downstream depends on this draw order.
        for (std::uint64_t &s : setWord_) {
            s = rng_ != nullptr ? rng_->below(0x7fff) + 1
                                : lfsrResetState;
        }
        break;
      default:
        break;
    }
}

void
PolicyTable::resetSet(unsigned set)
{
    setWord_[set] = kind_ == PolicyKind::LfsrRandom ? lfsrResetState : 0;
    if (!lineWord_.empty())
        std::fill_n(&lineWord_[std::size_t(set) * ways_], ways_,
                    kind_ == PolicyKind::Srrip ? srripMax : 0);
}

void
PolicyTable::reset()
{
    for (unsigned set = 0; set < setWord_.size(); ++set)
        resetSet(set);
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

} // namespace wb::sim
