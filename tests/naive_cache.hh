/**
 * @file
 * The one reference model for sim::Cache and sim::PolicyTable: a naive
 * cache whose sets are plain vectors of Line and whose replacement
 * state is one NaivePolicy object per set.
 *
 * It shares no code with the production cache. Tree walks, LFSR taps,
 * SRRIP aging and the victim fallbacks are written out here with
 * per-way loops; only the shared types (CacheParams, Line,
 * FillOutcome, PolicyKind), Rng and the calibrated constant
 * detail::quadAgePerturbProb come from the library. Given an
 * identically seeded Rng it makes the production cache's draws in the
 * same order: one LFSR seed per set, in set order, at construction;
 * chance() then below(nodes) on every QuadAgeLRU fill; and one
 * below(ways) per RandomIID victim attempt.
 *
 * tests/test_cache_equivalence.cc and tests/test_replacement.cc run
 * the production code against it.
 */

#ifndef WB_TESTS_NAIVE_CACHE_HH
#define WB_TESTS_NAIVE_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/cache.hh"

namespace wb::sim
{

/** Every PolicyKind, for parameterized tests. */
inline const std::vector<PolicyKind> &
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

/** Replacement state of one set, one branch per PolicyKind. */
class NaivePolicy
{
  public:
    NaivePolicy(PolicyKind kind, unsigned ways, Rng *rng)
        : kind_(kind), ways_(ways), rng_(rng), stamp_(ways),
          tree_(ways > 1 ? ways - 1 : 1), bit_(ways), rrpv_(ways)
    {
        while ((1u << levels_) < ways_)
            ++levels_;
        reset();
        if (kind_ == PolicyKind::LfsrRandom && rng_ != nullptr)
            lfsr_ = 1 + static_cast<unsigned>(rng_->below(0x7fff));
    }

    /** Power-on state (the LFSR restarts from its fixed state). */
    void
    reset()
    {
        std::fill(stamp_.begin(), stamp_.end(), 0);
        clock_ = 0;
        std::fill(tree_.begin(), tree_.end(), false);
        std::fill(bit_.begin(), bit_.end(), false);
        std::fill(rrpv_.begin(), rrpv_.end(), kRrpvMax);
        lfsr_ = kLfsrReset;
    }

    void onFill(unsigned way) { touch(way, true); }
    void onHit(unsigned way) { touch(way, false); }

    /** Victim among the ways set in @p eligible (non-zero). */
    unsigned
    victim(std::uint32_t eligible)
    {
        auto ok = [&](unsigned w) { return ((eligible >> w) & 1u) != 0; };
        switch (kind_) {
          case PolicyKind::TrueLru:
          case PolicyKind::Fifo: {
            unsigned best = ways_;
            for (unsigned w = 0; w < ways_; ++w)
                if (ok(w) && (best == ways_ || stamp_[w] < stamp_[best]))
                    best = w;
            return best;
          }
          case PolicyKind::TreePlru: {
            const unsigned leaf = plruLeaf();
            if (ok(leaf))
                return leaf;
            // The eligible way with the most path bits pointing at it;
            // the lowest such way on a tie.
            unsigned best = ways_;
            unsigned bestScore = 0;
            for (unsigned w = 0; w < ways_; ++w) {
                if (ok(w) && (best == ways_ || agreement(w) > bestScore)) {
                    best = w;
                    bestScore = agreement(w);
                }
            }
            return best;
          }
          case PolicyKind::QuadAgeLru: {
            const unsigned leaf = plruLeaf();
            return ok(leaf) ? leaf : firstEligible(eligible);
          }
          case PolicyKind::BitPlru:
            for (unsigned w = 0; w < ways_; ++w)
                if (ok(w) && !bit_[w])
                    return w;
            return firstEligible(eligible);
          case PolicyKind::Nru:
            for (;;) {
                for (unsigned w = 0; w < ways_; ++w)
                    if (ok(w) && !bit_[w])
                        return w;
                std::fill(bit_.begin(), bit_.end(), false);
            }
          case PolicyKind::Srrip:
            for (;;) {
                for (unsigned w = 0; w < ways_; ++w)
                    if (ok(w) && rrpv_[w] == kRrpvMax)
                        return w;
                for (unsigned &r : rrpv_)
                    r = std::min(r + 1, kRrpvMax);
            }
          case PolicyKind::RandomIid:
            for (;;) {
                const auto w = static_cast<unsigned>(rng_->below(ways_));
                if (ok(w))
                    return w;
            }
          case PolicyKind::LfsrRandom:
            for (;;) {
                const unsigned w = lfsr_ % ways_;
                stepLfsr();
                if (ok(w))
                    return w;
            }
        }
        return ways_;
    }

  private:
    static constexpr unsigned kRrpvMax = 3;        //!< 2-bit RRPV
    static constexpr unsigned kLfsrReset = 0x2aa;  //!< power-on LFSR

    /** A fill (@p fill) of, or a hit on, @p way. */
    void
    touch(unsigned way, bool fill)
    {
        switch (kind_) {
          case PolicyKind::TrueLru:
            stamp_[way] = ++clock_;
            break;
          case PolicyKind::Fifo:
            if (fill)
                stamp_[way] = ++clock_;
            break;
          case PolicyKind::TreePlru:
            pointAwayFrom(way);
            break;
          case PolicyKind::QuadAgeLru:
            pointAwayFrom(way);
            if (fill && rng_ != nullptr &&
                rng_->chance(detail::quadAgePerturbProb)) {
                const auto node = rng_->below(tree_.size());
                tree_[node] = !tree_[node];
            }
            break;
          case PolicyKind::BitPlru:
            markMru(way);
            break;
          case PolicyKind::Nru:
            bit_[way] = true;
            break;
          case PolicyKind::Srrip:
            rrpv_[way] = fill ? kRrpvMax - 1 : 0;
            break;
          case PolicyKind::RandomIid:
            break;
          case PolicyKind::LfsrRandom:
            stepLfsr();
            break;
        }
    }

    unsigned
    firstEligible(std::uint32_t eligible) const
    {
        for (unsigned w = 0; w < ways_; ++w)
            if ((eligible >> w) & 1u)
                return w;
        return ways_;
    }

    /**
     * Tree bits are heap-ordered (children of node n at 2n+1, 2n+2);
     * a set bit sends the victim walk right. Way w's leaf is reached by
     * following w's binary digits from the most significant one.
     */
    bool
    wayGoesRight(unsigned way, unsigned level) const
    {
        return ((way >> (levels_ - 1 - level)) & 1u) != 0;
    }

    /** Point every node on @p way's path at the other subtree. */
    void
    pointAwayFrom(unsigned way)
    {
        unsigned node = 0;
        for (unsigned level = 0; level < levels_; ++level) {
            const bool right = wayGoesRight(way, level);
            tree_[node] = !right;
            node = 2 * node + (right ? 2 : 1);
        }
    }

    /** Leaf the tree bits point at. */
    unsigned
    plruLeaf() const
    {
        unsigned node = 0;
        unsigned way = 0;
        for (unsigned level = 0; level < levels_; ++level) {
            const bool right = tree_[node];
            way = 2 * way + (right ? 1 : 0);
            node = 2 * node + (right ? 2 : 1);
        }
        return way;
    }

    /** Number of nodes on @p way's path that point toward it. */
    unsigned
    agreement(unsigned way) const
    {
        unsigned node = 0;
        unsigned score = 0;
        for (unsigned level = 0; level < levels_; ++level) {
            const bool right = wayGoesRight(way, level);
            score += tree_[node] == right ? 1 : 0;
            node = 2 * node + (right ? 2 : 1);
        }
        return score;
    }

    /** Set @p way's MRU bit; when all are set, keep only @p way's. */
    void
    markMru(unsigned way)
    {
        bit_[way] = true;
        if (std::find(bit_.begin(), bit_.end(), false) == bit_.end()) {
            std::fill(bit_.begin(), bit_.end(), false);
            bit_[way] = true;
        }
    }

    /** x^15 + x^14 + 1 Fibonacci step; a zero state restarts it. */
    void
    stepLfsr()
    {
        const unsigned feedback = (lfsr_ ^ (lfsr_ >> 1)) & 1u;
        lfsr_ = (lfsr_ >> 1) | (feedback << 14);
        if (lfsr_ == 0)
            lfsr_ = kLfsrReset;
    }

    PolicyKind kind_;
    unsigned ways_;
    Rng *rng_;
    unsigned levels_ = 0; //!< tree depth, log2(ways)

    std::vector<std::uint64_t> stamp_; //!< TrueLRU recency, FIFO order
    std::uint64_t clock_ = 0;
    std::vector<bool> tree_; //!< TreePLRU / QuadAgeLRU node bits
    std::vector<bool> bit_;  //!< BitPLRU MRU bits, NRU reference bits
    std::vector<unsigned> rrpv_; //!< SRRIP re-reference values
    unsigned lfsr_ = kLfsrReset;
};

/** A cache level as a vector of sets of lines; see the file comment. */
class NaiveCache
{
  public:
    NaiveCache(const CacheParams &params, Rng *rng)
        : params_(params), sets_(params.numSets(),
                                 std::vector<Line>(params.ways))
    {
        // Constructed in set order: that is the LFSR seed draw order.
        for (unsigned s = 0; s < sets_.size(); ++s)
            policies_.emplace_back(params.policy, params.ways, rng);
    }

    void
    reset()
    {
        for (auto &lines : sets_)
            std::fill(lines.begin(), lines.end(), Line{});
        for (auto &policy : policies_)
            policy.reset();
    }

    std::optional<unsigned>
    probe(Addr paddr, ThreadId tid) const
    {
        const auto way = residentWay(paddr);
        if (way && params_.probeIsolated && !mayFill(tid, *way))
            return std::nullopt;
        return way;
    }

    void
    onHit(Addr paddr, unsigned way, ThreadId, bool isWrite)
    {
        const unsigned set = setOf(paddr);
        write(sets_[set][way], isWrite);
        policies_[set].onHit(way);
    }

    FillOutcome
    fill(Addr paddr, ThreadId tid, bool asDirty)
    {
        const unsigned set = setOf(paddr);
        auto &lines = sets_[set];
        FillOutcome out;
        if (const auto w = residentWay(paddr)) {
            // A resident line takes the fill as a (write) hit; under
            // PLcache the dirtying arrival locks it like a store.
            write(lines[*w], asDirty);
            policies_[set].onHit(*w);
            out.filled = true;
            out.residentHit = true;
            out.way = *w;
            return out;
        }

        std::uint32_t eligible = 0;
        unsigned way = params_.ways;
        for (unsigned w = 0; w < lines.size(); ++w) {
            if (lines[w].locked || !mayFill(tid, w))
                continue;
            eligible |= 1u << w;
            if (way == params_.ways && !lines[w].valid)
                way = w;
        }
        if (eligible == 0)
            return out; // bypass: every candidate locked or partitioned
        if (way == params_.ways) {
            way = policies_[set].victim(eligible);
            out.evicted.any = true;
            out.evicted.dirty = lines[way].dirty;
            out.evicted.lineAddr = lines[way].lineAddr;
        }
        const bool dirty =
            asDirty && params_.writePolicy == WritePolicy::WriteBack;
        lines[way] = Line{true, dirty, dirty && params_.lockOnWrite,
                          paddr / lineBytes, tid};
        policies_[set].onFill(way);
        out.filled = true;
        out.way = way;
        return out;
    }

    bool
    invalidate(Addr paddr, bool &wasDirty)
    {
        Line *line = find(paddr);
        wasDirty = line != nullptr && line->dirty;
        if (line != nullptr)
            *line = Line{};
        return line != nullptr;
    }

    bool lock(Addr paddr) { return setLock(paddr, true); }
    bool unlock(Addr paddr) { return setLock(paddr, false); }

    void
    unlockAll()
    {
        for (auto &lines : sets_)
            for (Line &line : lines)
                line.locked = false;
    }

    bool contains(Addr paddr) const { return residentWay(paddr).has_value(); }

    bool
    isDirty(Addr paddr) const
    {
        const auto way = residentWay(paddr);
        return way && sets_[setOf(paddr)][*way].dirty;
    }

    const std::vector<Line> &
    setContents(unsigned set) const
    {
        return sets_[set];
    }

  private:
    unsigned
    setOf(Addr paddr) const
    {
        return static_cast<unsigned>((paddr / lineBytes) % sets_.size());
    }

    std::optional<unsigned>
    residentWay(Addr paddr) const
    {
        const auto &lines = sets_[setOf(paddr)];
        for (unsigned w = 0; w < lines.size(); ++w)
            if (lines[w].valid && lines[w].lineAddr == paddr / lineBytes)
                return w;
        return std::nullopt;
    }

    bool
    mayFill(ThreadId tid, unsigned way) const
    {
        const auto &masks = params_.fillMaskPerThread;
        return tid >= masks.size() || ((masks[tid] >> way) & 1u) != 0;
    }

    /** A store to @p line: dirty under write-back, locked by PLcache. */
    void
    write(Line &line, bool isWrite) const
    {
        if (!isWrite || params_.writePolicy != WritePolicy::WriteBack)
            return;
        line.dirty = true;
        if (params_.lockOnWrite)
            line.locked = true;
    }

    Line *
    find(Addr paddr)
    {
        const auto way = residentWay(paddr);
        return way ? &sets_[setOf(paddr)][*way] : nullptr;
    }

    bool
    setLock(Addr paddr, bool locked)
    {
        Line *line = find(paddr);
        if (line != nullptr)
            line->locked = locked;
        return line != nullptr;
    }

    CacheParams params_;
    std::vector<std::vector<Line>> sets_;
    std::vector<NaivePolicy> policies_;
};

} // namespace wb::sim

#endif // WB_TESTS_NAIVE_CACHE_HH
