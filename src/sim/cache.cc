#include "sim/cache.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace wb::sim
{

namespace
{

// Runs before any member initializer: numSets() divides by ways, and
// AddressLayout's and PolicyTable's own checks would panic without the
// cache name.
const CacheParams &
validated(const CacheParams &params, const Rng *rng)
{
    if (params.ways == 0)
        fatalf(params.name, ": zero ways");
    if (params.ways > 32)
        fatalf(params.name, ": more than 32 ways unsupported");
    if (params.sizeBytes % (params.ways * lineBytes) != 0)
        fatalf(params.name, ": size not divisible by way size");
    const unsigned sets = params.numSets();
    if (!std::has_single_bit(sets))
        fatalf(params.name, ": sizeBytes ", params.sizeBytes, " gives ",
               sets, " sets of ", params.ways,
               " ways; the set count must be a nonzero power of two");
    if ((params.policy == PolicyKind::TreePlru ||
         params.policy == PolicyKind::QuadAgeLru) &&
        !std::has_single_bit(params.ways))
        fatalf(params.name, ": policy ", policyName(params.policy),
               " requires power-of-two ways, got ways = ", params.ways);
    if (params.policy == PolicyKind::RandomIid && rng == nullptr)
        fatalf(params.name, ": policy ", policyName(params.policy),
               " requires an Rng, got none");
    return params;
}

} // namespace

std::array<std::size_t, Cache::kPolicyArrays + 2>
Cache::storageBytes(const CacheParams &params)
{
    const unsigned sets = params.numSets();
    const std::size_t lines = std::size_t(sets) * params.ways;
    return {lines * sizeof(Addr),
            lines * sizeof(LineFlagWord),
            lines * sizeof(ThreadId),
            sets * sizeof(std::uint32_t),
            sets * sizeof(std::uint32_t),
            PolicyTable::setWordBytes(sets),
            PolicyTable::lineWordBytes(params.policy, sets, params.ways)};
}

Cache::Cache(const CacheParams &params, Rng *rng)
    : params_(validated(params, rng)), layout_(params.numSets()),
      usedSets_((params_.numSets() + 63) / 64, 0),
      pages_(storageBytes(params_)),
      policy_(params.policy, params.ways, rng,
              pages_.array<std::uint64_t>(kPolicyArrays),
              pages_.array<std::uint64_t>(kPolicyArrays + 1))
{
    lineAddr_ = pages_.array<Addr>(0);
    flags_ = pages_.array<LineFlagWord>(1);
    filledBy_ = pages_.array<ThreadId>(2);
    validMask_ = pages_.array<std::uint32_t>(3);
    lockedMask_ = pages_.array<std::uint32_t>(4);
    allMask_ = wayMaskAll(params_.ways);
    fillMask_.reserve(params_.fillMaskPerThread.size());
    for (std::uint32_t m : params_.fillMaskPerThread)
        fillMask_.push_back(m & allMask_);
}

Cache::~Cache()
{
    // Cleared used sets leave every word zero unless the policy seeds
    // (LfsrRandom) or presets (Srrip) every set at construction.
    if (pages_.mapped() && params_.policy != PolicyKind::LfsrRandom &&
        params_.policy != PolicyKind::Srrip) {
        clearUsedSets();
        pages_.recycle();
    }
}

void
Cache::clearUsedSets()
{
    const unsigned ways = params_.ways;
    for (std::size_t word = 0; word < usedSets_.size(); ++word) {
        for (std::uint64_t m = usedSets_[word]; m != 0; m &= m - 1) {
            const auto set =
                static_cast<unsigned>(word * 64 + std::countr_zero(m));
            const std::size_t base = std::size_t(set) * ways;
            std::fill_n(lineAddr_.data() + base, ways, Addr(0));
            std::fill_n(flags_.data() + base, ways, LineFlagWord{});
            std::fill_n(filledBy_.data() + base, ways, ThreadId(0));
            validMask_[set] = 0;
            lockedMask_[set] = 0;
            policy_.resetSet(set);
        }
        usedSets_[word] = 0;
    }
}

void
Cache::reset()
{
    clearUsedSets();
    // An unused set's construction state is its reset state, except
    // LfsrRandom's per-set seeds, which reset to the constant state.
    if (params_.policy == PolicyKind::LfsrRandom)
        policy_.reset();
}

std::optional<unsigned>
Cache::probe(Addr paddr, ThreadId tid) const
{
    const int way = probeWay(AddressLayout::lineAddr(paddr),
                             layout_.setIndex(paddr), tid);
    if (way < 0)
        return std::nullopt;
    return static_cast<unsigned>(way);
}

void
Cache::onHit(Addr paddr, unsigned way, ThreadId, bool isWrite)
{
    const unsigned set = layout_.setIndex(paddr);
    const std::size_t idx = std::size_t(set) * params_.ways + way;
    if ((unsigned(flags_[idx]) & FlagValid) == 0 ||
        lineAddr_[idx] != AddressLayout::lineAddr(paddr))
        panicf(params_.name, ": onHit way does not hold the line");
    hitFast(set, way, isWrite);
}

FillOutcome
Cache::fill(Addr paddr, ThreadId tid, bool asDirty)
{
    return fillFast(paddr, tid, asDirty, /*checkResident=*/true);
}

BatchStats
Cache::probeBatch(const Addr *addrs, std::size_t n, ThreadId tid,
                  std::uint8_t *hitWay) const
{
    // Per-traversal invariants hoisted out of the per-address loop.
    const unsigned ways = params_.ways;
    const std::uint32_t isolationMask =
        params_.probeIsolated ? fillMaskFor(tid) : allMask_;
    BatchStats stats;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr la = AddressLayout::lineAddr(addrs[i]);
        const unsigned set = layout_.setIndex(addrs[i]);
        const Addr *stripe = &lineAddr_[std::size_t(set) * ways];
        unsigned way = 0xff;
        for (std::uint32_t m = validMask_[set]; m != 0; m &= m - 1) {
            const unsigned w = lowestWay(m);
            if (stripe[w] == la) {
                if ((isolationMask >> w) & 1u)
                    way = w;
                break;
            }
        }
        if (way != 0xff)
            ++stats.hits;
        else
            ++stats.misses;
        if (hitWay != nullptr)
            hitWay[i] = static_cast<std::uint8_t>(way);
    }
    return stats;
}

BatchStats
Cache::fillBatch(const Addr *addrs, std::size_t n, ThreadId tid,
                 bool asDirty, std::vector<Evicted> *evictedOut)
{
    // One fillLine() per address — the same body fill() uses, so the
    // two paths cannot drift — with the traversal-invariant
    // configuration hoisted out of the loop.
    const auto [dirtyFill, newFlags] = fillSpec(asDirty);
    const std::uint32_t fillMask = fillMaskFor(tid);
    BatchStats stats;

    for (std::size_t i = 0; i < n; ++i) {
        const FillOutcome out =
            fillLine(AddressLayout::lineAddr(addrs[i]),
                     layout_.setIndex(addrs[i]), tid, fillMask,
                     dirtyFill, newFlags);
        if (out.residentHit) {
            ++stats.hits;
            continue;
        }
        ++stats.misses;
        if (!out.filled) {
            ++stats.bypassed;
            continue;
        }
        ++stats.fills;
        if (out.evicted.any) {
            ++stats.evictions;
            stats.dirtyEvictions += out.evicted.dirty ? 1 : 0;
            if (evictedOut != nullptr)
                evictedOut->push_back(out.evicted);
        }
    }
    return stats;
}

bool
Cache::lock(Addr paddr)
{
    const std::size_t idx = findIndex(paddr);
    if (idx == npos)
        return false;
    flags_[idx] = flagWord(unsigned(flags_[idx]) | FlagLocked);
    lockedMask_[idx / params_.ways] |=
        1u << static_cast<unsigned>(idx % params_.ways);
    return true;
}

bool
Cache::unlock(Addr paddr)
{
    const std::size_t idx = findIndex(paddr);
    if (idx == npos)
        return false;
    flags_[idx] = flagWord(unsigned(flags_[idx]) & ~FlagLocked);
    lockedMask_[idx / params_.ways] &=
        ~(1u << static_cast<unsigned>(idx % params_.ways));
    return true;
}

void
Cache::badVictimWay(unsigned way) const
{
    panicf(params_.name, ": policy chose ineligible way ", way);
}

void
Cache::unlockAll()
{
    // Locked lines sit in used sets only.
    for (std::size_t word = 0; word < usedSets_.size(); ++word) {
        for (std::uint64_t m = usedSets_[word]; m != 0; m &= m - 1) {
            const auto set =
                static_cast<unsigned>(word * 64 + std::countr_zero(m));
            const std::size_t base = std::size_t(set) * params_.ways;
            for (std::uint32_t l = lockedMask_[set]; l != 0; l &= l - 1) {
                const std::size_t idx = base + lowestWay(l);
                flags_[idx] = flagWord(unsigned(flags_[idx]) & ~FlagLocked);
            }
            lockedMask_[set] = 0;
        }
    }
}

bool
Cache::isDirty(Addr paddr) const
{
    const std::size_t idx = findIndex(paddr);
    return idx != npos && (unsigned(flags_[idx]) & FlagDirty) != 0;
}

unsigned
Cache::dirtyCountInSet(unsigned set) const
{
    if (set >= validMask_.size())
        fatalf(params_.name, ": set ", set, " out of range");
    unsigned n = 0;
    const std::size_t base = std::size_t(set) * params_.ways;
    for (std::uint32_t m = validMask_[set]; m != 0; m &= m - 1)
        if (unsigned(flags_[base + lowestWay(m)]) & FlagDirty)
            ++n;
    return n;
}

unsigned
Cache::validCountInSet(unsigned set) const
{
    if (set >= validMask_.size())
        fatalf(params_.name, ": set ", set, " out of range");
    return static_cast<unsigned>(std::popcount(validMask_[set]));
}

std::vector<Line>
Cache::setContents(unsigned set) const
{
    if (set >= validMask_.size())
        fatalf(params_.name, ": set ", set, " out of range");
    std::vector<Line> lines(params_.ways);
    const std::size_t base = std::size_t(set) * params_.ways;
    for (unsigned w = 0; w < params_.ways; ++w) {
        const std::uint8_t f = flags_[base + w];
        lines[w].valid = (f & FlagValid) != 0;
        lines[w].dirty = (f & FlagDirty) != 0;
        lines[w].locked = (f & FlagLocked) != 0;
        lines[w].lineAddr = lineAddr_[base + w];
        lines[w].filledBy = filledBy_[base + w];
    }
    return lines;
}

} // namespace wb::sim
