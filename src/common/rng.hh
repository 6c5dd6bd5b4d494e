/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All simulator randomness flows through one seeded Rng instance per run so
 * experiments are bit-exact reproducible. The core generator is
 * xoshiro256** (Blackman & Vigna), seeded via SplitMix64.
 */

#ifndef WB_COMMON_RNG_HH
#define WB_COMMON_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

namespace wb
{

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Not thread safe; each simulation run owns exactly one instance and all
 * components draw from it in deterministic order.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /**
     * Restart the generator stream from @p seed: the core state is
     * re-expanded via SplitMix64 and gaussian()'s Marsaglia spare is
     * dropped, exactly as a freshly constructed Rng(seed). Sweep
     * harnesses reseed between repetitions for bit-exact
     * reproducibility without re-wiring the Rng* a hierarchy holds.
     *
     * The gaussianCached() block is NOT dropped here: it is a
     * prefetch owned by the hot-path consumer, and the consumer's
     * reset (Hierarchy::resetAll() / MultiCoreSystem::resetAll())
     * discards it. Callers using gaussianCached() directly must pair
     * reseed() with discardCachedDeviates() themselves.
     */
    void reseed(std::uint64_t seed);

    /**
     * Drop the precomputed gaussianCached() block, so the next draw
     * refills from the generator's current stream position. Without
     * this, a reseeded sweep would first consume stale deviates
     * computed from the previous run's stream — the reason
     * Hierarchy::resetAll()/MultiCoreSystem::resetAll() call it.
     */
    void
    discardCachedDeviates()
    {
        gaussPos_ = 0;
        gaussFill_ = 0;
    }

    /**
     * Next raw 64-bit value. Inline: this sits under every per-access
     * noise draw, preempt roll and burst-order shuffle of the hot
     * simulation loops, where the out-of-line call was measurable.
     */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Debiased by rejection: a draw below -bound % bound (2^64 mod
        // bound) is redrawn, which leaves a multiple of bound values.
        // That threshold is below bound, so a draw r >= bound is
        // accepted without it: the threshold's division is paid only
        // for r < bound, a fraction bound/2^64 of draws.
        for (;;) {
            const std::uint64_t r = next();
            if (r >= bound || r >= -bound % bound)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** Bernoulli draw: true with probability p (clamped to [0,1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Standard normal draw (Marsaglia polar method). */
    double gaussian();

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double sigma);

    /**
     * Standard normal draw served from a refill-on-demand block of
     * deviates precomputed by the ziggurat method. Hot paths that
     * charge per-access Gaussian noise (Hierarchy::accessBatch) use
     * this instead of gaussian(): a ziggurat draw is one raw draw, a
     * table compare and a multiply in the ~98% common case, where the
     * polar method pays a log+sqrt rejection loop per pair. The two
     * samplers produce different values from the same stream but the
     * identical standard-normal distribution; anything consuming
     * cached deviates must treat them as exchangeable with gaussian()
     * draws, not equal to them.
     */
    double
    gaussianCached()
    {
        if (gaussPos_ >= gaussFill_)
            refillGaussians();
        return gaussBlock_[gaussPos_++];
    }

    /** Number of deviates precomputed per gaussianCached() refill. */
    static constexpr std::size_t gaussianBlockSize = 256;

    /** Exponential draw with the given mean. @pre mean > 0. */
    double exponential(double mean);

    /** Random boolean. */
    bool flip() { return (next() & 1) != 0; }

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** A fresh generator whose seed is drawn from this one. */
    Rng split() { return Rng(next()); }

  private:
    /** Bit-rotate left (the xoshiro256** scrambler primitive). */
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** Refill the gaussianCached() block (out of line, cold). */
    void refillGaussians();

    std::array<std::uint64_t, 4> state_;
    bool hasSpare_ = false;
    double spare_ = 0.0;

    std::array<double, gaussianBlockSize> gaussBlock_{};
    std::size_t gaussPos_ = 0;  //!< next deviate to hand out
    std::size_t gaussFill_ = 0; //!< valid deviates in the block
};

} // namespace wb

#endif // WB_COMMON_RNG_HH
