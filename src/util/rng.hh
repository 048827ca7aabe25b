/**
 * @file
 * Deterministic random number generation.
 *
 * All stochastic components (trace generators, process variation,
 * fault injection) draw from this xoshiro256** generator so that every
 * experiment is reproducible from a seed.  std::mt19937 is avoided for
 * speed and because libstdc++ distribution implementations are not
 * stable across versions; the distributions here are hand-rolled.
 */

#ifndef SUIT_UTIL_RNG_HH
#define SUIT_UTIL_RNG_HH

#include <cstdint>

namespace suit::util {

/**
 * xoshiro256** PRNG (Blackman & Vigna), seeded through splitmix64.
 *
 * Passes BigCrush; 2^256-1 period; trivially copyable so simulator
 * state can be snapshotted.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x5317C0DEULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform double in [lo, hi). */
    double nextDouble(double lo, double hi);

    /** Bernoulli trial with probability p of returning true. */
    bool nextBool(double p);

    /** Exponentially distributed double with the given mean. */
    double nextExponential(double mean);

    /** Standard normal via Box-Muller (cached second value). */
    double nextGaussian();

    /** Normal with given mean and standard deviation. */
    double nextGaussian(double mean, double stddev);

    /** Log-normal parameterised by the *underlying* normal mu/sigma. */
    double nextLogNormal(double mu, double sigma);

  private:
    static constexpr std::uint64_t kDefaultSeed = 0x5317C0DEULL;

    std::uint64_t s_[4];
    double cachedGaussian_ = 0.0;
    bool hasCachedGaussian_ = false;
};

} // namespace suit::util

#endif // SUIT_UTIL_RNG_HH
