/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All randomness in Adyna flows through explicitly seeded Rng
 * instances so every experiment is reproducible; no component may use
 * wall-clock or global entropy. The generator is xoshiro256**, seeded
 * through SplitMix64 so that nearby seeds produce uncorrelated
 * streams.
 */

#ifndef ADYNA_COMMON_RNG_HH
#define ADYNA_COMMON_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

namespace adyna {

/** xoshiro256** pseudo-random generator with convenience draws. */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Raw 64-bit draw. */
    std::uint64_t next();

    /** Satisfy UniformRandomBitGenerator. */
    result_type operator()() { return next(); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi], inclusive on both ends. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /** Standard normal draw (Marsaglia polar method). */
    double normal();

    /** Normal draw with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Gamma(shape, 1) draw (Marsaglia-Tsang); shape > 0. */
    double gamma(double shape);

    /** Beta(a, b) draw via two gamma draws; a, b > 0. */
    double beta(double a, double b);

    /**
     * Draw an index from an unnormalized weight vector.
     * @param weights non-negative weights; must contain a positive one.
     */
    std::size_t categorical(const std::vector<double> &weights);

    /**
     * Binomial draw: number of successes in n Bernoulli(p) trials.
     * Exact (n draws) for small n, normal approximation for large n.
     */
    std::uint32_t binomial(std::uint32_t n, double p);

    /** Fork a child generator with an independent stream. */
    Rng fork();

  private:
    std::array<std::uint64_t, 4> state_;
    bool hasSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

/**
 * Draws k indices without replacement from one fixed unnormalized
 * weight vector, over and over: each draw() picks exactly what k
 * sequential Rng::categorical calls pick when each pick's weight is
 * zeroed before the next, bit for bit and uniform() for uniform().
 * Because the weights are fixed, reset() sums them once: the first
 * pick's total is their in-order sum and the second's is one of n
 * in-order sums, each taken with one weight zeroed. Later picks
 * (k >= 3) re-sum the unpicked weights in order. Every pick draws one
 * uniform() and runs categorical's sequential scan over the weights
 * with the earlier picks zeroed.
 */
class TopKSampler
{
  public:
    /**
     * Fix the weights and k of the following draws.
     * @param weights non-negative weights (categorical's check).
     * @param k picks per draw; a draw that needs more picks than
     *          there are positive weights panics as categorical does.
     */
    void reset(const std::vector<double> &weights, std::size_t k);

    /** The next k picks, in pick order; valid until the next call. */
    const std::vector<std::size_t> &draw(Rng &rng);

  private:
    std::vector<double> weights_;
    /** weights_ with the current draw's picks zeroed. */
    std::vector<double> live_;
    /** In-order sum of weights_. */
    double total_ = 0.0;
    /** In-order sum of weights_ with index p zeroed, per p. */
    std::vector<double> totalWithout_;
    std::vector<std::size_t> picks_;
};

} // namespace adyna

#endif // ADYNA_COMMON_RNG_HH
