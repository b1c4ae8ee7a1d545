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
#include <span>
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

    /**
     * Step past @p n normal() draws: afterwards the generator is where
     * n normal() calls leave it, spare included. Points whose two
     * normals are both skipped cost only their accept loop; the log
     * and sqrt run only for a point whose second normal is left over
     * as the spare.
     */
    void skipNormals(std::size_t n);

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
 *
 * categorical turns the 53-bit integer u behind uniform() into an
 * index by a sequential `draw -= w` scan that falls back to the last
 * index. For fixed weights that pick is a non-decreasing step
 * function of u (each rounding step is monotone), so it is fully
 * described by the n - 1 thresholds t_j = min{u : pick(u) >= j}, and
 * pick(u) = #{j : t_j <= u}. reset() finds each threshold by
 * bisection over u that runs the scan itself, so a table answers
 * every u exactly as the scan does, boundaries and fallback included;
 * a prefix-sum CDF would not. It keeps a table for the first pick
 * (weights summed in order) and, when k >= 2, one for the second pick
 * after each first pick p (the in-order sum with weight p zeroed in
 * place, the very additions categorical makes). A draw's first two
 * picks are one next() and one count each. Later picks (k >= 3)
 * re-sum the unpicked weights in order and run the scan.
 */
class TopKSampler
{
  public:
    /**
     * Fix the weights and k of the following draws. The tables are
     * rebuilt only when the weights or k differ from the previous
     * call's.
     * @param weights non-negative weights (categorical's check).
     * @param k picks per draw; a draw that needs more picks than
     *          there are positive weights panics as categorical does.
     */
    void reset(const std::vector<double> &weights, std::size_t k);

    /** The next k picks, in pick order; valid until the next call. */
    const std::vector<std::size_t> &draw(Rng &rng);

    /** The first pick's thresholds t_1..t_{n-1}; 2^53 where no u
     * reaches the index. Valid until the next reset(). */
    std::span<const std::uint64_t> firstThresholds() const;

    /** The second pick's thresholds after first pick @p p; valid for
     * k >= 2 and a positive sum of the weights without p. */
    std::span<const std::uint64_t> secondThresholds(std::size_t p) const;

    /** The pick at the 53 bits @p u behind a uniform() draw: how many
     * of @p thresholds are <= u. draw() makes its first two picks so. */
    static std::size_t pick(std::span<const std::uint64_t> thresholds,
                            std::uint64_t u);

    /** Table builds so far (reset() calls that changed the weights or
     * k); a work counter for tests, in no report. */
    std::uint64_t builds() const { return builds_; }

  private:
    std::vector<double> weights_;
    /** weights_ with the current draw's picks zeroed. */
    std::vector<double> live_;
    /** In-order sum of weights_. */
    double total_ = 0.0;
    /** In-order sum of weights_ with index p zeroed, per p. */
    std::vector<double> totalWithout_;
    std::vector<std::uint64_t> first_;
    /** secondThresholds(p) at [p * (n - 1), (p + 1) * (n - 1)). */
    std::vector<std::uint64_t> second_;
    std::vector<std::size_t> picks_;
    std::uint64_t builds_ = 0;
};

} // namespace adyna

#endif // ADYNA_COMMON_RNG_HH
