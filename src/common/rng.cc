#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace adyna {

namespace {

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** In-order sum of categorical weights, each checked non-negative. */
double
weightSum(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        ADYNA_ASSERT(w >= 0.0, "negative categorical weight ", w);
        total += w;
    }
    return total;
}

/**
 * Categorical's pick: one uniform() scaled by @p total, the weights'
 * in-order sum, then a sequential scan that falls back to the last
 * index when rounding leaves the draw unspent.
 */
std::size_t
scanPick(Rng &rng, const std::vector<double> &weights, double total)
{
    ADYNA_ASSERT(total > 0.0, "categorical weights sum to zero");
    double draw = rng.uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        draw -= weights[i];
        if (draw < 0.0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
}

std::uint64_t
Rng::next()
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

double
Rng::uniform()
{
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    ADYNA_ASSERT(lo <= hi, "bad uniformInt range [", lo, ", ", hi, "]");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = Rng::max() - Rng::max() % span;
    std::uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % span);
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

double
Rng::normal()
{
    if (hasSpareNormal_) {
        hasSpareNormal_ = false;
        return spareNormal_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spareNormal_ = v * mul;
    hasSpareNormal_ = true;
    return u * mul;
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::gamma(double shape)
{
    ADYNA_ASSERT(shape > 0.0, "gamma shape must be positive: ", shape);
    if (shape < 1.0) {
        // Boost to shape >= 1 and correct with a power of a uniform.
        const double u = uniform();
        return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
    }
    // Marsaglia-Tsang squeeze method.
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
        double x, v;
        do {
            x = normal();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v;
        if (u > 0.0 && std::log(u) < 0.5 * x * x +
                                         d * (1.0 - v + std::log(v)))
            return d * v;
    }
}

double
Rng::beta(double a, double b)
{
    const double x = gamma(a);
    const double y = gamma(b);
    return x / (x + y);
}

std::size_t
Rng::categorical(const std::vector<double> &weights)
{
    return scanPick(*this, weights, weightSum(weights));
}

std::uint32_t
Rng::binomial(std::uint32_t n, double p)
{
    ADYNA_ASSERT(p >= 0.0 && p <= 1.0, "binomial p out of range: ", p);
    if (n == 0 || p == 0.0)
        return 0;
    if (p == 1.0)
        return n;
    if (n <= 64) {
        std::uint32_t successes = 0;
        for (std::uint32_t i = 0; i < n; ++i)
            successes += bernoulli(p) ? 1 : 0;
        return successes;
    }
    // Normal approximation with continuity correction, clamped.
    const double mean = n * p;
    const double sd = std::sqrt(n * p * (1.0 - p));
    double draw = std::round(normal(mean, sd));
    if (draw < 0.0)
        draw = 0.0;
    if (draw > n)
        draw = n;
    return static_cast<std::uint32_t>(draw);
}

Rng
Rng::fork()
{
    return Rng(next());
}

void
TopKSampler::reset(const std::vector<double> &weights, std::size_t k)
{
    weights_ = weights;
    live_ = weights;
    total_ = weightSum(weights_);
    // Zeroing a weight in place keeps each sum the very additions
    // categorical makes once that weight is picked.
    totalWithout_.resize(weights_.size());
    for (std::size_t p = 0; p < weights_.size(); ++p) {
        live_[p] = 0.0;
        totalWithout_[p] = weightSum(live_);
        live_[p] = weights_[p];
    }
    picks_.resize(k);
}

const std::vector<std::size_t> &
TopKSampler::draw(Rng &rng)
{
    for (std::size_t j = 0; j < picks_.size(); ++j) {
        const double total = j == 0   ? total_
                             : j == 1 ? totalWithout_[picks_[0]]
                                      : weightSum(live_);
        picks_[j] = scanPick(rng, live_, total);
        live_[picks_[j]] = 0.0;
    }
    for (std::size_t p : picks_)
        live_[p] = weights_[p];
    return picks_;
}

} // namespace adyna
