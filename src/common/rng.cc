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

/** The 53 random bits behind one uniform() draw. */
std::uint64_t
next53(Rng &rng)
{
    return rng.next() >> 11;
}

/** The double in [0, 1) that uniform() makes of 53 bits @p u. */
double
unitOf(std::uint64_t u)
{
    return static_cast<double>(u) * 0x1.0p-53;
}

/**
 * Categorical's pick at the 53 bits @p u: unitOf(u) scaled by
 * @p total, the weights' in-order sum, then a sequential scan that
 * falls back to the last index when rounding leaves the draw unspent.
 * Non-decreasing in u: the scaling and every subtraction round
 * monotonically, so a larger u can only stop the scan later.
 */
std::size_t
scanAt(std::uint64_t u, const std::vector<double> &weights, double total)
{
    double draw = unitOf(u) * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        draw -= weights[i];
        if (draw < 0.0)
            return i;
    }
    return weights.size() - 1;
}

/** Categorical's pick at the next uniform() draw. */
std::size_t
scanPick(Rng &rng, const std::vector<double> &weights, double total)
{
    ADYNA_ASSERT(total > 0.0, "categorical weights sum to zero");
    return scanAt(next53(rng), weights, total);
}

/** A point of the polar method and its s = u^2 + v^2. */
struct PolarPoint
{
    double u, v, s;
};

/**
 * The polar method's accept loop: draws points (u, v) uniformly in
 * [-1, 1)^2 until one lies inside the unit circle and off its centre.
 * Marked inline so that normal() keeps the loop in its own body.
 */
inline PolarPoint
polarPoint(Rng &rng)
{
    PolarPoint p{};
    do {
        p.u = rng.uniform(-1.0, 1.0);
        p.v = rng.uniform(-1.0, 1.0);
        p.s = p.u * p.u + p.v * p.v;
    } while (p.s >= 1.0 || p.s == 0.0);
    return p;
}

/** One past the largest 53-bit u: the threshold of an unreachable
 * index. */
constexpr std::uint64_t kNoU = std::uint64_t{1} << 53;

/**
 * Fill @p out[j - 1] with t_j = min{u : scanAt(u) >= j} for j in
 * 1..n-1 (kNoU where no u reaches j), by bisection over u that runs
 * the scan itself. The thresholds do not decrease, so each search
 * starts at the previous one.
 */
void
bisectThresholds(const std::vector<double> &weights, double total,
                 std::uint64_t *out)
{
    std::uint64_t lo = 0;
    for (std::size_t j = 1; j < weights.size(); ++j) {
        std::uint64_t hi = kNoU;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (scanAt(mid, weights, total) >= j)
                hi = mid;
            else
                lo = mid + 1;
        }
        out[j - 1] = lo;
    }
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
    return unitOf(next53(*this));
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
    const PolarPoint p = polarPoint(*this);
    const double mul = std::sqrt(-2.0 * std::log(p.s) / p.s);
    spareNormal_ = p.v * mul;
    hasSpareNormal_ = true;
    return p.u * mul;
}

void
Rng::skipNormals(std::size_t n)
{
    if (n > 0 && hasSpareNormal_) {
        hasSpareNormal_ = false;
        --n;
    }
    for (; n >= 2; n -= 2)
        (void)polarPoint(*this);
    if (n == 1)
        (void)normal(); // its second normal stays as the spare
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
    if (weights == weights_ && k == picks_.size())
        return;
    ++builds_;
    weights_ = weights;
    live_ = weights;
    total_ = weightSum(weights_);
    picks_.resize(k);
    const std::size_t n = weights_.size();
    const std::size_t m = n > 0 ? n - 1 : 0;
    first_.resize(m);
    bisectThresholds(weights_, total_, first_.data());
    // Zeroing a weight in place keeps each sum the very additions
    // categorical makes once that weight is picked.
    totalWithout_.resize(n);
    second_.resize(k >= 2 ? n * m : 0);
    for (std::size_t p = 0; p < n; ++p) {
        live_[p] = 0.0;
        totalWithout_[p] = weightSum(live_);
        if (k >= 2 && totalWithout_[p] > 0.0)
            bisectThresholds(live_, totalWithout_[p],
                             second_.data() + p * m);
        live_[p] = weights_[p];
    }
}

std::span<const std::uint64_t>
TopKSampler::firstThresholds() const
{
    return first_;
}

std::span<const std::uint64_t>
TopKSampler::secondThresholds(std::size_t p) const
{
    return std::span<const std::uint64_t>(second_).subspan(
        p * first_.size(), first_.size());
}

std::size_t
TopKSampler::pick(std::span<const std::uint64_t> thresholds,
                  std::uint64_t u)
{
    std::size_t index = 0;
    for (std::uint64_t t : thresholds)
        index += t <= u;
    return index;
}

const std::vector<std::size_t> &
TopKSampler::draw(Rng &rng)
{
    if (picks_.empty())
        return picks_;
    ADYNA_ASSERT(total_ > 0.0, "categorical weights sum to zero");
    picks_[0] = pick(firstThresholds(), next53(rng));
    if (picks_.size() == 1)
        return picks_;
    ADYNA_ASSERT(totalWithout_[picks_[0]] > 0.0,
                 "categorical weights sum to zero");
    picks_[1] = pick(secondThresholds(picks_[0]), next53(rng));
    if (picks_.size() == 2)
        return picks_;

    live_[picks_[0]] = 0.0;
    live_[picks_[1]] = 0.0;
    for (std::size_t j = 2; j < picks_.size(); ++j) {
        picks_[j] = scanPick(rng, live_, weightSum(live_));
        live_[picks_[j]] = 0.0;
    }
    for (std::size_t q : picks_)
        live_[q] = weights_[q];
    return picks_;
}

} // namespace adyna
