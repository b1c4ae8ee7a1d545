#include "costmodel/mapper.hh"

#include <array>
#include <mutex>
#include <span>
#include <vector>

#include "common/logging.hh"

namespace adyna::costmodel {

using graph::Dim;
using graph::LoopDims;

namespace {

constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** One candidate spatial split: up to two (dim, factor) pairs. */
struct Split
{
    std::array<SpatialSplit, 2> part{};
    std::size_t count = 0;

    std::span<const SpatialSplit> parts() const
    {
        return std::span(part).first(count);
    }
};

/**
 * Visit the candidate spatial splits over {N, K, P} totalling exactly
 * @p tiles, in the search's tie-breaking order: no split for one
 * tile; otherwise each 1-D split, then each ordered pair of distinct
 * dims over each factor pair a x b == tiles with a, b >= 2 (a
 * ascending, (b, a) right after (a, b)).
 */
template <class Visit>
void
forEachSplit(int tiles, Visit &&visit)
{
    const Dim spatial[3] = {Dim::N, Dim::K, Dim::P};
    Split split;
    if (tiles == 1) {
        visit(split);
        return;
    }
    split.count = 1;
    for (Dim d : spatial) {
        split.part[0] = {d, tiles};
        visit(split);
    }
    split.count = 2;
    for (Dim d1 : spatial) {
        for (Dim d2 : spatial) {
            if (d1 == d2)
                continue;
            for (int a = 2; a * a <= tiles; ++a) {
                if (tiles % a != 0)
                    continue;
                const int b = tiles / a;
                split.part = {SpatialSplit{d1, a}, SpatialSplit{d2, b}};
                visit(split);
                if (a != b) {
                    split.part = {SpatialSplit{d1, b}, SpatialSplit{d2, a}};
                    visit(split);
                }
            }
        }
    }
}

/**
 * Shrink @p block (the full per-tile extents on entry) to the largest
 * scratchpad blocking that fits @p budget: halve N, then P, then K
 * until the double-buffered working set plus @p weights fit. Returns
 * the block's footprint, which exceeds @p budget only if none fits.
 */
Bytes
chooseSpadBlock(const graph::OpNode &op, LoopDims &block, Bytes weights,
                Bytes budget)
{
    Bytes footprint = spadFootprint(op, block, weights);
    for (Dim d : {Dim::N, Dim::P, Dim::K}) {
        while (footprint > budget && block[d] > 1) {
            block[d] = ceilDiv(block[d], 2);
            footprint = spadFootprint(op, block, weights);
        }
    }
    return footprint;
}

/** What pass 1 knows of a split: all that no loop order changes. */
struct SplitRank
{
    Split split;
    LoopDims block;
    Cycles cycles = 0;
    bool feasible = false;
};

} // namespace

Mapper::Mapper(TechParams tech) : tech_(tech) {}

Mapping
Mapper::search(const graph::OpNode &op, std::int64_t n, int tiles)
{
    Key key{op.dims.ext, op.stride, op.dtypeBytes, n, tiles,
            graph::isCompute(op.kind)};
    // The N extent in the key is superseded by the compiled value.
    std::get<0>(key)[0] = 0;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    // Search outside the lock: concurrent racers may duplicate the
    // work for one key, but results are identical and emplace keeps
    // the first insertion.
    Mapping m = searchUncached(op, n, tiles);
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        cache_.emplace(std::move(key), m);
    }
    return m;
}

std::pair<Mapping, KernelCost>
Mapper::searchWithCost(const graph::OpNode &op, std::int64_t n, int tiles)
{
    Mapping m = search(op, n, tiles);
    return {m, evalKernel(op, m, n, true, tech_)};
}

Mapping
Mapper::searchUncached(const graph::OpNode &op, std::int64_t n,
                       int tiles) const
{
    ADYNA_ASSERT(tiles >= 1, "mapping search needs >= 1 tile");
    ADYNA_ASSERT(n >= 1, "mapping search needs n >= 1, got ", n);

    const LoopDims dims = op.dims.with(Dim::N, n);
    const Bytes budget = static_cast<Bytes>(
        static_cast<double>(tech_.spadBytes) *
        (1.0 - tech_.kernelSpadFraction));

    // Pass 1: rank every split by (feasible, cycles) and keep the
    // splits tied at the best pair, in enumeration order.
    std::vector<SplitRank> ties;
    forEachSplit(tiles, [&](const Split &split) {
        SplitRank r;
        r.split = split;
        LoopDims perTile = dims;
        int kSplit = 1;
        for (const SpatialSplit &s : split.parts()) {
            perTile[s.dim] = ceilDiv(perTile[s.dim], s.factor);
            if (s.dim == Dim::K)
                kSplit = s.factor;
        }
        r.block = perTile;
        r.feasible = chooseSpadBlock(op, r.block,
                                     residentWeightBytes(op, kSplit),
                                     budget) <= budget;
        r.cycles = kernelCycles(op, dims, perTile, n, tiles, tech_);
        if (!ties.empty()) {
            const SplitRank &best = ties.front();
            if (r.feasible == best.feasible && r.cycles == best.cycles) {
                ties.push_back(r);
                return;
            }
            if (r.feasible != best.feasible ? !r.feasible
                                            : r.cycles > best.cycles)
                return;
            ties.clear();
        }
        ties.push_back(r);
    });
    ADYNA_ASSERT(!ties.empty(), "mapping search found no candidate");

    // Pass 2: cost the loop orders of the tied splits only; the first
    // strict minimum of (spill, SRAM) wins, as in a full
    // split x order loop, where every other split loses earlier.
    Mapping m;
    m.compiledDims = dims;
    m.tiles = tiles;
    std::size_t bestTie = 0;
    LoopOrder bestOrder = LoopOrder::NOuter;
    KernelCost bestCost;
    bool haveBest = false;
    for (std::size_t t = 0; t < ties.size(); ++t) {
        const SplitRank &r = ties[t];
        const auto parts = r.split.parts();
        m.splits.assign(parts.begin(), parts.end());
        m.spadBlock = r.block;
        for (int o = 0; o < kNumLoopOrders; ++o) {
            m.order = static_cast<LoopOrder>(o);
            const KernelCost cost =
                evalKernel(op, m, n, /*fitting=*/true, tech_);
#ifdef ADYNA_SANITIZE
            ADYNA_ASSERT(cost.cycles == r.cycles &&
                             (cost.spadFootprint <= budget) == r.feasible,
                         "pass 1 disagrees with evalKernel on ", m.str());
#endif
            const bool better =
                !haveBest ||
                (cost.dramSpillBytes != bestCost.dramSpillBytes
                     ? cost.dramSpillBytes < bestCost.dramSpillBytes
                     : cost.sramBytes < bestCost.sramBytes);
            if (better) {
                bestTie = t;
                bestOrder = m.order;
                bestCost = cost;
                haveBest = true;
            }
        }
    }
    costed_.fetch_add(kNumLoopOrders * ties.size(),
                      std::memory_order_relaxed);

    const SplitRank &win = ties[bestTie];
    const auto parts = win.split.parts();
    m.splits.assign(parts.begin(), parts.end());
    m.spadBlock = win.block;
    m.order = bestOrder;
    return m;
}

} // namespace adyna::costmodel
