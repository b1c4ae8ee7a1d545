#include "mtenant/partition.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "arch/noc.hh"

namespace adyna::mtenant {

const char *
partitionKindName(PartitionKind kind)
{
    switch (kind) {
    case PartitionKind::IsolationAware:
        return "isolation-aware";
    case PartitionKind::EvenSplit:
        return "even-split";
    case PartitionKind::SharedGrid:
        return "shared-grid";
    }
    return "?";
}

std::vector<TileId>
TileRegion::tiles(const arch::HwConfig &hw) const
{
    std::vector<TileId> out;
    out.reserve(static_cast<std::size_t>(tileCount()));
    for (int r = row0; r < row0 + rows; ++r)
        for (int c = col0; c < col0 + cols; ++c)
            out.push_back(static_cast<TileId>(r * hw.gridCols + c));
    return out;
}

TilePartitioner::TilePartitioner(const arch::HwConfig &hw,
                                 PartitionPolicy policy)
    : hw_(hw), policy_(policy)
{
    assert(policy_.interferenceAlpha >= 0.0);
}

std::vector<TileRegion>
TilePartitioner::partition(const std::vector<double> &shares) const
{
    const std::size_t n = shares.size();
    assert(n >= 1);
    const TileRegion full{0, 0, hw_.gridRows, hw_.gridCols};
    if (policy_.kind == PartitionKind::SharedGrid)
        return std::vector<TileRegion>(n, full);

    // EvenSplit ignores load: every tenant weighs the same. Otherwise
    // floor each share at a sliver of the total so an idle tenant
    // still receives its minimum region instead of a zero-width cut.
    std::vector<double> eff(n, 1.0);
    if (policy_.kind == PartitionKind::IsolationAware) {
        double total = 0.0;
        for (double s : shares)
            total += std::max(s, 0.0);
        if (total > 0.0)
            for (std::size_t i = 0; i < n; ++i)
                eff[i] = std::max(shares[i], total * 1e-6);
    }

    // Relax the per-tenant floor evenly when the grid cannot fit it.
    int minTiles = kMinTilesPerTenant;
    if (static_cast<long>(n) * minTiles > hw_.tiles())
        minTiles =
            std::max(1, hw_.tiles() / static_cast<int>(n));

    std::vector<TileRegion> out(n);
    split(full, eff, 0, n, minTiles, out);
    return out;
}

void
TilePartitioner::split(const TileRegion &rect,
                       const std::vector<double> &shares,
                       std::size_t first, std::size_t last,
                       int minTiles,
                       std::vector<TileRegion> &out) const
{
    if (last - first == 1) {
        out[first] = rect;
        return;
    }

    // Prefix cut of the tenant group whose share sum is closest to
    // half (input order is preserved for placement stability).
    double total = 0.0;
    for (std::size_t i = first; i < last; ++i)
        total += shares[i];
    std::size_t mid = first + 1;
    double prefix = shares[first];
    double bestDiff = std::abs(prefix - total / 2.0);
    double run = prefix;
    for (std::size_t k = first + 2; k < last; ++k) {
        run += shares[k - 1];
        const double diff = std::abs(run - total / 2.0);
        if (diff < bestDiff) {
            bestDiff = diff;
            mid = k;
            prefix = run;
        }
    }

    const long leftCount = static_cast<long>(mid - first);
    const long rightCount = static_cast<long>(last - mid);

    // Cut the longer axis at the share-proportional point, clamped so
    // each side keeps area for its tenants' floors.
    const bool cutRows = rect.rows >= rect.cols;
    const int len = cutRows ? rect.rows : rect.cols;
    const int cross = cutRows ? rect.cols : rect.rows;
    const double frac = total > 0.0 ? prefix / total : 0.5;
    int cut = static_cast<int>(
        std::lround(frac * static_cast<double>(len)));
    const auto needed = [&](long count) {
        return static_cast<int>(
            (count * minTiles + cross - 1) / cross);
    };
    int lo = std::max(1, needed(leftCount));
    int hi = std::min(len - 1, len - needed(rightCount));
    if (lo > hi) {
        // Degenerate geometry (floors cannot both fit): fall back to
        // a count-proportional cut and let recursion do its best.
        cut = static_cast<int>(
            std::lround(static_cast<double>(len) *
                        static_cast<double>(leftCount) /
                        static_cast<double>(leftCount + rightCount)));
        lo = 1;
        hi = len - 1;
    }
    cut = std::clamp(cut, lo, hi);

    TileRegion a = rect;
    TileRegion b = rect;
    if (cutRows) {
        a.rows = cut;
        b.row0 = rect.row0 + cut;
        b.rows = rect.rows - cut;
    } else {
        a.cols = cut;
        b.col0 = rect.col0 + cut;
        b.cols = rect.cols - cut;
    }
    split(a, shares, first, mid, minTiles, out);
    split(b, shares, mid, last, minTiles, out);
}

std::vector<BoundaryLink>
TilePartitioner::boundaryLinks(
    const std::vector<TileRegion> &regions) const
{
    std::vector<BoundaryLink> out;
    if (regions.size() <= 1)
        return out;

    // Tile -> owning region. Overlapping regions (the SharedGrid
    // aliasing) have no meaningful boundaries — return none.
    std::vector<int> owner(static_cast<std::size_t>(hw_.tiles()), -1);
    for (std::size_t i = 0; i < regions.size(); ++i) {
        for (TileId t : regions[i].tiles(hw_)) {
            if (owner[t] != -1)
                return {};
            owner[t] = static_cast<int>(i);
        }
    }

    for (TileId t = 0; t < static_cast<TileId>(hw_.tiles()); ++t) {
        if (owner[t] < 0)
            continue;
        for (int dir = 0; dir < 4; ++dir) {
            const TileId nb = arch::torusNeighbor(hw_, t, dir);
            if (owner[nb] >= 0 && owner[nb] != owner[t])
                out.push_back({t, dir, owner[t], owner[nb]});
        }
    }
    return out;
}

std::vector<InterferenceDegrade>
TilePartitioner::interferenceDegrades(
    const std::vector<TileRegion> &regions,
    const std::vector<double> &shares) const
{
    std::vector<InterferenceDegrade> out;
    if (policy_.interferenceAlpha <= 0.0)
        return out;
    const std::vector<BoundaryLink> links = boundaryLinks(regions);
    if (links.empty())
        return out;

    double total = 0.0;
    for (double s : shares)
        total += std::max(s, 0.0);
    const auto normShare = [&](int region) {
        if (total <= 0.0)
            return 1.0 / static_cast<double>(regions.size());
        return std::max(shares[static_cast<std::size_t>(region)],
                        0.0) /
               total;
    };

    // Links are (tile, dir)-ascending, so each source tile's links
    // are contiguous: compute the tile's foreign pressure once over
    // its distinct foreign neighbour regions, then stamp the shared
    // factor on each of its boundary links.
    std::size_t i = 0;
    while (i < links.size()) {
        std::size_t j = i;
        double pressure = 0.0;
        int seen[4];
        int seenCount = 0;
        while (j < links.size() && links[j].tile == links[i].tile) {
            bool dup = false;
            for (int s = 0; s < seenCount; ++s)
                dup = dup || seen[s] == links[j].toRegion;
            if (!dup) {
                seen[seenCount++] = links[j].toRegion;
                pressure += normShare(links[j].toRegion);
            }
            ++j;
        }
        const double factor =
            1.0 / (1.0 + policy_.interferenceAlpha * pressure);
        for (std::size_t k = i; k < j; ++k)
            out.push_back({links[k].tile, links[k].dir, factor});
        i = j;
    }
    return out;
}

} // namespace adyna::mtenant
