/**
 * @file
 * Spatial tile partitioning for multi-tenant serving.
 *
 * A TilePartitioner carves the rectangular tile grid into one
 * axis-aligned rectangular region per tenant, sized proportionally to
 * each tenant's share (offered load x SLO-class weight) by a
 * deterministic recursive guillotine split: the tenant list is split
 * at the prefix whose share sum is closest to half, the current
 * rectangle is cut across its longer axis at the proportional point
 * (clamped so both sides can still hold their tenants' minimum tile
 * counts), and each half recurses. Tenants keep their input order
 * through the recursion, so small share changes move partition
 * boundaries without shuffling which corner of the chip a tenant
 * lives in — that placement stability is what keeps repartitions
 * cheap (same-size regions re-use compiled kernel stores via the
 * tile-count-keyed KernelStoreCache).
 *
 * The partitioner also reports the partition's *boundary links*: the
 * directed NoC links that originate at a tile whose torus neighbour
 * belongs to a different tenant. Cross-tenant interference is
 * modelled by degrading those links (see interferenceFactor), since a
 * tenant's own traffic on its perimeter contends with the neighbour
 * region's spill-over on the shared physical channel.
 */

#ifndef ADYNA_MTENANT_PARTITION_HH
#define ADYNA_MTENANT_PARTITION_HH

#include <vector>

#include "arch/hwconfig.hh"
#include "common/types.hh"

namespace adyna::mtenant {

/** How the chip is shared between tenants. */
enum class PartitionKind {
    /** Rectangular regions sized by offered load x SLO weight, with
     * boundary-link interference degrades (the paper-faithful
     * isolation-aware mode). */
    IsolationAware,
    /** Rectangular regions of (near-)equal size regardless of load —
     * the static provisioning strawman. */
    EvenSplit,
    /** No spatial isolation: every tenant schedules over the whole
     * grid and contends for the same tiles (naive sharing). */
    SharedGrid,
};

/** Canonical lower-case mode name ("isolation-aware", ...). */
const char *partitionKindName(PartitionKind kind);

/** Smallest region any tenant may receive, in tiles (relaxed evenly
 * when the grid is too small for every tenant's floor). */
inline constexpr int kMinTilesPerTenant = 4;

/** Partitioning policy knobs. */
struct PartitionPolicy
{
    PartitionKind kind = PartitionKind::IsolationAware;

    /**
     * Strength of cross-tenant NoC interference on partition-boundary
     * links: a boundary link keeps fraction
     * 1 / (1 + alpha x foreignPressure) of its bandwidth, where
     * foreignPressure is the summed normalized share of the foreign
     * regions adjacent to the link's source tile. 0 disables
     * interference modelling.
     */
    double interferenceAlpha = 0.5;
};

/** An axis-aligned rectangle of tiles (rows x cols at row0/col0). */
struct TileRegion
{
    int row0 = 0;
    int col0 = 0;
    int rows = 0;
    int cols = 0;

    int tileCount() const { return rows * cols; }

    bool
    contains(const arch::HwConfig &hw, TileId tile) const
    {
        const int r = hw.tileRow(tile);
        const int c = hw.tileCol(tile);
        return r >= row0 && r < row0 + rows && c >= col0 &&
               c < col0 + cols;
    }

    /** Row-major tile ids of the region. */
    std::vector<TileId> tiles(const arch::HwConfig &hw) const;

    bool operator==(const TileRegion &) const = default;
};

/** A directed NoC link crossing a partition boundary. */
struct BoundaryLink
{
    TileId tile = 0;    ///< link source tile
    int dir = 0;        ///< arch::LinkDir out of @c tile
    int fromRegion = 0; ///< region index owning @c tile
    int toRegion = 0;   ///< region index owning the torus neighbour

    bool operator==(const BoundaryLink &) const = default;
};

/** A boundary link paired with its interference bandwidth factor. */
struct InterferenceDegrade
{
    TileId tile = 0;
    int dir = 0;
    double factor = 1.0; ///< remaining bandwidth fraction in (0, 1]
};

/** Carves the grid into per-tenant rectangles (see file comment). */
class TilePartitioner
{
  public:
    TilePartitioner(const arch::HwConfig &hw, PartitionPolicy policy);

    /**
     * Partition the grid for @p shares (one non-negative entry per
     * tenant, input order preserved). Regions are pairwise disjoint
     * and cover the whole grid; each holds at least
     * kMinTilesPerTenant tiles (relaxed evenly when the grid is too
     * small for every tenant's floor). Under SharedGrid every tenant
     * receives the full-grid rectangle.
     * Deterministic: equal inputs give equal outputs.
     */
    std::vector<TileRegion>
    partition(const std::vector<double> &shares) const;

    /**
     * The directed links whose torus neighbour lies in a different
     * region, ascending by (tile, dir). Empty for SharedGrid (all
     * regions alias the full grid) and for a single tenant.
     */
    std::vector<BoundaryLink>
    boundaryLinks(const std::vector<TileRegion> &regions) const;

    /**
     * Per-boundary-link bandwidth degrades under
     * policy.interferenceAlpha: links from the same source tile are
     * merged so each (tile, dir) appears once, with foreignPressure
     * summed over the distinct foreign regions adjacent to that tile.
     * Empty when alpha is 0 or there are no boundary links.
     */
    std::vector<InterferenceDegrade>
    interferenceDegrades(const std::vector<TileRegion> &regions,
                         const std::vector<double> &shares) const;

    const PartitionPolicy &policy() const { return policy_; }

  private:
    /** Recursive guillotine split of @p rect across tenants
     * [first, last) of @p shares, appending into @p out (indexed by
     * tenant). @p minTiles is the (possibly relaxed) per-tenant
     * floor. */
    void split(const TileRegion &rect,
               const std::vector<double> &shares, std::size_t first,
               std::size_t last, int minTiles,
               std::vector<TileRegion> &out) const;

    arch::HwConfig hw_;
    PartitionPolicy policy_;
};

} // namespace adyna::mtenant

#endif // ADYNA_MTENANT_PARTITION_HH
