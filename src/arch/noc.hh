/**
 * @file
 * 2D-torus network-on-chip model with X-Y routing (Section VI-A/C).
 *
 * Links are modelled as gap-filling bandwidth resources; a message
 * reserves every link on its X-Y path and finishes after the slowest
 * link plus per-hop router latency. Every link runs at one rate, so a
 * message computes its service time once and reserves it on each
 * link (a degraded link stretches its own). An edge's source slices
 * leave together with equal service times, so a link mostly sees its
 * previous request again, which GapBandwidthResource grants in O(1).
 * The probe/ack synchronization of Section VI-C is a small round trip
 * charged before a data transfer may begin.
 *
 * Routing: every route is fixed by its tile pair, so the constructor
 * tabulates the torus once. Three tables hold each tile's (row, col),
 * the signed shortest step count from any column to any column and
 * from any row to any row (the tie at half the ring goes to the
 * increasing index), and each directed link's target tile (filled by
 * torusNeighbor(), the one copy of the wrap rule). A single
 * dimension-order walker reads them: it turns (src, dst) into a step
 * count per axis and follows link targets, X then Y (or Y then X for
 * the fault fallback). Unicast routes, hop counts, the probe/ack
 * round trip and the multicast tree's extents all come from these
 * tables, so the shortest-direction rule lives in one place.
 *
 * Fault model: individual directed links can be marked down (routing
 * falls back to Y-X order, then to a deterministic BFS detour over
 * the surviving links) or bandwidth-degraded (reservations stretch by
 * the inverse of the degradation factor); probe/ack packets can be
 * dropped inside a fault window, in which case the probing tile
 * retries after an exponentially backed-off timeout until a bounded
 * retry budget escalates to a host-coordinated sync. With no fault
 * installed every query takes the exact pre-fault fast path, so
 * fault-free runs stay byte-identical.
 */

#ifndef ADYNA_ARCH_NOC_HH
#define ADYNA_ARCH_NOC_HH

#include <cstdint>
#include <vector>

#include "arch/hwconfig.hh"
#include "arch/resource.hh"
#include "common/rng.hh"

namespace adyna::arch {

/** Directed link directions per tile (the 4 torus neighbours). */
enum LinkDir : int {
    kLinkEast = 0,
    kLinkWest = 1,
    kLinkSouth = 2,
    kLinkNorth = 3,
};

/** The tile reached by leaving @p tile along @p dir (a LinkDir),
 * with torus wrap-around — the target of directed link (tile, dir).
 * The one copy of the wrap rule: it fills the NoC's link-target
 * table and serves the multi-tenant partition-boundary analysis. */
TileId torusNeighbor(const HwConfig &cfg, TileId tile, int dir);

/** Completed NoC transfer summary. */
struct NocTransfer
{
    Tick start = 0;
    Tick end = 0;
    int hops = 0;
    Bytes byteHops = 0; ///< bytes x hops, for NoC energy
};

/** Torus NoC with per-directed-link bandwidth accounting. */
class Noc
{
  public:
    explicit Noc(const HwConfig &cfg);

    /** Hop count of the X-Y torus route between two tiles. */
    int hops(TileId src, TileId dst) const;

    /**
     * Transfer @p bytes from @p src to @p dst, no earlier than
     * @p earliest. Reserves every link on the path.
     */
    NocTransfer transfer(Tick earliest, TileId src, TileId dst,
                         Bytes bytes);

    /**
     * Multicast @p bytes from @p src to every tile in @p dsts: the
     * message is injected once and replicated at routing-tree branch
     * points, so each link on the union of the X-Y paths is reserved
     * exactly once (the instruction issuer's multicast support,
     * Section VI-B). Fault-free, the union is read off the X-Y tree's
     * row and per-column extents, so the cost is one pass over
     * @p dsts plus one reservation per union link.
     */
    NocTransfer multicast(Tick earliest, TileId src,
                          const std::vector<TileId> &dsts, Bytes bytes);

    /**
     * Probe/ack round trip at @p now: two single-flit traversals of
     * the route (no bandwidth reservation), 2 x hops x hop latency.
     * Inside an active probe-drop fault window it also charges
     * retransmission timeouts: each dropped round trip costs the
     * current timeout and doubles it, and an exhausted retry budget
     * escalates to the host-sync penalty.
     */
    Tick probeAck(Tick now, TileId src, TileId dst);

    // --- fault controls (driven by fault::FaultInjector) -----------

    /** Mark a directed link down (true) or back up (false). */
    void setLinkDown(TileId tile, int dir, bool down);

    /** Scale a link's bandwidth by @p factor in (0, 1]; 1 restores
     * full bandwidth. */
    void setLinkBandwidthFactor(TileId tile, int dir, double factor);

    /** Drop probe/ack round trips with probability @p prob until tick
     * @p until (exclusive); the drop draws come from a stream seeded
     * with @p seed so fault runs replay exactly. */
    void setProbeDropWindow(double prob, Tick until,
                            std::uint64_t seed);

    /** Clear every link fault and drop window (metrics survive). */
    void clearFaults();

    bool linkDown(TileId tile, int dir) const;
    int downLinks() const { return downLinks_; }
    int degradedLinks() const { return degradedLinks_; }

    /** How route() found a route. */
    enum class RouteKind { XY, Detour, Unroutable };

    /**
     * The directed-link route a transfer from @p src to @p dst takes
     * under the current fault state: the X-Y path when it is healthy,
     * else the Y-X path, else a deterministic shortest detour over
     * the surviving links. An unroutable pair (the fault set
     * partitions the torus) falls back to the X-Y path. A pure query
     * that sets *@p kind when given; detourRoutes() and
     * unroutablePaths() count messages, one per transfer() and per
     * distinct multicast() destination.
     */
    std::vector<std::size_t> route(TileId src, TileId dst,
                                   RouteKind *kind = nullptr) const;

    // --- fault metrics ---------------------------------------------

    std::uint64_t detourRoutes() const { return detourRoutes_; }
    std::uint64_t unroutablePaths() const { return unroutablePaths_; }
    std::uint64_t probeDrops() const { return probeDrops_; }
    std::uint64_t probeRetries() const { return probeRetries_; }
    std::uint64_t probeGiveUps() const { return probeGiveUps_; }

    /** Total bytes x hops served (NoC energy accounting). */
    Bytes byteHopsServed() const { return byteHops_; }

    /** Aggregate busy ticks over all links. */
    Tick linkBusyTicks() const;

    /** Link reservations made, and those granted by the links' repeat
     * rule (GapBandwidthResource::repeatGrants()), over all links. */
    std::uint64_t linkAcquires() const;
    std::uint64_t linkRepeatGrants() const;

    /**
     * Drop link reservations ending at or before @p before. Same
     * contract as Hbm::trim: every later acquire must pass
     * earliest >= @p before (the engine trims at the monotone
     * period barrier), so expired intervals can never change a
     * grant and the per-link interval lists stay bounded.
     */
    void trim(Tick before);

    /** Forget all reservations (fault state survives; see
     * clearFaults()). */
    void reset();

  private:
    /** A tile's grid position. */
    struct TilePos
    {
        int row;
        int col;
    };

    /** Signed shortest step counts of a route: x along the row
     * (positive = east), y along the column (positive = south). */
    struct Steps
    {
        int x;
        int y;
    };

    /** Dimension order of a walk. */
    enum class DimOrder { XY, YX };

    /** Directed link index: 4 links (E, W, S, N) per tile. */
    std::size_t linkIndex(TileId tile, int dir) const;

    /** Step counts from @p src to @p dst, read off the step tables. */
    Steps steps(TileId src, TileId dst) const;

    /** Visit the @p n links leaving @p at along @p dir in a straight
     * line, in order; returns the tile reached. */
    template <typename Visit>
    TileId straight(TileId at, int dir, int n, Visit &visit) const;

    /** The walker: visit, in order, the links of the dimension-order
     * route from @p src to @p dst. Allocates nothing. */
    template <typename Visit>
    void walk(TileId src, TileId dst, DimOrder order,
              Visit &&visit) const;

    /** The dimension-order route as a sequence of directed link
     * indices (X-Y is the nominal route, Y-X the first fallback). */
    std::vector<std::size_t> path(TileId src, TileId dst,
                                  DimOrder order) const;

    /** Shortest path over healthy links only; empty when @p src and
     * @p dst are disconnected. Deterministic BFS in link-index order. */
    std::vector<std::size_t> bfsPath(TileId src, TileId dst) const;

    /** Every link on @p route is up. */
    bool routeHealthy(const std::vector<std::size_t> &route) const;

    /** route(), counting a detour or an unroutable pair as one more
     * message sent along it. */
    std::vector<std::size_t> routeMessage(TileId src, TileId dst);

#ifdef ADYNA_SANITIZE
    /** Walk @p route and panic unless it is a valid src->dst chain
     * of directed links. */
    void validateRoute(const std::vector<std::size_t> &route,
                       TileId src, TileId dst) const;
#endif

    /** Ticks @p bytes occupy a link at the configured rate. */
    Tick serviceTime(Bytes bytes) const;

    /** Reserve @p bytes, whose service time is @p dur, on @p link no
     * earlier than @p earliest; a degraded link stretches its own. */
    Reservation acquireLink(std::size_t link, Tick earliest, Bytes bytes,
                            Tick dur);

    /**
     * Directed links as gap-filling bandwidth reservations (the
     * same model as the HBM channels). A busy-until appender would
     * make grants order-sensitive: under multi-tenant interleaving, a
     * tenant running ahead in simulated time would push a shared
     * link's busy horizon to its own period end, serializing every
     * co-tenant behind it no matter how little bandwidth either uses.
     * Gap search keeps grants a function of the reserved intervals
     * alone.
     */
    const HwConfig cfg_;
    std::vector<GapBandwidthResource> links_;
    Bytes byteHops_ = 0;

    // Routing tables, built once by the constructor (see the file
    // comment). colSteps_[a * gridCols + b] is the signed shortest
    // step count from column a to column b; rowSteps_ likewise.
    std::vector<TilePos> tilePos_;
    std::vector<int> colSteps_;
    std::vector<int> rowSteps_;
    std::vector<TileId> linkTargets_; ///< by linkIndex()

    /** Reused link-union buffer of the fault-aware multicast path
     * (capacity persists). */
    std::vector<std::size_t> scratchLinks_;

    /** Per-column south/north extents of a fault-free multicast's
     * X-Y tree, in hops from the source row. Sized once; multicast()
     * zeroes them after use. */
    std::vector<int> southExtent_;
    std::vector<int> northExtent_;

    // Fault state. anyLinkFault_ gates every hot-path branch so the
    // healthy case costs one bool test.
    bool anyLinkFault_ = false;
    int downLinks_ = 0;
    int degradedLinks_ = 0;
    std::vector<char> linkDown_;
    std::vector<double> linkFactor_;

    double probeDropProb_ = 0.0;
    Tick probeDropUntil_ = 0;
    Rng probeRng_{0};

    std::uint64_t detourRoutes_ = 0;
    std::uint64_t unroutablePaths_ = 0;
    std::uint64_t probeDrops_ = 0;
    std::uint64_t probeRetries_ = 0;
    std::uint64_t probeGiveUps_ = 0;
};

} // namespace adyna::arch

#endif // ADYNA_ARCH_NOC_HH
