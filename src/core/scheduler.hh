/**
 * @file
 * The dynamism-aware scheduler (Section V): graph segmentation,
 * frequency-weighted tile allocation, tile sharing, branch grouping,
 * and multi-kernel store construction.
 */

#ifndef ADYNA_CORE_SCHEDULER_HH
#define ADYNA_CORE_SCHEDULER_HH

#include <map>
#include <vector>

#include "arch/hwconfig.hh"
#include "arch/profiler.hh"
#include "core/schedule.hh"
#include "costmodel/mapper.hh"
#include "graph/dyngraph.hh"
#include "kernels/store_cache.hh"

namespace adyna::core {

/** Fraction of total scratchpad budgeted for resident weights when
 * cutting segments. */
inline constexpr double kSpadFill = 0.5;

/** Branches active in fewer than this fraction of batches are grouped
 * (Section V-B). */
inline constexpr double kGroupActivityThreshold = 0.25;

/** Fraction of a tile's scratchpad a unit's resident weights may
 * fill next to the activation double buffers; a unit whose weights
 * need more tiles than it got streams them from DRAM each batch. */
inline constexpr double kResidentWeightFill = 0.6;

/** One allocation unit of allocateTiles(). */
struct AllocUnit
{
    /** Segment positions sharing the unit's tiles, in the order they
     * joined it: a folded unit lists its own members, then the
     * folded-in unit's. */
    std::vector<int> members;

    /** Summed allocation weight of the members. */
    double work = 0.0;

    /** Tiles the unit gets. */
    int tiles = 0;
};

/**
 * Section V's frequency-weighted tile allocation over one segment:
 * the one copy of the rule, shared by Scheduler and the search
 * surrogate (search::PlanTree).
 *
 * @param work each segment position's biased allocation weight.
 * @param group each position's branch group id, -1 for none;
 *        positions sharing an id form one unit (grouped branches
 *        share their tiles temporally), every other position is a
 *        unit of its own.
 * @param tiles tiles to allocate (>= 1).
 *
 * While units outnumber the tiles, the two smallest-work units fold
 * together (the later into the earlier). Each unit then gets
 * max(1, floor(share)) tiles of its work share; the first largest
 * unit gives tiles back while the min-1 clamps overshoot, and the
 * rest go out by largest remainder. Units come back in first-member
 * order.
 */
std::vector<AllocUnit> allocateTiles(const std::vector<double> &work,
                                     const std::vector<int> &group,
                                     int tiles);

/** Scheduler policy knobs. */
struct SchedulerConfig
{
    /** Sampled kernel values per operator (Section VII derives ~32
     * from the 25.6 kB budget and tile sharing's 6x factor). */
    int kernelBudgetPerOp = 32;

    bool tileSharing = true;
    bool branchGrouping = true;

    /** Use worst-case (maximum) sizes everywhere: the M-tile
     * baseline's static scheduling. */
    bool worstCase = false;
};

/**
 * A structural plan imposed on the scheduler by the search layer
 * (src/search): an explicit segment partition plus per-op allocation
 * biases and per-switch grouping scales. The heuristic keeps making
 * every decision the override does not pin down (tile counts,
 * residency, sharing, store compilation), so an override is a small
 * set of knobs over the existing build path, not a second scheduler.
 *
 * An empty override (all fields at their defaults) leaves build()
 * bit-identical to the no-override path.
 */
struct PlanOverride
{
    /**
     * Segment partition over the stage ops, replacing the greedy
     * weight-budget fill. Must cover exactly the stage ops, in
     * topological order within each segment, and must not split a
     * merged switch region (validateSchedule enforces the latter).
     * Empty keeps the heuristic partition.
     */
    std::vector<std::vector<OpId>> partition;

    /**
     * Multiplier on an op's frequency-weighted allocation work:
     * biases the tile count (and share-pair allocation ratios) of
     * the unit containing the op. Missing ops use 1.0.
     */
    std::map<OpId, double> allocBias;

    /**
     * Multiplier on the branch-grouping activity threshold, keyed by
     * switch op: 0 disables grouping for that switch, values > 1
     * group more aggressively. Missing switches use 1.0.
     */
    std::map<OpId, double> groupScale;
};

/** What a delta re-schedule actually rebuilt (observability for the
 * serve loop and the perf harness). */
struct DeltaStats
{
    /** Segments in the produced schedule. */
    std::size_t segmentsTotal = 0;

    /** Segments rebuilt from scratch; the rest were spliced from the
     * base schedule, sharing its compiled kernel stores. */
    std::size_t segmentsRebuilt = 0;
};

/** Builds schedules for one dynamic operator graph on one chip. */
class Scheduler
{
  public:
    Scheduler(const graph::DynGraph &dg, arch::HwConfig hw,
              costmodel::Mapper &mapper, SchedulerConfig cfg);

    /**
     * Build a schedule.
     *
     * @param expectations E[dyn value] per dynamic op (frequency-
     *        weighted allocation); missing ops use their worst case.
     * @param kernel_values sampled kernel values per op; missing ops
     *        get a uniform initial placement.
     * @param profiler optional runtime profile (tile-sharing pair
     *        selection and branch-grouping activity); nullptr
     *        disables both optimizations.
     *
     * The one build path: buildDelta against an empty base, which
     * rebuilds every segment.
     */
    Schedule build(const std::map<OpId, double> &expectations,
                   const std::map<OpId, std::vector<std::int64_t>>
                       &kernel_values,
                   const arch::Profiler *profiler) const;

    /**
     * Delta re-schedule: rebuild only the segments touched by
     * @p changed_ops, splicing every other segment from @p base
     * (sharing its compiled kernel stores instead of recompiling).
     *
     * A segment is spliced when its op partition matches the base
     * schedule's and none of its ops appear in @p changed_ops;
     * otherwise it is rebuilt exactly as build() builds it (build()
     * is this call against an empty base), so with the same
     * @p profiler and unchanged per-op inputs the result is
     * byte-identical to build(). An empty @p changed_ops
     * with a matching partition therefore returns a pure splice —
     * the serve loop's sub-tolerance-drift fast path.
     *
     * The caller owns the contract that @p expectations and
     * @p kernel_values only differ from the base build's inputs on
     * ops listed in @p changed_ops.
     */
    Schedule buildDelta(const Schedule &base,
                        const std::map<OpId, double> &expectations,
                        const std::map<OpId, std::vector<std::int64_t>>
                            &kernel_values,
                        const arch::Profiler *profiler,
                        const std::vector<OpId> &changed_ops,
                        DeltaStats *stats = nullptr) const;

    /** Per-op uniform initial kernel values (Section VII). */
    std::map<OpId, std::vector<std::int64_t>> initialKernelValues() const;

    /** Value budget per operator after the hardware's metadata cap
     * (min of the configured budget and maxKernelsPerTile / 6). */
    int effectiveKernelBudget() const;

    const SchedulerConfig &config() const { return cfg_; }

    /**
     * Use @p cache to reuse compiled kernel stores across builds.
     * nullptr (the default) compiles every store from scratch. The
     * cache must outlive the scheduler.
     */
    void setStoreCache(kernels::KernelStoreCache *cache)
    {
        storeCache_ = cache;
    }

    /**
     * Degraded mode: restrict subsequent build() calls to @p healthy
     * tiles — segmentation budgets, tile counts, and tile ranges all
     * use the surviving subset, so a fail-over re-schedule lands
     * entirely on live hardware. An empty vector (the default)
     * restores the full grid and the exact pre-fault build path.
     * Tile counts differ from the healthy build, so warm
     * KernelStoreCache entries are naturally keyed apart.
     */
    void setHealthyTiles(std::vector<TileId> healthy);

    /** Tiles build() currently allocates over. */
    int activeTileCount() const
    {
        return healthyTiles_.empty()
                   ? hw_.tiles()
                   : static_cast<int>(healthyTiles_.size());
    }

    /**
     * Impose @p override on subsequent builds (see PlanOverride).
     * The override must outlive the scheduler or be cleared with
     * nullptr, which restores the exact heuristic path. Invalidates
     * the memoized partition either way.
     */
    void setPlanOverride(const PlanOverride *override);

    const PlanOverride *planOverride() const { return override_; }

    /**
     * The indivisible partition units: each merged switch region
     * [switch..merge] is one atom (its dynamic routing must happen
     * on-chip, so a segment boundary may never cross it); every
     * other stage op is its own atom. Atoms are in first-occurrence
     * topological order — every legal partition, including the
     * heuristic one, is a split of this sequence into contiguous
     * runs. This is the search layer's mutation alphabet.
     */
    std::vector<std::vector<OpId>> segmentationAtoms() const;

    /** The partition build() would use right now (override or
     * heuristic; memoized). */
    const std::vector<std::vector<OpId>> &partition() const
    {
        return segmentOps();
    }

    /** Expected rows an op processes per batch: a dynamic op's
     * expectation (at least 1), else, or under worstCase, its
     * worst-case rows. The search surrogate sizes activation traffic
     * with it. */
    double expectedRows(OpId op,
                        const std::map<OpId, double> &expectations) const;

    /** Expected per-batch work of an op, in single-tile cycles:
     * expectedRows() times its per-row work (the frequency-weighted
     * allocation weight before any override bias). Public so the
     * search surrogate prices mutations with the exact weights the
     * real allocator uses. */
    double expectedWork(OpId op,
                        const std::map<OpId, double> &expectations) const;

  private:
    /** Ops that become pipeline stages (compute + standalone vector
     * ops), topologically ordered. */
    std::vector<OpId> stageOps() const;

    /** PlanOverride::allocBias multiplier for @p op (1.0 without an
     * override entry). */
    double allocBias(OpId op) const;

    /** Branch-grouping activity threshold for @p switch_op after the
     * override's groupScale. */
    double groupThreshold(OpId switch_op) const;

    /** Partition stage ops into segments respecting atoms. The
     * partition only depends on the graph, the hw config, and the
     * healthy-tile set, so it is computed once and memoized until
     * setHealthyTiles() invalidates it — the delta re-schedule
     * pure-splice path reduces to segment copies. */
    const std::vector<std::vector<OpId>> &segmentOps() const;

    /** Build one segment (branch grouping, allocateTiles(),
     * residency, ranges, stages, tile sharing) for @p seg_ops.
     * Kernel stores are left empty — compileStores() fills them. */
    Segment buildSegment(const std::vector<OpId> &seg_ops,
                         const std::map<OpId, double> &expectations,
                         const arch::Profiler *profiler) const;

    /** Fetch or compile kernel stores for every stage of the
     * freshly built @p segments (before they are frozen behind
     * shared_ptr<const> in a Schedule). Spliced segments keep the
     * base schedule's stores and never pass through here. */
    void compileStores(std::vector<Segment> &segments,
                       const std::map<OpId,
                                      std::vector<std::int64_t>>
                           &kernel_values) const;

    /** Snake tile order restricted to the healthy tiles (the full
     * snake order when no degradation is installed). */
    std::vector<TileId> activeTileOrder() const;

    const graph::DynGraph &dg_;
    arch::HwConfig hw_; // by value: small, and callers may pass
                        // temporaries
    costmodel::Mapper &mapper_;
    SchedulerConfig cfg_;
    kernels::KernelStoreCache *storeCache_ = nullptr;

    /** Sorted healthy-tile subset; empty = every tile is healthy. */
    std::vector<TileId> healthyTiles_;

    /** Structural override imposed by the search layer; nullptr =
     * pure heuristic. */
    const PlanOverride *override_ = nullptr;

    /** Memoized segmentOps() result (single-threaded: builds never
     * run concurrently on one scheduler). */
    mutable std::vector<std::vector<OpId>> segCache_;
    mutable bool segCacheValid_ = false;
};

} // namespace adyna::core

#endif // ADYNA_CORE_SCHEDULER_HH
