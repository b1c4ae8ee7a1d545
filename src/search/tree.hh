/**
 * @file
 * The search layer's structural candidate representation: a
 * cheap-mutate plan tree over the scheduler's segmentation atoms
 * (SET's ltreenode idea adapted to Adyna's segment/allocation
 * space). A candidate is (segment boundaries over the atom sequence,
 * per-op allocation-bias exponents, per-switch grouping modes); a
 * mutation flips one of those and re-prices only the touched
 * segments through a surrogate of the real allocator, so the
 * annealer evaluates thousands of candidates per second without ever
 * building a schedule. Only surviving candidates are materialized —
 * via Scheduler::buildDelta, so even that costs a segment splice for
 * everything the mutation left alone.
 */

#ifndef ADYNA_SEARCH_TREE_HH
#define ADYNA_SEARCH_TREE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "arch/hwconfig.hh"
#include "arch/profiler.hh"
#include "common/types.hh"
#include "core/scheduler.hh"
#include "costmodel/mapper.hh"
#include "graph/dyngraph.hh"

namespace adyna::search {

/** Per-switch branch-grouping mode a tree can pick. */
enum GroupMode : std::uint8_t
{
    kGroupDefault = 0,    ///< heuristic threshold as configured
    kGroupOff = 1,        ///< never group this switch's branches
    kGroupAggressive = 2, ///< 4x the activity threshold
};

/** PlanOverride::groupScale value of a GroupMode. */
double groupModeScale(GroupMode mode);

/** Allocation-bias multiplier of a bias exponent (1.25^exp). */
double biasOf(int exp);

/** Bias exponents live in [-kBiasRange, kBiasRange]. */
constexpr int kBiasRange = 3;

/** The mutable state of one candidate (the tree minus its caches).
 * Chains snapshot and restore these; a candidate's identity is the
 * fingerprint over exactly these bytes. */
struct TreeState
{
    /** cut[g] != 0 puts a segment boundary after atom g. */
    std::vector<char> cut;

    /** Per stage-op allocation-bias exponent. */
    std::vector<std::int8_t> biasExp;

    /** Per context-switch GroupMode. */
    std::vector<std::uint8_t> groupMode;
};

/** One proposed mutation (the grammar: boundary move = a merge plus
 * a split, expressed as two toggles by the chain). */
struct Mutation
{
    enum Kind : std::uint8_t
    {
        kBoundaryToggle = 0, ///< split/merge at gap `index`
        kTileNudge = 1,      ///< biasExp[index] += delta
        kRegroup = 2,        ///< groupMode[index] = delta
    };

    Kind kind = kBoundaryToggle;
    int index = 0;
    int delta = 0;
};

/** Undo record of one applied mutation (restores state and the
 * per-segment cost cache without recomputation). */
struct Undo
{
    Mutation mut;
    int oldVal = 0;

    /** Boundary toggles change the segment list structurally;
     * nudges/regroups only replace cached costs in place. */
    bool structural = false;

    /** Structural: `oldEnds`/`oldCosts` go back in at segAt,
     * replacing `newCount` current entries. */
    std::size_t segAt = 0;
    std::vector<int> oldEnds;
    std::vector<double> oldCosts;
    std::size_t newCount = 0;

    /** Non-structural: the segments whose costs to restore (paired
     * with oldCosts). */
    std::vector<std::size_t> segIdx;
};

/**
 * Immutable per-search data shared by every chain: the atom
 * sequence, per-op allocation weights (the exact weights the real
 * allocator uses), switch/branch structure with profiled activity,
 * and the hardware envelope the surrogate prices against.
 */
class SearchContext
{
  public:
    SearchContext(const core::Scheduler &scheduler,
                  const graph::DynGraph &dg,
                  const arch::HwConfig &hw,
                  const std::map<OpId, double> &expectations,
                  const arch::Profiler *profiler);

    /** A switch with at least one stage op among the atoms. */
    struct SwitchCtx
    {
        OpId switchOp = kInvalidOp;

        /** Present branch ids and their stage-op indices. */
        std::vector<int> branches;
        std::vector<std::vector<int>> branchOps;

        /** Profiled activity per present branch (0 when unprofiled:
         * grouping is then disabled anyway). */
        std::vector<double> activity;

        /** Every stage-op index owned by this switch. */
        std::vector<int> ops;
    };

    int numAtoms() const { return static_cast<int>(atoms_.size()); }
    int numOps() const { return static_cast<int>(ops_.size()); }
    int numSwitches() const
    {
        return static_cast<int>(switches_.size());
    }

    const std::vector<std::vector<OpId>> &atoms() const
    {
        return atoms_;
    }
    const std::vector<OpId> &ops() const { return ops_; }
    const std::vector<SwitchCtx> &switches() const
    {
        return switches_;
    }

    /** Atom index of stage-op index @p i. */
    int atomOfOp(int i) const { return atomOfOp_[i]; }

    /** First flattened stage-op index of atom @p a (ops of atom a
     * are [atomStart(a), atomStart(a+1))). */
    int atomStart(int a) const { return atomStart_[a]; }

    /** Cuts reproducing the partition the scheduler would build
     * right now (the search's starting candidate). */
    const std::vector<char> &defaultCuts() const
    {
        return defaultCuts_;
    }

    /** Stage-op index of @p op, -1 if not a stage op. */
    int opIndex(OpId op) const;

    /** Branch grouping is live (config on and a profiler present). */
    bool groupingEnabled() const { return grouping_; }

    int tiles() const { return tiles_; }
    double spadBytes() const { return spadBytes_; }
    double hbmBytesPerCycle() const { return hbmBpc_; }

    /** Allocation weight of stage-op index @p i before bias (the
     * scheduler's expectedWork under the search's expectations). */
    double work(int i) const { return work_[i]; }

    /** Weight bytes of stage-op index @p i. */
    double weightBytes(int i) const { return weight_[i]; }

    /** One resolved data edge between two stage ops (routing nodes
     * looked through, as DynGraph::producers resolves them). */
    struct EdgeCtx
    {
        int producer = -1;  ///< producing stage-op index
        double bytes = 0.0; ///< expected per-batch activation bytes
    };

    /** Scheduled producers of stage-op index @p i. */
    const std::vector<EdgeCtx> &inEdges(int i) const
    {
        return inEdges_[static_cast<std::size_t>(i)];
    }

    /** Expected per-batch bytes @p i reads from graph inputs (and
     * unscheduled producers): DRAM under every partition. */
    double externalInBytes(int i) const
    {
        return extInBytes_[static_cast<std::size_t>(i)];
    }

    /** Expected per-batch output bytes of stage-op index @p i. */
    double outBytes(int i) const
    {
        return outBytes_[static_cast<std::size_t>(i)];
    }

    /** @p i feeds a graph output (always written back to DRAM). */
    bool feedsOutput(int i) const
    {
        return dg_->feedsOutput(ops_[static_cast<std::size_t>(i)]);
    }

    /** Stage-op indices consuming @p i's output. */
    const std::vector<int> &consumers(int i) const
    {
        return consumers_[static_cast<std::size_t>(i)];
    }

    /**
     * Sample the true kernel cost of every stage op at a ladder of
     * tile counts (dense through 16, geometric above) through the
     * real mapper. The surrogate then prices throughput off the
     * measured curve — which bends hard once a group outgrows the
     * op's useful parallelism — instead of assuming linear work /
     * tiles scaling. Serial; call before handing the context to
     * chains so they stay mapper-free (and byte-stable).
     */
    void buildCostCurves(costmodel::Mapper &mapper,
                         bool kernel_fitting);

    /** True per-batch kernel cycles of stage-op @p i on @p tiles
     * tiles, interpolated from the sampled curve (falls back to
     * work(i)/tiles when curves were not built). */
    double opCycles(int i, int tiles) const;

  private:
    std::vector<std::vector<OpId>> atoms_;
    std::vector<OpId> ops_;
    std::vector<int> atomOfOp_;
    std::vector<int> atomStart_;
    std::vector<char> defaultCuts_;
    std::map<OpId, int> opIndex_;
    const graph::DynGraph *dg_ = nullptr;
    std::vector<double> work_;
    std::vector<double> weight_;
    std::vector<double> rows_;
    std::vector<int> curveTiles_;
    std::vector<std::vector<double>> curve_;
    std::vector<std::vector<EdgeCtx>> inEdges_;
    std::vector<double> extInBytes_;
    std::vector<double> outBytes_;
    std::vector<std::vector<int>> consumers_;
    std::vector<SwitchCtx> switches_;

    /** Stage-op index -> owning context switch (-1 none). */
    std::vector<int> switchOfOp_;

    bool grouping_ = false;
    int tiles_ = 1;
    double spadBytes_ = 1.0;
    double hbmBpc_ = 1.0;

    friend class PlanTree;
};

/**
 * One candidate with an incrementally maintained surrogate cost:
 * per-segment costs are cached, a mutation re-prices only the
 * segments it touches, and revert restores the previous entries
 * without recomputation.
 */
class PlanTree
{
  public:
    /** Starts at the default tree: the heuristic partition's cuts,
     * zero biases, default grouping. */
    explicit PlanTree(const SearchContext &ctx);

    /** Current candidate state (copy; cheap byte vectors). */
    TreeState state() const;

    /** Load @p s and recost everything. */
    void setState(const TreeState &s);

    /** Surrogate cost of the whole candidate (lower is better). */
    double cost() const { return total_; }

    /** FNV-1a over the state bytes: the candidate's identity for
     * dedup and deterministic tie-breaking. */
    std::uint64_t fingerprint() const;
    static std::uint64_t fingerprint(const TreeState &s);

    /**
     * Apply @p m. Returns false (and changes nothing) when the
     * mutation is infeasible — bias at its clamp, mode already set,
     * or no gap/op/switch to mutate. On success fills @p undo.
     */
    bool apply(const Mutation &m, Undo &undo);

    /** Undo the mutation recorded in @p undo (exact restore). */
    void revert(const Undo &undo);

    /** Segment count of the current candidate. */
    std::size_t numSegments() const { return segEnd_.size(); }

    /** Build the PlanOverride materializing @p s. */
    static core::PlanOverride toOverride(const SearchContext &ctx,
                                         const TreeState &s);

    /**
     * Ops whose build inputs differ between two states: bias-diff
     * ops plus every op of a switch whose group mode differs. The
     * changed-op list handed to Scheduler::buildDelta when
     * materializing @p b against a base built from @p a (partition
     * differences are caught by buildDelta's op-list comparison).
     */
    static std::vector<OpId> diffOps(const SearchContext &ctx,
                                     const TreeState &a,
                                     const TreeState &b);

    /** Recost every segment from scratch (test hook: incremental
     * maintenance must match). */
    double recostAll();

  private:
    /** Segment index owning atom @p a. */
    std::size_t segOfAtom(int a) const;

    /** Surrogate cost of the segment covering atoms
     * [atomBegin, atomEnd). */
    double segmentCost(int atom_begin, int atom_end) const;

    /** Sum segCost_ into total_. */
    void retotal();

    const SearchContext &ctx_;
    TreeState st_;

    /** Exclusive atom end of each segment, ascending; last entry is
     * numAtoms(). */
    std::vector<int> segEnd_;
    std::vector<double> segCost_;
    double total_ = 0.0;
};

} // namespace adyna::search

#endif // ADYNA_SEARCH_TREE_HH
