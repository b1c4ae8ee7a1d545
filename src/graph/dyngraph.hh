/**
 * @file
 * The paper's unified representation: dynamic operator graphs
 * (Section IV). Produced by the model parser from a user-level Graph;
 * all dynamism is folded onto the batch dimension (N), each dynamic
 * operator knows its controlling switch and that switch's slot, and a
 * frequency track table slot exists for every dynamic operator.
 */

#ifndef ADYNA_GRAPH_DYNGRAPH_HH
#define ADYNA_GRAPH_DYNGRAPH_HH

#include <span>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "graph/graph.hh"

namespace adyna::graph {

/**
 * Dynamism annotation of one operator in a dynamic operator graph.
 * `branch >= 0` means the op lies on that branch of `ownerSwitch`;
 * `branch == -1` with a valid ownerSwitch means the op executes after
 * the switch's merge but still sees a dynamic batch (samples may have
 * left through a sink, e.g. early exiting).
 */
struct DynOpInfo
{
    /** Batch extent varies at runtime. */
    bool dynamic = false;

    /** Nearest switch controlling this op's batch extent. */
    OpId ownerSwitch = kInvalidOp;

    /** SwitchInfo::slot of ownerSwitch (0 when there is none). */
    std::uint32_t switchSlot = 0;

    /** Branch index on ownerSwitch, or -1 for post-merge ops. */
    int branch = -1;

    /** Worst-case dyn_dim (batch) value. */
    std::int64_t maxDyn = 0;

    /** Number of epilogue operators fused into this node. */
    int epilogueOps = 0;

    /** Effective output dims after fusion (tail of the fused chain). */
    LoopDims outDims;
};

/** Branch structure of one switch operator. */
struct SwitchInfo
{
    OpId switchOp = kInvalidOp;

    /** Rank of switchOp among the graph's switch ids, ascending: the
     * index of this switch's entry in a trace::BatchRouting. Set by
     * DynGraph; switches() itself stays in topological order. */
    std::uint32_t slot = 0;

    /** Per-branch operator ids, in topological order. */
    std::vector<std::vector<OpId>> branches;

    /** The merge joining the branches, if any. */
    OpId mergeOp = kInvalidOp;

    /** True if any branch terminates in a sink (samples can leave,
     * making post-merge batch extents dynamic). */
    bool hasSink = false;

    int numBranches() const { return static_cast<int>(branches.size()); }
};

/** One data producer of an operator, resolved through routing. */
struct Producer
{
    /** The producing op: a compute, fusable or Input node. */
    OpId op = kInvalidOp;

    /** The edge passes through Switch/Merge routing nodes. */
    bool crossesRouting = false;
};

/**
 * A parsed dynamic operator graph: the fused computation graph plus
 * per-op dynamism annotations, per-switch branch structure and the
 * data-flow view (which op produces which op's input, looking through
 * the routing nodes). The structure is immutable after parsing. Op
 * ids are dense graph indices, so the profiler (adyna::arch) keeps
 * its runtime frequency track tables in vectors indexed by OpId;
 * switches are numbered 0..S-1 in ascending switch id (their slots),
 * which index a routing's per-switch outcomes.
 */
class DynGraph
{
  public:
    DynGraph(Graph graph, std::vector<DynOpInfo> info,
             std::vector<SwitchInfo> switches);

    const Graph &graph() const { return graph_; }
    const std::string &name() const { return graph_.name(); }

    const DynOpInfo &info(OpId id) const;
    const std::vector<SwitchInfo> &switches() const { return switches_; }

    /** The switch structure owning @p switch_op; fatal if absent. */
    const SwitchInfo &switchInfo(OpId switch_op) const;

    bool isDynamic(OpId id) const { return info(id).dynamic; }
    std::int64_t maxDyn(OpId id) const { return info(id).maxDyn; }

    /** Ids of all dynamic operators (frequency-table owners), in
     * topological order; built once, in the constructor. */
    const std::vector<OpId> &dynamicOps() const { return dynamicOps_; }

    /** Ids of all compute operators, topologically ordered. */
    std::vector<OpId> computeOps() const;

    /** Cached topological order over all nodes. */
    const std::vector<OpId> &topo() const { return topo_; }

    /** Worst-case MACs of the whole graph (one batch). */
    std::int64_t worstCaseMacs() const;

    /**
     * Expected MACs of one batch under the given per-op expected
     * batch extents (op id -> E[dyn]); ops absent from the map use
     * their worst case.
     */
    double expectedMacs(
        const std::vector<std::pair<OpId, double>> &expected) const;

    // --- data-flow view (built once, in the constructor) -----------

    /**
     * The data producers of @p op: its inputs with Switch/Merge nodes
     * looked through and Sink/Output nodes skipped, each producer
     * once, in depth-first discovery order over the input lists. The
     * order is load-bearing: the engine reserves NoC links and HBM
     * channels edge by edge in this order, so another order changes
     * simulated timings.
     */
    std::span<const Producer> producers(OpId op) const
    {
        return {producers_.data() + producerStart_[op],
                producers_.data() + producerStart_[op + 1]};
    }

    /** Ops (any kind) listing @p op among their producers, in
     * ascending id order. */
    std::span<const OpId> consumers(OpId op) const
    {
        return {consumers_.data() + consumerStart_[op],
                consumers_.data() + consumerStart_[op + 1]};
    }

    /** @p op is a producer of some graph Output node. */
    bool feedsOutput(OpId op) const { return feedsOutput_[op] != 0; }

    /** Bytes one batch row of @p op's output occupies: an Input's
     * own dims, otherwise the fused output dims. */
    Bytes outBytesPerRow(OpId op) const { return outBytesPerRow_[op]; }

    /** One line per op: kind, dims, dynamism annotation. */
    std::string summary() const;

  private:
    void numberSwitches();
    void buildDataFlow();

    Graph graph_;
    std::vector<DynOpInfo> info_;
    std::vector<SwitchInfo> switches_;
    std::vector<OpId> topo_;
    std::vector<OpId> dynamicOps_;

    /** Producers of op i are producers_[producerStart_[i] ..
     * producerStart_[i + 1]); consumers likewise. */
    std::vector<Producer> producers_;
    std::vector<std::uint32_t> producerStart_;
    std::vector<OpId> consumers_;
    std::vector<std::uint32_t> consumerStart_;
    std::vector<char> feedsOutput_;
    std::vector<Bytes> outBytesPerRow_;
};

} // namespace adyna::graph

#endif // ADYNA_GRAPH_DYNGRAPH_HH
