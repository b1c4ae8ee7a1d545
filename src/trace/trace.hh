/**
 * @file
 * Dynamism trace generation.
 *
 * This library substitutes for running trained DynNN checkpoints on
 * real datasets (ImageNet / GLUE): it produces, per batch, the
 * routing decisions at every switch operator of a DynGraph. Each
 * sample carries a latent difficulty drawn from a (possibly
 * drifting) Beta distribution; gate policies translate difficulty
 * into exit / skip / expert / channel / patch decisions, which gives
 * the cross-gate correlation (easy samples exit earlier and skip
 * more) and the batch-to-batch variance that the paper's scheduling
 * techniques exploit. See DESIGN.md, substitutions.
 *
 * A generator only draws routings. Profiling a stream (the offline
 * profile every run starts from, on the probe stream its seed
 * derives) is core::profileOffline's job, in core/sampling.
 */

#ifndef ADYNA_TRACE_TRACE_HH
#define ADYNA_TRACE_TRACE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "graph/dyngraph.hh"

namespace adyna::trace {

/** Routing outcome of one switch for one batch. */
struct SwitchOutcome
{
    /** Samples routed to each branch (MoE top-k counts each sample
     * once per activated expert, so the sum can exceed the input). */
    std::vector<std::int64_t> branchCounts;

    /** Samples still active after the switch region (exits and
     * dropped patches removed). */
    std::int64_t activeAfter = 0;

    /** Samples that reached the switch. */
    std::int64_t activeBefore = 0;
};

/**
 * Routing decisions of one batch across all switches: one flat
 * (switch id, outcome) entry per switch of the graph, in ascending
 * switch id, so entry i belongs to the switch whose SwitchInfo::slot
 * is i and an op finds its switch's outcome at DynOpInfo::switchSlot
 * without a search.
 */
struct BatchRouting
{
    /** (switch op id, outcome) per switch, ascending switch id. */
    std::vector<std::pair<OpId, SwitchOutcome>> outcomes;

    /**
     * The dyn_dim (batch) value a given dynamic operator observes in
     * this batch: branch ops see their branch count, post-merge ops
     * see the active-after count. Static ops see their full extent.
     * Reads the entry at the op's switch slot; panics if that entry
     * is missing or belongs to another switch.
     */
    std::int64_t dynValue(const graph::DynGraph &dg, OpId op) const;

    /** The outcome of switch @p switch_op, by binary search over the
     * ids; panics if absent. */
    const SwitchOutcome &outcome(OpId switch_op) const;
};

/**
 * Sum the per-switch outcomes of several routings, entry by entry:
 * the routing the concatenated batch would observe (branch counts,
 * active-before and active-after add up sample-wise). All parts must
 * list the same switches — routings of the same graph; used by the
 * serving batcher to merge single-request draws into one engine
 * batch.
 */
BatchRouting mergeRoutings(const std::vector<const BatchRouting *> &parts);

/**
 * Total dynamic load of one routing: the sum of dynValue over the
 * graph's dynamic operators. The serving runtimes record this exact
 * series into their drift monitors, and the pod router uses it as a
 * request's routing signature for schedule-affinity dispatch — the
 * same scalar on both sides, so "route to the chip whose installed
 * expectations match" compares like with like.
 */
std::int64_t totalDynLoad(const graph::DynGraph &dg,
                          const BatchRouting &routing);

/** Parameters of the synthetic dynamism model. */
struct TraceConfig
{
    /** Samples per batch (images / sequences, before patch folding). */
    std::int64_t batchSize = 128;

    /** Beta(alpha, beta) parameters of the sample difficulty prior. */
    double difficultyAlpha = 2.0;
    double difficultyBeta = 2.0;

    /** Per-gate observation noise on difficulty (std dev). */
    double gateNoise = 0.08;

    /**
     * Strength of non-stationary drift in [0, 1]: each phase rescales
     * the gate marginals and redraws expert popularity. 0 disables
     * drift (stationary distribution). Serving-time distribution
     * shift is the premise of the paper's periodic re-sampling
     * (Section VII, citing Brainstorm/FasterMoE observations).
     */
    double driftStrength = 0.30;

    /** Batches per drift phase. */
    int driftPeriod = 120;

    /** Per-sample probability of an off-ranking channel pick
     * (ChannelBlocks): tail blocks otherwise activate only for the
     * hardest samples, producing the rarely-executed branches that
     * motivate branch grouping. */
    double channelSwapProb = 0.002;

    /** Relative std dev of the per-image kept-patch count. */
    double patchSpread = 0.5;
};

/**
 * Generates routing decisions batch by batch for one DynGraph.
 * Deterministic given (graph, config, seed).
 */
class TraceGenerator
{
  public:
    TraceGenerator(const graph::DynGraph &dg, TraceConfig cfg,
                   std::uint64_t seed);

    /**
     * Produce the routing for the next batch. Switches are routed in
     * switches() order, which is topological and fixes the draw
     * order; each outcome is stored at its switch's slot. Once the
     * member buffers are sized, a call allocates only its result: the
     * outcome vector and one branch-count vector per switch.
     */
    BatchRouting next();

    /** Expert-sampler table builds so far (one whenever a TopKExperts
     * gate's weights differ from the previous gate's); a work counter
     * for tests, in no report. */
    std::uint64_t tableBuilds() const { return topK_.builds(); }

  private:
    /** Latent per-sample state during one batch's routing. */
    struct Sample
    {
        double difficulty = 0.5;
        bool active = true;
        /** Batch rows this sample currently occupies (changed by a
         * patch-select gate: kept patches per image). */
        std::int64_t rows = 1;
    };

    /** Difficulty draw under the current drift phase. */
    double drawDifficulty();

    /** Advance drift phase state if the period elapsed. */
    void maybeAdvancePhase();

    /** Gate marginal under the current drift phase. */
    double phaseFraction(double base) const;

    void routeSwitch(const graph::SwitchInfo &sw, BatchRouting &out);

    /** Move the @p n smallest entries of ranked_ to its front, in no
     * particular order. */
    void selectEasiest(std::size_t n);

    const graph::DynGraph &dg_;
    TraceConfig cfg_;
    Rng rng_;
    std::uint64_t batches_ = 0;

    // Drift phase state.
    double phaseScale_ = 1.0;
    std::vector<double> phaseExpertTilt_;

    // Per-batch buffers, kept so that next() does not allocate them.
    std::vector<Sample> samples_;
    /** Active samples at the current gate as (jittered difficulty,
     * sample index), in the order the gate reads: all sorted easiest
     * first for ChannelBlocks and PatchSelect, the exit or skip set
     * moved to the front for EarlyExit and LayerSkip, and left empty
     * at a TopKExperts gate, which reads no rank. */
    std::vector<std::pair<double, std::size_t>> ranked_;
    /** Expert weights of the current TopKExperts gate. */
    std::vector<double> expertWeights_;
    /** Expert sampler shared by the TopKExperts gates; it keeps its
     * tables while consecutive gates' weights are equal. */
    TopKSampler topK_;
};

} // namespace adyna::trace

#endif // ADYNA_TRACE_TRACE_HH
