/**
 * @file
 * The pipelined execution engine: simulates batches streaming
 * through a schedule on the modelled chip. One engine serves every
 * design point via ExecPolicy flags -- the Adyna modes, the M-tile
 * worst-case baseline, the M-tenant (Planaria-like) baseline, and
 * the idealized full-kernel setting.
 */

#ifndef ADYNA_CORE_ENGINE_HH
#define ADYNA_CORE_ENGINE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "arch/chip.hh"
#include "arch/profiler.hh"
#include "core/schedule.hh"
#include "costmodel/mapper.hh"
#include "des/resource.hh"
#include "graph/dyngraph.hh"
#include "trace/trace.hh"

namespace adyna::core {

/** Execution-mode flags distinguishing the design points. */
struct ExecPolicy
{
    /** Execute every operator at its worst-case size with a single
     * max-size kernel (the M-tile baseline's static schedule). */
    bool worstCaseExec = false;

    /** Runtime kernel fitting clamps loop bounds to actual values
     * (Section VI-B). */
    bool kernelFitting = true;

    /** Inter-operator pipelining over the NoC; false routes every
     * inter-stage tensor through DRAM (M-tenant). */
    bool pipelining = true;

    /** Switch/merge handled by the host CPU: edges crossing routing
     * operators pay a synchronization round trip (M-tenant). */
    bool hostRouting = false;

    /** Host switch/merge latency, cycles (~20 us at 1 GHz). */
    Cycles hostSyncCycles = 20000;

    /** Re-partition tile groups every batch proportional to actual
     * loads (M-tenant's fast runtime adjustment). */
    bool perBatchRepartition = false;

    /** Generate the exact kernel for every actual value instead of
     * dispatching from on-chip stores (full-kernel upper bound; also
     * the optimistic M-tenant pre-compilation assumption). */
    bool exactKernels = false;

    /** Honor the schedule's tile-sharing pairs at runtime. */
    bool tileSharing = true;

    /**
     * Memoize per-schedule segment plans (producer edges + write-out
     * flags) so they are computed once per schedule instead of once
     * per period, using a precomputed reverse producer index instead
     * of the quadratic consumer scan. Behaviour-preserving; disable
     * to force the legacy per-period planner (used by the
     * equivalence tests).
     */
    bool planCache = true;

    /**
     * Cycle multiplier for a stage whose tile group is entirely dead
     * (no survivor can re-execute the shards; the host steps in).
     * Groups with survivors instead stretch by (1 + dead tiles):
     * SIMD lockstep means each dead shard costs one extra full pass
     * on a surviving member. Only consulted while the chip reports a
     * failed tile, so fault-free runs never read it.
     */
    double deadGroupPenalty = 32.0;
};

/**
 * Bytes of slice @p i when @p total bytes are split across @p parts
 * NoC transfers: the first total % parts slices carry one extra byte
 * so the slices sum exactly to the total (no remainder is dropped).
 */
constexpr Bytes
nocSliceBytes(Bytes total, std::size_t parts, std::size_t i)
{
    const Bytes per = total / static_cast<Bytes>(parts);
    const Bytes rem = total % static_cast<Bytes>(parts);
    return per + (static_cast<Bytes>(i) < rem ? 1 : 0);
}

/** Outcome of executing a group of batches. */
struct PeriodResult
{
    /** Completion time of the last batch. */
    Tick endTime = 0;

    /** Per-batch completion times (last segment). */
    std::vector<Tick> batchEnds;

    /** Per-batch, per-stage-op makespan cycles of the final segment
     * run (used by the Figure 6 trace bench). */
    std::map<OpId, std::vector<Cycles>> stageCycles;
};

/** Batch-streaming simulator over a fixed schedule. */
class Engine
{
  public:
    Engine(const graph::DynGraph &dg, arch::HwConfig hw,
           costmodel::Mapper &mapper, ExecPolicy policy);

    /**
     * Stream @p batches through @p schedule on @p chip, starting no
     * earlier than @p barrier. Records dyn values and branch loads
     * into @p profiler when non-null.
     */
    PeriodResult runPeriod(arch::Chip &chip, const Schedule &schedule,
                           const std::vector<trace::BatchRouting>
                               &batches,
                           arch::Profiler *profiler, Tick barrier);

    /**
     * Allocation-free variant: results land in @p out, whose vectors
     * and map nodes are reused across calls. With the plan cache
     * warm (same schedule) and the scratch buffers at their
     * steady-state sizes, a call performs zero heap allocations —
     * the invariant the allocation-guard test enforces.
     */
    void runPeriod(arch::Chip &chip, const Schedule &schedule,
                   const std::vector<trace::BatchRouting> &batches,
                   arch::Profiler *profiler, Tick barrier,
                   PeriodResult &out);

    const ExecPolicy &policy() const { return policy_; }

    /** Always 0 (no exec-cost memo); kept for perfbench/probe.cc. */
    std::uint64_t execHits() const { return 0; }
    std::uint64_t execMisses() const { return 0; }

  private:
    struct Edge
    {
        /** Producer stage index within the segment, or -1 for an
         * external producer (earlier segment / graph input). */
        int producerStage = -1;

        /** Resolved producer op (stage op or Input node). */
        OpId producerOp = kInvalidOp;

        /** Bytes per batch row of the producer's output. */
        Bytes perRowBytes = 0;

        /** The edge passes through switch/merge routing nodes. */
        bool crossesRouting = false;
    };

    struct StagePlan
    {
        std::vector<Edge> edges;
        bool writesOut = false;

        /** Single-tile cycles per batch row of the stage op (the
         * allocation weight); a per-schedule constant hoisted out of
         * the per-batch tile-sharing / repartition loops. */
        double perRowWork = 0.0;
    };

    /** Aggregate cost of one stage execution (possibly multi-pass). */
    struct ExecCost
    {
        Cycles cycles = 0;
        MacCount useful = 0;
        MacCount issued = 0;
        Bytes spill = 0;
        Bytes sram = 0;
    };

    /**
     * Graph-structural producer/consumer relationships, independent
     * of any schedule. Built once per engine; turns the legacy
     * planner's repeated DFS walks into table lookups.
     */
    struct ProducerIndex
    {
        /** Resolved (producer, crossesRouting) pairs per op, in the
         * legacy DFS discovery order. */
        std::vector<std::vector<std::pair<OpId, bool>>> producers;

        /** Ops that list the key op among their resolved producers
         * (compute consumers only; the reverse of `producers`). */
        std::vector<std::vector<OpId>> consumers;

        /** The op is a resolved producer of some graph output. */
        std::vector<char> feedsOutput;
    };

    /** Resolve the compute/input producers of @p op through routing
     * nodes. */
    void resolveProducers(OpId op, bool crossed,
                          std::vector<std::pair<OpId, bool>> &out,
                          std::vector<char> &visited) const;

    void buildProducerIndex();

    /** The seed per-period planner: per-stage DFS producer
     * resolution plus an all-segments consumer scan. Kept as the
     * reference path for ExecPolicy::planCache == false. */
    std::vector<StagePlan> planSegmentLegacy(const Schedule &schedule,
                                             std::size_t seg_index) const;

    /** Index-based planner: identical output to planSegmentLegacy in
     * one linear pass. @p seg_of maps op -> segment index (-1 when
     * unscheduled). */
    std::vector<StagePlan>
    planSegmentIndexed(const Schedule &schedule, std::size_t seg_index,
                       const std::vector<int> &seg_of) const;

    /** All segments' plans for @p schedule, memoized by the
     * schedule's segment/stage-op layout. */
    const std::vector<std::vector<StagePlan>> &
    cachedPlans(const Schedule &schedule);

    static ExecCost accumulate(ExecCost acc,
                               const costmodel::KernelCost &c);

    /** Accumulate @p c scaled by @p n passes. All fields are
     * integers, so this equals @p n repeated accumulate() calls. */
    static ExecCost accumulateN(ExecCost acc,
                                const costmodel::KernelCost &c,
                                std::int64_t n);

    const graph::DynGraph &dg_;
    arch::HwConfig hw_; // by value: small, and callers may pass
                        // temporaries
    costmodel::Mapper &mapper_;
    ExecPolicy policy_;

    ProducerIndex pindex_;

    /** Plan-relevant schedule identity: stage ops per segment, in
     * order (edges depend on stage order, write-out flags on the
     * op->segment partition; both are captured here). */
    using PlanKey = std::vector<std::vector<OpId>>;
    std::map<PlanKey, std::vector<std::vector<StagePlan>>> planCache_;

    /** Scratch visited buffer for resolveProducers (reused across
     * calls instead of reallocating per resolution). */
    mutable std::vector<char> scratchVisited_;

    /** Last M-tenant partition (per-batch repartition hysteresis). */
    std::vector<int> repartCount_;

    // --- reusable runPeriod scratch state ---------------------------
    // Hoisted out of the hot loop so a steady-state period performs
    // zero allocations: capacity persists across batches, segments,
    // and calls.

    /** Snake tile order (fixed by the hw config). */
    std::vector<TileId> snake_;

    /** Host-CPU routing resource, reset at each period start. */
    des::GapBandwidthResource hostCpu_{1.0};

    /** Reused plan-cache lookup key (insertion copies it). */
    PlanKey scratchKey_;

    /** Flattened per-stage/per-batch start and end times,
     * indexed [stage * numBatches + batch]. */
    std::vector<Tick> starts_;
    std::vector<Tick> ends_;

    /** Per-stage effective tile groups for the current batch. */
    std::vector<std::vector<TileId>> usedTiles_;

    /** The schedule's tile union (the segment-barrier drain scope)
     * and its membership bitmap, rebuilt each period. */
    std::vector<TileId> periodTiles_;
    std::vector<char> periodTileSeen_;

    /** Per-pair tile-sharing configuration for the current batch. */
    std::vector<int> pairConfig_;

    /** M-tenant repartition scratch (loads and ideal counts). */
    std::vector<double> works_;
    std::vector<int> ideal_;
};

} // namespace adyna::core

#endif // ADYNA_CORE_ENGINE_HH
