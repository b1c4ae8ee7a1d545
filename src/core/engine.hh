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
#include <vector>

#include "arch/chip.hh"
#include "arch/profiler.hh"
#include "arch/resource.hh"
#include "core/schedule.hh"
#include "costmodel/mapper.hh"
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
};

/**
 * Cycle multiplier for a stage whose tile group is entirely dead (no
 * survivor can re-execute the shards; the host steps in). Groups with
 * survivors instead stretch by (1 + dead tiles): SIMD lockstep means
 * each dead shard costs one extra full pass on a surviving member.
 * Only consulted while the chip reports a failed tile, so fault-free
 * runs never read it.
 */
inline constexpr double kDeadGroupPenalty = 32.0;

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
     * Allocation-free variant: results land in @p out, whose vector
     * is reused across calls. Once the scratch
     * buffers have reached the sizes a schedule needs, a call
     * performs zero heap allocations, whether or not the engine has
     * run that schedule before — the invariant the allocation-guard
     * tests enforce.
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
    /** Aggregate cost of one stage execution (possibly multi-pass). */
    struct ExecCost
    {
        Cycles cycles = 0;
        MacCount useful = 0;
        MacCount issued = 0;
        Bytes spill = 0;
        Bytes sram = 0;
    };

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

    /** Single-tile cycles per batch row of every op (the allocation
     * weight tile sharing and repartition balance by). */
    std::vector<double> perRowWork_;

    /** Last M-tenant partition (per-batch repartition hysteresis). */
    std::vector<int> repartCount_;

    // --- reusable runPeriod scratch state ---------------------------
    // Hoisted out of the hot loop so a steady-state period performs
    // zero allocations: capacity persists across batches, segments,
    // and calls.

    /** Snake tile order (fixed by the hw config). */
    std::vector<TileId> snake_;

    /** Host-CPU routing resource, reset at each period start. */
    arch::GapBandwidthResource hostCpu_{1.0};

    /** Segment and stage index of every op the current period's
     * schedule places (segOf_ is -1 for every other op; stageOf_ is
     * read only where segOf_ matches). */
    std::vector<int> segOf_;
    std::vector<int> stageOf_;

    /** Per-stage DRAM write-out flags of the current segment. */
    std::vector<char> writesOut_;

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
