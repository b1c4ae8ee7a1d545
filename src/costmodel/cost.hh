/**
 * @file
 * Analytic dataflow cost model (Timeloop / Interstellar class).
 *
 * Evaluates a kernel mapping on one operator: compute cycles on the
 * PE array (with ceil-induced under-utilization from spatial splits
 * and array mapping), scratchpad traffic via a generic blocked-loop
 * reuse model, DRAM spill traffic when blocks must be re-streamed,
 * the scratchpad footprint, and energy. Supports evaluation at an
 * actual dyn_dim value smaller than the value the kernel was
 * compiled for, with or without runtime kernel fitting
 * (Section VI-B) -- this is what makes a mismatched kernel cost more
 * and mechanistically yields the multi-kernel sampling objective.
 */

#ifndef ADYNA_COSTMODEL_COST_HH
#define ADYNA_COSTMODEL_COST_HH

#include "common/types.hh"
#include "costmodel/mapping.hh"
#include "costmodel/tech.hh"
#include "graph/op.hh"

namespace adyna::costmodel {

/** Per-tensor traffic at one memory level, in bytes. */
struct LevelTraffic
{
    Bytes weights = 0;
    Bytes inputs = 0;
    Bytes outputReads = 0;
    Bytes outputWrites = 0;

    Bytes
    total() const
    {
        return weights + inputs + outputReads + outputWrites;
    }
};

/**
 * Generic reuse model: traffic between a backing level holding the
 * full tensors of @p dims and a buffer level holding one block of
 * @p block per tensor, under blocked loops in @p order. @p stride
 * and the R/S extents determine the input halo.
 */
LevelTraffic blockedTraffic(const graph::LoopDims &dims,
                            const graph::LoopDims &block,
                            LoopOrder order, int stride, int dtype_bytes);

/** Everything the simulator charges for one kernel execution. */
struct KernelCost
{
    /** Makespan of the tile group, in cycles (max over tiles). */
    Cycles cycles = 0;

    /** Useful MACs actually retired (sums over all tiles). */
    MacCount usefulMacs = 0;

    /** MACs issued including redundant work (padding / no fitting). */
    MacCount issuedMacs = 0;

    /** Scratchpad traffic, all tiles (bytes). */
    Bytes sramBytes = 0;

    /** DRAM traffic beyond one input pass / output pass caused by
     * scratchpad spills (bytes, all tiles). */
    Bytes dramSpillBytes = 0;

    /** Per-tile scratchpad footprint of weights + double-buffered
     * activation blocks (bytes). */
    Bytes spadFootprint = 0;

    /** Energy of compute + SRAM traffic (pJ); DRAM and NoC energy
     * are charged by the simulator where the traffic happens. */
    PicoJoules computeEnergyPj = 0.0;
};

/**
 * Evaluate executing @p op with @p mapping at actual batch extent
 * @p actual_n.
 *
 * @param fitting true = runtime kernel fitting clamps loop bounds to
 *        the actual value (Adyna); false = the kernel executes its
 *        compiled bounds in full (static worst-case baseline).
 */
KernelCost evalKernel(const graph::OpNode &op, const Mapping &mapping,
                      std::int64_t actual_n, bool fitting,
                      const TechParams &tech);

/**
 * Cycles a zero-MAC vector operator (standalone Act / Pool / Norm /
 * Softmax / Eltwise, or switch/merge data marshalling) occupies the
 * array, at one element per PE per cycle.
 */
Cycles vectorOpCycles(std::int64_t elements, int tiles,
                      const TechParams &tech);

/**
 * PE-array cycles per batch row for the given per-tile loop extents:
 * K maps to array rows; the columns take C, C x S, or C x R x S
 * (im2col-style filter folding), whichever wastes the fewest lanes.
 * This is also the per-row work weight the scheduler allocates
 * tiles by.
 */
double computeCyclesPerRow(const graph::LoopDims &per_tile,
                           const TechParams &tech);

/**
 * Single-tile cycles per batch row of @p op: computeCyclesPerRow over
 * its full dims for a compute op, one element per MAC lane for a
 * vector op. The allocation weight the scheduler splits tiles by and
 * the engine's tile sharing and per-batch repartition rebalance by.
 */
double perRowWork(const graph::OpNode &op, const TechParams &tech);

/**
 * Makespan cycles of one kernel execution: a compute op runs the
 * @p per_tile rows through the PE array (computeCyclesPerRow); a
 * vector op streams @p exec_n x K x P x Q elements of @p compiled
 * over @p tiles tiles (vectorOpCycles). The one cycles formula of
 * evalKernel and the mapper's search.
 */
Cycles kernelCycles(const graph::OpNode &op,
                    const graph::LoopDims &compiled,
                    const graph::LoopDims &per_tile, std::int64_t exec_n,
                    int tiles, const TechParams &tech);

/**
 * Weight bytes each tile keeps resident when @p op's K dim is split
 * @p k_split ways (0 for a vector op, which has no weights).
 */
Bytes residentWeightBytes(const graph::OpNode &op, int k_split);

/**
 * Per-tile scratchpad footprint: @p resident_weights plus the
 * double-buffered input (with halo) and output blocks of extents
 * @p block. The one footprint formula of evalKernel and the mapper's
 * scratchpad blocking and feasibility test.
 */
Bytes spadFootprint(const graph::OpNode &op, const graph::LoopDims &block,
                    Bytes resident_weights);

} // namespace adyna::costmodel

#endif // ADYNA_COSTMODEL_COST_HH
