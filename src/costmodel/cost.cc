#include "costmodel/cost.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace adyna::costmodel {

using graph::Dim;
using graph::kNumDims;
using graph::LoopDims;

namespace {

constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** Relevance of each loop dim to each tensor. */
constexpr bool kRelevantW[kNumDims] = {false, true, true, false,
                                       false, true, true};
constexpr bool kRelevantI[kNumDims] = {true, false, true, true,
                                       true, true, true};
constexpr bool kRelevantO[kNumDims] = {true, true, false, true,
                                       true, false, false};

/** Input block bytes including the convolution halo. */
Bytes
inputBlockBytes(const LoopDims &block, int stride, int dtype)
{
    const std::int64_t ih = (block.p() - 1) * stride + block.r();
    const std::int64_t iw = (block.q() - 1) * stride + block.s();
    return static_cast<Bytes>(block.n() * block.c() * ih * iw) * dtype;
}

Bytes
weightBlockBytes(const LoopDims &block, int dtype)
{
    return static_cast<Bytes>(block.k() * block.c() * block.r() *
                              block.s()) *
           dtype;
}

Bytes
outputBlockBytes(const LoopDims &block, int dtype)
{
    return static_cast<Bytes>(block.n() * block.k() * block.p() *
                              block.q()) *
           dtype;
}

/**
 * Number of buffer-block residencies of a tensor under blocked loops:
 * the product of block-loop trip counts, excluding irrelevant loops
 * nested strictly inside the tensor's innermost relevant loop (those
 * iterations reuse the resident block for free).
 */
double
blockResidencies(const std::int64_t trips[kNumDims],
                 const std::array<Dim, kNumDims> &perm,
                 const bool relevant[kNumDims])
{
    int innermostRel = -1;
    for (int pos = 0; pos < static_cast<int>(kNumDims); ++pos)
        if (relevant[static_cast<std::size_t>(
                static_cast<std::uint8_t>(perm[pos]))])
            innermostRel = pos;
    double loads = 1.0;
    for (int pos = 0; pos < static_cast<int>(kNumDims); ++pos) {
        const std::size_t d = static_cast<std::size_t>(
            static_cast<std::uint8_t>(perm[pos]));
        const bool rel = relevant[d];
        if (rel || pos < innermostRel)
            loads *= static_cast<double>(trips[d]);
    }
    return loads;
}

} // namespace

LevelTraffic
blockedTraffic(const LoopDims &dims, const LoopDims &block,
               LoopOrder order, int stride, int dtype_bytes)
{
    LoopDims clamped = block;
    for (std::size_t d = 0; d < kNumDims; ++d) {
        const Dim dd = static_cast<Dim>(d);
        clamped[dd] = std::clamp<std::int64_t>(clamped[dd], 1, dims[dd]);
    }

    std::int64_t trips[kNumDims];
    for (std::size_t d = 0; d < kNumDims; ++d) {
        const Dim dd = static_cast<Dim>(d);
        trips[d] = ceilDiv(dims[dd], clamped[dd]);
    }

    const auto perm = orderPermutation(order);

    LevelTraffic out;
    const double loadsW = blockResidencies(trips, perm, kRelevantW);
    const double loadsI = blockResidencies(trips, perm, kRelevantI);
    const double loadsO = blockResidencies(trips, perm, kRelevantO);

    out.weights = static_cast<Bytes>(
        loadsW *
        static_cast<double>(weightBlockBytes(clamped, dtype_bytes)));
    out.inputs = static_cast<Bytes>(
        loadsI *
        static_cast<double>(inputBlockBytes(clamped, stride,
                                            dtype_bytes)));

    // Each output residency ends with a write-back; every residency
    // after the first of a given block also begins with a read of the
    // partial sums.
    double finalBlocks = 1.0;
    for (std::size_t d = 0; d < kNumDims; ++d)
        if (kRelevantO[d])
            finalBlocks *= static_cast<double>(trips[d]);
    const double bbO =
        static_cast<double>(outputBlockBytes(clamped, dtype_bytes));
    out.outputWrites = static_cast<Bytes>(loadsO * bbO);
    out.outputReads =
        static_cast<Bytes>(std::max(0.0, loadsO - finalBlocks) * bbO);
    return out;
}

Cycles
vectorOpCycles(std::int64_t elements, int tiles, const TechParams &tech)
{
    ADYNA_ASSERT(tiles >= 1, "vector op needs >= 1 tile");
    const std::int64_t perTile = ceilDiv(elements, tiles);
    return static_cast<Cycles>(ceilDiv(perTile, tech.macsPerCycle()));
}

double
computeCyclesPerRow(const LoopDims &per_tile, const TechParams &tech)
{
    const std::int64_t kLanes = ceilDiv(per_tile.k(), tech.peRows);
    const std::int64_t base =
        per_tile.p() * per_tile.q() * kLanes;
    // Three column mappings: plain C, C x S, C x R x S.
    const std::int64_t plain =
        base * per_tile.r() * per_tile.s() *
        ceilDiv(per_tile.c(), tech.peCols);
    const std::int64_t foldS =
        base * per_tile.r() *
        ceilDiv(per_tile.c() * per_tile.s(), tech.peCols);
    const std::int64_t foldRS =
        base *
        ceilDiv(per_tile.c() * per_tile.r() * per_tile.s(),
                tech.peCols);
    return static_cast<double>(
        std::min({plain, foldS, foldRS}));
}

double
perRowWork(const graph::OpNode &op, const TechParams &tech)
{
    if (graph::isCompute(op.kind))
        return computeCyclesPerRow(op.dims, tech);
    return static_cast<double>(op.dims.k() * op.dims.p() *
                               op.dims.q()) /
           static_cast<double>(tech.macsPerCycle());
}

Cycles
kernelCycles(const graph::OpNode &op, const LoopDims &compiled,
             const LoopDims &per_tile, std::int64_t exec_n, int tiles,
             const TechParams &tech)
{
    // Fused epilogue ops ride along in the pipeline: no extra cycles
    // charged (Section VI-B).
    if (graph::isCompute(op.kind))
        return static_cast<Cycles>(static_cast<double>(per_tile.n()) *
                                   computeCyclesPerRow(per_tile, tech));
    return vectorOpCycles(
        exec_n * compiled.k() * compiled.p() * compiled.q(), tiles, tech);
}

Bytes
residentWeightBytes(const graph::OpNode &op, int k_split)
{
    // weightBytes() is 0 for a vector op, so this is too.
    return static_cast<Bytes>(
        ceilDiv(static_cast<std::int64_t>(op.weightBytes()), k_split));
}

Bytes
spadFootprint(const graph::OpNode &op, const LoopDims &block,
              Bytes resident_weights)
{
    return resident_weights +
           2 * (inputBlockBytes(block, op.stride, op.dtypeBytes) +
                outputBlockBytes(block, op.dtypeBytes));
}

KernelCost
evalKernel(const graph::OpNode &op, const Mapping &mapping,
           std::int64_t actual_n, bool fitting, const TechParams &tech)
{
    const LoopDims &compiled = mapping.compiledDims;
    ADYNA_ASSERT(actual_n >= 0, "negative actual_n");
    ADYNA_ASSERT(compiled.valid(), "invalid compiled dims for op '",
                 op.name, "'");

    KernelCost cost;
    if (actual_n == 0 && fitting)
        return cost; // nothing to do

    // --- per-tile execution extents ---------------------------------
    const int fN = mapping.splitFactor(Dim::N);
    const std::int64_t chunkN = ceilDiv(compiled.n(), fN);
    const std::int64_t execNTotal = fitting ? actual_n : compiled.n();
    // Makespan tile: with an N-split, the first tile processes a full
    // chunk unless the actual value is smaller than one chunk.
    const std::int64_t perTileN = std::min(chunkN, execNTotal);

    LoopDims perTile = compiled;
    perTile[Dim::N] = perTileN;
    for (const SpatialSplit &s : mapping.splits) {
        if (s.dim == Dim::N)
            continue; // handled above
        perTile[s.dim] = ceilDiv(compiled[s.dim], s.factor);
    }

    const bool compute = graph::isCompute(op.kind);
    cost.cycles = kernelCycles(op, compiled, perTile, execNTotal,
                               mapping.tiles, tech);

    // --- MAC accounting ----------------------------------------------
    const std::int64_t restMacs = compiled.k() * compiled.c() *
                                  compiled.p() * compiled.q() *
                                  compiled.r() * compiled.s();
    if (compute) {
        cost.usefulMacs = static_cast<MacCount>(
            std::min(actual_n, compiled.n()) * restMacs);
        cost.issuedMacs =
            static_cast<MacCount>(execNTotal * restMacs);
    }

    // --- scratchpad traffic (array-level reuse) -----------------------
    if (compute) {
        LoopDims arrayBlock;
        arrayBlock[Dim::N] = 1;
        arrayBlock[Dim::K] =
            std::min<std::int64_t>(tech.peRows, perTile.k());
        arrayBlock[Dim::C] =
            std::min<std::int64_t>(tech.peCols, perTile.c());
        arrayBlock[Dim::P] = 1;
        arrayBlock[Dim::Q] = 1;
        arrayBlock[Dim::R] = perTile.r();
        arrayBlock[Dim::S] = perTile.s();
        const LevelTraffic sram =
            blockedTraffic(perTile, arrayBlock, mapping.order, op.stride,
                           op.dtypeBytes);
        cost.sramBytes =
            static_cast<Bytes>(sram.total()) * mapping.tiles;
    } else {
        const std::int64_t elems =
            execNTotal * compiled.k() * compiled.p() * compiled.q();
        cost.sramBytes = static_cast<Bytes>(2 * elems) * op.dtypeBytes;
    }

    // --- DRAM spill traffic beyond single passes ----------------------
    // Weights are pinned in the scratchpad for the whole execution
    // (the footprint below reserves them; the scheduler streams them
    // separately when they do not fit), so only activation blocks
    // can incur re-streaming: clamp the weight dims of the DRAM-level
    // blocking up to the full per-tile extents.
    if (compute) {
        LoopDims dramBlock = mapping.spadBlock;
        dramBlock[Dim::K] = perTile.k();
        dramBlock[Dim::C] = perTile.c();
        dramBlock[Dim::R] = perTile.r();
        dramBlock[Dim::S] = perTile.s();
        const LevelTraffic dram =
            blockedTraffic(perTile, dramBlock, mapping.order,
                           op.stride, op.dtypeBytes);
        // A "single pass" visits each activation block exactly once
        // (halo overlap between spatial blocks is not a spill: the
        // boundary rows stay on-chip between neighbouring blocks).
        LoopDims clampedBlock = dramBlock;
        double passI = 1.0, passO = 1.0;
        for (std::size_t d = 0; d < kNumDims; ++d) {
            const Dim dd = static_cast<Dim>(d);
            clampedBlock[dd] = std::clamp<std::int64_t>(
                clampedBlock[dd], 1, perTile[dd]);
            const double trips = static_cast<double>(
                ceilDiv(perTile[dd], clampedBlock[dd]));
            if (kRelevantI[d])
                passI *= trips;
            if (kRelevantO[d])
                passO *= trips;
        }
        const Bytes onePassI = static_cast<Bytes>(
            passI * static_cast<double>(inputBlockBytes(
                        clampedBlock, op.stride, op.dtypeBytes)));
        const Bytes onePassO = static_cast<Bytes>(
            passO * static_cast<double>(outputBlockBytes(
                        clampedBlock, op.dtypeBytes)));
        Bytes spill = 0;
        spill += dram.inputs > onePassI ? dram.inputs - onePassI : 0;
        spill += dram.outputWrites > onePassO
                     ? dram.outputWrites - onePassO
                     : 0;
        spill += dram.outputReads;
        cost.dramSpillBytes = spill * mapping.tiles;
    }

    // --- scratchpad footprint -----------------------------------------
    cost.spadFootprint = spadFootprint(
        op, mapping.spadBlock,
        residentWeightBytes(op, mapping.splitFactor(Dim::K)));

    // --- energy --------------------------------------------------------
    cost.computeEnergyPj =
        tech.eMacPj * static_cast<double>(cost.issuedMacs) +
        tech.eSramPerBytePj * static_cast<double>(cost.sramBytes);
    return cost;
}

} // namespace adyna::costmodel
