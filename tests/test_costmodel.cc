/**
 * @file
 * Unit tests for the dataflow cost model: the blocked-reuse traffic
 * formulas against hand-computed GEMM cases, compute-cycle ceilings,
 * kernel fitting semantics, mapper search quality (and the two-pass
 * search against an exhaustive reference), and the Table IV
 * area/power budget.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "costmodel/area.hh"
#include "costmodel/cost.hh"
#include "costmodel/mapper.hh"
#include "graph/op.hh"
#include "graph/parser.hh"
#include "models/models.hh"

namespace {

using namespace adyna;
using namespace adyna::costmodel;
using namespace adyna::graph;

TechParams
tech()
{
    return TechParams{};
}

OpNode
matmulOp(std::int64_t n, std::int64_t k, std::int64_t c)
{
    OpNode op;
    op.kind = OpKind::MatMul;
    op.name = "mm";
    op.dims = LoopDims::matmul(n, k, c);
    return op;
}

OpNode
convOp(std::int64_t n, std::int64_t k, std::int64_t c, std::int64_t p,
       std::int64_t q, std::int64_t r, std::int64_t s, int stride = 1)
{
    OpNode op;
    op.kind = OpKind::Conv2d;
    op.name = "conv";
    op.dims = LoopDims::conv(n, k, c, p, q, r, s);
    op.stride = stride;
    return op;
}

// ----------------------------------------------------- blockedTraffic

TEST(BlockedTraffic, GemmNOuterReloadsWeightsPerNBlock)
{
    // N=4 blocks of 16, K=1 block, C=1 block. Order N,K,C: weights
    // are re-fetched for every N block.
    const auto dims = LoopDims::matmul(64, 128, 256);
    auto block = LoopDims::matmul(16, 128, 256);
    const auto t = blockedTraffic(dims, block, LoopOrder::NOuter, 1, 2);
    EXPECT_EQ(t.weights, Bytes{4} * 128 * 256 * 2);
    EXPECT_EQ(t.inputs, Bytes{64} * 256 * 2);       // one pass
    EXPECT_EQ(t.outputWrites, Bytes{64} * 128 * 2); // one pass
    EXPECT_EQ(t.outputReads, 0u);
}

TEST(BlockedTraffic, GemmKOuterReloadsInputsPerKBlock)
{
    const auto dims = LoopDims::matmul(64, 128, 256);
    auto block = LoopDims::matmul(64, 32, 256); // K in 4 blocks
    const auto t = blockedTraffic(dims, block, LoopOrder::KOuter, 1, 2);
    EXPECT_EQ(t.weights, Bytes{128} * 256 * 2); // one pass
    EXPECT_EQ(t.inputs, Bytes{4} * 64 * 256 * 2);
    EXPECT_EQ(t.outputWrites, Bytes{64} * 128 * 2);
    EXPECT_EQ(t.outputReads, 0u);
}

TEST(BlockedTraffic, GemmCOuterSpillsPartialSums)
{
    const auto dims = LoopDims::matmul(64, 128, 256);
    auto block = LoopDims::matmul(64, 128, 64); // C in 4 blocks
    const auto t = blockedTraffic(dims, block, LoopOrder::COuter, 1, 2);
    EXPECT_EQ(t.weights, Bytes{128} * 256 * 2);
    EXPECT_EQ(t.inputs, Bytes{64} * 256 * 2);
    // Output block resident per C iteration: written 4x, read 3x.
    EXPECT_EQ(t.outputWrites, Bytes{4} * 64 * 128 * 2);
    EXPECT_EQ(t.outputReads, Bytes{3} * 64 * 128 * 2);
}

TEST(BlockedTraffic, WholeTensorBlocksAreSinglePass)
{
    const auto dims = LoopDims::matmul(64, 128, 256);
    const auto t = blockedTraffic(dims, dims, LoopOrder::NOuter, 1, 2);
    EXPECT_EQ(t.weights, Bytes{128} * 256 * 2);
    EXPECT_EQ(t.inputs, Bytes{64} * 256 * 2);
    EXPECT_EQ(t.outputWrites, Bytes{64} * 128 * 2);
    EXPECT_EQ(t.outputReads, 0u);
}

TEST(BlockedTraffic, ConvHaloIncludedInInputBlocks)
{
    // One output-row block of height 4 at stride 1 with R=3 needs 6
    // input rows.
    const auto dims = LoopDims::conv(1, 1, 1, 8, 8, 3, 3);
    auto block = LoopDims::conv(1, 1, 1, 4, 8, 3, 3);
    const auto t = blockedTraffic(dims, block, LoopOrder::NOuter, 1, 2);
    // 2 P-blocks, each (4-1)*1+3 = 6 rows x (8-1)+3 = 10 cols.
    EXPECT_EQ(t.inputs, Bytes{2} * 6 * 10 * 2);
}

TEST(BlockedTraffic, OversizedBlocksClampToDims)
{
    const auto dims = LoopDims::matmul(8, 8, 8);
    auto block = LoopDims::matmul(64, 64, 64);
    const auto t = blockedTraffic(dims, block, LoopOrder::NOuter, 1, 2);
    EXPECT_EQ(t.weights, Bytes{8} * 8 * 2);
}

// ---------------------------------------------------------- evalKernel

Mapping
simpleMapping(const OpNode &op, std::int64_t n, int tiles,
              std::vector<SpatialSplit> splits)
{
    Mapping m;
    m.compiledDims = op.dims.with(Dim::N, n);
    m.tiles = tiles;
    m.splits = std::move(splits);
    m.spadBlock = m.perTileDims();
    m.order = LoopOrder::NOuter;
    return m;
}

TEST(EvalKernel, CyclesMatchArrayThroughputOnPerfectShapes)
{
    // 32x32 array, K=64 -> 2 lanes, C=32 -> 1 lane, N=128.
    const OpNode op = matmulOp(128, 64, 32);
    const Mapping m = simpleMapping(op, 128, 1, {});
    const auto c = evalKernel(op, m, 128, true, tech());
    EXPECT_EQ(c.cycles, Cycles{128} * 2 * 1);
    EXPECT_EQ(c.usefulMacs, MacCount{128} * 64 * 32);
    EXPECT_EQ(c.issuedMacs, c.usefulMacs);
}

TEST(EvalKernel, CeilPenaltyForRaggedArrayShapes)
{
    // K=33 needs 2 row lanes even though only 1/32 of one is used.
    const OpNode op = matmulOp(16, 33, 32);
    const Mapping m = simpleMapping(op, 16, 1, {});
    const auto c = evalKernel(op, m, 16, true, tech());
    EXPECT_EQ(c.cycles, Cycles{16} * 2);
}

TEST(EvalKernel, NSplitDividesWorkAcrossTiles)
{
    const OpNode op = matmulOp(128, 64, 32);
    const Mapping m =
        simpleMapping(op, 128, 4, {SpatialSplit{Dim::N, 4}});
    const auto c = evalKernel(op, m, 128, true, tech());
    // Per tile: N=32, 2 K-lanes.
    EXPECT_EQ(c.cycles, Cycles{32} * 2);
}

TEST(EvalKernel, FittingClampsToActualValue)
{
    const OpNode op = matmulOp(128, 64, 32);
    const Mapping m = simpleMapping(op, 128, 1, {});
    const auto fit = evalKernel(op, m, 40, true, tech());
    const auto unfit = evalKernel(op, m, 40, false, tech());
    EXPECT_EQ(fit.cycles, Cycles{40} * 2);
    EXPECT_EQ(unfit.cycles, Cycles{128} * 2);
    EXPECT_EQ(fit.usefulMacs, unfit.usefulMacs);
    EXPECT_LT(fit.issuedMacs, unfit.issuedMacs);
    EXPECT_LT(fit.computeEnergyPj, unfit.computeEnergyPj);
}

TEST(EvalKernel, FittingWithNSplitLosesParallelism)
{
    // Kernel compiled for 128 over 8 tiles: chunks of 16. At actual
    // 20, tile 0 still processes 16 rows (makespan), while a kernel
    // compiled for 20 would use chunks of 3.
    const OpNode op = matmulOp(128, 64, 32);
    const Mapping big =
        simpleMapping(op, 128, 8, {SpatialSplit{Dim::N, 8}});
    const auto mismatched = evalKernel(op, big, 20, true, tech());

    OpNode op20 = op;
    const Mapping right =
        simpleMapping(op20, 20, 8, {SpatialSplit{Dim::N, 8}});
    const auto matched = evalKernel(op20, right, 20, true, tech());
    EXPECT_GT(mismatched.cycles, matched.cycles);
    EXPECT_EQ(mismatched.cycles, Cycles{16} * 2);
    EXPECT_EQ(matched.cycles, Cycles{3} * 2);
}

TEST(EvalKernel, ZeroActualWithFittingIsFree)
{
    const OpNode op = matmulOp(128, 64, 32);
    const Mapping m = simpleMapping(op, 128, 1, {});
    const auto c = evalKernel(op, m, 0, true, tech());
    EXPECT_EQ(c.cycles, 0u);
    EXPECT_EQ(c.usefulMacs, 0u);
}

TEST(EvalKernel, SpadFootprintCountsWeightsAndDoubleBuffers)
{
    const OpNode op = matmulOp(16, 64, 64);
    const Mapping m = simpleMapping(op, 16, 1, {});
    const auto c = evalKernel(op, m, 16, true, tech());
    const Bytes weights = Bytes{64} * 64 * 2;
    const Bytes in = Bytes{16} * 64 * 2;
    const Bytes out = Bytes{16} * 64 * 2;
    EXPECT_EQ(c.spadFootprint, weights + 2 * (in + out));
}

TEST(EvalKernel, KSplitPartitionsWeights)
{
    const OpNode op = matmulOp(16, 64, 64);
    const Mapping m =
        simpleMapping(op, 16, 4, {SpatialSplit{Dim::K, 4}});
    const auto c = evalKernel(op, m, 16, true, tech());
    // Per-tile weights = K/4 x C.
    EXPECT_LT(c.spadFootprint, Bytes{64} * 64 * 2);
}

TEST(EvalKernel, VectorOpCycles)
{
    EXPECT_EQ(vectorOpCycles(1024, 1, tech()), 1u);
    EXPECT_EQ(vectorOpCycles(1025, 1, tech()), 2u);
    EXPECT_EQ(vectorOpCycles(2048, 2, tech()), 1u);
}

// -------------------------------------------------------------- Mapper

TEST(Mapper, PrefersSplitsThatDivideEvenly)
{
    Mapper mapper(tech());
    const OpNode op = matmulOp(128, 2048, 512);
    const auto [m, c] = mapper.searchWithCost(op, 128, 4);
    // K-split by 4: per-tile K = 512 -> 16 lanes; N-split gives
    // per-tile N = 32 with 64 K lanes: both 32*... evaluate: any
    // valid mapping must beat the unsplit cycle count / 1.
    const Mapping unsplit = simpleMapping(op, 128, 1, {});
    const auto cu = evalKernel(op, unsplit, 128, true, tech());
    EXPECT_LE(c.cycles * 4, cu.cycles + 4); // near-linear speedup
    EXPECT_EQ(m.tiles, 4);
}

TEST(Mapper, FeasibleMappingFitsScratchpad)
{
    Mapper mapper(tech());
    // Weights 2 MB: must split K across tiles to fit 512 kB spads.
    const OpNode op = matmulOp(64, 1024, 1024);
    const auto [m, c] = mapper.searchWithCost(op, 64, 8);
    EXPECT_LE(c.spadFootprint,
              static_cast<Bytes>(0.95 * 512 * 1024));
    EXPECT_GT(m.splitFactor(Dim::K), 1);
}

TEST(Mapper, CacheHitsOnRepeatedQueries)
{
    Mapper mapper(tech());
    const OpNode op = matmulOp(128, 256, 256);
    (void)mapper.search(op, 64, 4);
    const auto before = mapper.hits();
    (void)mapper.search(op, 64, 4);
    EXPECT_EQ(mapper.hits(), before + 1);
}

TEST(Mapper, MemoKeyIgnoresBatchExtent)
{
    // The memo key zeroes the N extent: the searched value overrides
    // the batch size, so ops differing only in N share one entry.
    Mapper mapper(tech());
    (void)mapper.search(matmulOp(128, 256, 256), 64, 4);
    const auto before = mapper.hits();
    (void)mapper.search(matmulOp(512, 256, 256), 64, 4);
    EXPECT_EQ(mapper.hits(), before + 1);
    EXPECT_EQ(mapper.misses(), 1u);
}

TEST(Mapper, MemoKeyDistinguishesStrideAndDtype)
{
    // Stride and dtype change the mapping search (halo traffic,
    // scratchpad footprint), so each must get its own memo entry.
    Mapper mapper(tech());
    (void)mapper.search(convOp(8, 64, 64, 28, 28, 3, 3, 1), 8, 4);
    (void)mapper.search(convOp(8, 64, 64, 28, 28, 3, 3, 2), 8, 4);
    EXPECT_EQ(mapper.hits(), 0u);
    EXPECT_EQ(mapper.misses(), 2u);

    OpNode fp32 = matmulOp(128, 256, 256);
    fp32.dtypeBytes = 4;
    (void)mapper.search(matmulOp(128, 256, 256), 64, 4);
    (void)mapper.search(fp32, 64, 4);
    EXPECT_EQ(mapper.hits(), 0u);
    EXPECT_EQ(mapper.misses(), 4u);

    // A vector op with a compute op's dims: no weights and a
    // different cycles formula, so a different mapping (N x 2 for
    // the Norm, K x 2 for the MatMul).
    OpNode norm = matmulOp(1, 64, 64);
    norm.kind = OpKind::Norm;
    const Mapping mm = mapper.search(matmulOp(1, 64, 64), 1, 2);
    const Mapping vec = mapper.search(norm, 1, 2);
    EXPECT_EQ(mapper.hits(), 0u);
    EXPECT_EQ(mapper.misses(), 6u);
    EXPECT_EQ(mm.splitFactor(Dim::K), 2);
    EXPECT_EQ(vec.splitFactor(Dim::N), 2);
    Mapper fresh(tech());
    EXPECT_EQ(vec, fresh.search(norm, 1, 2));
}

TEST(Mapper, CostedCountsSearchEvaluationsOnly)
{
    // One tile has one (empty) split: its three loop orders are
    // costed once, and neither a hit nor searchWithCost's own
    // evaluation counts.
    Mapper mapper(tech());
    const OpNode op = matmulOp(128, 256, 256);
    (void)mapper.search(op, 64, 1);
    EXPECT_EQ(mapper.costed(), 3u);
    (void)mapper.searchWithCost(op, 64, 1);
    EXPECT_EQ(mapper.costed(), 3u);
    EXPECT_EQ(mapper.misses(), 1u);
}

TEST(Mapper, DifferentValuesAreDifferentKernels)
{
    Mapper mapper(tech());
    const OpNode op = matmulOp(128, 256, 256);
    const Mapping a = mapper.search(op, 128, 4);
    const Mapping b = mapper.search(op, 16, 4);
    EXPECT_EQ(a.compiledDims.n(), 128);
    EXPECT_EQ(b.compiledDims.n(), 16);
}

TEST(Mapper, ConvMappingHandlesStride)
{
    Mapper mapper(tech());
    const OpNode op = convOp(8, 64, 64, 28, 28, 3, 3, 2);
    const auto [m, c] = mapper.searchWithCost(op, 8, 9);
    EXPECT_GT(c.cycles, 0u);
    EXPECT_GT(c.usefulMacs, 0u);
    EXPECT_EQ(m.tiles, 9);
}

// ---------------------------------------------------------- Table IV

TEST(AreaPower, TileBudgetMatchesTableIV)
{
    const TileBudget b = tileBudget(tech());
    EXPECT_NEAR(b.totalAreaMm2(), 3.567, 0.01);
    EXPECT_NEAR(b.totalPowerMw(), 1416.34, 0.5);
    // DynNN additions (dispatcher/controller + NIC) ~4.9% of area.
    EXPECT_NEAR(b.dynnnAreaFraction(), 0.049, 0.005);
}

TEST(AreaPower, ChipScalesLinearly)
{
    const TileBudget chip = chipBudget(tech(), 144);
    EXPECT_NEAR(chip.totalAreaMm2(), 3.567 * 144, 1.0);
    // ~204 W chip (201 W in the paper at slightly different rounding).
    EXPECT_NEAR(chip.totalPowerMw() / 1000.0, 204.0, 5.0);
}

TEST(AreaPower, BudgetScalesWithArrayAndSpad)
{
    TechParams t2 = tech();
    t2.peRows = 16;
    t2.peCols = 16;
    t2.spadBytes = Bytes{256} << 10;
    const TileBudget b = tileBudget(t2);
    EXPECT_NEAR(b.components[0].areaMm2, 1.981 / 4.0, 1e-6);
    EXPECT_NEAR(b.components[1].areaMm2, 1.413 / 2.0, 1e-6);
}

TEST(TechParams, KernelBudgetMatchesPaper)
{
    const TechParams t = tech();
    EXPECT_EQ(t.kernelSpadBudget(), Bytes{26214});
    EXPECT_EQ(t.maxKernelsPerTile(), 204); // ~200 in the paper
    EXPECT_EQ(t.macsPerCycle(), 1024);
}

} // namespace

namespace {

TEST(ComputeCyclesPerRow, FoldsFilterIntoColumnsForTinyC)
{
    const TechParams t;
    // Stem-like shape: C=3, R=S=7. Plain mapping wastes 29/32
    // columns; folding C*R*S=147 into the columns recovers them.
    const auto d = LoopDims::conv(1, 64, 3, 112, 112, 7, 7);
    const double perRow = computeCyclesPerRow(d, t);
    const double plain = 112.0 * 112 * 7 * 7 * 2 * 1;
    const double foldRS = 112.0 * 112 * 2 * 5; // ceil(147/32) = 5
    EXPECT_DOUBLE_EQ(perRow, foldRS);
    EXPECT_LT(perRow, plain / 4.0);
}

TEST(ComputeCyclesPerRow, NoRegressionOnWideChannels)
{
    const TechParams t;
    // C=64, 3x3: plain = 9 * ceil(64/32) = 18 lane-steps; folding S
    // gives 3 * ceil(192/32) = 18; folding RS gives ceil(576/32) =
    // 18. All equal: folding never hurts aligned shapes.
    const auto d = LoopDims::conv(1, 32, 64, 14, 14, 3, 3);
    EXPECT_DOUBLE_EQ(computeCyclesPerRow(d, t), 14.0 * 14 * 18);
}

TEST(ComputeCyclesPerRow, MatmulUnaffectedByFolding)
{
    const TechParams t;
    const auto d = LoopDims::matmul(1, 768, 768);
    EXPECT_DOUBLE_EQ(computeCyclesPerRow(d, t), 24.0 * 24);
}

TEST(EvalKernel, MultiPassDispatchCoversOversizedValues)
{
    // A kernel compiled for 50 rows executing 120 actual rows via
    // the store's multi-pass dispatch: cost of 3 passes.
    TechParams t;
    OpNode op;
    op.kind = OpKind::MatMul;
    op.name = "mm";
    op.dims = LoopDims::matmul(50, 64, 64);
    Mapping m;
    m.compiledDims = op.dims;
    m.tiles = 1;
    m.spadBlock = op.dims;
    const auto onePass = evalKernel(op, m, 50, true, t);
    const auto partial = evalKernel(op, m, 20, true, t);
    // 2 full passes + 1 partial (engine composes these).
    EXPECT_EQ(2 * onePass.cycles + partial.cycles,
              Cycles{2 * 50 + 20} * 2 * 2);
}

TEST(BlockedTraffic, KOuterWithPinnedWeightsHasNoSpill)
{
    // After the pinned-weight clamp, K-outer blocking with full K/C
    // blocks re-reads nothing: exactly one activation pass.
    TechParams t;
    OpNode op;
    op.kind = OpKind::Conv2d;
    op.dims = LoopDims::conv(32, 128, 128, 28, 28, 3, 3);
    Mapper mapper(t);
    for (int tiles : {1, 4, 12}) {
        const auto [m, cost] = mapper.searchWithCost(op, 32, tiles);
        EXPECT_EQ(cost.dramSpillBytes, 0u) << m.str();
    }
}

} // namespace

// ------------------------------ two-pass search vs exhaustive search

namespace {

/** Reference search: every spatial split x every loop order through
 * evalKernel, keeping the first strict minimum of (infeasible,
 * cycles, spill, SRAM) -- the mapper's search before it ranked splits
 * first. Also reports how many splits tie at the winner's (feasible,
 * cycles) pair. */
struct Reference
{
    Mapping mapping;
    bool feasible = false;
    int tiedSplits = 0;
};

std::vector<std::vector<SpatialSplit>>
referenceSplits(int tiles)
{
    if (tiles == 1)
        return {{}};
    const Dim spatial[3] = {Dim::N, Dim::K, Dim::P};
    std::vector<std::pair<int, int>> pairs;
    for (int a = 1; a * a <= tiles; ++a) {
        if (tiles % a != 0)
            continue;
        pairs.emplace_back(a, tiles / a);
        if (a != tiles / a)
            pairs.emplace_back(tiles / a, a);
    }
    std::vector<std::vector<SpatialSplit>> out;
    for (Dim d : spatial)
        out.push_back({SpatialSplit{d, tiles}});
    for (Dim d1 : spatial)
        for (Dim d2 : spatial) {
            if (d1 == d2)
                continue;
            for (const auto &[a, b] : pairs)
                if (a != 1 && b != 1)
                    out.push_back(
                        {SpatialSplit{d1, a}, SpatialSplit{d2, b}});
        }
    return out;
}

LoopDims
referenceSpadBlock(const OpNode &op, const LoopDims &per_tile,
                   int weight_split, Bytes budget)
{
    LoopDims block = per_tile;
    const auto footprint = [&](const LoopDims &b) {
        const std::int64_t ih = (b.p() - 1) * op.stride + b.r();
        const std::int64_t iw = (b.q() - 1) * op.stride + b.s();
        const Bytes in =
            static_cast<Bytes>(b.n() * b.c() * ih * iw) * op.dtypeBytes;
        const Bytes out =
            static_cast<Bytes>(b.n() * b.k() * b.p() * b.q()) *
            op.dtypeBytes;
        const std::int64_t w = static_cast<std::int64_t>(op.weightBytes());
        const Bytes weights =
            isCompute(op.kind)
                ? static_cast<Bytes>((w + weight_split - 1) / weight_split)
                : 0;
        return weights + 2 * (in + out);
    };
    for (Dim d : {Dim::N, Dim::P, Dim::K})
        while (footprint(block) > budget && block[d] > 1)
            block[d] = (block[d] + 1) / 2;
    return block;
}

Reference
exhaustiveSearch(const OpNode &op, std::int64_t n, int tiles,
                 const TechParams &t)
{
    const LoopDims dims = op.dims.with(Dim::N, n);
    const Bytes budget = static_cast<Bytes>(
        static_cast<double>(t.spadBytes) * (1.0 - t.kernelSpadFraction));
    Reference best;
    KernelCost bestCost;
    bool haveBest = false;
    std::vector<std::pair<bool, Cycles>> splitPairs;
    for (const auto &splits : referenceSplits(tiles)) {
        for (int o = 0; o < kNumLoopOrders; ++o) {
            Mapping m;
            m.compiledDims = dims;
            m.tiles = tiles;
            m.splits = splits;
            m.order = static_cast<LoopOrder>(o);
            m.spadBlock = referenceSpadBlock(
                op, m.perTileDims(), m.splitFactor(Dim::K), budget);
            const KernelCost cost = evalKernel(op, m, n, true, t);
            const bool feasible = cost.spadFootprint <= budget;
            if (o == 0)
                splitPairs.emplace_back(feasible, cost.cycles);
            const auto key = [](bool f, const KernelCost &c) {
                return std::make_tuple(!f, c.cycles, c.dramSpillBytes,
                                       c.sramBytes);
            };
            if (!haveBest ||
                key(feasible, cost) < key(best.feasible, bestCost)) {
                best.mapping = m;
                best.feasible = feasible;
                bestCost = cost;
                haveBest = true;
            }
        }
    }
    best.tiedSplits = static_cast<int>(std::count(
        splitPairs.begin(), splitPairs.end(),
        std::make_pair(best.feasible, bestCost.cycles)));
    return best;
}

} // namespace

TEST(Mapper, TwoPassMatchesExhaustiveSearch)
{
    // Every distinct stage-op signature (the mapper memo key minus
    // value and tiles) of the five paper models.
    using Signature =
        std::tuple<std::array<std::int64_t, kNumDims>, int, int, bool>;
    std::map<Signature, OpNode> ops;
    for (const std::string &name : models::workloadNames()) {
        const DynGraph dg = parseModel(models::buildByName(name, 8).graph);
        for (OpId id : dg.topo()) {
            const OpNode &op = dg.graph().node(id);
            if (!isCompute(op.kind) && !isFusable(op.kind))
                continue;
            auto ext = op.dims.ext;
            ext[0] = 0;
            ops.emplace(Signature{ext, op.stride, op.dtypeBytes,
                                  isCompute(op.kind)},
                        op);
        }
    }

    const TechParams t = tech();
    const std::int64_t values[] = {1,  2,  3,  5,  7,  8,  13, 16,
                                   17, 31, 32, 47, 64, 97, 127, 128};
    std::vector<int> tileCounts;
    for (int tiles = 1; tiles <= 16; ++tiles)
        tileCounts.push_back(tiles);
    for (int tiles : {18, 20, 24, 30, 36, 42, 48, 56, 60, 64})
        tileCounts.push_back(tiles);

    int computeCases = 0, vectorCases = 0;
    int feasibleWins = 0, infeasibleWins = 0, splitTies = 0;
    for (const auto &[sig, op] : ops) {
        for (std::int64_t n : values) {
            for (int tiles : tileCounts) {
                Mapper mapper(t);
                const Reference ref = exhaustiveSearch(op, n, tiles, t);
                ASSERT_EQ(mapper.search(op, n, tiles), ref.mapping)
                    << opKindName(op.kind) << ' ' << op.dims.str()
                    << " stride " << op.stride << " n " << n
                    << " tiles " << tiles;
                ++(isCompute(op.kind) ? computeCases : vectorCases);
                ++(ref.feasible ? feasibleWins : infeasibleWins);
                splitTies += ref.tiedSplits > 1;
            }
        }
    }
    // The cases cover both op classes, both feasibility outcomes, and
    // winners whose (feasible, cycles) pair several splits share.
    EXPECT_GT(computeCases, 0);
    EXPECT_GT(vectorCases, 0);
    EXPECT_GT(feasibleWins, 0);
    EXPECT_GT(infeasibleWins, 0);
    EXPECT_GT(splitTies, 0);
}
