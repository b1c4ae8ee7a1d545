/**
 * @file
 * Figure 6 reproduction (Section V-A/B motivation): a SkipNet-style
 * block with two branches -- B1 with one convolution and B2 with two
 * -- on an 8-tile slice, batch size 8.
 *
 *  (a) Static allocation assumes the worst case on both branches:
 *      compute ratio 1:2 -> 3 tiles for B1, 5 for B2; B1 is then
 *      overloaded in most batches (the trace shows ~5.03 of 8
 *      samples take B1).
 *  (b) Frequency-weighted allocation uses the dyn_dim expectations
 *      (5.03 x 1 op : 2.97 x 2 ops ~ 1:1) -> 4:4 and balances the
 *      average.
 *  (c) Tile sharing adds the 2a:b and a:2b ratios (5:3 and 2:6 with
 *      3 shared tiles) and picks per batch, absorbing the spikes.
 */

#include "bench_common.hh"
#include <cmath>

#include "graph/transforms.hh"

using namespace adyna;
using namespace adyna::bench;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    BenchParams p = BenchParams::fromArgs(args);
    if (!args.has("batches"))
        p.batches = 200;
    const arch::HwConfig hw;
    printBanner("=== Figure 6: allocation strategies on a two-branch "
                "skip block ===",
                hw, p);

    // The block: each sample takes B1 (1 conv) or B2 (2 convs); the
    // observed split matches the paper's SkipNet trace (5.03 : 2.97
    // of 8).
    constexpr std::int64_t kBatch = 8;
    graph::Graph g("fig6");
    auto in = g.addInput("in", graph::LoopDims::matmul(kBatch, 256,
                                                       256));
    auto t = g.addMatMul("pre", in, 256, 256);
    auto merge = graph::addMoE(
        g, "block", t, /*experts=*/2, /*top_k=*/1,
        /*bias=*/{5.03, 2.97}, [](graph::Graph &gg, OpId sw) {
            OpId c1 = gg.addMatMul("conv1", sw, 256, 256);
            return gg.addMatMul("conv2", c1, 256, 256);
        });
    // (Branch bodies only anchor the routing; the trace math below
    // weighs B1 at one conv and B2 at two.)
    g.addOutput("out", merge);
    const graph::DynGraph dg = graph::parseModel(g);
    const OpId sw = dg.switches()[0].switchOp;

    trace::TraceConfig tcfg;
    tcfg.batchSize = kBatch;
    tcfg.driftStrength = 0.0;
    trace::TraceGenerator gen(dg, tcfg, p.seed);

    // Work units per routed sample: B1 = 1 conv, B2 = 2 convs.
    const double opsB1 = 1.0, opsB2 = 2.0;

    // Offline profile (Section V-A): expected dyn_dim values per
    // branch over a profiling window.
    double e1 = 0.0, e2 = 0.0;
    {
        trace::TraceGenerator probe(dg, tcfg, p.seed ^ 0xa5a5);
        const int probeBatches = 40;
        for (int b = 0; b < probeBatches; ++b) {
            const auto r = probe.next();
            const auto &oc = r.outcome(sw);
            e1 += static_cast<double>(oc.branchCounts[0]);
            e2 += static_cast<double>(oc.branchCounts[1]);
        }
        e1 /= probeBatches;
        e2 /= probeBatches;
    }

    // Tile allocations on the 8-tile slice.
    constexpr int kTiles = 8;
    const auto ratioAlloc = [&](double wa, double wb) {
        int a = static_cast<int>(
            std::lround(wa / (wa + wb) * kTiles));
        a = std::clamp(a, 1, kTiles - 1);
        return std::pair<int, int>{a, kTiles - a};
    };
    // (a) static: worst-case sizes on both branches -> ratio 1:2.
    const std::pair<int, int> staticAlloc = ratioAlloc(opsB1, opsB2);
    // (b) frequency-weighted: E[v] x ops per branch (Section V-A).
    const std::pair<int, int> freqAlloc =
        ratioAlloc(e1 * opsB1, e2 * opsB2);
    // (c) tile sharing: the base ratio plus 2a:b and a:2b
    // (Section V-B).
    const std::pair<int, int> shareCfg[3] = {
        freqAlloc, ratioAlloc(2 * e1 * opsB1, e2 * opsB2),
        ratioAlloc(e1 * opsB1, 2 * e2 * opsB2)};
    const int sharedTiles =
        std::max({shareCfg[0].first, shareCfg[1].first,
                  shareCfg[2].first}) -
        std::min({shareCfg[0].first, shareCfg[1].first,
                  shareCfg[2].first});

    std::printf("Profiled expectations: E[B1] = %.2f, E[B2] = %.2f "
                "of %ld (paper trace: 5.03 / 2.97)\n",
                e1, e2, static_cast<long>(kBatch));
    std::printf("Allocations: static %d:%d, frequency-weighted %d:%d, "
                "sharing configs %d:%d / %d:%d / %d:%d (%d shared "
                "tiles; paper: 3:5, 4:4, {4:4, 5:3, 2:6}, 3 "
                "shared)\n\n",
                staticAlloc.first, staticAlloc.second,
                freqAlloc.first, freqAlloc.second, shareCfg[0].first,
                shareCfg[0].second, shareCfg[1].first,
                shareCfg[1].second, shareCfg[2].first,
                shareCfg[2].second, sharedTiles);

    TextTable t1("Per-tile workload trace (first 24 batches; "
                 "work units per tile)");
    t1.header({"batch", "B1 samples", "B2 samples", "static B1",
               "static B2", "freq B1", "freq B2", "shared cfg",
               "shared B1", "shared B2"});

    RunningStats statMax, freqMax, shareMax;
    RunningStats statL1, statL2, freqL1, freqL2, shareL1, shareL2;
    double sumB1 = 0.0, sumB2 = 0.0;
    for (int b = 0; b < p.batches; ++b) {
        const auto routing = gen.next();
        const auto &oc = routing.outcome(sw);
        const double n1 = static_cast<double>(oc.branchCounts[0]);
        const double n2 = static_cast<double>(oc.branchCounts[1]);
        sumB1 += n1;
        sumB2 += n2;

        const auto perTile = [&](std::pair<int, int> alloc) {
            return std::pair<double, double>{
                n1 * opsB1 / alloc.first, n2 * opsB2 / alloc.second};
        };
        const auto [sa1, sa2] = perTile(staticAlloc);
        const auto [fa1, fa2] = perTile(freqAlloc);
        int bestCfg = 0;
        double bestLoad = 1e300;
        for (int c = 0; c < 3; ++c) {
            const auto [x1, x2] = perTile(shareCfg[c]);
            const double m = std::max(x1, x2);
            if (m < bestLoad) {
                bestLoad = m;
                bestCfg = c;
            }
        }
        const auto [sh1, sh2] = perTile(shareCfg[bestCfg]);

        statMax.add(std::max(sa1, sa2));
        freqMax.add(std::max(fa1, fa2));
        shareMax.add(std::max(sh1, sh2));
        statL1.add(sa1);
        statL2.add(sa2);
        freqL1.add(fa1);
        freqL2.add(fa2);
        shareL1.add(sh1);
        shareL2.add(sh2);

        if (b < 24) {
            t1.row({std::to_string(b), TextTable::num(n1, 0),
                    TextTable::num(n2, 0), TextTable::num(sa1, 2),
                    TextTable::num(sa2, 2), TextTable::num(fa1, 2),
                    TextTable::num(fa2, 2),
                    std::to_string(shareCfg[bestCfg].first) + ":" +
                        std::to_string(shareCfg[bestCfg].second),
                    TextTable::num(sh1, 2), TextTable::num(sh2, 2)});
        }
    }
    t1.print(std::cout);

    std::printf("\nObserved dyn_dim expectations over %d batches: "
                "B1 = %.2f, B2 = %.2f of %ld (paper: 5.03 / 2.97)\n",
                p.batches, sumB1 / p.batches, sumB2 / p.batches,
                static_cast<long>(kBatch));

    TextTable t2("Per-tile workload summary");
    t2.header({"allocation", "mean B1", "mean B2", "imbalance",
               "bottleneck mean", "bottleneck stddev",
               "bottleneck max"});
    const auto imb = [](const RunningStats &a, const RunningStats &b) {
        return std::abs(a.mean() - b.mean());
    };
    t2.row({"(a) static", TextTable::num(statL1.mean(), 3),
            TextTable::num(statL2.mean(), 3),
            TextTable::num(imb(statL1, statL2), 3),
            TextTable::num(statMax.mean(), 3),
            TextTable::num(statMax.stddev(), 3),
            TextTable::num(statMax.max(), 3)});
    t2.row({"(b) freq-weighted", TextTable::num(freqL1.mean(), 3),
            TextTable::num(freqL2.mean(), 3),
            TextTable::num(imb(freqL1, freqL2), 3),
            TextTable::num(freqMax.mean(), 3),
            TextTable::num(freqMax.stddev(), 3),
            TextTable::num(freqMax.max(), 3)});
    t2.row({"(c) + tile sharing", TextTable::num(shareL1.mean(), 3),
            TextTable::num(shareL2.mean(), 3),
            TextTable::num(imb(shareL1, shareL2), 3),
            TextTable::num(shareMax.mean(), 3),
            TextTable::num(shareMax.stddev(), 3),
            TextTable::num(shareMax.max(), 3)});
    t2.print(std::cout);
    std::printf("\nShape check (Figure 6): static allocation leaves "
                "B1 persistently overloaded (large imbalance); "
                "frequency weighting balances the branch means; tile "
                "sharing then absorbs the per-batch spikes (lowest "
                "bottleneck mean/stddev/max).\n");
    return 0;
}
