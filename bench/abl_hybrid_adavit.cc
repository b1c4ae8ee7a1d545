/**
 * @file
 * Extension: the AdaViT hybrid workload (dynamic depth + dynamic
 * region, Section IV's expressiveness claim). Runs every design on
 * the hybrid to show the unified representation and the scheduler
 * handle nested dynamism (layer-skip gates inside a patch-selected
 * region) without special cases.
 */

#include "bench_common.hh"

using namespace adyna;
using namespace adyna::bench;
using baselines::Design;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    BenchParams p = BenchParams::fromArgs(args);
    if (!args.has("batches"))
        p.batches = 200;
    const arch::HwConfig hw;
    printBanner("=== Extension: hybrid AdaViT (depth + region) ===",
                hw, p);

    const Workload w = makeWorkload("adavit", p.batchSize);
    std::printf("Graph: %zu ops, %zu switches (%d patch-select + %d "
                "layer-skip), %zu dynamic ops\n\n",
                w.dg.graph().size(), w.dg.switches().size(), 1,
                static_cast<int>(w.dg.switches().size()) - 1,
                w.dg.dynamicOps().size());

    TextTable t("All designs on AdaViT");
    t.header({"design", "time (ms)", "vs M-tile", "PE util",
              "energy (J)"});
    const auto designs = baselines::allDesigns();
    Sweep sweep(p, hw);
    const auto reports =
        sweep.map(designs.size(), [&](std::size_t i) {
            return sweep.run(w, designs[i], hw);
        });
    double mtileMs = 0.0;
    for (std::size_t di = 0; di < designs.size(); ++di) {
        const auto &rep = reports[di];
        if (designs[di] == Design::MTile)
            mtileMs = rep.timeMs;
        t.row({rep.design, TextTable::num(rep.timeMs, 1),
               TextTable::mult(mtileMs / rep.timeMs),
               TextTable::pct(rep.peUtilization),
               TextTable::num(rep.energy.total() * 1e-12, 2)});
    }
    const auto gpu = runGpuBaseline(w, p);
    t.row({"GPU", TextTable::num(gpu.timeMs, 1),
           TextTable::mult(mtileMs / gpu.timeMs), "-", "-"});
    t.print(std::cout);
    return 0;
}
