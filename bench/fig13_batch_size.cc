/**
 * @file
 * Figure 13 reproduction: Adyna's speedup over M-tile at batch sizes
 * 1, 4, 16, 64, and 128. The paper reports average speedups of
 * 1.29x / 1.37x / 1.49x / 1.61x / 1.70x: the advantage grows with
 * batch size (larger dynamic variation to exploit) but persists at
 * batch 1.
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
    const arch::HwConfig hw;
    printBanner("=== Figure 13: speedup over M-tile vs batch size ===",
                hw, p);

    const std::vector<std::int64_t> batchSizes{1, 4, 16, 64, 128};
    const auto names = models::workloadNames();

    TextTable t("Adyna speedup over M-tile");
    std::vector<std::string> header{"batch size"};
    for (const auto &n : names)
        header.push_back(n);
    header.push_back("geomean");
    header.push_back("paper avg");
    t.header(header);

    const char *paperAvg[] = {"1.29x", "1.37x", "1.49x", "1.61x",
                              "1.70x"};

    // One task per (batch size, workload): each builds its own
    // workload (graph construction is not shared across threads) and
    // runs both designs. The mapper cache is shared across batch
    // sizes -- the memo key includes the compiled batch extent.
    Sweep sweep(p, hw);
    const auto speedups = sweep.map(
        batchSizes.size() * names.size(), [&](std::size_t i) {
            BenchParams bp = p;
            bp.batchSize = batchSizes[i / names.size()];
            const Workload w =
                makeWorkload(names[i % names.size()], bp.batchSize);
            const auto mtile = sweep.run(w, Design::MTile, bp, hw);
            const auto adyna = sweep.run(w, Design::Adyna, bp, hw);
            return mtile.timeMs / adyna.timeMs;
        });

    for (std::size_t bi = 0; bi < batchSizes.size(); ++bi) {
        std::vector<std::string> cells{
            std::to_string(batchSizes[bi])};
        std::vector<double> speeds;
        for (std::size_t ni = 0; ni < names.size(); ++ni) {
            const double s = speedups[bi * names.size() + ni];
            speeds.push_back(s);
            cells.push_back(TextTable::mult(s));
        }
        cells.push_back(TextTable::mult(geomean(speeds)));
        cells.push_back(paperAvg[bi]);
        t.row(cells);
    }
    t.print(std::cout);
    std::printf("\nShape check: the speedup should grow with batch "
                "size and stay above 1x at batch 1.\n");
    return 0;
}
