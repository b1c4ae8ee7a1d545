/**
 * @file
 * Ablation: the two runtime-adjustment optimizations of Section V-B
 * -- tile sharing and branch grouping -- toggled independently on
 * the workloads where complementary / rarely-active branches exist
 * (FBSNet's channel blocks, Tutel-MoE's experts, AdaViT's gated
 * blocks).
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
    printBanner("=== Ablation: tile sharing and branch grouping ===",
                hw, p);

    const std::vector<std::string> names{"fbsnet", "tutel-moe",
                                         "adavit"};

    TextTable t("Run time (ms) with each optimization toggled");
    std::vector<std::string> header{"sharing", "grouping"};
    for (const auto &n : names)
        header.push_back(n);
    t.header(header);

    Sweep sweep(p, hw);
    // Task index = ((sharing * 2) + grouping) * names + workload.
    const auto flat =
        sweep.map(4 * names.size(), [&](std::size_t i) {
            const bool sharing = i / names.size() / 2 != 0;
            const bool grouping = i / names.size() % 2 != 0;
            const Workload w = makeWorkload(names[i % names.size()],
                                            p.batchSize);
            trace::TraceConfig cfg = w.bundle.traceConfig;
            cfg.batchSize = p.batchSize;
            auto sched = baselines::schedulerConfig(Design::Adyna);
            sched.tileSharing = sharing;
            sched.branchGrouping = grouping;
            core::System sys(
                w.dg, cfg, hw, sched,
                baselines::execPolicy(Design::Adyna),
                baselines::runOptions(Design::Adyna, p.batches,
                                      p.seed),
                "Adyna");
            sys.setSharedMapper(sweep.sharedMapper());
            return sys.run().timeMs;
        });

    std::map<std::string, double> baseMs;
    for (int sharing = 0; sharing <= 1; ++sharing) {
        for (int grouping = 0; grouping <= 1; ++grouping) {
            std::vector<std::string> cells{sharing ? "on" : "off",
                                           grouping ? "on" : "off"};
            for (std::size_t ni = 0; ni < names.size(); ++ni) {
                const double ms =
                    flat[static_cast<std::size_t>(sharing * 2 +
                                                  grouping) *
                             names.size() +
                         ni];
                if (!sharing && !grouping)
                    baseMs[names[ni]] = ms;
                cells.push_back(TextTable::num(ms, 1) + " (" +
                                TextTable::mult(baseMs[names[ni]] /
                                                ms) +
                                ")");
            }
            t.row(cells);
        }
    }
    t.print(std::cout);
    std::printf("\nShape check: sharing absorbs per-batch load "
                "spikes between complementary branches; grouping "
                "reclaims tiles from rarely-activated branches "
                "(FBSNet's cold channel blocks).\n");
    return 0;
}
