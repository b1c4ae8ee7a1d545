/**
 * @file
 * Ablation: reconfiguration interval. The paper re-schedules and
 * re-samples every 40 batches (Section V-C: < 2.4% overhead); this
 * bench sweeps the interval to expose the trade-off between
 * adaptivity (short periods track the drifting distribution) and
 * reconfiguration cost (pipeline drains + kernel reloads).
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
        p.batches = 240;
    const arch::HwConfig hw;
    printBanner("=== Ablation: reconfiguration interval ===", hw, p);

    const auto names = models::workloadNames();
    const std::vector<int> periods{10, 20, 40, 80, 160, 0};

    TextTable t("Run time (ms); 0 = never reconfigure (static)");
    std::vector<std::string> header{"interval (batches)"};
    for (const auto &n : names)
        header.push_back(n);
    header.push_back("geomean vs 40");
    t.header(header);

    Sweep sweep(p, hw);
    const auto flat = sweep.map(
        periods.size() * names.size(), [&](std::size_t i) {
            const int period = periods[i / names.size()];
            const Workload w = makeWorkload(names[i % names.size()],
                                            p.batchSize);
            trace::TraceConfig cfg = w.bundle.traceConfig;
            cfg.batchSize = p.batchSize;
            auto opts = baselines::runOptions(Design::Adyna,
                                              p.batches, p.seed);
            opts.reconfigPeriod = period;
            core::System sys(w.dg, cfg, hw,
                             baselines::schedulerConfig(Design::Adyna),
                             baselines::execPolicy(Design::Adyna),
                             opts, "Adyna");
            sys.setSharedMapper(sweep.sharedMapper());
            return sys.run().timeMs;
        });

    std::map<int, std::map<std::string, double>> ms;
    for (std::size_t pi = 0; pi < periods.size(); ++pi)
        for (std::size_t ni = 0; ni < names.size(); ++ni)
            ms[periods[pi]][names[ni]] =
                flat[pi * names.size() + ni];
    for (int period : periods) {
        std::vector<std::string> cells{
            period == 0 ? std::string("never")
                        : std::to_string(period)};
        std::vector<double> rel;
        for (const auto &n : names) {
            cells.push_back(TextTable::num(ms[period][n], 1));
            rel.push_back(ms[period][n] / ms[40][n]);
        }
        cells.push_back(TextTable::num(geomean(rel), 3));
        t.row(cells);
    }
    t.print(std::cout);
    std::printf("\nShape check: very short intervals pay drain "
                "overhead, 'never' loses adaptivity; the paper's 40 "
                "sits near the sweet spot.\n");
    return 0;
}
