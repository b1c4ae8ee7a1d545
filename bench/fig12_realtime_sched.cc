/**
 * @file
 * Figure 12 reproduction: offline (Adyna) vs online real-time
 * scheduling. Online scheduling would run every dynamic operator
 * with its optimal kernel (full-kernel performance) but pays a
 * scheduling latency before each dynamic operator execution; the
 * bench sweeps that latency, prints the speedup-vs-Adyna curve, and
 * reports the crossover latency against CoSA's ~0.1 s per-operator
 * scheduling time (Section IX-D).
 */

#include "baselines/realtime.hh"
#include "bench_common.hh"

using namespace adyna;
using namespace adyna::bench;
using baselines::Design;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const BenchParams p = BenchParams::fromArgs(args);
    const arch::HwConfig hw;
    printBanner("=== Figure 12: real-time scheduling overhead ===", hw,
                p);

    const auto workloads = makeAllWorkloads(p.batchSize);
    const std::vector<double> latenciesMs{0.0,   1e-5, 1e-4, 3e-4,
                                          1e-3,  3e-3, 1e-2, 3e-2,
                                          1e-1};

    TextTable t("Speedup of online real-time scheduling vs Adyna "
                "(>1 = online wins)");
    std::vector<std::string> header{"sched latency (ms)"};
    for (const Workload &w : workloads)
        header.push_back(w.name);
    t.header(header);

    Sweep sweep(p, hw);
    const std::vector<baselines::RealtimeSweep> sweeps =
        sweep.map(workloads.size(), [&](std::size_t i) {
            const Workload &w = workloads[i];
            const auto adyna = sweep.run(w, Design::Adyna, hw);
            const auto full = sweep.run(w, Design::FullKernel, hw);
            return baselines::sweepRealtimeScheduling(
                w.dg, adyna, full, p.batches, latenciesMs);
        });
    for (std::size_t i = 0; i < latenciesMs.size(); ++i) {
        std::vector<std::string> cells{
            TextTable::num(latenciesMs[i], 5)};
        for (const auto &s : sweeps)
            cells.push_back(
                TextTable::num(s.points[i].speedupVsAdyna, 3));
        t.row(cells);
    }
    t.print(std::cout);

    std::printf("\nCrossover latency (online scheduling matches "
                "Adyna):\n");
    std::vector<double> crossUs;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        std::printf("  %-10s %10.4f ms  (%lld scheduling decisions "
                    "per run)\n",
                    workloads[i].name.c_str(), sweeps[i].crossoverMs,
                    static_cast<long long>(sweeps[i].schedEvents));
        if (sweeps[i].crossoverMs > 0.0)
            crossUs.push_back(sweeps[i].crossoverMs);
    }
    if (!crossUs.empty()) {
        const double gm = geomean(crossUs);
        std::printf("\nGeomean crossover: %.4f ms. CoSA needs ~100 ms "
                    "per operator: %.0fx above the bar, so offline "
                    "multi-kernel scheduling wins (paper: crossover "
                    "0.39 ms, a 3-orders-of-magnitude gap).\n",
                    gm, 100.0 / gm);
    }
    return 0;
}
