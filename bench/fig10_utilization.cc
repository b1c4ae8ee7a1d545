/**
 * @file
 * Figure 10 reproduction: PE utilization and DRAM bandwidth
 * utilization of M-tile, M-tenant, Adyna (static), and Adyna.
 * Expected shape: M-tile shows the HIGHEST PE utilization (it is
 * busy with worst-case redundant work), M-tenant the lowest (blocked
 * on memory), and Adyna above Adyna (static) thanks to runtime load
 * balancing.
 */

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
    printBanner("=== Figure 10: PE and memory-bandwidth utilization ===",
                hw, p);

    const auto workloads = makeAllWorkloads(p.batchSize);
    const std::vector<Design> designs{Design::MTile, Design::MTenant,
                                      Design::AdynaStatic,
                                      Design::Adyna};

    TextTable pe("PE utilization (issued MACs / peak; redundant "
                 "worst-case work counts as busy)");
    TextTable bw("DRAM bandwidth utilization");
    std::vector<std::string> header{"design"};
    for (const Workload &w : workloads)
        header.push_back(w.name);
    header.push_back("mean");
    pe.header(header);
    bw.header(header);

    Sweep sweep(p, hw);
    const auto reports =
        sweep.map(designs.size() * workloads.size(), [&](std::size_t i) {
            return sweep.run(workloads[i % workloads.size()],
                             designs[i / workloads.size()], hw);
        });

    for (std::size_t di = 0; di < designs.size(); ++di) {
        const Design d = designs[di];
        std::vector<std::string> peRow{baselines::designName(d)};
        std::vector<std::string> bwRow{baselines::designName(d)};
        double peSum = 0.0, bwSum = 0.0;
        for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
            const auto &rep = reports[di * workloads.size() + wi];
            peRow.push_back(TextTable::pct(rep.peUtilization));
            bwRow.push_back(TextTable::pct(rep.hbmUtilization));
            peSum += rep.peUtilization;
            bwSum += rep.hbmUtilization;
        }
        peRow.push_back(
            TextTable::pct(peSum / static_cast<double>(
                                       workloads.size())));
        bwRow.push_back(
            TextTable::pct(bwSum / static_cast<double>(
                                       workloads.size())));
        pe.row(peRow);
        bw.row(bwRow);
    }
    pe.print(std::cout);
    std::printf("\n");
    bw.print(std::cout);
    std::printf("\nShape checks (Section IX-C): M-tile PE utilization "
                "is inflated by redundant worst-case work; Adyna > "
                "Adyna (static) via runtime balancing; M-tenant is "
                "memory-blocked (highest DRAM, lowest PE).\n");
    return 0;
}
