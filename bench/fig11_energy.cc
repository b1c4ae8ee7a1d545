/**
 * @file
 * Figure 11 reproduction: energy breakdown (HBM / SRAM / PE / NoC)
 * of M-tile (L), M-tenant (N), Adyna static (S), and Adyna (A) per
 * workload, normalized to M-tile. Multi-kernel execution cuts energy
 * from every source; memory-bound models (PABEE, Tutel-MoE) are
 * HBM-dominated, DPSNet is dominated by on-chip PE + SRAM energy.
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
    printBanner("=== Figure 11: energy breakdown ===", hw, p);

    const auto workloads = makeAllWorkloads(p.batchSize);
    const std::vector<std::pair<Design, const char *>> designs{
        {Design::MTile, "L"},
        {Design::MTenant, "N"},
        {Design::AdynaStatic, "S"},
        {Design::Adyna, "A"}};

    TextTable t("Energy breakdown per design (joules; L=M-tile, "
                "N=M-tenant, S=Adyna static, A=Adyna)");
    t.header({"workload", "design", "HBM", "SRAM", "PE", "NoC",
              "total", "vs M-tile"});

    Sweep sweep(p, hw);
    const auto reports =
        sweep.map(workloads.size() * designs.size(), [&](std::size_t i) {
            return sweep.run(workloads[i / designs.size()],
                             designs[i % designs.size()].first, hw);
        });

    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        const Workload &w = workloads[wi];
        double mtileTotal = 0.0;
        bool first = true;
        for (std::size_t di = 0; di < designs.size(); ++di) {
            const auto &tag = designs[di].second;
            const auto &rep = reports[wi * designs.size() + di];
            const auto &e = rep.energy;
            const double total = e.total() * 1e-12;
            if (first)
                mtileTotal = total;
            t.row({first ? w.name : "", tag,
                   TextTable::num(e.hbm * 1e-12, 2),
                   TextTable::num(e.sram * 1e-12, 2),
                   TextTable::num(e.pe * 1e-12, 2),
                   TextTable::num(e.noc * 1e-12, 2),
                   TextTable::num(total, 2),
                   TextTable::pct(total / mtileTotal)});
            first = false;
        }
        t.separator();
    }
    t.print(std::cout);
    return 0;
}
