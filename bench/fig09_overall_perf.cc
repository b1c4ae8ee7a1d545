/**
 * @file
 * Figure 9 reproduction: end-to-end performance of the GPU, M-tile,
 * M-tenant, Adyna (static), full-kernel, and Adyna on the five
 * DynNN workloads of Table I. Prints absolute times, performance
 * normalized to Adyna (the paper's y-axis), and the headline speedup
 * statistics quoted in the abstract and Section IX-B.
 */

#include <fstream>

#include "bench_common.hh"
#include "core/report_io.hh"

using namespace adyna;
using namespace adyna::bench;
using baselines::Design;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const BenchParams p = BenchParams::fromArgs(args);
    const arch::HwConfig hw;
    printBanner("=== Figure 9: overall performance ===", hw, p);

    const auto workloads = makeAllWorkloads(p.batchSize);
    const auto designs = baselines::allDesigns();

    // Enumerate the independent (workload, design) runs in the
    // serial iteration order, execute them on the pool, and
    // aggregate in input order: output is byte-identical for any
    // --jobs value.
    struct Task
    {
        std::size_t wi;
        Design d;
        bool gpu;
    };
    std::vector<Task> tasks;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        for (Design d : designs)
            tasks.push_back({wi, d, false});
        tasks.push_back({wi, Design::Adyna, true});
    }

    Sweep sweep(p, hw);
    const std::vector<core::RunReport> reports =
        sweep.map(tasks.size(), [&](std::size_t i) {
            const Task &t = tasks[i];
            return t.gpu ? runGpuBaseline(workloads[t.wi], p)
                         : sweep.run(workloads[t.wi], t.d, hw);
        });

    // design name -> workload -> time (ms)
    std::map<std::string, std::map<std::string, double>> times;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto &rep = reports[i];
        times[tasks[i].gpu ? "GPU" : rep.design]
             [workloads[tasks[i].wi].name] = rep.timeMs;
    }

    // Optional machine-readable dumps for plotting pipelines.
    if (args.has("csv")) {
        std::ofstream out(args.getString("csv", "fig09.csv"));
        out << core::toCsv(reports);
    }
    if (args.has("json")) {
        std::ofstream out(args.getString("json", "fig09.json"));
        out << core::toJson(reports);
    }

    const std::vector<std::string> rows{
        "GPU",        "M-tile",      "M-tenant",
        "Adyna (static)", "full-kernel", "Adyna"};

    TextTable abs("Absolute time for " + std::to_string(p.batches) +
                  " batches (ms)");
    {
        std::vector<std::string> header{"design"};
        for (const Workload &w : workloads)
            header.push_back(w.name);
        abs.header(header);
        for (const std::string &d : rows) {
            std::vector<std::string> cells{d};
            for (const Workload &w : workloads)
                cells.push_back(TextTable::num(times[d][w.name], 1));
            abs.row(cells);
        }
    }
    abs.print(std::cout);
    std::printf("\n");

    TextTable norm(
        "Normalized performance (Adyna = 1.0, higher is better)");
    {
        std::vector<std::string> header{"design"};
        for (const Workload &w : workloads)
            header.push_back(w.name);
        header.push_back("geomean");
        norm.header(header);
        for (const std::string &d : rows) {
            std::vector<std::string> cells{d};
            std::vector<double> perf;
            for (const Workload &w : workloads) {
                const double v =
                    times["Adyna"][w.name] / times[d][w.name];
                perf.push_back(v);
                cells.push_back(TextTable::num(v, 2));
            }
            cells.push_back(TextTable::num(geomean(perf), 2));
            norm.row(cells);
        }
    }
    norm.print(std::cout);
    std::printf("\n");

    // Headline statistics (paper: 1.70x / 2.32x over M-tile, 1.57x /
    // 2.01x over M-tenant, static contributes 1.41x, runtime
    // adjustment another 1.21x, within 13% of full-kernel, 11.7x
    // over the GPU).
    auto speedups = [&](const std::string &base,
                        const std::string &mine) {
        std::vector<double> s;
        for (const Workload &w : workloads)
            s.push_back(times[base][w.name] / times[mine][w.name]);
        return s;
    };
    auto maxOf = [](const std::vector<double> &v) {
        double m = v[0];
        for (double x : v)
            m = std::max(m, x);
        return m;
    };

    TextTable head("Headline statistics (paper reference in brackets)");
    head.header({"metric", "measured", "paper"});
    const auto vsTile = speedups("M-tile", "Adyna");
    const auto vsTenant = speedups("M-tenant", "Adyna");
    const auto stat = speedups("M-tile", "Adyna (static)");
    const auto runtime = speedups("Adyna (static)", "Adyna");
    const auto vsGpu = speedups("GPU", "Adyna");
    const auto ofFull = speedups("Adyna", "full-kernel");
    head.row({"Adyna vs M-tile (geomean)",
              TextTable::mult(geomean(vsTile)), "1.70x"});
    head.row({"Adyna vs M-tile (max)", TextTable::mult(maxOf(vsTile)),
              "2.32x"});
    head.row({"Adyna vs M-tenant (geomean)",
              TextTable::mult(geomean(vsTenant)), "1.57x"});
    head.row({"Adyna vs M-tenant (max)",
              TextTable::mult(maxOf(vsTenant)), "2.01x"});
    head.row({"Adyna (static) vs M-tile",
              TextTable::mult(geomean(stat)), "1.41x"});
    head.row({"runtime adjustment gain",
              TextTable::mult(geomean(runtime)), "1.21x"});
    head.row({"Adyna vs GPU (geomean)", TextTable::mult(geomean(vsGpu)),
              "11.7x"});
    head.row({"Adyna / full-kernel",
              TextTable::pct(1.0 / geomean(ofFull)), "87%"});
    head.print(std::cout);
    return 0;
}
