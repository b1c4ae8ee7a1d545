/**
 * @file
 * Early-exit NLP scenario: PABEE (BERT-base with per-layer exits) at
 * different exit aggressiveness levels -- the patience knob an NLP
 * service would tune. For each level the example reports throughput
 * and energy on Adyna and how much of the theoretical compute saving
 * the hardware actually realizes (the paper's core motivation:
 * theoretical DynNN savings do not materialize on dynamism-unaware
 * hardware).
 *
 *   ./examples/early_exit_nlp [--batches N] [--seed S]
 */

#include <cstdio>
#include <iostream>

#include "baselines/designs.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/sampling.hh"
#include "graph/parser.hh"
#include "models/models.hh"
#include "trace/trace.hh"

using namespace adyna;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const auto batches = static_cast<int>(args.getInt("batches", 120));
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 5));
    const arch::HwConfig hw;

    std::printf("PABEE early-exit serving: scaling every gate's exit "
                "fraction by an aggressiveness factor.\n\n");

    TextTable t("Exit aggressiveness sweep (Adyna, " +
                std::to_string(batches) + " batches)");
    t.header({"aggressiveness", "theoretical MACs", "time (ms)",
              "realized speedup", "energy (J)"});

    double baseMs = 0.0;
    for (double aggr : {0.0, 0.5, 1.0, 1.5}) {
        models::ModelBundle bundle = models::buildPabee(128);
        // Scale the marginal exit fraction of every gate.
        for (auto &node : const_cast<std::vector<graph::OpNode> &>(
                 bundle.graph.nodes())) {
            if (node.kind == graph::OpKind::Switch)
                node.policy.param =
                    std::min(1.0, node.policy.param * aggr);
        }
        const graph::DynGraph dg = graph::parseModel(bundle.graph);

        // Theoretical saving from the trace alone (offline profile).
        trace::TraceGenerator probe(dg, bundle.traceConfig,
                                    core::probeSeed(seed));
        arch::Profiler prof;
        std::map<OpId, double> exps;
        std::map<OpId, std::vector<std::int64_t>> noKernels;
        core::profileOffline(
            prof, dg, 60, [&](int) { return probe.next(); }, false, exps,
            noKernels);
        std::vector<std::pair<OpId, double>> pairs(exps.begin(),
                                                   exps.end());
        const double theoretical =
            dg.expectedMacs(pairs) /
            static_cast<double>(dg.worstCaseMacs());

        auto sys = baselines::makeSystem(dg, bundle.traceConfig, hw,
                                         baselines::Design::Adyna,
                                         batches, seed);
        const auto rep = sys.run();
        if (aggr == 0.0)
            baseMs = rep.timeMs;
        t.row({TextTable::num(aggr, 1),
               TextTable::pct(theoretical) + " of static",
               TextTable::num(rep.timeMs, 1),
               TextTable::mult(baseMs / rep.timeMs),
               TextTable::num(rep.energy.total() * 1e-12, 1)});
    }
    t.print(std::cout);
    std::printf("\nThe realized speedup tracks the theoretical "
                "compute saving because Adyna executes each exit "
                "level with fitted kernels and rebalanced tiles; a "
                "worst-case accelerator would realize none of it.\n");
    return 0;
}
