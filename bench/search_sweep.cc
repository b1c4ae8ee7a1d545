/**
 * @file
 * Offline schedule-search sweep: for each paper workload, build the
 * heuristic Adyna schedule, then run the anytime SA/beam search
 * (src/search) with a fixed mutation budget and score both on the
 * same probe batches. Two gates ride on the output:
 *
 *  1. Quality — the searched schedule must strictly beat the
 *     heuristic one on at least @c --min-improved of the five
 *     workloads (the search never ships a worse schedule: it falls
 *     back to the heuristic when nothing better materializes).
 *  2. Determinism — the search is re-run with a single-thread pool
 *     and with the --jobs pool; any divergence in cost, winner
 *     fingerprint, or counters is fatal. `BENCH_search.json`
 *     contains no thread-count-dependent field, so the file itself
 *     must be byte-identical across --jobs values (the CI diff
 *     gate).
 *
 * Wall-clock timings go to stderr only; stdout and the JSON stay
 * byte-stable.
 */

#include <chrono>
#include <cstdio>

#include "bench_common.hh"
#include "core/sampling.hh"
#include "core/search_stats.hh"
#include "kernels/store_cache.hh"
#include "search/search.hh"

using namespace adyna;
using namespace adyna::bench;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One workload's search outcome (everything the JSON reports). */
struct Cell
{
    std::string workload;
    Tick heuristicCost = 0;
    Tick searchedCost = 0;
    bool improved = false;
    std::uint64_t winnerFp = 0;
    core::SearchStats stats;
};

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    BenchParams p = BenchParams::fromArgs(args);
    const int profileBatches =
        static_cast<int>(args.getInt("profile-batches", 40));
    const int probeBatches =
        static_cast<int>(args.getInt("probe", 8));
    const int minImproved =
        static_cast<int>(args.getInt("min-improved", 3));

    search::SearchConfig scfg;
    scfg.chains = static_cast<int>(args.getInt("chains", 4));
    scfg.mutationBudget =
        static_cast<int>(args.getInt("budget", 4000));
    scfg.materializeTop =
        static_cast<int>(args.getInt("materialize-top", 6));
    scfg.seed = p.seed;

    const arch::HwConfig hw;
    printBanner("=== Schedule search: anytime SA/beam over "
                "segmentation and allocation vs the heuristic ===",
                hw, p);
    std::printf("search: chains=%d budget=%d beam=%d probe=%d\n\n",
                scfg.chains, scfg.mutationBudget,
                scfg.materializeTop, probeBatches);

    const std::vector<Workload> workloads =
        makeAllWorkloads(p.batchSize);

    /**
     * One full search on one workload with a private mapper, store
     * cache, and pool — every counter is attributable and the
     * outcome depends only on the configuration, never on --jobs.
     */
    const auto searchWorkload = [&](const Workload &w,
                                    int pool_jobs) {
        costmodel::Mapper mapper(hw.tech);
        kernels::KernelStoreCache storeCache;
        ThreadPool pool(pool_jobs);

        trace::TraceConfig tc = w.bundle.traceConfig;
        tc.batchSize = p.batchSize;

        const auto schedCfg =
            baselines::schedulerConfig(baselines::Design::Adyna);
        const auto policy =
            baselines::execPolicy(baselines::Design::Adyna);

        core::Scheduler scheduler(w.dg, hw, mapper, schedCfg);
        scheduler.setStoreCache(&storeCache);

        // Offline profiling at the compiled batch size (System's and
        // the serving back-end's bring-up).
        arch::Profiler prof;
        std::map<OpId, double> expectations;
        std::map<OpId, std::vector<std::int64_t>> kernelValues =
            scheduler.initialKernelValues();
        trace::TraceGenerator gen(w.dg, tc, core::probeSeed(p.seed));
        core::profileOffline(
            prof, w.dg, profileBatches, [&](int) { return gen.next(); },
            true, expectations, kernelValues);

        const core::Schedule base =
            scheduler.build(expectations, kernelValues, &prof);

        // Probe: the batches both contenders are scored on, drawn
        // after the profile from the same stream (the near future
        // the search optimizes for).
        std::vector<trace::BatchRouting> probe;
        probe.reserve(static_cast<std::size_t>(probeBatches));
        for (int b = 0; b < probeBatches; ++b)
            probe.push_back(gen.next());

        search::ScheduleSearch searcher(w.dg, hw, mapper, policy,
                                        scfg);
        searcher.setThreadPool(&pool);

        Cell cell;
        cell.workload = w.name;
        const auto res = searcher.run(
            scheduler, base, nullptr, expectations, kernelValues,
            &prof, probe, &storeCache, &cell.stats);
        cell.heuristicCost = res.heuristicCost;
        cell.searchedCost = res.searchedCost;
        cell.improved = res.improved;
        cell.winnerFp = search::PlanTree::fingerprint(res.tree);
        return cell;
    };

    std::vector<Cell> cells;
    int improvedCount = 0;
    for (const Workload &w : workloads) {
        const double t0 = nowMs();
        const Cell serial = searchWorkload(w, 1);
        const double t1 = nowMs();
        const Cell parallel = searchWorkload(w, p.jobs);
        const double t2 = nowMs();
        std::fprintf(stderr,
                     "[adyna] %s: search %.0f ms serial, %.0f ms "
                     "with %d jobs\n",
                     w.name.c_str(), t1 - t0, t2 - t1, p.jobs);

        // Determinism gate: the search result is part of the
        // simulation output, so it must be independent of the
        // worker count down to the counters.
        if (serial.heuristicCost != parallel.heuristicCost ||
            serial.searchedCost != parallel.searchedCost ||
            serial.improved != parallel.improved ||
            serial.winnerFp != parallel.winnerFp ||
            serial.stats.candidatesTried !=
                parallel.stats.candidatesTried ||
            serial.stats.candidatesAccepted !=
                parallel.stats.candidatesAccepted ||
            serial.stats.materialized !=
                parallel.stats.materialized ||
            serial.stats.budgetSpentCycles !=
                parallel.stats.budgetSpentCycles)
            ADYNA_FATAL("search diverged across --jobs on ",
                        w.name, ": serial searched ",
                        serial.searchedCost, " (fp ",
                        serial.winnerFp, "), parallel searched ",
                        parallel.searchedCost, " (fp ",
                        parallel.winnerFp, ")");

        if (serial.searchedCost > serial.heuristicCost)
            ADYNA_FATAL("search regressed on ", w.name,
                        ": searched ", serial.searchedCost,
                        " > heuristic ", serial.heuristicCost,
                        " — the fallback must make this impossible");

        improvedCount += serial.improved ? 1 : 0;
        cells.push_back(serial);
    }

    TextTable table("Searched vs heuristic (probe makespan, cycles)");
    table.header({"Workload", "Heuristic", "Searched", "Gain",
                  "Tried", "Materialized", "Spliced", "Rebuilt"});
    for (const Cell &c : cells) {
        const double gain =
            c.heuristicCost > 0
                ? (static_cast<double>(c.heuristicCost) -
                   static_cast<double>(c.searchedCost)) /
                      static_cast<double>(c.heuristicCost)
                : 0.0;
        table.row(
            {c.workload, std::to_string(c.heuristicCost),
             std::to_string(c.searchedCost), TextTable::pct(gain),
             std::to_string(c.stats.candidatesTried),
             std::to_string(c.stats.materialized),
             std::to_string(c.stats.segmentsSpliced),
             std::to_string(c.stats.segmentsRebuilt)});
    }
    std::printf("%s", table.str().c_str());
    std::printf("\nSearched beat the heuristic on %d of %zu "
                "workloads (gate: >= %d).\n",
                improvedCount, cells.size(), minImproved);

    // ---- BENCH_search.json -----------------------------------------
    const std::string jsonPath =
        args.getString("json", "BENCH_search.json");
    writeBenchJson(
        jsonPath, "search_sweep",
        [&](JsonWriter &w) {
            w.field("batch_size", p.batchSize)
                .field("seed", p.seed)
                .field("chains", scfg.chains)
                .field("mutation_budget", scfg.mutationBudget)
                .field("materialize_top", scfg.materializeTop)
                .field("probe_batches", probeBatches)
                .field("improved_count", improvedCount)
                .field("min_improved", minImproved);
        },
        "workloads", cells.size(),
        [&](JsonWriter &w, std::size_t i) {
            const Cell &c = cells[i];
            w.field("workload", c.workload)
                .field("heuristic_cost", c.heuristicCost)
                .field("searched_cost", c.searchedCost)
                .field("improved", c.improved)
                .field("winner_fp", c.winnerFp)
                .field("tried", c.stats.candidatesTried)
                .field("accepted", c.stats.candidatesAccepted)
                .field("materialized", c.stats.materialized)
                .field("segments_spliced", c.stats.segmentsSpliced)
                .field("segments_rebuilt", c.stats.segmentsRebuilt)
                .field("full_rebuilds", c.stats.fullRebuilds)
                .field("budget_spent", c.stats.budgetSpentCycles);
        });
    std::printf("Wrote %s\n", jsonPath.c_str());

    if (improvedCount < minImproved) {
        std::fprintf(stderr,
                     "[adyna] GATE FAILED: searched beat the "
                     "heuristic on %d workloads, need %d\n",
                     improvedCount, minImproved);
        return 1;
    }
    return 0;
}
