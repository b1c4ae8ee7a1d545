/**
 * @file
 * Online serving load generator: drives the serve runtime over three
 * workloads under open-loop arrivals and reports tail latency, SLO
 * attainment and goodput per (workload, arrival process, rate, mode)
 * cell, writing the full matrix to `BENCH_serve.json`.
 *
 * Per workload the bench first calibrates the engine's batch
 * throughput (Adyna-static offline run) and derives the request
 * capacity, the batching max-wait (one batch interval) and the SLO
 * deadline (a few batch intervals) from it, so the same rate
 * fractions stress every workload comparably. It then sweeps Poisson
 * arrivals at 0.3/0.6/0.9x capacity plus one bursty (MMPP-2) point,
 * and closes with the drift experiment: a drifting dynamism trace
 * served once with the drift-triggered re-scheduling loop enabled
 * (adaptive) and once pinned to the initial schedule (static), plus
 * the same pair on a stationary trace where adaptive must not fire.
 */

#include <cstdio>

#include "bench_common.hh"
#include "serve/server.hh"

using namespace adyna;
using namespace adyna::bench;

namespace {

struct RunSpec
{
    std::size_t wi = 0;
    serve::ArrivalKind arrival = serve::ArrivalKind::Poisson;
    double rateFrac = 0.6; ///< offered rate as a capacity fraction
    bool drifting = false; ///< drifting dynamism trace
    bool adaptive = true;  ///< drift-triggered re-scheduling on
};

const char *
arrivalName(serve::ArrivalKind k)
{
    switch (k) {
    case serve::ArrivalKind::Poisson:
        return "poisson";
    case serve::ArrivalKind::Bursty:
        return "bursty";
    case serve::ArrivalKind::Replay:
        return "replay";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    BenchParams p = BenchParams::fromArgs(args);
    const int maxBatch =
        static_cast<int>(args.getInt("max-batch", 32));
    const int requests =
        static_cast<int>(args.getInt("requests", 2000));
    const double deadlineIntervals =
        args.getDouble("deadline-intervals", 6.0);
    const double driftStrength = args.getDouble("drift-strength", 0.9);
    const int driftPeriod =
        static_cast<int>(args.getInt("drift-period", 700));
    p.batchSize = maxBatch;
    const arch::HwConfig hw;
    printBanner("=== Online serving: arrivals, batching, SLO and "
                "drift-triggered re-scheduling ===",
                hw, p);

    std::vector<Workload> workloads;
    for (const std::string &name : {std::string("skipnet"),
                                    std::string("pabee"),
                                    std::string("tutel-moe")})
        workloads.push_back(makeWorkload(name, maxBatch));

    Sweep sweep(p, hw);

    // ---- calibration: engine capacity per workload -----------------
    const auto calibs = calibrate(sweep, workloads, p, hw);

    std::printf("Calibration (Adyna-static, batch %d):\n", maxBatch);
    for (std::size_t i = 0; i < workloads.size(); ++i)
        std::printf("  %-10s capacity %.0f req/s, batch interval "
                    "%.3f ms\n",
                    workloads[i].name.c_str(), calibs[i].capacityRps,
                    calibs[i].batchIntervalMs);
    std::printf("\n");

    // ---- the run matrix --------------------------------------------
    std::vector<RunSpec> specs;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        for (double frac : {0.3, 0.6, 0.9})
            specs.push_back({wi, serve::ArrivalKind::Poisson, frac,
                             /*drifting=*/false, /*adaptive=*/true});
        specs.push_back({wi, serve::ArrivalKind::Bursty, 0.6,
                         /*drifting=*/false, /*adaptive=*/true});
        // Stationary control: adaptive must match static exactly.
        specs.push_back({wi, serve::ArrivalKind::Poisson, 0.6,
                         /*drifting=*/false, /*adaptive=*/false});
        // The drift experiment.
        for (bool adaptive : {true, false})
            specs.push_back({wi, serve::ArrivalKind::Poisson, 0.6,
                             /*drifting=*/true, adaptive});
    }

    const auto runSpec = [&](std::size_t si) {
        const RunSpec &s = specs[si];
        const Workload &w = workloads[s.wi];
        const Calibration &c = calibs[s.wi];

        trace::TraceConfig tc = w.bundle.traceConfig;
        tc.batchSize = maxBatch;
        tc.driftStrength = s.drifting ? driftStrength : 0.0;
        tc.driftPeriod = driftPeriod;

        serve::ServeConfig sc;
        sc.arrival.kind = s.arrival;
        sc.arrival.ratePerSec = s.rateFrac * c.capacityRps;
        sc.batching.maxBatch = maxBatch;
        sc.batching.maxWaitCycles = static_cast<Cycles>(
            c.batchIntervalMs * 1e-3 * hw.tech.freqGhz * 1e9);
        sc.slo.deadlineMs = deadlineIntervals * c.batchIntervalMs;
        sc.drift.windowRequests =
            static_cast<int>(args.getInt("drift-window", 200));
        sc.driftReschedule = s.adaptive;
        sc.numRequests = requests;
        sc.seed = p.seed;

        // Every cell gets its own mapper and store cache: a rebuild's
        // modelled cost reads the store cache's miss delta, so caches
        // shared by concurrent cells would leak thread interleaving
        // into the report (see pod_loadgen).
        costmodel::Mapper mapper(hw.tech);
        kernels::KernelStoreCache cache;
        serve::ServeRuntime rt(
            w.dg, tc, hw, baselines::schedulerConfig(
                              baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna), sc,
            w.name);
        rt.setSharedMapper(&mapper);
        rt.setSharedStoreCache(&cache);
        return rt.run();
    };
    const auto reports = sweep.map(specs.size(), runSpec);

    // ---- report ----------------------------------------------------
    TextTable t("Serving matrix (" + std::to_string(requests) +
                " requests per cell)");
    t.header({"workload", "arrival", "rate", "trace", "mode",
              "offered r/s", "p50 ms", "p95 ms", "p99 ms", "SLO",
              "goodput r/s", "resched"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &s = specs[i];
        const serve::ServeReport &r = reports[i];
        t.row({workloads[s.wi].name, arrivalName(s.arrival),
               TextTable::num(s.rateFrac, 1) + "x",
               s.drifting ? "drifting" : "stationary", r.mode,
               TextTable::num(r.offeredRps, 0),
               TextTable::num(r.p50Ms, 3), TextTable::num(r.p95Ms, 3),
               TextTable::num(r.p99Ms, 3),
               TextTable::pct(r.sloAttainment),
               TextTable::num(r.goodputRps, 0),
               std::to_string(r.reschedules)});
    }
    t.print(std::cout);

    // ---- acceptance: adaptive vs static ----------------------------
    bool pass = true;
    std::printf("\nDrift-adaptation check per workload:\n");
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        const serve::ServeReport *driftAdpt = nullptr;
        const serve::ServeReport *driftStat = nullptr;
        const serve::ServeReport *statAdpt = nullptr;
        const serve::ServeReport *statStat = nullptr;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const RunSpec &s = specs[i];
            if (s.wi != wi || s.arrival != serve::ArrivalKind::Poisson ||
                s.rateFrac != 0.6)
                continue;
            (s.drifting ? (s.adaptive ? driftAdpt : driftStat)
                        : (s.adaptive ? statAdpt : statStat)) =
                &reports[i];
        }
        const bool driftWin =
            driftAdpt->p99Ms < driftStat->p99Ms ||
            driftAdpt->goodputRps > driftStat->goodputRps;
        const bool driftFired = driftAdpt->reschedules > 0;
        // With no trigger the adaptive path is the static path, so
        // "within noise" on a stationary trace means exactly equal.
        const bool statClean = statAdpt->reschedules == 0 &&
                               statAdpt->p99Ms == statStat->p99Ms;
        std::printf("  %-10s drifting: adaptive p99 %.3f ms vs "
                    "static %.3f ms, goodput %.0f vs %.0f r/s, "
                    "%d reschedules -> %s; stationary: %s\n",
                    workloads[wi].name.c_str(), driftAdpt->p99Ms,
                    driftStat->p99Ms, driftAdpt->goodputRps,
                    driftStat->goodputRps, driftAdpt->reschedules,
                    driftFired && driftWin ? "adaptive wins" : "NO WIN",
                    statClean ? "adaptive == static (no trigger)"
                              : "UNEXPECTED DIVERGENCE");
        pass = pass && driftFired && driftWin && statClean;
    }

    // ---- BENCH_serve.json ------------------------------------------
    const std::string jsonPath =
        args.getString("json", "BENCH_serve.json");
    writeBenchJson(
        jsonPath, "serve_loadgen",
        [&](JsonWriter &w) {
            w.field("max_batch", maxBatch)
                .field("requests_per_cell", requests);
        },
        "runs", specs.size(),
        [&](JsonWriter &w, std::size_t i) {
            const RunSpec &s = specs[i];
            w.field("arrival", arrivalName(s.arrival))
                .fixed("rate_frac", s.rateFrac, 2)
                .field("trace", s.drifting ? "drifting" : "stationary");
            serve::writeFields(w, reports[i]);
        });
    std::printf("\nWrote %s\n", jsonPath.c_str());

    if (!pass) {
        std::printf("\nFAIL: drift adaptation did not beat the "
                    "static schedule (or fired on stationary "
                    "traffic)\n");
        return 1;
    }
    std::printf("\nPASS: drift-triggered re-scheduling beats the "
                "static schedule on drifting traffic and is inert "
                "on stationary traffic\n");
    return 0;
}
