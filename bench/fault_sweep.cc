/**
 * @file
 * Fault-injection sweep: serves all five paper workloads at a fixed
 * fraction of their calibrated capacity while a seeded FaultPlan
 * strikes the chip mid-run, and compares adaptive fail-over
 * (degraded re-scheduling onto the surviving tiles plus
 * deadline-aware admission control) against the static response
 * (keep the installed schedule and eat the degraded lockstep
 * execution). Writes the full matrix to `BENCH_fault.json`.
 *
 * Scenarios per workload:
 *   none      - empty plan, fail-over on vs off: the two reports
 *               must be byte-identical (the zero-cost-abstraction
 *               gate on the whole fault subsystem);
 *   tile_fail - one permanent tile failure at 30% of the serving
 *               horizon (override with --fault-plan), adaptive vs
 *               static: adaptive must win on goodput;
 *   link      - a downed link, a degraded link and a probe-drop
 *               window (report-only: NoC detour / retry counters).
 */

#include <cstdio>

#include "bench_common.hh"
#include "fault/fault.hh"
#include "serve/server.hh"

using namespace adyna;
using namespace adyna::bench;

namespace {

enum class Scenario { None, TileFail, Link };

struct RunSpec
{
    std::size_t wi = 0;
    Scenario scenario = Scenario::None;
    bool adaptive = true; ///< fail-over + admission control on
};

const char *
scenarioName(Scenario s)
{
    switch (s) {
    case Scenario::None:
        return "none";
    case Scenario::TileFail:
        return "tile_fail";
    case Scenario::Link:
        return "link";
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
        static_cast<int>(args.getInt("requests", 1500));
    const double rateFrac = args.getDouble("rate-frac", 0.7);
    const double deadlineIntervals =
        args.getDouble("deadline-intervals", 6.0);
    const int tileFails =
        static_cast<int>(args.getInt("tile-fails", 1));
    const std::string planOverride =
        args.getString("fault-plan", "");
    // Probe controls: --probe-stride N probes every Nth tile
    // (0 = just the four quarter positions), --probe-requests
    // overrides the probe run length, --probe-only 1 prints the
    // probe table and exits (for mapping a workload's sensitivity
    // to single-tile failures).
    const int probeStride =
        static_cast<int>(args.getInt("probe-stride", 4));
    const bool probeOnly = args.getInt("probe-only", 0) != 0;
    p.batchSize = maxBatch;
    const arch::HwConfig hw;
    printBanner("=== Fault injection: adaptive fail-over vs static "
                "degradation under tile/NoC faults ===",
                hw, p);

    std::vector<Workload> workloads = makeAllWorkloads(maxBatch);
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

    /** Run one serving cell. */
    const auto serveCell = [&](std::size_t wi, int nreq,
                               const std::string &plan_text,
                               bool failover, bool admission) {
        const Workload &w = workloads[wi];
        const Calibration &c = calibs[wi];

        trace::TraceConfig tc = w.bundle.traceConfig;
        tc.batchSize = maxBatch;

        serve::ServeConfig sc;
        sc.arrival.ratePerSec = rateFrac * c.capacityRps;
        sc.batching.maxBatch = maxBatch;
        sc.batching.maxWaitCycles = static_cast<Cycles>(
            c.batchIntervalMs * 1e-3 * hw.tech.freqGhz * 1e9);
        sc.slo.deadlineMs = deadlineIntervals * c.batchIntervalMs;
        sc.numRequests = nreq;
        sc.seed = p.seed;
        sc.faultPlan = fault::parseFaultPlanOrDie(plan_text);
        sc.failover = failover;
        sc.admissionControl = admission;

        // Own mapper and store cache per cell, so concurrent cells
        // cannot leak into each other's rebuild costs and counters
        // (see serve_loadgen).
        costmodel::Mapper mapper(hw.tech);
        kernels::KernelStoreCache cache;
        serve::ServeRuntime rt(
            w.dg, tc, hw,
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna), sc,
            w.name);
        rt.setSharedMapper(&mapper);
        rt.setSharedStoreCache(&cache);
        return rt.run();
    };

    /** tile_fail plan text: @p count failures starting at @p tile,
     * striking at 30% of the expected @p nreq-request horizon (the
     * run has settled before the fault and ends long after it), one
     * batch interval apart. */
    const auto tileFailPlan = [&](std::size_t wi, int nreq, int tile,
                                  int count) {
        const double rate = rateFrac * calibs[wi].capacityRps;
        const auto strike = static_cast<Tick>(
            0.3 * (nreq / rate) * hw.tech.freqGhz * 1e9);
        const Tick step = static_cast<Tick>(
            calibs[wi].batchIntervalMs * 1e-3 * hw.tech.freqGhz *
            1e9);
        std::string text;
        char buf[96];
        for (int k = 0; k < count; ++k) {
            std::snprintf(buf, sizeof(buf),
                          "%stile_fail@%llu:tile=%d",
                          text.empty() ? "" : ";",
                          static_cast<unsigned long long>(strike +
                                                          k * step),
                          tile + k);
            text += buf;
        }
        return text;
    };

    // ---- adversarial tile probe ------------------------------------
    // A dead tile only costs throughput when it lands in a loaded
    // stage group, and where that is depends on each workload's
    // segmentation. Probe a few snake-order positions with short
    // static runs and fail the most damaging one — the worst-case
    // single-tile failure is the robustness metric of interest.
    std::vector<int> candidates = {0, hw.tiles() / 4,
                                   hw.tiles() / 2,
                                   3 * hw.tiles() / 4};
    if (probeStride > 0) {
        candidates.clear();
        for (int t = 0; t < hw.tiles(); t += probeStride)
            candidates.push_back(t);
    }
    const int probeReq = static_cast<int>(args.getInt(
        "probe-requests", std::min(requests, 300)));
    const auto probeGoodput =
        sweep.map(workloads.size() * candidates.size(),
                  [&](std::size_t i) {
                      const std::size_t wi = i / candidates.size();
                      const int tile = candidates[i % candidates.size()];
                      return serveCell(wi, probeReq,
                                       tileFailPlan(wi, probeReq,
                                                    tile, 1),
                                       /*failover=*/false,
                                       /*admission=*/false)
                          .goodputRps;
                  });
    std::vector<int> failTile(workloads.size(), 0);
    std::printf("Adversarial tile probe (static, %d requests):\n",
                probeReq);
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < candidates.size(); ++c)
            if (probeGoodput[wi * candidates.size() + c] <
                probeGoodput[wi * candidates.size() + best])
                best = c;
        failTile[wi] = candidates[best];
        std::printf("  %-10s worst tile %3d (goodput %.0f r/s)\n",
                    workloads[wi].name.c_str(), failTile[wi],
                    probeGoodput[wi * candidates.size() + best]);
    }
    std::printf("\n");
    if (probeOnly) {
        for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
            std::printf("%s:\n", workloads[wi].name.c_str());
            for (std::size_t c = 0; c < candidates.size(); ++c)
                std::printf("  tile %3d -> %.0f r/s\n", candidates[c],
                            probeGoodput[wi * candidates.size() + c]);
        }
        return 0;
    }

    // ---- the run matrix --------------------------------------------
    std::vector<RunSpec> specs;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        specs.push_back({wi, Scenario::None, /*adaptive=*/true});
        specs.push_back({wi, Scenario::None, /*adaptive=*/false});
        specs.push_back({wi, Scenario::TileFail, /*adaptive=*/true});
        specs.push_back({wi, Scenario::TileFail, /*adaptive=*/false});
        specs.push_back({wi, Scenario::Link, /*adaptive=*/true});
    }

    /** The plan text for one (workload, scenario) cell. */
    const auto planText = [&](const RunSpec &s) -> std::string {
        if (s.scenario == Scenario::None)
            return "";
        if (s.scenario == Scenario::TileFail)
            return planOverride.empty()
                       ? tileFailPlan(s.wi, requests,
                                      failTile[s.wi], tileFails)
                       : planOverride;
        const double rate = rateFrac * calibs[s.wi].capacityRps;
        const auto strike = static_cast<Tick>(
            0.3 * (requests / rate) * hw.tech.freqGhz * 1e9);
        const int tile =
            (hw.gridRows / 2) * hw.gridCols + hw.gridCols / 2;
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "link_down@%llu:tile=%d,dir=E;"
            "link_degrade@%llu:tile=%d,dir=S,factor=0.5;"
            "probe_drop@%llu:prob=0.2,duration=%llu",
            static_cast<unsigned long long>(strike), tile,
            static_cast<unsigned long long>(strike), tile,
            static_cast<unsigned long long>(strike),
            static_cast<unsigned long long>(strike));
        return buf;
    };

    const auto reports = sweep.map(specs.size(), [&](std::size_t si) {
        const RunSpec &s = specs[si];
        return serveCell(s.wi, requests, planText(s), s.adaptive,
                         s.adaptive && s.scenario != Scenario::None);
    });

    // ---- report ----------------------------------------------------
    TextTable t("Fault matrix (" + std::to_string(requests) +
                " requests per cell, " +
                TextTable::num(rateFrac, 1) + "x capacity)");
    t.header({"workload", "scenario", "mode", "p50 ms", "p99 ms",
              "SLO", "goodput r/s", "shed", "failovers", "detours"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &s = specs[i];
        const serve::ServeReport &r = reports[i];
        t.row({workloads[s.wi].name, scenarioName(s.scenario),
               s.adaptive ? "adaptive" : "static",
               TextTable::num(r.p50Ms, 3), TextTable::num(r.p99Ms, 3),
               TextTable::pct(r.sloAttainment),
               TextTable::num(r.goodputRps, 0),
               std::to_string(r.shedRequests),
               std::to_string(r.failovers),
               std::to_string(r.nocDetours)});
    }
    t.print(std::cout);

    // ---- acceptance gates ------------------------------------------
    bool pass = true;
    std::printf("\nFail-over check per workload:\n");
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        const serve::ServeReport *noneA = nullptr, *noneS = nullptr;
        const serve::ServeReport *failA = nullptr, *failS = nullptr;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const RunSpec &s = specs[i];
            if (s.wi != wi)
                continue;
            if (s.scenario == Scenario::None)
                (s.adaptive ? noneA : noneS) = &reports[i];
            else if (s.scenario == Scenario::TileFail)
                (s.adaptive ? failA : failS) = &reports[i];
        }
        // Gate 1: with an empty plan the fail-over knob must be
        // invisible — byte-identical reports. The shared mapper /
        // store-cache counters are best-effort deltas that depend on
        // how concurrent cells interleave, so they are zeroed before
        // comparing (exactly why toJson keeps them out of the
        // deterministic gate surface elsewhere).
        const auto stripCaches = [](serve::ServeReport r) {
            r.mapperHits = r.mapperMisses = 0;
            r.storeHits = r.storeMisses = 0;
            return r;
        };
        const bool inert = serve::toJson(stripCaches(*noneA)) ==
                           serve::toJson(stripCaches(*noneS));
        // Gate 2: under tile failure the adaptive response must beat
        // the static one on goodput.
        const bool wins = failA->goodputRps > failS->goodputRps;
        std::printf("  %-10s tile-fail: adaptive goodput %.0f r/s "
                    "(%d failovers, %llu shed) vs static %.0f r/s "
                    "-> %s; empty plan: %s\n",
                    workloads[wi].name.c_str(), failA->goodputRps,
                    failA->failovers,
                    static_cast<unsigned long long>(
                        failA->shedRequests),
                    failS->goodputRps, wins ? "adaptive wins" : "NO WIN",
                    inert ? "byte-identical" : "DIVERGED");
        pass = pass && wins && inert && failA->failovers > 0;
    }

    // ---- BENCH_fault.json ------------------------------------------
    const std::string jsonPath =
        args.getString("json", "BENCH_fault.json");
    writeBenchJson(
        jsonPath, "fault_sweep",
        [&](JsonWriter &w) {
            w.field("max_batch", maxBatch)
                .field("requests_per_cell", requests)
                .field("rate_frac", rateFrac)
                .field("tile_fails", tileFails);
        },
        "runs", specs.size(),
        [&](JsonWriter &w, std::size_t i) {
            const RunSpec &s = specs[i];
            const bool tileFail = s.scenario == Scenario::TileFail;
            w.field("scenario", scenarioName(s.scenario))
                .field("failover", s.adaptive)
                .field("fail_tile", tileFail ? failTile[s.wi] : -1);
            serve::writeFields(w, reports[i]);
        });
    std::printf("\nWrote %s\n", jsonPath.c_str());

    if (!pass) {
        std::printf("\nFAIL: adaptive fail-over did not beat the "
                    "static response under tile failure (or the "
                    "empty-plan reports diverged)\n");
        return 1;
    }
    std::printf("\nPASS: fail-over re-scheduling beats the static "
                "response on goodput under tile failure, and an "
                "empty fault plan is a zero-cost no-op\n");
    return 0;
}
