/**
 * @file
 * Multi-chip pod load generator: scales one serving workload across
 * K chips behind the pod router, measuring goodput scaling, chip-loss
 * fail-over, and the 1-chip equivalence guarantee, and writing the
 * cell matrix to `BENCH_pod.json`.
 *
 * Cells:
 *  - scaling: K in {1, 2, 4, 8}, replicated placement, least-loaded
 *    routing, pod-aggregate offered load fixed at rate-frac of the
 *    K-chip capacity. Gate A: goodput at K=8 >= 6x the K=1 baseline
 *    (near-linear scale-out despite interconnect charges and
 *    per-chip drift/reconfig stalls).
 *  - chip-loss: K=4 with a permanent `chip_fail` striking chip 1 a
 *    third into the run, adaptive re-route vs static pinning.
 *    Gate B: adaptive re-route beats static pinning on pod goodput
 *    (the dark chip's queue drains onto survivors instead of
 *    vanishing).
 *  - identity: a 1-chip pod must reproduce the single-chip
 *    ServeRuntime serve JSON byte-for-byte (Gate C — the pod layer
 *    is a pure extension).
 *  - partitioned (ungated): two models split 50/50 over K=4 under
 *    schedule-affinity routing, reporting affinity hit rates and
 *    per-group goodput.
 *  - gray straggler: K=4 with a permanent `chip_slow` (factor >= 4)
 *    dilating chip 1 a third into the run, hedged+breaker reliability
 *    vs the naive router. Gate D: the reliability layer beats naive
 *    on BOTH pod p99 and goodput.
 *  - gray integrity: K=4 under a fabric-wide `payload_corrupt`
 *    window with end-to-end checksums. Gate E: every injected
 *    corruption is detected and retried (costed on the
 *    interconnect), none delivered wrong. A checksums-off twin is
 *    reported ungated.
 *
 * `--only gray` runs just the two gray cells (the CI fault job's
 * gray-failure leg); the default runs everything.
 */

#include <cstdio>

#include "bench_common.hh"
#include "pod/runtime.hh"
#include "serve/server.hh"

using namespace adyna;
using namespace adyna::bench;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    BenchParams p = BenchParams::fromArgs(args);
    const int maxBatch = static_cast<int>(args.getInt("max-batch", 8));
    const int requestsPerChip =
        static_cast<int>(args.getInt("requests", 400));
    const double rateFrac = args.getDouble("rate-frac", 0.6);
    const double deadlineIntervals =
        args.getDouble("deadline-intervals", 8.0);
    const double waitIntervals =
        args.getDouble("wait-intervals", 1.0);
    const std::size_t queueLimit = static_cast<std::size_t>(
        args.getInt("queue-limit", 8L * maxBatch));
    const std::string only = args.getString("only", "");
    const bool baseCells = only.empty();
    if (!baseCells && only != "gray") {
        std::fprintf(stderr, "unknown --only section \"%s\" "
                             "(supported: gray)\n",
                     only.c_str());
        return 2;
    }
    const double slowFactor = args.getDouble("slow-factor", 5.0);
    const double corruptProb = args.getDouble("corrupt-prob", 0.05);
    p.batchSize = maxBatch;
    const arch::HwConfig hw;
    printBanner("=== Multi-chip pod serving: request routing and "
                "chip-loss fail-over ===",
                hw, p);

    std::vector<Workload> workloads;
    for (const std::string &name :
         {std::string("skipnet"), std::string("pabee")})
        workloads.push_back(makeWorkload(name, maxBatch));

    Sweep sweep(p, hw);

    // ---- calibration: full-grid capacity per workload --------------
    const auto calibs = calibrate(sweep, workloads, p, hw);
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

    /** The per-chip serving template at a given pod rate. */
    const auto serveConfig = [&](const Calibration &c, double rate,
                                 int num_requests) {
        serve::ServeConfig sc;
        sc.arrival.ratePerSec = rate;
        sc.batching.maxBatch = maxBatch;
        sc.batching.maxWaitCycles = static_cast<Cycles>(
            waitIntervals * c.batchIntervalMs * 1e-3 *
            hw.tech.freqGhz * 1e9);
        sc.slo.deadlineMs = deadlineIntervals * c.batchIntervalMs;
        sc.numRequests = num_requests;
        sc.seed = p.seed;
        return sc;
    };

    // Every pod run gets its own mapper and store cache (shared by
    // that run's chips, not across runs): BENCH_pod.json promises
    // byte-stability for any --jobs, and sweep-wide caches would
    // leak warm-up order into the reported hit/miss counters.
    const auto makePod = [&](pod::PodConfig pc,
                             std::vector<pod::PodWorkload> wls) {
        costmodel::Mapper mapper(hw.tech);
        kernels::KernelStoreCache cache;
        pod::PodRuntime rt(
            std::move(wls), hw,
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna),
            std::move(pc));
        rt.setSharedMapper(&mapper);
        rt.setSharedStoreCache(&cache);
        return rt.run();
    };

    const Workload &w0 = workloads[0];
    const Calibration &c0 = calibs[0];
    trace::TraceConfig tc0 = w0.bundle.traceConfig;
    tc0.batchSize = maxBatch;

    struct CellRun
    {
        std::string cell;
        pod::PodReport report;
    };
    std::vector<CellRun> cellRuns;

    double scaleup = 0.0;
    bool scalingPass = true;
    bool failoverPass = true;
    bool identityPass = true;
    if (baseCells) {
    // ---- cell 1: scaling sweep K in {1,2,4,8} ----------------------
    const std::vector<int> kSweep = {1, 2, 4, 8};
    const auto scaling = sweep.map(kSweep.size(), [&](std::size_t i) {
        const int K = kSweep[i];
        pod::PodConfig pc;
        pc.chips = K;
        pc.placement = pod::Placement::Replicated;
        pc.router.policy = pod::RoutePolicy::LeastLoaded;
        pc.router.queueLimit = queueLimit;
        pc.serve = serveConfig(c0, rateFrac * K * c0.capacityRps,
                               requestsPerChip * K);
        return makePod(std::move(pc), {{&w0.dg, tc0, w0.name}});
    });

    TextTable ts("Scaling sweep (replicated " + w0.name +
                 ", least-loaded, " +
                 std::to_string(requestsPerChip) +
                 " requests/chip)");
    ts.header({"K", "offered r/s", "goodput r/s", "slo att", "p99 ms",
               "shed", "diverted", "speedup"});
    for (std::size_t i = 0; i < kSweep.size(); ++i) {
        const pod::PodReport &r = scaling[i];
        ts.row({std::to_string(kSweep[i]),
                TextTable::num(r.offeredRps, 0),
                TextTable::num(r.goodputRps, 0),
                TextTable::num(r.sloAttainment, 3),
                TextTable::num(r.p99Ms, 3),
                std::to_string(r.shedRequests),
                std::to_string(r.diverted),
                TextTable::num(r.goodputRps / scaling[0].goodputRps,
                               2)});
        cellRuns.push_back(
            {"scaling-k" + std::to_string(kSweep[i]), r});
    }
    ts.print(std::cout);

    scaleup = scaling.back().goodputRps / scaling.front().goodputRps;
    scalingPass = scaleup >= 6.0;
    std::printf("\nGate A (scale-out): goodput K=8 / K=1 = %.2fx "
                "(need >= 6x) -> %s\n\n",
                scaleup, scalingPass ? "pass" : "FAIL");

    // ---- cell 2: chip loss, adaptive re-route vs static pinning ----
    // A permanent chip_fail strikes chip 1 a third of the way into
    // the arrival horizon.
    const int kLoss = 4;
    const double lossRate = rateFrac * kLoss * c0.capacityRps;
    const int lossRequests = requestsPerChip * kLoss;
    const Tick strikeTick = static_cast<Tick>(
        (static_cast<double>(lossRequests) / lossRate / 3.0) *
        hw.tech.freqGhz * 1e9);
    const auto lossRun = [&](bool adaptive) {
        pod::PodConfig pc;
        pc.chips = kLoss;
        pc.placement = pod::Placement::Replicated;
        pc.router.policy = pod::RoutePolicy::LeastLoaded;
        pc.router.queueLimit = queueLimit;
        pc.router.reRouteOnFailure = adaptive;
        pc.serve = serveConfig(c0, lossRate, lossRequests);
        pc.faultPlan = fault::parseFaultPlanOrDie(
            "chip_fail@" + std::to_string(strikeTick) + ":chip=1");
        return makePod(std::move(pc), {{&w0.dg, tc0, w0.name}});
    };
    const auto lossReports =
        sweep.map(2, [&](std::size_t i) { return lossRun(i == 0); });
    const pod::PodReport &lossAdaptive = lossReports[0];
    const pod::PodReport &lossStatic = lossReports[1];

    TextTable tl("Chip loss (K=4, chip 1 dark at 1/3 horizon, " +
                 std::to_string(lossRequests) + " requests)");
    tl.header({"mode", "goodput r/s", "slo att", "completed",
               "rerouted", "drained", "dark sheds", "front sheds"});
    const auto lossRow = [&](const char *mode,
                             const pod::PodReport &r) {
        tl.row({mode, TextTable::num(r.goodputRps, 0),
                TextTable::num(r.sloAttainment, 3),
                std::to_string(r.requests),
                std::to_string(r.rerouted),
                std::to_string(r.drained),
                std::to_string(r.darkChipSheds),
                std::to_string(r.shedRequests)});
    };
    lossRow("adaptive", lossAdaptive);
    lossRow("static-pin", lossStatic);
    tl.print(std::cout);
    cellRuns.push_back({"chip-loss-adaptive", lossAdaptive});
    cellRuns.push_back({"chip-loss-static", lossStatic});

    failoverPass = lossAdaptive.goodputRps > lossStatic.goodputRps;
    std::printf("\nGate B (fail-over): adaptive goodput %.0f vs "
                "static pinning %.0f r/s -> %s\n\n",
                lossAdaptive.goodputRps, lossStatic.goodputRps,
                failoverPass ? "pass" : "FAIL");

    // ---- cell 3: 1-chip pod == ServeRuntime (byte identity) --------
    // Private store caches on both sides so cache counters are
    // byte-stable regardless of what ran before.
    {
        const serve::ServeConfig sc = serveConfig(
            c0, rateFrac * c0.capacityRps, requestsPerChip);

        kernels::KernelStoreCache cacheDirect;
        serve::ServeRuntime direct(
            w0.dg, tc0, hw,
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna), sc,
            w0.name);
        direct.setSharedStoreCache(&cacheDirect);
        const std::string directJson = serve::toJson(direct.run());

        pod::PodConfig pc;
        pc.chips = 1;
        pc.serve = sc;
        kernels::KernelStoreCache cacheVia;
        pod::PodRuntime via(
            {{&w0.dg, tc0, w0.name}}, hw,
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna),
            std::move(pc));
        via.setSharedStoreCache(&cacheVia);
        const pod::PodReport pr = via.run();
        const std::string viaJson = serve::toJson(pr.chips[0].serve);

        identityPass = directJson == viaJson;
        std::printf("Gate C (1-chip equivalence): serve JSON %s\n\n",
                    identityPass ? "byte-identical" : "DIVERGED");
    }

    // ---- cell 4 (ungated): partitioned placement + affinity --------
    {
        const Calibration &c1 = calibs[1];
        trace::TraceConfig tc1 = workloads[1].bundle.traceConfig;
        tc1.batchSize = maxBatch;
        // 50/50 split over K=4 gives each model a 2-chip group; size
        // the pod rate so the slower group runs at rate-frac.
        const double podRate =
            rateFrac * 2.0 *
            std::min(c0.capacityRps, c1.capacityRps) / 0.5;
        // The latency envelope (batching window, deadline) must fit
        // the slower model or its chips can never meet the SLO.
        const Calibration &cSlow =
            c0.batchIntervalMs > c1.batchIntervalMs ? c0 : c1;
        pod::PodConfig pc;
        pc.chips = 4;
        pc.placement = pod::Placement::Partitioned;
        pc.router.policy = pod::RoutePolicy::Affinity;
        // Affinity is distance-first: it keeps steering look-alike
        // (here: heavy) requests at the same chip no matter its
        // backlog, so a tight queue limit is what sheds the
        // concentration onto the group sibling (backpressure
        // diverts).
        pc.router.queueLimit =
            static_cast<std::size_t>(2 * maxBatch);
        pc.serve =
            serveConfig(cSlow, podRate, requestsPerChip * pc.chips);
        // Affinity deliberately concentrates look-alike requests, so
        // per-chip arrival rates are uneven; a wider batching window
        // keeps batches full enough to absorb the concentration.
        pc.serve.batching.maxWaitCycles *= 2;
        const pod::PodReport r = makePod(
            std::move(pc), {{&w0.dg, tc0, w0.name, 0.5},
                            {&workloads[1].dg, tc1,
                             workloads[1].name, 0.5}});
        TextTable tp("Partitioned 50/50 " + w0.name + " + " +
                     workloads[1].name +
                     " on K=4, affinity routing");
        tp.header({"chip", "model", "routed", "goodput r/s",
                   "p99 ms", "resched"});
        for (const pod::ChipResult &cr : r.chips)
            tp.row({std::to_string(cr.id), cr.model,
                    std::to_string(cr.routed),
                    TextTable::num(cr.serve.goodputRps, 0),
                    TextTable::num(cr.serve.p99Ms, 3),
                    std::to_string(cr.serve.reschedules)});
        tp.print(std::cout);
        std::printf("\naffinity hits %llu / misses %llu, diverted "
                    "%llu, pod goodput %.0f r/s\n\n",
                    static_cast<unsigned long long>(r.affinityHits),
                    static_cast<unsigned long long>(
                        r.affinityMisses),
                    static_cast<unsigned long long>(r.diverted),
                    r.goodputRps);
        cellRuns.push_back({"partitioned-affinity", r});
    }
    } // baseCells

    // ---- cell 5: gray straggler — hedged+breaker vs naive ----------
    // A permanent chip_slow dilates chip 1's clock by slowFactor from
    // a third of the arrival horizon. The reliability run hedges
    // stuck requests onto healthy chips and lets the circuit breaker
    // stop admitting to the straggler; the naive run has only the
    // router's load projection.
    const int kGray = 4;
    const double grayRate = rateFrac * kGray * c0.capacityRps;
    const int grayRequests = requestsPerChip * kGray;
    const Tick slowTick = static_cast<Tick>(
        (static_cast<double>(grayRequests) / grayRate / 3.0) *
        hw.tech.freqGhz * 1e9);
    const auto grayRun = [&](bool hedged) {
        pod::PodConfig pc;
        pc.chips = kGray;
        pc.placement = pod::Placement::Replicated;
        pc.router.policy = pod::RoutePolicy::LeastLoaded;
        pc.router.queueLimit = queueLimit;
        pc.serve = serveConfig(c0, grayRate, grayRequests);
        char plan[128];
        std::snprintf(plan, sizeof(plan),
                      "chip_slow@%llu:chip=1,factor=%.17g",
                      static_cast<unsigned long long>(slowTick),
                      slowFactor);
        pc.faultPlan = fault::parseFaultPlanOrDie(plan);
        if (hedged) {
            pc.reliability.hedging = true;
            pc.reliability.breaker = true;
        }
        return makePod(std::move(pc), {{&w0.dg, tc0, w0.name}});
    };
    const auto grayReports =
        sweep.map(2, [&](std::size_t i) { return grayRun(i == 0); });
    const pod::PodReport &grayHedged = grayReports[0];
    const pod::PodReport &grayNaive = grayReports[1];

    TextTable tg("Gray straggler (K=4, chip 1 " +
                 TextTable::num(slowFactor, 1) + "x slow at 1/3 " +
                 "horizon, " + std::to_string(grayRequests) +
                 " requests)");
    tg.header({"mode", "goodput r/s", "p99 ms", "slo att", "hedges",
               "wins", "wasted", "trips", "sheds"});
    const auto grayRow = [&](const char *mode,
                             const pod::PodReport &r) {
        tg.row({mode, TextTable::num(r.goodputRps, 0),
                TextTable::num(r.p99Ms, 3),
                TextTable::num(r.sloAttainment, 3),
                std::to_string(r.reliability.hedges),
                std::to_string(r.reliability.hedgeWins),
                std::to_string(r.reliability.wastedCompletions),
                std::to_string(r.reliability.breakerTrips),
                std::to_string(r.shedRequests +
                               r.reliability.brownoutSheds)});
    };
    grayRow("hedged+brk", grayHedged);
    grayRow("naive", grayNaive);
    tg.print(std::cout);
    cellRuns.push_back({"gray-slow-hedged", grayHedged});
    cellRuns.push_back({"gray-slow-naive", grayNaive});

    const double hedgedGoodputRatio =
        grayNaive.goodputRps > 0.0
            ? grayHedged.goodputRps / grayNaive.goodputRps
            : 0.0;
    const bool stragglerPass =
        grayHedged.p99Ms < grayNaive.p99Ms &&
        grayHedged.goodputRps > grayNaive.goodputRps;
    std::printf("\nGate D (straggler): hedged+breaker p99 %.3f ms / "
                "goodput %.0f r/s vs naive %.3f ms / %.0f r/s "
                "(ratio %.2fx) -> %s\n\n",
                grayHedged.p99Ms, grayHedged.goodputRps,
                grayNaive.p99Ms, grayNaive.goodputRps,
                hedgedGoodputRatio,
                stragglerPass ? "pass" : "FAIL");

    // ---- cell 6: gray integrity — payload corruption + checksums ---
    const auto corruptRun = [&](bool checks) {
        pod::PodConfig pc;
        pc.chips = kGray;
        pc.placement = pod::Placement::Replicated;
        pc.router.policy = pod::RoutePolicy::LeastLoaded;
        pc.router.queueLimit = queueLimit;
        pc.serve = serveConfig(c0, grayRate, grayRequests);
        char plan[96];
        std::snprintf(plan, sizeof(plan),
                      "payload_corrupt@0:prob=%.17g", corruptProb);
        pc.faultPlan = fault::parseFaultPlanOrDie(plan);
        pc.reliability.checksums = checks;
        return makePod(std::move(pc), {{&w0.dg, tc0, w0.name}});
    };
    const auto corruptReports = sweep.map(
        2, [&](std::size_t i) { return corruptRun(i == 0); });
    const pod::PodReport &corruptChecked = corruptReports[0];
    const pod::PodReport &corruptNaive = corruptReports[1];

    TextTable tc("Gray integrity (K=4, fabric-wide bit-flip prob " +
                 TextTable::num(corruptProb, 3) + " per transfer)");
    tc.header({"mode", "goodput r/s", "injected", "detected",
               "undetected", "retries", "retry KB"});
    const auto corruptRow = [&](const char *mode,
                                const pod::PodReport &r) {
        tc.row({mode, TextTable::num(r.goodputRps, 0),
                std::to_string(r.reliability.corruptionsInjected),
                std::to_string(r.reliability.corruptionsDetected),
                std::to_string(r.reliability.corruptionsUndetected),
                std::to_string(r.reliability.integrityRetries),
                TextTable::num(static_cast<double>(
                                   r.reliability.icRetryBytes) /
                                   1e3,
                               1)});
    };
    corruptRow("checksums", corruptChecked);
    corruptRow("naive", corruptNaive);
    tc.print(std::cout);
    cellRuns.push_back({"gray-corrupt-checksum", corruptChecked});
    cellRuns.push_back({"gray-corrupt-naive", corruptNaive});

    const pod::PodReliabilityStats &ck = corruptChecked.reliability;
    const bool integrityPass =
        ck.corruptionsInjected > 0 &&
        ck.corruptionsDetected == ck.corruptionsInjected &&
        ck.corruptionsUndetected == 0 && ck.icRetryBytes > 0;
    std::printf("\nGate E (integrity): %llu/%llu corruptions "
                "detected-and-retried (%llu KB retransmitted, %llu "
                "undetected) -> %s\n\n",
                static_cast<unsigned long long>(
                    ck.corruptionsDetected),
                static_cast<unsigned long long>(
                    ck.corruptionsInjected),
                static_cast<unsigned long long>(ck.icRetryBytes /
                                                1000),
                static_cast<unsigned long long>(
                    ck.corruptionsUndetected),
                integrityPass ? "pass" : "FAIL");

    // ---- BENCH_pod.json --------------------------------------------
    const std::string jsonPath =
        args.getString("json", "BENCH_pod.json");
    writeBenchJson(
        jsonPath, "pod_loadgen",
        [&](JsonWriter &w) {
            w.field("max_batch", maxBatch)
                .field("requests_per_chip", requestsPerChip);
            if (baseCells)
                w.field("scaleup_k8", scaleup)
                    .field("scaling_pass", scalingPass)
                    .field("failover_pass", failoverPass)
                    .field("identity_pass", identityPass);
            w.field("hedged_goodput_ratio", hedgedGoodputRatio)
                .field("straggler_pass", stragglerPass)
                .field("integrity_pass", integrityPass);
        },
        "runs", cellRuns.size(),
        [&](JsonWriter &w, std::size_t i) {
            w.field("cell", cellRuns[i].cell);
            pod::writeFields(w, cellRuns[i].report);
        });
    std::printf("Wrote %s\n", jsonPath.c_str());

    if (!scalingPass || !failoverPass || !identityPass ||
        !stragglerPass || !integrityPass) {
        std::printf("\nFAIL:%s%s%s%s%s\n",
                    scalingPass ? "" : " scale-out below 6x at K=8;",
                    failoverPass
                        ? ""
                        : " adaptive re-route did not beat static "
                          "pinning;",
                    identityPass
                        ? ""
                        : " 1-chip pod diverged from ServeRuntime;",
                    stragglerPass
                        ? ""
                        : " hedged+breaker did not beat the naive "
                          "router under the straggler;",
                    integrityPass
                        ? ""
                        : " checksums missed injected corruptions");
        return 1;
    }
    if (baseCells)
        std::printf(
            "\nPASS: %.2fx goodput at K=8, adaptive fail-over "
            "beats static pinning, the 1-chip pod is "
            "byte-identical to ServeRuntime, hedged+breaker beats "
            "naive %.2fx under the straggler, and checksums caught "
            "every corruption\n",
            scaleup, hedgedGoodputRatio);
    else
        std::printf(
            "\nPASS: hedged+breaker beats naive %.2fx under the "
            "straggler, and checksums caught every corruption\n",
            hedgedGoodputRatio);
    return 0;
}
