/**
 * @file
 * Test helper: workloads and serving configurations shared by the
 * serve, pod, multi-tenant and fault tests, so the runtime identity
 * tests run the exact inputs the single-chip tests pin.
 */

#ifndef ADYNA_TESTS_SERVE_FIXTURES_HH
#define ADYNA_TESTS_SERVE_FIXTURES_HH

#include <cstdint>
#include <string>

#include "arch/hwconfig.hh"
#include "fault/fault.hh"
#include "graph/dyngraph.hh"
#include "graph/parser.hh"
#include "models/models.hh"
#include "serve/server.hh"
#include "trace/trace.hh"

namespace adyna::test {

/** One model parsed at a compiled batch size, with its dynamism
 * model; a positive @p drift_strength drifts it with period 40. */
struct TestWorkload
{
    std::string name;
    models::ModelBundle bundle;
    graph::DynGraph dg;
    trace::TraceConfig tc;

    explicit TestWorkload(const char *model, int maxBatch,
                          double drift_strength = 0.0)
        : name(model), bundle(models::buildByName(model, maxBatch)),
          dg(graph::parseModel(bundle.graph)), tc(bundle.traceConfig)
    {
        tc.batchSize = maxBatch;
        tc.driftStrength = drift_strength;
        if (drift_strength > 0.0)
            tc.driftPeriod = 40;
    }
};

/** A small serving run: batch 8, 5e5 r/s, a 1 ms deadline and
 * 64-request drift windows. */
inline serve::ServeConfig
smokeServeConfig(std::uint64_t seed, unsigned requests)
{
    serve::ServeConfig sc;
    sc.arrival.ratePerSec = 5e5;
    sc.batching.maxBatch = 8;
    sc.batching.maxWaitCycles = 20000;
    sc.slo.deadlineMs = 1.0;
    sc.drift.windowRequests = 64;
    sc.numRequests = requests;
    sc.profileBatches = 8;
    sc.seed = seed;
    return sc;
}

/** Tile 100 fails at tick 0, then every tile of @p hw's grid fails at
 * tick 200000: the second strike leaves no survivor to fail over
 * onto, so a run counts exactly one fail-over. */
inline fault::FaultPlan
everyTileDeadPlan(const arch::HwConfig &hw)
{
    std::string text = "tile_fail@0:tile=100";
    for (int t = 0; t < hw.tiles(); ++t)
        text += ";tile_fail@200000:tile=" + std::to_string(t);
    return fault::parseFaultPlanOrDie(text);
}

/** PABEE's dynamism model at batch 8 under the slow drift the
 * searchServeConfig runs serve. */
inline trace::TraceConfig
searchDriftTrace(trace::TraceConfig tc)
{
    tc.batchSize = 8;
    tc.driftStrength = 0.9;
    tc.driftPeriod = 700;
    return tc;
}

/**
 * The drifting PABEE serving run (multi-segment, so delta
 * re-schedules splice): 2400 requests at 2e5 r/s, batch 8, with the
 * anytime schedule search on the drift path when @p search_on and a
 * watchdog budget of @p watchdog_budget cycles (0 = off). Pair with
 * searchDriftTrace.
 */
inline serve::ServeConfig
searchServeConfig(bool search_on, Cycles watchdog_budget,
                  std::uint64_t seed)
{
    serve::ServeConfig sc;
    sc.arrival.ratePerSec = 2e5;
    sc.batching.maxBatch = 8;
    sc.batching.maxWaitCycles = 20000;
    sc.slo.deadlineMs = 4.0;
    sc.drift.windowRequests = 200;
    // Slow drift keeps the calibrated noise floor low; pin the fixed
    // threshold below the accumulated shift so the trigger does not
    // depend on the calibration windows' sampling noise.
    sc.drift.noiseMultiplier = 1.0;
    sc.drift.threshold = 0.2;
    sc.numRequests = 2400;
    sc.profileBatches = 8;
    sc.seed = seed;
    sc.rescheduleBudgetCycles = watchdog_budget;
    sc.searchOnDrift = search_on;
    sc.search.chains = 2;
    sc.search.mutationBudget = 200;
    sc.search.materializeTop = 2;
    return sc;
}

} // namespace adyna::test

#endif // ADYNA_TESTS_SERVE_FIXTURES_HH
