#include "serve/server.hh"

#include <optional>

#include "arch/chip.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "serve/backend.hh"
#include "serve/validate.hh"

namespace adyna::serve {

void
writeFields(JsonWriter &w, const ServeReport &r)
{
    w.field("workload", r.workload).field("mode", r.mode);
    w.field("requests", r.requests);
    w.field("batches", r.batches);
    w.fixed("mean_batch", r.meanBatchSize, 3);
    w.fixed("offered_rps", r.offeredRps, 2);
    w.fixed("achieved_rps", r.achievedRps, 2);
    w.fixed("p50_ms", r.p50Ms, 4);
    w.fixed("p95_ms", r.p95Ms, 4);
    w.fixed("p99_ms", r.p99Ms, 4);
    w.fixed("mean_ms", r.meanMs, 4);
    w.fixed("max_ms", r.maxMs, 4);
    w.fixed("mean_queue_ms", r.meanQueueMs, 4);
    w.fixed("slo_attainment", r.sloAttainment, 4);
    w.fixed("goodput_rps", r.goodputRps, 2);
    w.field("reschedules", r.reschedules);
    w.field("delta_reschedules", r.deltaReschedules);
    w.field("segments_rebuilt", r.segmentsRebuilt);
    w.field("segments_spliced", r.segmentsSpliced);
    w.field("drift_windows", r.driftWindows);
    w.fixed("last_drift_l1", r.lastDriftDistance, 4);
    w.fixed("drift_threshold", r.driftThreshold, 4);
    w.field("horizon_ticks", r.horizonTicks);
    w.field("mapper_hits", r.mapperHits);
    w.field("mapper_misses", r.mapperMisses);
    w.field("store_hits", r.storeHits);
    w.field("store_misses", r.storeMisses);
    if (r.faultActive) {
        w.field("shed_requests", r.shedRequests);
        w.field("failovers", r.failovers);
        w.field("watchdog_fallbacks", r.watchdogFallbacks);
        w.field("store_fit_failures", r.storeFitFailures);
        w.field("failed_tiles", r.failedTiles);
        w.field("down_links", r.downLinks);
        w.field("degraded_links", r.degradedLinks);
        w.field("probe_drops", r.probeDrops);
        w.field("probe_retries", r.probeRetries);
        w.field("probe_give_ups", r.probeGiveUps);
        w.field("noc_detours", r.nocDetours);
        w.field("unroutable_paths", r.unroutablePaths);
    }
    if (r.searchActive) {
        w.field("search_reschedules", r.searchReschedules);
        w.field("max_reschedule_cycles", r.maxRescheduleCycles);
        w.field("search_tried", r.search.candidatesTried);
        w.field("search_accepted", r.search.candidatesAccepted);
        w.field("search_materialized", r.search.materialized);
        w.field("search_segments_rebuilt", r.search.segmentsRebuilt);
        w.field("search_segments_spliced", r.search.segmentsSpliced);
        w.field("search_full_rebuilds", r.search.fullRebuilds);
        w.field("search_budget_spent", r.search.budgetSpentCycles);
        w.field("search_budget_exhausted", r.search.budgetExhausted != 0);
        w.field("search_improved_last", r.search.improved);
    }
}

std::string
toJson(const ServeReport &r)
{
    JsonWriter w;
    writeFields(w.beginObject(), r);
    return w.endObject().take();
}

ServeRuntime::ServeRuntime(const graph::DynGraph &dg,
                           trace::TraceConfig trace_cfg,
                           arch::HwConfig hw,
                           core::SchedulerConfig sched_cfg,
                           core::ExecPolicy policy,
                           ServeConfig serve_cfg,
                           std::string workload_name)
    : dg_(dg), traceCfg_(trace_cfg), hw_(hw), schedCfg_(sched_cfg),
      policy_(policy), cfg_(std::move(serve_cfg)),
      workloadName_(std::move(workload_name))
{
    validateServeConfig(cfg_);
    ADYNA_ASSERT(traceCfg_.batchSize ==
                     static_cast<std::int64_t>(cfg_.batching.maxBatch),
                 "the workload graph must be compiled at the "
                 "batcher's maxBatch (got trace batchSize ",
                 traceCfg_.batchSize, " vs maxBatch ",
                 cfg_.batching.maxBatch, ")");
}

ServeReport
ServeRuntime::run()
{
    core::CacheContext ctx(hw_, sharedMapper_, sharedStoreCache_);
    arch::Chip chip(hw_);
    Backend be(dg_, traceCfg_, hw_, schedCfg_, policy_, cfg_,
               workloadName_, ctx, cfg_.seed);

    // With an empty plan the injector never exists and no loop branch
    // below fires, keeping the run byte-identical to the pre-fault
    // runtime.
    std::optional<fault::FaultInjector> injector;
    if (!cfg_.faultPlan.empty()) {
        injector.emplace(cfg_.faultPlan, cfg_.seed ^ fault::kSeedSalt);
        be.setFaultInjector(&*injector);
    }
    be.bringUp();

    // ---- the serving loop ------------------------------------------
    OpenLoopSource source({{&dg_, traceCfg_, 1.0}}, hw_, cfg_,
                          cfg_.seed);
    while (!source.finished(be)) {
        // Dispatch every batch formable at the dispatch moment in one
        // engine period: batches formed while the engine was busy
        // stream through the pipeline back to back.
        const Tick dispatchAt = source.admit(be);
        if (dispatchAt == Batcher::kNever)
            break; // every remaining arrival was shed

        // Fault events due by the dispatch moment strike before the
        // batch leaves. A healthy-tile change forces a fail-over
        // rebuild onto the survivors — never subject to the
        // watchdog, because the installed schedule targets dead
        // tiles and keeping it is strictly worse than any rebuild
        // cost. The static setting (failover off) keeps serving on
        // the stale schedule and eats the degraded lockstep
        // execution instead, as does a chip with no tile left.
        if (injector && injector->advanceTo(dispatchAt, chip) &&
            cfg_.failover && !schedCfg_.worstCase &&
            be.failover(chip.healthyTiles(), dispatchAt))
            continue; // re-admit against the new engine-free time
        const Backend::Dispatch d = be.dispatch(chip, dispatchAt);
        for (std::size_t b = 0; b < d.formed.size(); ++b)
            for (const Request &r : d.formed[b].requests)
                be.complete(r.routing, r.arrival, dispatchAt,
                            d.result.batchEnds[b]);
    }

    // ---- report -----------------------------------------------------
    ServeReport report = be.report(chip);
    source.fillReport(report);
    return report;
}

} // namespace adyna::serve
