#include "serve/server.hh"

#include <optional>

#include "arch/chip.hh"
#include "common/logging.hh"
#include "core/report_io.hh"
#include "serve/backend.hh"
#include "serve/validate.hh"

namespace adyna::serve {

std::string
toJson(const ServeReport &r)
{
    std::string out = core::formatString(
        "{\"workload\": \"%s\", \"mode\": \"%s\", "
        "\"requests\": %llu, \"batches\": %llu, "
        "\"mean_batch\": %.3f, \"offered_rps\": %.2f, "
        "\"achieved_rps\": %.2f, \"p50_ms\": %.4f, "
        "\"p95_ms\": %.4f, \"p99_ms\": %.4f, \"mean_ms\": %.4f, "
        "\"max_ms\": %.4f, \"mean_queue_ms\": %.4f, "
        "\"slo_attainment\": %.4f, \"goodput_rps\": %.2f, "
        "\"reschedules\": %d, \"delta_reschedules\": %d, "
        "\"segments_rebuilt\": %llu, \"segments_spliced\": %llu, "
        "\"drift_windows\": %d, "
        "\"last_drift_l1\": %.4f, \"drift_threshold\": %.4f, "
        "\"horizon_ticks\": %llu, "
        "\"mapper_hits\": %llu, \"mapper_misses\": %llu, "
        "\"store_hits\": %llu, \"store_misses\": %llu}",
        core::jsonEscape(r.workload).c_str(),
        core::jsonEscape(r.mode).c_str(),
        static_cast<unsigned long long>(r.requests),
        static_cast<unsigned long long>(r.batches), r.meanBatchSize,
        r.offeredRps, r.achievedRps, r.p50Ms, r.p95Ms, r.p99Ms,
        r.meanMs, r.maxMs, r.meanQueueMs, r.sloAttainment,
        r.goodputRps, r.reschedules, r.deltaReschedules,
        static_cast<unsigned long long>(r.segmentsRebuilt),
        static_cast<unsigned long long>(r.segmentsSpliced),
        r.driftWindows, r.lastDriftDistance, r.driftThreshold,
        static_cast<unsigned long long>(r.horizonTicks),
        static_cast<unsigned long long>(r.mapperHits),
        static_cast<unsigned long long>(r.mapperMisses),
        static_cast<unsigned long long>(r.storeHits),
        static_cast<unsigned long long>(r.storeMisses));
    if (r.faultActive) {
        // Appended only when fault machinery was active so
        // default-configured reports keep the pre-fault bytes.
        out.pop_back(); // drop the closing brace
        out += core::formatString(
            ", \"shed_requests\": %llu, \"failovers\": %d, "
            "\"watchdog_fallbacks\": %d, \"store_fit_failures\": %d, "
            "\"failed_tiles\": %d, \"down_links\": %d, "
            "\"degraded_links\": %d, \"probe_drops\": %llu, "
            "\"probe_retries\": %llu, \"probe_give_ups\": %llu, "
            "\"noc_detours\": %llu, \"unroutable_paths\": %llu}",
            static_cast<unsigned long long>(r.shedRequests),
            r.failovers, r.watchdogFallbacks, r.storeFitFailures,
            r.failedTiles, r.downLinks, r.degradedLinks,
            static_cast<unsigned long long>(r.probeDrops),
            static_cast<unsigned long long>(r.probeRetries),
            static_cast<unsigned long long>(r.probeGiveUps),
            static_cast<unsigned long long>(r.nocDetours),
            static_cast<unsigned long long>(r.unroutablePaths));
    }
    if (r.searchActive) {
        // Appended only when the schedule search was enabled so
        // search-off reports keep the pre-search bytes.
        out.pop_back(); // drop the closing brace
        out += core::formatString(
            ", \"search_reschedules\": %d, "
            "\"max_reschedule_cycles\": %llu, "
            "\"search_tried\": %llu, \"search_accepted\": %llu, "
            "\"search_materialized\": %llu, "
            "\"search_segments_rebuilt\": %llu, "
            "\"search_segments_spliced\": %llu, "
            "\"search_full_rebuilds\": %llu, "
            "\"search_budget_spent\": %llu, "
            "\"search_budget_exhausted\": %s, "
            "\"search_improved_last\": %s}",
            r.searchReschedules,
            static_cast<unsigned long long>(r.maxRescheduleCycles),
            static_cast<unsigned long long>(
                r.search.candidatesTried),
            static_cast<unsigned long long>(
                r.search.candidatesAccepted),
            static_cast<unsigned long long>(r.search.materialized),
            static_cast<unsigned long long>(
                r.search.segmentsRebuilt),
            static_cast<unsigned long long>(
                r.search.segmentsSpliced),
            static_cast<unsigned long long>(r.search.fullRebuilds),
            static_cast<unsigned long long>(
                r.search.budgetSpentCycles),
            r.search.budgetExhausted ? "true" : "false",
            r.search.improved ? "true" : "false");
    }
    return out;
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
    BackendContext ctx(hw_, sharedMapper_, sharedStoreCache_);
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
