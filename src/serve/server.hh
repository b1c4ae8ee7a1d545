/**
 * @file
 * The online serving runtime: an open-loop, request-driven layer on
 * top of the batch engine that closes the paper's profiler →
 * scheduler loop against live traffic. Requests arrive from an
 * ArrivalProcess, each carrying its own single-sample dynamism draw;
 * the Batcher merges them into engine batches under a max-batch /
 * max-wait policy; every dispatch streams the formed batches through
 * Engine::runPeriod on the shared chip clock; an SloTracker turns
 * completions into latency percentiles and goodput; and a
 * DriftMonitor watches the per-request dyn-value distributions,
 * re-segmenting and re-allocating through the Scheduler — and
 * charging the paper's reconfiguration cost — when the serving
 * distribution drifts away from the one the schedule was built for.
 *
 * Static operators always execute at the compiled batch size
 * (partial batches are padded, like a fixed-shape compiled engine),
 * while dynamic operators see only the actually-routed load — which
 * makes the batching policy a real latency/throughput trade-off.
 */

#ifndef ADYNA_SERVE_SERVER_HH
#define ADYNA_SERVE_SERVER_HH

#include <cstdint>
#include <string>

#include "arch/hwconfig.hh"
#include "common/json.hh"
#include "core/caches.hh"
#include "core/engine.hh"
#include "core/scheduler.hh"
#include "core/search_stats.hh"
#include "fault/fault.hh"
#include "graph/dyngraph.hh"
#include "search/search.hh"
#include "serve/arrival.hh"
#include "serve/batcher.hh"
#include "serve/drift.hh"
#include "serve/slo.hh"
#include "trace/trace.hh"

namespace adyna::serve {

/** Serving-run options. */
struct ServeConfig
{
    ArrivalConfig arrival;
    BatchPolicy batching;
    SloConfig slo;
    DriftConfig drift;

    /** Run the drift-triggered re-scheduling loop; false serves the
     * whole run on the initial (static) schedule. The monitor still
     * observes either way, so lastDriftDistance stays comparable. */
    bool driftReschedule = true;

    /** Requests to serve. */
    int numRequests = 2000;

    /** Seed for the request dynamism stream (arrivals and the probe
     * streams derive their own independent streams from it). */
    std::uint64_t seed = 1;

    /** Offline profiling batches (at the compiled batch size) before
     * the first schedule. */
    int profileBatches = 40;

    /**
     * Drift re-schedules rebuild only the segments whose ops'
     * allocation expectations moved beyond kDeltaExpectationTol
     * (serve/backend.cc), splicing every other segment — with its
     * compiled kernel stores — from the installed schedule
     * (Scheduler::buildDelta). false forces the full rebuild path
     * on every drift trigger. Fail-over and store-fit-failure
     * rebuilds always rebuild in full: their premise is that the
     * installed schedule's tiles or stores are no longer usable.
     */
    bool deltaReschedule = true;

    // ---- fault tolerance / overload protection ---------------------
    // All defaults leave every simulation path untouched, so a
    // default-configured run stays byte-identical to the pre-fault
    // runtime (the empty-plan equivalence gate).

    /** Fault timeline replayed on the chip clock (see fault/fault.hh
     * for the plan grammar); empty injects nothing. */
    fault::FaultPlan faultPlan;

    /** Re-schedule onto the surviving tiles when the healthy-tile
     * set changes (fail-over); false keeps the installed schedule and
     * eats the degraded lockstep execution instead. */
    bool failover = true;

    /** Watchdog budget for a drift-triggered re-schedule, cycles: a
     * rebuild whose modeled cost (core::kReconfigOverheadCycles +
     * compiled stores x kernels::kStoreCompileCycles) exceeds the
     * budget is abandoned and the last-known-good schedule keeps
     * serving. 0 disables the watchdog. Fail-over rebuilds are
     * exempt — the old schedule targets dead tiles, so falling back
     * to it is strictly worse than any rebuild cost. */
    Cycles rescheduleBudgetCycles = 0;

    /**
     * Run the anytime schedule search (search/search.hh) after each
     * drift-triggered heuristic rebuild, adopting the searched
     * schedule when it strictly beats the heuristic one on a probe
     * of recent batches. The search's modeled cycle spend is capped
     * at whatever rescheduleBudgetCycles leaves after the heuristic
     * rebuild's own cost, so the watchdog budget is never exceeded;
     * with the watchdog off the search runs unbounded. Off keeps
     * every simulation path and report byte-identical to the
     * pre-search runtime.
     */
    bool searchOnDrift = false;

    /** Search policy when searchOnDrift is set. cycleBudget and
     * seed are overridden per re-schedule from the watchdog state
     * and the re-schedule count; the rest apply as configured. */
    search::SearchConfig search;

    /** Deadline-aware admission control: shed arrivals whose
     * projected completion would overshoot the SLO deadline by
     * kShedLatencyFactor (serve/backend.cc), bounding queue growth
     * under overload. */
    bool admissionControl = false;
};

/** Everything one serving run reports. */
struct ServeReport
{
    std::string workload;
    std::string mode; ///< "adaptive" or "static"

    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    double meanBatchSize = 0.0;

    /** Mean offered load measured from the realized arrivals. */
    double offeredRps = 0.0;

    /** Completed requests over the serving horizon. */
    double achievedRps = 0.0;

    // End-to-end latency (queueing + execution), milliseconds.
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double meanMs = 0.0;
    double maxMs = 0.0;
    double meanQueueMs = 0.0;

    /** Fraction of requests that met the deadline. */
    double sloAttainment = 0.0;

    /** Deadline-meeting completions per second. */
    double goodputRps = 0.0;

    int reschedules = 0;
    int driftWindows = 0;
    double lastDriftDistance = 0.0;

    /** Drift re-schedules served through the delta-splice path
     * (always <= reschedules; 0 when deltaReschedule is off). */
    int deltaReschedules = 0;

    /** Segments rebuilt vs spliced, summed over all delta
     * re-schedules. */
    std::uint64_t segmentsRebuilt = 0;
    std::uint64_t segmentsSpliced = 0;

    /**
     * Cache counters of the serving run: mapper memo and
     * kernel-store cache lookups of the schedule builds and (under
     * exactKernels) the engine, excluding the search's own share
     * (reported under search). Best-effort snapshot deltas when the
     * cache is shared across concurrent runtimes. Warm store hits
     * are what make drift-triggered re-schedules cheap.
     */
    std::uint64_t mapperHits = 0;
    std::uint64_t mapperMisses = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;

    /** Noise-calibrated trigger threshold the monitor settled on. */
    double driftThreshold = 0.0;

    /** Completion tick of the last request. */
    Tick horizonTicks = 0;

    // ---- fault tolerance / overload protection ---------------------
    // Serialized into the JSON report only while faultActive is set,
    // so default-configured runs keep the pre-fault report bytes.

    /** Arrivals shed by admission control (never enqueued). */
    std::uint64_t shedRequests = 0;

    /** Degraded re-schedules forced by a healthy-tile change. */
    int failovers = 0;

    /** Drift re-schedules abandoned by the watchdog. */
    int watchdogFallbacks = 0;

    /** Re-schedules built under an active store-fit-failure window
     * (compiled without kernel-store cache reuse). */
    int storeFitFailures = 0;

    // Live fault state at the end of the run.
    int failedTiles = 0;
    int downLinks = 0;
    int degradedLinks = 0;

    // NoC fault-handling counters.
    std::uint64_t probeDrops = 0;
    std::uint64_t probeRetries = 0;
    std::uint64_t probeGiveUps = 0;
    std::uint64_t nocDetours = 0;
    std::uint64_t unroutablePaths = 0;

    /** Any fault-tolerance machinery was active this run (a fault
     * plan, admission control, or a watchdog budget). */
    bool faultActive = false;

    // ---- schedule search --------------------------------------------
    // Serialized into the JSON report only while searchActive is set,
    // so search-off runs keep the pre-search report bytes.

    /** Drift re-schedules where the searched schedule beat the
     * heuristic rebuild and was installed. */
    int searchReschedules = 0;

    /** Largest modeled cycle charge of any drift re-schedule
     * (heuristic rebuild + search spend); the serve-side proof that
     * the search stayed inside rescheduleBudgetCycles. */
    Cycles maxRescheduleCycles = 0;

    /** Aggregate search counters (see core/search_stats.hh); the
     * cache counters here are not part of the mapper/store counters
     * above, so those keep reflecting the installed schedules
     * only. */
    core::SearchStats search;

    /** ServeConfig::searchOnDrift was set. */
    bool searchActive = false;
};

/** Write the report's fields into @p w's open object, with the fault
 * and search blocks only while active. A caller that embeds a serving
 * report (a tenant, a pod chip, a loadgen run) writes its own first. */
void writeFields(JsonWriter &w, const ServeReport &report);

/** One serving run as a JSON object (for BENCH_serve.json). */
std::string toJson(const ServeReport &report);

/** Request-driven serving simulation over one workload graph: one
 * serve::Backend (backend.hh) fed by one open-loop arrival stream on
 * one chip. */
class ServeRuntime : public core::SharedCaches
{
  public:
    /**
     * @param trace_cfg dynamism model of the workload; its batchSize
     *        must equal the compiled batch size the graph was built
     *        with (requests draw from a batchSize-1 copy).
     */
    ServeRuntime(const graph::DynGraph &dg,
                 trace::TraceConfig trace_cfg, arch::HwConfig hw,
                 core::SchedulerConfig sched_cfg,
                 core::ExecPolicy policy, ServeConfig serve_cfg,
                 std::string workload_name);

    /** Serve ServeConfig::numRequests requests and report. */
    ServeReport run();

  private:
    const graph::DynGraph &dg_;
    trace::TraceConfig traceCfg_;
    arch::HwConfig hw_;
    core::SchedulerConfig schedCfg_;
    core::ExecPolicy policy_;
    ServeConfig cfg_;
    std::string workloadName_;
};

} // namespace adyna::serve

#endif // ADYNA_SERVE_SERVER_HH
