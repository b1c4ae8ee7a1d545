/**
 * @file
 * One serving back-end: the per-workload half of Adyna's runtime
 * loop (profiler statistics, drift-triggered re-segmentation and
 * re-allocation, charged reconfiguration) packaged behind a step API,
 * so the single-chip, multi-tenant and pod runtimes share one copy of
 * it. A Backend owns one workload's Scheduler, Engine, engine and
 * drift profilers, DriftMonitor, Batcher and SloTracker, the
 * installed schedule and the build inputs it embodies, the optional
 * on-drift schedule search, and the counters they report.
 *
 * The drivers keep only their own layer. ServeRuntime admits one
 * open-loop stream into one Backend on one chip; MTenantRuntime runs
 * one Backend per tenant on a shared chip and adds partitioning and
 * the repartition controller; PodRuntime runs one Backend per chip
 * behind a router, interconnect and reliability layer. Each driver
 * calls, in order:
 *
 *   bringUp()        offline profiling, drift reference + noise floor,
 *                    first schedule
 *   nextDispatch()   the moment the queued work can leave
 *   dispatch()       form every due batch and run it on a chip
 *   complete()       record one finished request; closes the drift
 *                    window (re-schedule, watchdog, search) when full
 *   failover() /     forced full rebuild onto a new tile set, charged
 *   reinstall()      from max(engine-free, now)
 *   report()         the back-end's share of a ServeReport
 */

#ifndef ADYNA_SERVE_BACKEND_HH
#define ADYNA_SERVE_BACKEND_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "arch/hwconfig.hh"
#include "arch/profiler.hh"
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
#include "serve/server.hh"
#include "serve/slo.hh"
#include "trace/trace.hh"

namespace adyna::serve {

/** One workload's serving back-end (see the file comment). */
class Backend
{
  public:
    /** One dispatched engine period: the batches formed, and their
     * completion ticks in result.batchEnds (same order). */
    struct Dispatch
    {
        std::vector<FormedBatch> formed;
        core::PeriodResult result;
    };

    /**
     * @param trace_cfg the workload's dynamism model at the compiled
     *        batch size (cfg.batching.maxBatch).
     * @param ctx the mapper and store cache the run's back-ends
     *        share.
     * @param seed derives the probe stream (core::probeSeed) that
     *        the offline profile and the drift reference both draw;
     *        the arrival and request streams stay with the runtime
     *        that owns the back-end.
     * All references must outlive the back-end.
     */
    Backend(const graph::DynGraph &dg, const trace::TraceConfig &trace_cfg,
            const arch::HwConfig &hw,
            const core::SchedulerConfig &sched_cfg,
            const core::ExecPolicy &policy, const ServeConfig &cfg,
            std::string workload_name, core::CacheContext &ctx,
            std::uint64_t seed);
    Backend(const Backend &) = delete;
    Backend &operator=(const Backend &) = delete;

    /** The fault injector replaying on this back-end's chip (nullptr:
     * none): its store-fit-failure windows force rebuilds to compile
     * cold, and report() carries its counters. */
    void setFaultInjector(const fault::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /** Restrict later schedule builds to @p tiles (ascending; the
     * full grid or an empty list means no restriction). */
    void setTiles(std::vector<TileId> tiles);

    /** Offline profiling, drift reference and noise floor, and the
     * first schedule. Call once, before any other step. */
    void bringUp();

    /** When the queued work can leave: max(engine-free, next batch
     * form tick); Batcher::kNever with nothing queued. */
    Tick nextDispatch() const
    {
        return std::max(engineFree_, batcher_.nextFormTick());
    }

    /**
     * Form every batch due at @p at and run them as one engine period
     * on @p chip. @p slow_factor > 1 dilates the period's clock (a
     * straggling chip) before it sets the engine-free time and the
     * service estimate.
     */
    Dispatch dispatch(arch::Chip &chip, Tick at,
                      double slow_factor = 1.0);

    /** Record one finished request (latency from @p arrival to
     * @p end, queueing until @p dispatched) and, once a drift window
     * fills, close it: drift check, delta or full rebuild, watchdog,
     * optional schedule search, install. */
    void complete(const trace::BatchRouting &routing, Tick arrival,
                  Tick dispatched, Tick end);

    /** Forced full rebuild and install, exempt from the watchdog (the
     * installed schedule targets tiles that are gone), charged from
     * max(engine-free, @p now). Drops any searched plan override. */
    void reinstall(Tick now);

    /** Fail over onto @p alive: setTiles + reinstall, counted.
     * With no survivors it changes nothing and returns false (an
     * empty tile list would mean the full grid): the installed
     * schedule keeps serving in degraded lockstep. */
    bool failover(std::vector<TileId> alive, Tick now);

    /** The engine cannot start before @p t (weights streaming in). */
    void delayUntil(Tick t) { engineFree_ = std::max(engineFree_, t); }

    /**
     * The back-end's share of a ServeReport: everything except the
     * arrival-side fields (offeredRps, shedRequests). Cache counters
     * are summed over this back-end's own schedule builds and engine
     * periods; the fault counters are the injector's end-of-run view
     * of @p chip.
     */
    ServeReport report(const arch::Chip &chip) const;

    Batcher &batcher() { return batcher_; }
    const Batcher &batcher() const { return batcher_; }
    Tick engineFree() const { return engineFree_; }

    /** Dispatch-to-completion EWMA; valid once haveService(). */
    double serviceEwma() const { return serviceEwma_; }
    bool haveService() const { return haveService_; }

    std::uint64_t completed() const { return stats_.requests; }

    /** Mean per-request dynamic load the installed schedule was built
     * for (the pod router's affinity target), updated on install. */
    double installedLoadMean() const { return installedLoadMean_; }

  private:
    struct Rebuild
    {
        core::Schedule schedule;
        Cycles cost = 0;
        bool delta = false;
        core::DeltaStats stats;
    };

    core::Schedule build(const std::vector<OpId> *delta,
                         core::DeltaStats *stats);
    Rebuild rebuild(Tick now, const std::vector<OpId> *delta);
    void install(core::Schedule schedule,
                 const std::vector<OpId> *changed);
    std::vector<OpId> changedOps() const;
    void closeWindow();

    const graph::DynGraph &dg_;
    trace::TraceConfig traceCfg_;
    arch::HwConfig hw_;
    core::SchedulerConfig schedCfg_;
    core::ExecPolicy policy_;
    const ServeConfig &cfg_;
    std::string name_;
    core::CacheContext &ctx_;
    std::uint64_t seed_;
    const fault::FaultInjector *injector_ = nullptr;

    core::Scheduler scheduler_;
    core::Engine engine_;

    // Two observation streams: merged-batch statistics feed the
    // scheduler (allocation expectations, kernel re-sampling), while
    // per-request statistics feed the drift monitor — per-request
    // distributions are invariant to the realized batch sizes, so
    // bursty arrivals alone cannot fake a routing-distribution shift.
    arch::Profiler engineProf_;
    arch::Profiler driftProf_;
    DriftMonitor monitor_;
    Batcher batcher_;
    SloTracker slo_;

    std::map<OpId, double> expectations_;
    std::map<OpId, std::vector<std::int64_t>> kernelValues_;
    core::Schedule schedule_;

    // The expectations the installed schedule actually embodies.
    // Delta re-schedules compare fresh inputs against these — not
    // against the previous refresh — so repeated sub-tolerance drifts
    // accumulate until some op genuinely moves past the tolerance
    // relative to what is serving.
    std::map<OpId, double> installedExp_;
    double installedLoadMean_ = 0.0;

    // Online schedule search (searchOnDrift): evaluates candidates on
    // its own engine and chip, so rejected candidates never touch the
    // serving chip's reservations; the mapper/store lookups it makes
    // are counted in stats_.search, not in the build counters.
    std::optional<search::ScheduleSearch> searcher_;
    core::PlanOverride installedOverride_;
    search::TreeState installedTree_;
    bool haveTree_ = false;
    std::vector<trace::BatchRouting> probeRing_;

    Tick engineFree_ = 0;
    double serviceEwma_ = 0.0;
    bool haveService_ = false;

    /** Counters, accumulated in the report fields they fill (the
     * arrival-side and fault fields stay zero). */
    ServeReport stats_;
};

/** One model an open-loop stream serves: its graph, its dynamism
 * model at the compiled batch size, and its share of the arrivals. */
struct SourceModel
{
    const graph::DynGraph *dg = nullptr;
    trace::TraceConfig traceCfg;
    double trafficFraction = 1.0;
};

/**
 * One open-loop request stream: arrivals drawn from an
 * ArrivalProcess, each assigned a model by its traffic fraction and
 * carrying that model's own single-sample routing draw. ServeRuntime
 * and each tenant of the multi-tenant runtime admit it into one
 * Backend under deadline-aware admission control (admit()); the pod
 * draws it one request at a time (next()) and routes each request
 * to a chip.
 */
class OpenLoopSource
{
  public:
    /** One drawn request and the index of its model. */
    struct Arrival
    {
        Request request;
        int model = 0;
    };

    /** @param models the served models (fractions summing to 1).
     * @param seed seeds the arrival (seed ^ const), model-split
     * (seed ^ const, drawn only with two or more models) and
     * per-model request (seed ^ const * m, so seed for model 0)
     * streams. */
    OpenLoopSource(const std::vector<SourceModel> &models,
                   const arch::HwConfig &hw, const ServeConfig &cfg,
                   std::uint64_t seed);

    /** The stream has requests left to draw. */
    bool pending() const { return issued_ < total_; }

    /** Arrival tick of the next request. */
    Tick nextArrival() const { return nextArrival_; }

    /** Draw the next request: id (dense, from 0), arrival tick,
     * routing, and its model. */
    Arrival next();

    /**
     * Admit every arrival that lands no later than @p be's next
     * dispatch moment, iterating to the fixpoint (admission can only
     * pull that moment earlier as batches fill). Returns the dispatch
     * moment, or Batcher::kNever when nothing is queued because every
     * remaining arrival was shed.
     */
    Tick admit(Backend &be);

    /** Every request of the stream completed or was shed. */
    bool finished(const Backend &be) const
    {
        return be.completed() + shed_ >= total_;
    }

    std::uint64_t issued() const { return issued_; }

    /** SLO deadline, ticks. */
    double deadlineTicks() const { return deadlineTicks_; }

    /** Mean offered load of the arrivals drawn so far, requests per
     * second (0 before the second). */
    double offeredRps() const;

    /** Fill offeredRps and shedRequests, and check that every request
     * was either completed or shed. */
    void fillReport(ServeReport &r) const;

  private:
    const ServeConfig &cfg_;
    double freqGhz_;
    double deadlineTicks_;
    ArrivalProcess arrivals_;
    /** Model split: inclusive prefix sums of the traffic fractions,
     * back() = 1. */
    std::vector<double> splitCdf_;
    Rng splitRng_;
    std::vector<trace::TraceGenerator> reqGens_;
    std::uint64_t total_;
    std::uint64_t issued_ = 0;
    std::uint64_t shed_ = 0;
    Tick nextArrival_;
    Tick firstArrival_;
    Tick lastArrival_;
};

} // namespace adyna::serve

#endif // ADYNA_SERVE_BACKEND_HH
