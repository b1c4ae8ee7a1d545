#include "serve/backend.hh"

#include <cmath>

#include "common/logging.hh"
#include "core/sampling.hh"
#include "core/validate.hh"

namespace adyna::serve {

namespace {

/**
 * Relative expectation shift below which an op counts as unchanged
 * for delta segment selection. Kernel-value re-sampling alone never
 * marks an op changed: the samples follow the same histograms that
 * drive the expectations, so a sub-tolerance expectation shift means
 * the installed store's value set is still representative.
 */
constexpr double kDeltaExpectationTol = 0.05;

/** Most recent dispatched batches retained as the search's scoring
 * probe (drift-fires before any dispatch skip the search). */
constexpr std::size_t kSearchProbeBatches = 8;

/** Admission control sheds an arrival when its projected latency
 * exceeds this multiple of the SLO deadline. */
constexpr double kShedLatencyFactor = 1.5;

/** Mean per-request dynamic load an expectation set embodies.
 * Expectations are compiled-batch statistics, so divide the batch
 * size out. */
double
loadMean(const graph::DynGraph &dg,
         const std::map<OpId, double> &expectations,
         std::int64_t batch_size)
{
    double sum = 0.0;
    for (OpId op : dg.dynamicOps()) {
        const auto it = expectations.find(op);
        if (it != expectations.end())
            sum += it->second;
    }
    return sum / static_cast<double>(batch_size);
}

trace::TraceConfig
perRequest(trace::TraceConfig tc)
{
    tc.batchSize = 1;
    return tc;
}

} // namespace

Backend::Backend(const graph::DynGraph &dg,
                 const trace::TraceConfig &trace_cfg,
                 const arch::HwConfig &hw,
                 const core::SchedulerConfig &sched_cfg,
                 const core::ExecPolicy &policy, const ServeConfig &cfg,
                 std::string workload_name, core::CacheContext &ctx,
                 std::uint64_t seed)
    : dg_(dg), traceCfg_(trace_cfg), hw_(hw), schedCfg_(sched_cfg),
      policy_(policy), cfg_(cfg), name_(std::move(workload_name)),
      ctx_(ctx), seed_(seed),
      scheduler_(dg, hw, ctx.mapper(), sched_cfg),
      engine_(dg, hw, ctx.mapper(), policy), monitor_(cfg.drift),
      batcher_(cfg.batching), slo_(cfg.slo, hw.tech.freqGhz)
{
    scheduler_.setStoreCache(&ctx.storeCache());
    if (cfg_.searchOnDrift)
        searcher_.emplace(dg_, hw_, ctx.mapper(), policy_, cfg_.search);
}

void
Backend::setTiles(std::vector<TileId> tiles)
{
    scheduler_.setHealthyTiles(std::move(tiles));
}

void
Backend::bringUp()
{
    // ---- offline profiling (compiled-batch statistics) -------------
    kernelValues_ = scheduler_.initialKernelValues();
    if (!schedCfg_.worstCase) {
        trace::TraceGenerator probe(dg_, traceCfg_, core::probeSeed(seed_));
        core::profileOffline(
            engineProf_, dg_, cfg_.profileBatches,
            [&](int) { return probe.next(); }, !policy_.exactKernels,
            expectations_, kernelValues_);
    }

    // Drift reference: the per-request distribution the first
    // schedule implicitly targets. The probe shares the profiling
    // probe's seed so a drifting trace's phase tilt — drawn before
    // the first sample, hence identical across batch sizes — matches
    // the one the schedule inputs were measured under; referencing
    // an independently-tilted stream would blind the monitor to a
    // schedule mismatch that is present from the very first request.
    // Two same-distribution windows calibrate the noise floor (the
    // distance identical traffic shows at this window size).
    {
        trace::TraceGenerator refProbe(dg_, perRequest(traceCfg_),
                                       core::probeSeed(seed_));
        const int half = cfg_.drift.windowRequests;
        for (int i = 0; i < half; ++i)
            recordRequest(driftProf_, dg_, refProbe.next());
        auto reference = driftProf_.tablesSnapshot();
        driftProf_.resetTables();
        for (int i = 0; i < half; ++i)
            recordRequest(driftProf_, dg_, refProbe.next());
        monitor_.setReference(reference);
        monitor_.setNoiseFloor(monitor_.distanceTo(driftProf_));
        // The reference keeps both windows' worth of samples.
        const arch::FreqTables second = driftProf_.tablesSnapshot();
        reference.resize(std::max(reference.size(), second.size()));
        for (std::size_t op = 0; op < second.size(); ++op)
            reference[op].merge(second[op]);
        monitor_.setReference(std::move(reference));
        driftProf_.resetTables();
    }

    install(build(nullptr, nullptr), nullptr);
}

Backend::Dispatch
Backend::dispatch(arch::Chip &chip, Tick at, double slow_factor)
{
    Dispatch d;
    while (batcher_.queued() > 0 && batcher_.nextFormTick() <= at)
        d.formed.push_back(batcher_.form(at));

    std::vector<trace::BatchRouting> routings;
    routings.reserve(d.formed.size());
    for (const FormedBatch &fb : d.formed)
        routings.push_back(fb.routing);
    if (searcher_) {
        // Ring of the most recent dispatched batches: the search's
        // scoring probe.
        for (const trace::BatchRouting &r : routings) {
            if (probeRing_.size() >= kSearchProbeBatches)
                probeRing_.erase(probeRing_.begin());
            probeRing_.push_back(r);
        }
    }
    // The engine asks the mapper only under exactKernels; its
    // lookups count toward the serving schedules' cache counters.
    costmodel::Mapper &mapper = ctx_.mapper();
    const std::uint64_t mh0 = mapper.hits();
    const std::uint64_t mm0 = mapper.misses();
    d.result =
        engine_.runPeriod(chip, schedule_, routings, &engineProf_, at);
    stats_.mapperHits += mapper.hits() - mh0;
    stats_.mapperMisses += mapper.misses() - mm0;
    if (slow_factor > 1.0) {
        // A straggling chip's clock: every cycle between dispatch and
        // completion stretches by the factor, and the dilated service
        // feeds the EWMA so load projections see the slowness.
        const auto dilate = [&](Tick t) {
            return at + static_cast<Tick>(std::llround(
                            static_cast<double>(t - at) * slow_factor));
        };
        for (Tick &t : d.result.batchEnds)
            t = dilate(t);
        d.result.endTime = dilate(d.result.endTime);
    }
    engineFree_ = d.result.endTime;
    stats_.batches += d.formed.size();
    if (!d.result.batchEnds.empty()) {
        const double service =
            static_cast<double>(d.result.batchEnds.back() - at);
        serviceEwma_ =
            haveService_ ? 0.8 * serviceEwma_ + 0.2 * service : service;
        haveService_ = true;
    }
    return d;
}

void
Backend::complete(const trace::BatchRouting &routing, Tick arrival,
                  Tick dispatched, Tick end)
{
    slo_.record(arrival, dispatched, end);
    ++stats_.requests;
    // Windows close per request (not per dispatch) so they stay
    // exactly windowRequests wide even when a backlogged engine
    // completes hundreds of requests in one dispatch group — wider
    // windows would smear several drift phases into one
    // near-reference mixture.
    recordRequest(driftProf_, dg_, routing);
    if (driftProf_.windowBatches() >=
        static_cast<std::uint64_t>(cfg_.drift.windowRequests))
        closeWindow();
}

std::vector<OpId>
Backend::changedOps() const
{
    // Ops whose allocation expectation moved beyond the delta
    // tolerance relative to the installed schedule's build inputs
    // (plus ops whose expectation appeared or vanished).
    std::vector<OpId> changed;
    for (OpId op : dg_.dynamicOps()) {
        const auto ne = expectations_.find(op);
        const auto oe = installedExp_.find(op);
        const bool haveNew = ne != expectations_.end();
        const bool haveOld = oe != installedExp_.end();
        bool moved = haveNew != haveOld;
        if (!moved && haveNew) {
            const double ref = std::max(std::abs(oe->second), 1.0);
            moved = std::abs(ne->second - oe->second) >
                    kDeltaExpectationTol * ref;
        }
        if (moved)
            changed.push_back(op);
    }
    return changed;
}

core::Schedule
Backend::build(const std::vector<OpId> *delta, core::DeltaStats *stats)
{
    costmodel::Mapper &mapper = ctx_.mapper();
    kernels::KernelStoreCache &stores = ctx_.storeCache();
    const std::uint64_t mh0 = mapper.hits();
    const std::uint64_t mm0 = mapper.misses();
    const std::uint64_t sh0 = stores.hits();
    const std::uint64_t sm0 = stores.misses();
    core::Schedule schedule =
        delta ? scheduler_.buildDelta(schedule_, expectations_,
                                      kernelValues_, &engineProf_,
                                      *delta, stats)
              : scheduler_.build(expectations_, kernelValues_,
                                 schedCfg_.worstCase ? nullptr
                                                     : &engineProf_);
    stats_.mapperHits += mapper.hits() - mh0;
    stats_.mapperMisses += mapper.misses() - mm0;
    stats_.storeHits += stores.hits() - sh0;
    stats_.storeMisses += stores.misses() - sm0;
    core::checkSchedule(schedule, dg_, hw_);
    return schedule;
}

Backend::Rebuild
Backend::rebuild(Tick now, const std::vector<OpId> *delta)
{
    // @p delta, when non-null, routes through Scheduler::buildDelta,
    // splicing segments untouched by the listed ops from the
    // installed schedule. An active store-fit-failure window forces a
    // cold full compile (the cached stores no longer fit — spliced
    // ones included), which the watchdog model sees as a full-cost
    // rebuild.
    const bool bypassStores =
        injector_ && injector_->storeFitFailActive(now);
    if (bypassStores) {
        scheduler_.setStoreCache(nullptr);
        ++stats_.storeFitFailures;
    }
    const std::uint64_t misses0 = stats_.storeMisses;
    Rebuild rb;
    rb.delta = delta && !bypassStores;
    rb.schedule = build(rb.delta ? delta : nullptr, &rb.stats);
    if (bypassStores)
        scheduler_.setStoreCache(&ctx_.storeCache());
    const std::uint64_t compiled = bypassStores
                                       ? rb.schedule.segments.size()
                                       : stats_.storeMisses - misses0;
    rb.cost = core::kReconfigOverheadCycles +
              static_cast<Cycles>(compiled) * kernels::kStoreCompileCycles;
    return rb;
}

void
Backend::install(core::Schedule schedule,
                 const std::vector<OpId> *changed)
{
    schedule_ = std::move(schedule);
    if (changed) {
        // Spliced segments still embody the old inputs, so only the
        // changed ops' installed references advance.
        for (OpId op : *changed) {
            const auto e = expectations_.find(op);
            if (e != expectations_.end())
                installedExp_[op] = e->second;
            else
                installedExp_.erase(op);
        }
    } else {
        installedExp_ = expectations_;
    }
    installedLoadMean_ =
        loadMean(dg_, installedExp_, traceCfg_.batchSize);
}

void
Backend::reinstall(Tick now)
{
    if (haveTree_) {
        // The searched structure was tuned for the old tile set; a
        // forced rebuild falls back to the pure heuristic.
        scheduler_.setPlanOverride(nullptr);
        haveTree_ = false;
    }
    Rebuild rb = rebuild(now, nullptr);
    install(std::move(rb.schedule), nullptr);
    engineFree_ = std::max(engineFree_, now) + rb.cost;
}

bool
Backend::failover(std::vector<TileId> alive, Tick now)
{
    if (alive.empty())
        return false;
    setTiles(std::move(alive));
    reinstall(now);
    ++stats_.failovers;
    return true;
}

void
Backend::closeWindow()
{
    ++stats_.driftWindows;
    const bool fire = monitor_.observe(driftProf_);
    if (fire && cfg_.driftReschedule && !schedCfg_.worstCase) {
        // The new schedule targets the drifted window: its
        // per-request snapshot becomes the new reference.
        auto reference = driftProf_.tablesSnapshot();
        core::refreshScheduleInputs(engineProf_, !policy_.exactKernels,
                                    expectations_, kernelValues_);
        engineProf_.resetTables();
        const std::vector<OpId> changed = changedOps();
        Rebuild rb = rebuild(engineFree_,
                             cfg_.deltaReschedule ? &changed : nullptr);
        const Cycles budget = cfg_.rescheduleBudgetCycles;
        if (budget > 0 && rb.cost > budget) {
            // Watchdog: the rebuild blew its cycle budget. Abandon
            // it, keep the last-known-good schedule (and its
            // reference, so the monitor keeps scoring against what is
            // actually installed), and charge only the budget the
            // watchdog let the rebuild burn before killing it.
            engineFree_ += budget;
            ++stats_.watchdogFallbacks;
            stats_.maxRescheduleCycles =
                std::max(stats_.maxRescheduleCycles, budget);
        } else {
            Cycles charge = rb.cost;
            const bool search = searcher_ && !probeRing_.empty();
            if (search && budget > 0 && rb.cost == budget) {
                // The rebuild spent the whole budget. A search budget
                // of 0 reads as unbounded, so the search does not run;
                // it counts as exhausted, as a leftover below one
                // evaluation does.
                stats_.search.budgetExhausted = true;
                stats_.search.chains = cfg_.search.chains;
            } else if (search) {
                // Anytime search inside the watchdog's leftover: its
                // modeled spend is capped at budget - rb.cost, so
                // charge never exceeds the budget (0 = unbounded).
                searcher_->setCycleBudget(budget > 0 ? budget - rb.cost
                                                     : 0);
                searcher_->setSeed(
                    cfg_.search.seed ^
                    (0x2545f4914f6cdd1dULL *
                     static_cast<std::uint64_t>(stats_.reschedules + 1)));
                search::ScheduleSearch::Result sr = searcher_->run(
                    scheduler_, rb.schedule,
                    haveTree_ ? &installedTree_ : nullptr, expectations_,
                    kernelValues_, &engineProf_, probeRing_,
                    &ctx_.storeCache(), &stats_.search);
                charge += sr.spentCycles;
                if (sr.improved) {
                    rb.schedule = std::move(sr.schedule);
                    installedOverride_ = std::move(sr.planOverride);
                    installedTree_ = sr.tree;
                    haveTree_ = true;
                    // Later delta re-schedules splice against the
                    // searched structure.
                    scheduler_.setPlanOverride(&installedOverride_);
                    ++stats_.searchReschedules;
                }
                ADYNA_ASSERT(budget == 0 || charge <= budget,
                             "search overshot the watchdog budget");
                engineFree_ += sr.spentCycles;
            }
            stats_.maxRescheduleCycles =
                std::max(stats_.maxRescheduleCycles, charge);
            monitor_.setReference(std::move(reference));
            if (rb.delta) {
                ++stats_.deltaReschedules;
                stats_.segmentsRebuilt += rb.stats.segmentsRebuilt;
                stats_.segmentsSpliced +=
                    rb.stats.segmentsTotal - rb.stats.segmentsRebuilt;
            }
            install(std::move(rb.schedule),
                    rb.delta ? &changed : nullptr);
            // The dispatch barrier already drained the pipeline;
            // charge the kernel/metadata reload on top.
            engineFree_ += core::kReconfigOverheadCycles;
            ++stats_.reschedules;
        }
    }
    driftProf_.resetTables();
}

ServeReport
Backend::report(const arch::Chip &chip) const
{
    ServeReport r = stats_;
    r.workload = name_;
    r.mode = cfg_.driftReschedule ? "adaptive" : "static";
    r.meanBatchSize = r.batches == 0
                          ? 0.0
                          : static_cast<double>(r.requests) /
                                static_cast<double>(r.batches);
    const double tickSec = 1.0 / (hw_.tech.freqGhz * 1e9);
    r.horizonTicks = slo_.lastEnd();
    if (r.horizonTicks > 0)
        r.achievedRps =
            static_cast<double>(r.requests) /
            (static_cast<double>(r.horizonTicks) * tickSec);
    r.p50Ms = slo_.latencyPercentileMs(0.50);
    r.p95Ms = slo_.latencyPercentileMs(0.95);
    r.p99Ms = slo_.latencyPercentileMs(0.99);
    r.meanMs = slo_.meanLatencyMs();
    r.maxMs = slo_.maxLatencyMs();
    r.meanQueueMs = slo_.meanQueueMs();
    r.sloAttainment = slo_.sloAttainment();
    r.goodputRps = slo_.goodputRps(r.horizonTicks);
    r.lastDriftDistance = monitor_.lastDistance();
    r.driftThreshold = monitor_.effectiveThreshold();
    r.searchActive = cfg_.searchOnDrift;
    r.faultActive = injector_ || cfg_.admissionControl ||
                    cfg_.rescheduleBudgetCycles > 0;
    if (injector_) {
        const fault::FaultStats fs = injector_->stats(chip);
        r.failedTiles = fs.failedTiles;
        r.downLinks = fs.downLinks;
        r.degradedLinks = fs.degradedLinks;
        r.probeDrops = fs.probeDrops;
        r.probeRetries = fs.probeRetries;
        r.probeGiveUps = fs.probeGiveUps;
        r.nocDetours = fs.detourRoutes;
        r.unroutablePaths = fs.unroutablePaths;
    }
    return r;
}

OpenLoopSource::OpenLoopSource(const std::vector<SourceModel> &models,
                               const arch::HwConfig &hw,
                               const ServeConfig &cfg,
                               std::uint64_t seed)
    : cfg_(cfg), freqGhz_(hw.tech.freqGhz),
      deadlineTicks_(cfg.slo.deadlineMs * hw.tech.freqGhz * 1e6),
      arrivals_(cfg.arrival, hw.tech.freqGhz,
                seed ^ 0x9e3779b97f4a7c15ULL),
      splitRng_(seed ^ 0x94d049bb133111ebULL),
      total_(static_cast<std::uint64_t>(cfg.numRequests)),
      nextArrival_(arrivals_.next()), firstArrival_(nextArrival_),
      lastArrival_(nextArrival_)
{
    ADYNA_ASSERT(!models.empty(), "an open-loop source needs a model");
    double sum = 0.0;
    for (const SourceModel &m : models)
        sum += m.trafficFraction;
    double acc = 0.0;
    reqGens_.reserve(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        acc += models[m].trafficFraction / sum;
        splitCdf_.push_back(acc);
        reqGens_.emplace_back(*models[m].dg,
                              perRequest(models[m].traceCfg),
                              seed ^ (0xbf58476d1ce4e5b9ULL *
                                      static_cast<std::uint64_t>(m)));
    }
    splitCdf_.back() = 1.0; // exact, despite rounding
}

OpenLoopSource::Arrival
OpenLoopSource::next()
{
    Arrival a;
    if (splitCdf_.size() > 1) {
        const double u = splitRng_.uniform();
        while (a.model + 1 < static_cast<int>(splitCdf_.size()) &&
               u >= splitCdf_[static_cast<std::size_t>(a.model)])
            ++a.model;
    }
    a.request.id = issued_;
    a.request.arrival = nextArrival_;
    a.request.routing =
        reqGens_[static_cast<std::size_t>(a.model)].next();
    lastArrival_ = nextArrival_;
    ++issued_;
    nextArrival_ = arrivals_.next();
    return a;
}

Tick
OpenLoopSource::admit(Backend &be)
{
    Batcher &batcher = be.batcher();
    while (pending() && nextArrival_ <= be.nextDispatch()) {
        bool shed = false;
        if (cfg_.admissionControl && be.haveService()) {
            const Tick engineFree = be.engineFree();
            const double backlog =
                engineFree > nextArrival_
                    ? static_cast<double>(engineFree - nextArrival_)
                    : 0.0;
            // Projected completion: engine backlog, plus the batches
            // already queued ahead of this arrival, plus its own
            // service. Without the queued term an open-loop overload
            // admits everything before the engine's busy horizon ever
            // moves.
            const double queuedAhead =
                static_cast<double>(batcher.queued()) /
                cfg_.batching.maxBatch;
            shed = backlog + (1.0 + queuedAhead) * be.serviceEwma() >
                   kShedLatencyFactor * deadlineTicks_;
        }
        // A shed request is still drawn (and discarded), so the
        // dynamism stream stays aligned with a non-shedding run of
        // the same seed.
        Request r = next().request;
        if (shed)
            ++shed_;
        else
            batcher.enqueue(std::move(r));
    }
    return be.nextDispatch();
}

double
OpenLoopSource::offeredRps() const
{
    if (issued_ < 2 || lastArrival_ <= firstArrival_)
        return 0.0;
    const double tickSec = 1.0 / (freqGhz_ * 1e9);
    return static_cast<double>(issued_ - 1) /
           (static_cast<double>(lastArrival_ - firstArrival_) *
            tickSec);
}

void
OpenLoopSource::fillReport(ServeReport &r) const
{
    r.offeredRps = offeredRps();
    r.shedRequests = shed_;
    ADYNA_ASSERT(r.requests + r.shedRequests == total_, "\"",
                 r.workload, "\": ", r.requests, " completed + ",
                 r.shedRequests, " shed != ", total_, " requests");
}

} // namespace adyna::serve
