#include "core/system.hh"

#include <algorithm>
#include <optional>

#include "common/logging.hh"
#include "core/sampling.hh"
#include "core/validate.hh"

namespace adyna::core {

System::System(const graph::DynGraph &dg, trace::TraceConfig trace_cfg,
               arch::HwConfig hw, SchedulerConfig sched_cfg,
               ExecPolicy policy, RunOptions options,
               std::string design_name)
    : dg_(dg), traceCfg_(trace_cfg), hw_(hw), schedCfg_(sched_cfg),
      policy_(policy), options_(options),
      designName_(std::move(design_name))
{
    ADYNA_ASSERT(options_.numBatches > 0, "numBatches must be > 0");
}

void
System::setReplay(std::vector<trace::BatchRouting> replay)
{
    ADYNA_ASSERT(static_cast<int>(replay.size()) >=
                     options_.numBatches,
                 "replay trace holds ", replay.size(),
                 " batches but the run needs ", options_.numBatches);
    replay_ = std::move(replay);
}

void
System::setFaultPlan(fault::FaultPlan plan, std::uint64_t seed)
{
    faultPlan_ = std::move(plan);
    faultSeed_ = seed;
}

RunReport
System::run()
{
    CacheContext caches(hw_, sharedMapper_, sharedStoreCache_);
    costmodel::Mapper &mapper = caches.mapper();
    kernels::KernelStoreCache &storeCache = caches.storeCache();
    const std::uint64_t hits0 = mapper.hits();
    const std::uint64_t misses0 = mapper.misses();
    const std::uint64_t sHits0 = storeCache.hits();
    const std::uint64_t sMisses0 = storeCache.misses();

    Scheduler scheduler(dg_, hw_, mapper, schedCfg_);
    scheduler.setStoreCache(&storeCache);
    Engine engine(dg_, hw_, mapper, policy_);
    arch::Chip chip(hw_);
    arch::Profiler profiler;

    trace::TraceGenerator trace(dg_, traceCfg_, options_.seed);
    std::size_t replayCursor = 0;

    // ---- offline profiling (Figure 4: initial statistics) ----------
    // Warm the profiler (and the expectations) with offline
    // statistics so the first schedule can pick sharing pairs /
    // grouped branches, and take the initial kernel sample against
    // them whatever resampleKernels and exactKernels say (the
    // "initial profile only" ablation and the exact-kernel designs
    // are measured with it). With a replayed trace, its prefix
    // doubles as the offline profile.
    std::map<OpId, double> expectations;
    std::map<OpId, std::vector<std::int64_t>> kernelValues =
        scheduler.initialKernelValues();
    if (!schedCfg_.worstCase) {
        trace::TraceGenerator probe(dg_, traceCfg_,
                                    probeSeed(options_.seed));
        profileOffline(
            profiler, dg_, options_.profileBatches,
            [&](int b) {
                return replay_.empty()
                           ? probe.next()
                           : replay_[static_cast<std::size_t>(b) %
                                     replay_.size()];
            },
            true, expectations, kernelValues);
    }

    Schedule schedule = scheduler.build(
        expectations, kernelValues,
        schedCfg_.worstCase ? nullptr : &profiler);
    checkSchedule(schedule, dg_, hw_);

    // ---- main loop with periodic reconfiguration --------------------
    RunReport report;
    report.workload = dg_.name();
    report.design = designName_;
    report.segments = static_cast<int>(schedule.segments.size());
    report.storedKernels = schedule.totalKernels();

    const int period = options_.reconfigPeriod > 0
                           ? options_.reconfigPeriod
                           : options_.numBatches;
    std::optional<fault::FaultInjector> injector;
    if (!faultPlan_.empty())
        injector.emplace(faultPlan_,
                         faultSeed_ ? faultSeed_
                                    : options_.seed ^ fault::kSeedSalt);
    Tick barrier = 0;

    // One re-schedule on the current inputs, fail-over or periodic:
    // the period boundary already drained the pipeline, so it adds
    // only the fixed kernel/metadata reload cost.
    const auto reschedule = [&] {
        schedule = scheduler.build(expectations, kernelValues, &profiler);
        checkSchedule(schedule, dg_, hw_);
        report.storedKernels =
            std::max(report.storedKernels, schedule.totalKernels());
        barrier += kReconfigOverheadCycles;
    };

    int done = 0;
    while (done < options_.numBatches) {
        // Fault events due by the current clock strike before the
        // period runs; a healthy-tile change triggers a degraded
        // re-schedule onto the survivors. The static worst-case
        // baseline keeps its schedule and eats the lockstep
        // degradation instead, and so does every design once no tile
        // survives (an empty tile list would mean the full grid).
        if (injector && injector->advanceTo(barrier, chip) &&
            !schedCfg_.worstCase) {
            std::vector<TileId> alive = chip.healthyTiles();
            if (!alive.empty()) {
                scheduler.setHealthyTiles(std::move(alive));
                reschedule();
                ++report.failovers;
            }
        }
        const int count =
            std::min(period, options_.numBatches - done);
        std::vector<trace::BatchRouting> routings;
        routings.reserve(static_cast<std::size_t>(count));
        for (int b = 0; b < count; ++b)
            routings.push_back(replay_.empty()
                                   ? trace.next()
                                   : replay_[replayCursor++]);

        const PeriodResult res = engine.runPeriod(
            chip, schedule, routings, &profiler, barrier);
        barrier = res.endTime;
        report.batchEnds.insert(report.batchEnds.end(),
                                res.batchEnds.begin(),
                                res.batchEnds.end());
        done += count;

        const bool adjust = options_.reconfigPeriod > 0 &&
                            done < options_.numBatches &&
                            !schedCfg_.worstCase;
        if (!adjust)
            continue;

        // Scheduler pulls the profiler report (Section V):
        // frequency-weighted expectations and kernel re-sampling.
        refreshScheduleInputs(profiler,
                              options_.resampleKernels &&
                                  !policy_.exactKernels,
                              expectations, kernelValues);
        profiler.resetTables();
        reschedule();
        ++report.reconfigurations;
    }

    // ---- metrics ------------------------------------------------------
    report.cycles = barrier;
    const double seconds = static_cast<double>(barrier) /
                           (hw_.tech.freqGhz * 1e9);
    report.timeMs = seconds * 1e3;
    report.batchesPerSecond =
        seconds > 0.0 ? options_.numBatches / seconds : 0.0;
    report.peUtilization = chip.peUtilization(barrier);
    report.hbmUtilization = chip.hbmUtilization(barrier);
    report.energy = chip.energy();
    report.usefulMacs = chip.usefulMacs();
    report.issuedMacs = chip.issuedMacs();
    report.mapperHits = mapper.hits() - hits0;
    report.mapperMisses = mapper.misses() - misses0;
    report.storeHits = storeCache.hits() - sHits0;
    report.storeMisses = storeCache.misses() - sMisses0;
    if (injector)
        report.fault = injector->stats(chip);
    return report;
}

} // namespace adyna::core
