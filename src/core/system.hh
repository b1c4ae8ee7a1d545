/**
 * @file
 * AdynaSystem: the public entry point. Owns the scheduler, the
 * execution engine, the chip model, and the profiler feedback loop
 * (Figure 4's overall workflow): the offline profile and initial
 * multi-kernel sampling (core::profileOffline, shared with the
 * serving back-end), then periodic frequency-weighted re-allocation
 * and kernel re-sampling with pipeline-drain reconfiguration costs.
 */

#ifndef ADYNA_CORE_SYSTEM_HH
#define ADYNA_CORE_SYSTEM_HH

#include <string>
#include <vector>

#include "arch/chip.hh"
#include "arch/profiler.hh"
#include "core/caches.hh"
#include "core/engine.hh"
#include "core/scheduler.hh"
#include "fault/fault.hh"
#include "graph/dyngraph.hh"
#include "trace/trace.hh"

namespace adyna::core {

/** Run-level options. */
struct RunOptions
{
    /** Batches to simulate. */
    int numBatches = 200;

    /** Seed for the dynamism trace. */
    std::uint64_t seed = 1;

    /**
     * Batches between runtime re-scheduling / re-sampling events
     * (the paper reconfigures every 40 batches); 0 disables runtime
     * adjustment entirely (the Adyna-static setting).
     */
    int reconfigPeriod = 40;

    /** Offline profiling batches before the first schedule. */
    int profileBatches = 40;

    /** Run Algorithm 1 re-sampling at each reconfiguration. */
    bool resampleKernels = true;
};

/** Everything a run reports (feeds every evaluation figure). */
struct RunReport
{
    std::string workload;
    std::string design;

    Tick cycles = 0;
    double timeMs = 0.0;
    double batchesPerSecond = 0.0;

    double peUtilization = 0.0;
    double hbmUtilization = 0.0;
    arch::EnergyBreakdown energy;

    MacCount usefulMacs = 0;
    MacCount issuedMacs = 0;

    std::size_t storedKernels = 0;
    int segments = 0;
    int reconfigurations = 0;

    /**
     * Mapper memo-cache lookups attributed to this run (hits +
     * misses = searches). With a mapper shared across concurrent
     * runs the split is a best-effort snapshot delta -- simultaneous
     * runs may steal each other's hits -- but the numbers stay
     * usable as an effectiveness signal. Deliberately excluded from
     * the CSV/JSON exporters so machine-readable dumps stay
     * byte-identical across --jobs settings.
     */
    std::uint64_t mapperHits = 0;
    std::uint64_t mapperMisses = 0;

    /** Kernel-store cache lookups attributed to this run (same
     * best-effort snapshot-delta semantics and exporter exclusion as
     * the mapper counters; zero when the cache is disabled). */
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;

    /** Fault-injection counters (all zero without a fault plan).
     * Excluded from the CSV/JSON exporters like the cache counters so
     * fault-free reports stay byte-identical to the pre-fault code. */
    fault::FaultStats fault;

    /** Degraded re-schedules triggered by a healthy-tile change (a
     * subset of `reconfigurations`' spirit but counted separately;
     * also excluded from the exporters). */
    int failovers = 0;

    /** Per-batch completion times. */
    std::vector<Tick> batchEnds;
};

/** One design point = scheduler config + engine policy + options. */
class System : public SharedCaches
{
  public:
    System(const graph::DynGraph &dg, trace::TraceConfig trace_cfg,
           arch::HwConfig hw, SchedulerConfig sched_cfg,
           ExecPolicy policy, RunOptions options,
           std::string design_name);

    /** Simulate and report. */
    RunReport run();

    /**
     * Replay a recorded routing trace instead of the synthetic
     * generator (see trace/replay.hh). Must hold at least
     * RunOptions::numBatches entries; the first profileBatches
     * entries double as the offline profile.
     */
    void setReplay(std::vector<trace::BatchRouting> replay);

    /**
     * Inject @p plan during the run: events fire on the chip clock at
     * period boundaries, and a healthy-tile change triggers a
     * degraded re-schedule onto the survivors (unless the design is
     * the worst-case static baseline, or no tile survives: either
     * keeps its schedule and eats the degraded execution cost).
     * @p seed drives the probe-drop streams; 0 derives one from
     * RunOptions::seed. An empty plan leaves every simulation path
     * untouched.
     */
    void setFaultPlan(fault::FaultPlan plan, std::uint64_t seed = 0);

    const arch::HwConfig &hwConfig() const { return hw_; }

  private:
    const graph::DynGraph &dg_;
    trace::TraceConfig traceCfg_;
    arch::HwConfig hw_;
    SchedulerConfig schedCfg_;
    ExecPolicy policy_;
    RunOptions options_;
    std::string designName_;
    std::vector<trace::BatchRouting> replay_;
    fault::FaultPlan faultPlan_;
    std::uint64_t faultSeed_ = 0;
};

} // namespace adyna::core

#endif // ADYNA_CORE_SYSTEM_HH
