/**
 * @file
 * The multi-tenant serving runtime: N tenants — each a workload with
 * its own serving configuration and an SLO class — co-scheduled on
 * one chip through spatial tile partitioning. Each tenant is one
 * serve::Backend (batching, drift-driven delta re-scheduling, SLO
 * tracking) fed by its own serve::OpenLoopSource (arrivals and
 * admission) and restricted to its own rectangular tile region via
 * Backend::setTiles, while all tenants share the physical chip: the
 * NoC, the HBM stacks, and — under the naive SharedGrid mode — the
 * tiles themselves. Disjoint regions execute concurrently in
 * simulated time because tile reservations never collide;
 * cross-tenant interference enters through the shared memory system
 * and through bandwidth degrades on partition-boundary NoC links (see
 * partition.hh).
 *
 * On top of the per-tenant loops sit three chip-level controllers:
 *  - an elastic repartition controller that tracks each tenant's
 *    measured completion rate (EWMA), recomputes SLO-weighted
 *    desired shares, and — behind a deviation threshold, hysteresis,
 *    and a cooldown — re-carves the grid, rebuilding only the
 *    tenants whose region actually changed (unchanged tenants keep
 *    their installed schedule and compiled stores: the partition-
 *    level delta re-schedule);
 *  - priority preemption: a latency-critical tenant whose latency
 *    EWMA overshoots its deadline gets a temporary share boost and
 *    forces an immediate repartition evaluation;
 *  - tenant-aware fail-over: a tile fault repairs only the tenants
 *    whose region contains a struck tile (FaultInjector::
 *    changedTiles), not the whole chip.
 *
 * A 1-tenant configuration runs the same loop over the full grid,
 * and its serve report (and JSON) is byte-identical to the
 * single-workload serve::ServeRuntime — the equivalence gate that
 * pins the multi-tenant layer as a pure extension.
 */

#ifndef ADYNA_MTENANT_RUNTIME_HH
#define ADYNA_MTENANT_RUNTIME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/hwconfig.hh"
#include "core/caches.hh"
#include "core/engine.hh"
#include "core/scheduler.hh"
#include "fault/fault.hh"
#include "graph/dyngraph.hh"
#include "mtenant/partition.hh"
#include "serve/server.hh"
#include "serve/tenant.hh"
#include "trace/trace.hh"

namespace adyna::mtenant {

/** One tenant's workload: the graph plus its dynamism model. */
struct TenantWorkload
{
    const graph::DynGraph *dg = nullptr;

    /** Dynamism model; batchSize must equal the tenant's
     * batching.maxBatch (the compiled batch size). */
    trace::TraceConfig traceCfg;

    std::string name;
};

/** Elastic repartition controller policy (its cadence, trigger and
 * preemption constants live in mtenant/runtime.cc). */
struct RepartitionPolicy
{
    /** Re-carve the grid as measured load shifts; false freezes the
     * initial partition (EvenSplit and SharedGrid are always
     * frozen — only IsolationAware repartitions). */
    bool elastic = true;
};

/** Chip-level multi-tenant configuration. */
struct MTenantConfig
{
    /** The tenants (validated by serve::validateTenantSpecs; one
     * entry per TenantWorkload, same order). */
    std::vector<serve::TenantSpec> tenants;

    PartitionPolicy partition;
    RepartitionPolicy repartition;

    /** Chip-level fault timeline (per-tenant plans are rejected); its
     * probe-drop streams derive from the first tenant's seed. */
    fault::FaultPlan faultPlan;

    /** Repair struck tenants' schedules when tiles fail/recover. */
    bool failover = true;
};

/** One tenant's slice of the multi-tenant report. */
struct TenantResult
{
    std::string id;
    serve::SloClass cls = serve::SloClass::Standard;

    /** Tiles of the tenant's final region. */
    int tiles = 0;

    /** The tenant's full single-tenant-equivalent serving report. */
    serve::ServeReport serve;
};

/** Everything one multi-tenant run reports. */
struct MTenantReport
{
    /** partitionKindName of the mode the run used. */
    std::string mode;

    std::vector<TenantResult> tenants;

    int repartitions = 0;
    int preemptions = 0;

    /** Partition-local fail-over repairs (tenants rebuilt after a
     * tile health change; <= sum of per-tenant failovers). */
    int failoverRepairs = 0;

    /** Boundary links carrying an interference degrade at run end. */
    int interferenceLinks = 0;

    /** Dispatches that had to re-stream the tenant's weight working
     * set over HBM because another tenant ran on (some of) its tiles
     * since its last dispatch. Zero under disjoint partitions except
     * right after a repartition; nearly every alternation under the
     * naive shared grid — the context-switch cost spatial isolation
     * exists to avoid. */
    int tenantSwitches = 0;

    /** Sum of per-tenant deadline-meeting completions per second. */
    double aggregateGoodputRps = 0.0;

    /** Worst per-tenant p99 latency, milliseconds. */
    double worstP99Ms = 0.0;

    /** Latest completion tick across tenants. */
    Tick horizonTicks = 0;
};

/** Write the report's fields into @p w's open object: chip counters,
 * then a "tenants" array whose elements hold each tenant's id, class
 * and tiles and its serve report's fields. */
void writeFields(JsonWriter &w, const MTenantReport &report);

/** The run as a JSON object (writeFields in braces). */
std::string toJson(const MTenantReport &report);

/** Multi-tenant serving simulation over one shared chip. */
class MTenantRuntime : public core::SharedCaches
{
  public:
    /** @param workloads one workload per cfg.tenants entry, same
     * order; the graphs must outlive the runtime. */
    MTenantRuntime(std::vector<TenantWorkload> workloads,
                   arch::HwConfig hw, core::SchedulerConfig sched_cfg,
                   core::ExecPolicy policy, MTenantConfig cfg);

    /** Serve every tenant's numRequests requests and report. */
    MTenantReport run();

  private:
    std::vector<TenantWorkload> workloads_;
    arch::HwConfig hw_;
    core::SchedulerConfig schedCfg_;
    core::ExecPolicy policy_;
    MTenantConfig cfg_;
};

} // namespace adyna::mtenant

#endif // ADYNA_MTENANT_RUNTIME_HH
