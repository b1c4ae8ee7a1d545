/**
 * @file
 * The multi-chip pod runtime: K independent chips — each a
 * serve::Backend (Scheduler, Engine, drift monitor, admission queue)
 * on its own Chip (NoC, HBM, fault state) — behind a front-end
 * Router, with every chip-boundary payload charged on the pod
 * Interconnect (see interconnect.hh / router.hh). This is
 * the ROADMAP's "millions of users" scale-out tier: one open-loop
 * arrival stream at pod-aggregate rate fans out over the chips, and
 * goodput should scale near-linearly with K.
 *
 * Placement is replicated (one model on every chip) or partitioned
 * (each model owns a contiguous chip group sized by its traffic
 * fraction; the serve::OpenLoopSource that draws the pod's arrivals
 * also draws each one's model). Routing sees per-chip status
 * snapshots — health, queue depth, projected backlog, and the
 * installed schedule's load signature — so the schedule-affinity
 * policy can steer requests toward chips whose installed schedule
 * already matches them, keeping drift monitors quiet.
 *
 * Pod-level fail-over composes with src/fault: the pod's fault plan
 * holds chip_fail events (whole chips going dark, optionally healing)
 * that the runtime intercepts at the router tier — the dark chip's
 * queue is drained and re-routed onto the survivors (adaptive) or
 * shed (static pinning), arrivals are steered or shed likewise, and a
 * healing chip re-streams its weight working set over the
 * interconnect before rejoining. Per-chip fault plans (tile/link/
 * probe/store-fit kinds) replay on each chip's own clock with the
 * single-chip fail-over path. Brownout backpressure (the router's
 * queueLimit) sheds at the front door instead of letting queues
 * collapse the survivors.
 *
 * Every chip count runs the same pod loop. A 1-chip pod differs
 * only in two facts derived from the chip count: its one back-end
 * takes serve.seed itself, and it has no fabric, so no payload
 * crosses the interconnect. Its serve report (and JSON bytes) then
 * equals serve::ServeRuntime's on the same config — the equivalence
 * gate that pins the pod layer as a pure extension. Pod-scope
 * faults, the router and the reliability layer act at K = 1 as at
 * any K.
 */

#ifndef ADYNA_POD_RUNTIME_HH
#define ADYNA_POD_RUNTIME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/hwconfig.hh"
#include "core/caches.hh"
#include "core/engine.hh"
#include "core/scheduler.hh"
#include "fault/fault.hh"
#include "graph/dyngraph.hh"
#include "pod/breaker.hh"
#include "pod/interconnect.hh"
#include "pod/router.hh"
#include "serve/server.hh"
#include "trace/trace.hh"

namespace adyna::pod {

/** One served model: the graph, its dynamism model, and its share of
 * the pod's traffic. */
struct PodWorkload
{
    const graph::DynGraph *dg = nullptr;

    /** Dynamism model; batchSize must equal the pod's
     * batching.maxBatch (the compiled batch size). */
    trace::TraceConfig traceCfg;

    std::string name;

    /** Fraction of pod arrivals this model receives (fractions must
     * sum to 1; drives both the arrival split and the partitioned
     * chip-group sizing). */
    double trafficFraction = 1.0;
};

/** How models map onto chips. */
enum class Placement {
    Replicated,  ///< one model, served by every chip
    Partitioned, ///< each model owns a contiguous chip group
};

/** Canonical lower-case name of a placement. */
const char *placementName(Placement placement);

/**
 * The pod's reliability layer (DESIGN.md §15): hedged retries,
 * per-request timeouts, per-chip circuit breakers fed by health
 * probes, and end-to-end payload checksums. Every default leaves all
 * simulation paths untouched, so a default-configured pod stays
 * byte-identical to the pre-reliability runtime.
 */
struct ReliabilityConfig
{
    /** Hedge a still-incomplete request onto the next-best chip once
     * its age crosses the latency-percentile trigger. First
     * completion wins; the loser is cancelled (queued / in-flight)
     * or its duplicate completion discarded (already executing). A
     * hedge whose projected completion would miss the deadline anyway
     * is suppressed and counted instead (graceful brownout). */
    bool hedging = false;

    /** Trigger clamps as fractions of the SLO deadline: the floor
     * keeps cold-start hedges off the fast path, the cap guarantees
     * the hedge fires while the deadline is still reachable. */
    double hedgeMinDeadlineFraction = 0.25;
    double hedgeMaxDeadlineFraction = 0.75;

    /** Abandon a request outstanding past this many SLO deadlines —
     * shed-with-accounting, every copy cancelled. 0 = no timeouts. */
    double timeoutDeadlineFactor = 0.0;

    /** Per-chip circuit breaker driven by health-probe pings; an
     * open breaker drains organically (queued work keeps executing,
     * no new admissions) and re-admits via half-open probation. */
    bool breaker = false;
    BreakerConfig breakerCfg;

    /** Health-probe ping cadence, cycles. */
    Cycles probeIntervalCycles = 400'000;

    /** End-to-end checksums on every interconnect transfer:
     * detect-and-retry of corrupted payloads plus the per-chip SDC
     * counter that can trip the breaker. */
    bool checksums = false;
};

/** Aggregated reliability-layer counters (serialized as
 * "router_stats" only while the layer is active). */
struct PodReliabilityStats
{
    std::uint64_t hedges = 0;         ///< hedge copies issued
    std::uint64_t hedgeWins = 0;      ///< hedge copy finished first
    std::uint64_t hedgeCancelled = 0; ///< loser copies cancelled
    std::uint64_t wastedCompletions = 0; ///< duplicate completions
    std::uint64_t brownoutSheds = 0;  ///< hedges suppressed
    std::uint64_t timeouts = 0;       ///< requests abandoned
    std::uint64_t probes = 0;         ///< health pings issued
    std::uint64_t probeFailures = 0;  ///< pings lost (dark chip)
    std::uint64_t breakerTrips = 0;
    std::uint64_t breakerReopens = 0;
    std::uint64_t breakerCloses = 0;
    std::uint64_t linkRetries = 0;
    std::uint64_t integrityRetries = 0;
    std::uint64_t corruptionsInjected = 0;
    std::uint64_t corruptionsDetected = 0;
    std::uint64_t corruptionsUndetected = 0;
    Bytes icProbeBytes = 0;
    Bytes icRetryBytes = 0;
};

/** Pod-level configuration. */
struct PodConfig
{
    /** Back-end chips in the pod. */
    int chips = 2;

    Placement placement = Placement::Replicated;
    RouterConfig router;
    InterconnectConfig interconnect;

    /**
     * The per-chip serving template: arrival is the pod-aggregate
     * open-loop stream, numRequests the pod-wide total; batching /
     * slo / drift / re-scheduling knobs apply to every chip alike.
     * admissionControl must stay off — the router's queueLimit is
     * the pod's admission backpressure. faultPlan must stay empty:
     * faults go into faultPlan / chipFaultPlans below.
     */
    serve::ServeConfig serve;

    /** Pod-scope fault timeline: pod-scope kinds only (chip_fail /
     * chip_slow / link_flaky / payload_corrupt, see fault/fault.hh),
     * chip indices in [0, chips). */
    fault::FaultPlan faultPlan;

    /** Per-chip fault timelines (tile/link/probe/store-fit kinds;
     * the chip's FaultInjector rejects pod-scope kinds). Empty, or
     * one plan per chip. */
    std::vector<fault::FaultPlan> chipFaultPlans;

    /** Hedging / breaker / checksum layer (all off by default). */
    ReliabilityConfig reliability;
};

/** One chip's slice of the pod report. */
struct ChipResult
{
    int id = 0;

    /** Name of the model this chip serves. */
    std::string model;

    /** The chip was dark at the end of the run. */
    bool dark = false;

    /** Requests the router delivered to this chip (including
     * re-routes onto it). */
    std::uint64_t routed = 0;

    /** Requests re-routed onto this chip off a dark chip's queue. */
    std::uint64_t rerouted = 0;

    /** Requests drained off this chip's queue when it went dark. */
    std::uint64_t drained = 0;

    /** Hedge copies delivered to this chip (reliability layer). */
    std::uint64_t hedged = 0;

    /** Checksum-detected corruptions on this chip's links
     * (reliability layer). */
    std::uint64_t sdc = 0;

    /** The chip's full single-chip-equivalent serving report. */
    serve::ServeReport serve;
};

/** Everything one pod run reports. */
struct PodReport
{
    /** routePolicyName of the router policy. */
    std::string policy;

    /** placementName of the model placement. */
    std::string placement;

    int chipCount = 0;

    /** Pod-wide completions. */
    std::uint64_t requests = 0;

    /** Arrivals shed at the front door (router backpressure or no
     * eligible chip). */
    std::uint64_t shedRequests = 0;

    /** Requests lost to a dark chip under static pinning (routed to
     * it while dark, or drained un-re-routable). */
    std::uint64_t darkChipSheds = 0;

    /** Requests re-routed off dark chips onto survivors. */
    std::uint64_t rerouted = 0;

    /** Requests drained off dark chips' queues. */
    std::uint64_t drained = 0;

    /** Requests backpressure diverted off the policy's first
     * choice. */
    std::uint64_t diverted = 0;

    // Affinity policy accounting (zero under other policies).
    std::uint64_t affinityHits = 0;
    std::uint64_t affinityMisses = 0;

    // chip_fail events applied.
    std::uint64_t chipFailEvents = 0;
    std::uint64_t chipHeals = 0;

    // Interconnect accounting.
    std::uint64_t icTransfers = 0;
    Bytes icRequestBytes = 0;
    Bytes icResponseBytes = 0;
    Bytes icWeightBytes = 0;

    /** Mean offered load measured from the realized pod arrivals. */
    double offeredRps = 0.0;

    /** Pod-wide completions per second over the serving horizon. */
    double achievedRps = 0.0;

    // Pod-level end-to-end latency (arrival at the router to
    // response delivery back through the interconnect).
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;

    double sloAttainment = 0.0;
    double goodputRps = 0.0;

    /** Latest response-delivery tick. */
    Tick horizonTicks = 0;

    /** Reliability-layer counters; serialized (as "router_stats")
     * only while reliabilityActive. */
    PodReliabilityStats reliability;

    /** Any reliability machinery was live this run (hedging, a
     * breaker, checksums, or a gray-failure plan). Off keeps the
     * JSON bytes identical to the pre-reliability report. */
    bool reliabilityActive = false;

    /** Per-chip results, ordered by chip id (byte-stable JSON). */
    std::vector<ChipResult> chips;
};

/** Write the report's fields into @p w's open object: pod counters,
 * "router_stats" while reliabilityActive, then a "chips" array whose
 * elements hold each chip's counters and serve report's fields. */
void writeFields(JsonWriter &w, const PodReport &report);

/** The run as a JSON object (writeFields in braces). */
std::string toJson(const PodReport &report);

/** Multi-chip pod serving simulation. */
class PodRuntime : public core::SharedCaches
{
  public:
    /** @param workloads the served models (one under Replicated);
     * the graphs must outlive the runtime. */
    PodRuntime(std::vector<PodWorkload> workloads, arch::HwConfig hw,
               core::SchedulerConfig sched_cfg,
               core::ExecPolicy policy, PodConfig cfg);

    /** Serve PodConfig::serve.numRequests requests and report. */
    PodReport run();

  private:
    std::vector<PodWorkload> workloads_;
    arch::HwConfig hw_;
    core::SchedulerConfig schedCfg_;
    core::ExecPolicy policy_;
    PodConfig cfg_;

    /** chipModel_[c] = index into workloads_ chip c serves. */
    std::vector<int> chipModel_;
};

} // namespace adyna::pod

#endif // ADYNA_POD_RUNTIME_HH
