#include "mtenant/runtime.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "arch/chip.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "serve/backend.hh"
#include "serve/validate.hh"

namespace adyna::mtenant {

namespace {

// ---- elastic repartition controller --------------------------------

/** Cycles between controller checks. */
constexpr Cycles kCheckIntervalCycles = 2'000'000;

/** Largest |desired - current| tile-share deviation (per tenant)
 * tolerated before a check counts as hot. */
constexpr double kDeviationThreshold = 0.25;

/** Consecutive hot checks required to repartition. */
constexpr int kHysteresisChecks = 2;

/** Checks after a repartition during which no new one fires. */
constexpr int kCooldownChecks = 2;

/** EWMA weight of the newest per-tenant rate measurement. */
constexpr double kLoadEwmaAlpha = 0.3;

// ---- priority preemption of latency-critical tenants ---------------

/** Trigger when a latency-critical tenant's latency EWMA exceeds
 * this multiple of its deadline. */
constexpr double kPreemptLatencyFactor = 1.0;

/** Share multiplier granted to the struggling tenant. */
constexpr double kPreemptBoost = 2.0;

/** Controller checks the boost persists for. */
constexpr int kPreemptHoldChecks = 4;

/** Ascending intersection of two ascending tile lists. */
std::vector<TileId>
intersectTiles(const std::vector<TileId> &a,
               const std::vector<TileId> &b)
{
    std::vector<TileId> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
}

/** The offered-load hint a tenant's initial share is sized from. */
double
offeredLoad(const serve::TenantSpec &spec)
{
    return spec.loadWeight > 0.0 ? spec.loadWeight
                                 : spec.serve.arrival.ratePerSec;
}

/** One tenant: its serving back-end and open-loop stream, plus the
 * multi-tenant driver's own state (region, context-switch working
 * set, controller signals). */
struct Tenant
{
    const serve::TenantSpec *spec;
    serve::Backend backend;
    serve::OpenLoopSource source;

    /** The tenant's partition rectangle and its tile ids
     * (ascending). */
    TileRegion rect;
    std::vector<TileId> region;

    /** The workload's full weight working set in bytes — the
     * context-switch traffic re-streamed over HBM when another
     * tenant ran on this tenant's tiles since its last dispatch. */
    Bytes weightBytes = 0;

    // Controller state: arrival-rate EWMAs (repartition) and
    // end-to-end latency (preemption). The repartition signal is the
    // ratio of a short to a long arrival-rate EWMA — dimensionless
    // and self-normalized per tenant, so heterogeneous per-request
    // costs cannot skew the comparison, and a starved tenant's demand
    // stays visible because arrivals are independent of service.
    std::uint64_t issuedAtCheck = 0;
    double shortRateEwma = 0.0; ///< arrivals per check interval
    double longRateEwma = 0.0;  ///< slow baseline of the same
    bool haveRateObs = false;
    double latencyEwmaTicks = 0.0;
    bool haveLatency = false;
    double boost = 1.0;
    int boostChecksLeft = 0;

    bool done = false;

    Tenant(const serve::TenantSpec &s, const TenantWorkload &w,
           std::uint64_t seed, const arch::HwConfig &hw,
           const core::SchedulerConfig &sched_cfg,
           const core::ExecPolicy &policy,
           core::CacheContext &ctx)
        : spec(&s),
          backend(*w.dg, w.traceCfg, hw, sched_cfg, policy, s.serve,
                  w.name, ctx, seed),
          source({{w.dg, w.traceCfg, 1.0}}, hw, s.serve, seed),
          weightBytes(w.dg->graph().totalWeightBytes())
    {
    }
};

} // namespace

void
writeFields(JsonWriter &w, const MTenantReport &r)
{
    w.field("mode", r.mode);
    w.field("tenant_count", static_cast<int>(r.tenants.size()));
    w.field("repartitions", r.repartitions);
    w.field("preemptions", r.preemptions);
    w.field("failover_repairs", r.failoverRepairs);
    w.field("interference_links", r.interferenceLinks);
    w.field("tenant_switches", r.tenantSwitches);
    w.fixed("aggregate_goodput_rps", r.aggregateGoodputRps, 2);
    w.fixed("worst_p99_ms", r.worstP99Ms, 4);
    w.field("horizon_ticks", r.horizonTicks);
    w.key("tenants").beginArray();
    for (const TenantResult &t : r.tenants) {
        w.beginObject().field("tenant", t.id);
        w.field("slo_class", serve::sloClassName(t.cls));
        w.field("tiles", t.tiles);
        serve::writeFields(w, t.serve);
        w.endObject();
    }
    w.endArray();
}

std::string
toJson(const MTenantReport &r)
{
    JsonWriter w;
    writeFields(w.beginObject(), r);
    return w.endObject().take();
}

MTenantRuntime::MTenantRuntime(std::vector<TenantWorkload> workloads,
                               arch::HwConfig hw,
                               core::SchedulerConfig sched_cfg,
                               core::ExecPolicy policy,
                               MTenantConfig cfg)
    : workloads_(std::move(workloads)), hw_(hw),
      schedCfg_(sched_cfg), policy_(policy), cfg_(std::move(cfg))
{
    serve::validateTenantSpecs(cfg_.tenants);
    ADYNA_ASSERT(workloads_.size() == cfg_.tenants.size(),
                 "one TenantWorkload per TenantSpec required (got ",
                 workloads_.size(), " workloads vs ",
                 cfg_.tenants.size(), " tenants)");
    for (std::size_t i = 0; i < workloads_.size(); ++i) {
        ADYNA_ASSERT(workloads_[i].dg != nullptr, "tenant \"",
                     cfg_.tenants[i].id,
                     "\": TenantWorkload.dg must be set");
        ADYNA_ASSERT(
            workloads_[i].traceCfg.batchSize ==
                static_cast<std::int64_t>(
                    cfg_.tenants[i].serve.batching.maxBatch),
            "tenant \"", cfg_.tenants[i].id,
            "\": the workload graph must be compiled at the "
            "batcher's maxBatch (got trace batchSize ",
            workloads_[i].traceCfg.batchSize, " vs maxBatch ",
            cfg_.tenants[i].serve.batching.maxBatch, ")");
    }
}

MTenantReport
MTenantRuntime::run()
{
    const std::size_t n = cfg_.tenants.size();

    core::CacheContext ctx(hw_, sharedMapper_, sharedStoreCache_);

    // ---- initial partition -----------------------------------------
    TilePartitioner partitioner(hw_, cfg_.partition);
    std::vector<double> shares(n);
    for (std::size_t i = 0; i < n; ++i)
        shares[i] = offeredLoad(cfg_.tenants[i]) *
                    serve::sloClassWeight(cfg_.tenants[i].cls);
    std::vector<TileRegion> regions = partitioner.partition(shares);

    arch::Chip chip(hw_);
    std::vector<InterferenceDegrade> applied =
        partitioner.interferenceDegrades(regions, shares);
    for (const InterferenceDegrade &d : applied)
        chip.noc().setLinkBandwidthFactor(d.tile, d.dir, d.factor);

    // Fault state is chip-level: one injector replays the plan on the
    // shared chip, and its store-fit windows apply to every tenant.
    std::optional<fault::FaultInjector> injector;
    if (!cfg_.faultPlan.empty())
        injector.emplace(cfg_.faultPlan,
                         cfg_.tenants[0].serve.seed ^ fault::kSeedSalt);

    // ---- per-tenant bring-up (profiling, drift reference, first
    // schedule), each restricted to its own region -------------------
    std::vector<std::unique_ptr<Tenant>> tens;
    tens.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t seed =
            cfg_.tenants[i].serve.seed ^
            (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i));
        tens.push_back(std::make_unique<Tenant>(
            cfg_.tenants[i], workloads_[i], seed, hw_, schedCfg_,
            policy_, ctx));
        Tenant &t = *tens.back();
        t.rect = regions[i];
        t.region = t.rect.tiles(hw_);
        // SharedGrid regions cover the full grid, which
        // setHealthyTiles treats as "no restriction" — exactly the
        // naive everyone-everywhere contention mode.
        t.backend.setTiles(t.region);
        if (injector)
            t.backend.setFaultInjector(&*injector);
    }
    for (auto &tp : tens)
        tp->backend.bringUp();

    // ---- the co-scheduled serving loop -----------------------------
    int repartitions = 0;
    int preemptions = 0;
    int failoverRepairs = 0;
    int tenantSwitches = 0;
    // Which tenant's weights last ran on each tile. Disjoint
    // partitions pin ownership, so the re-stream cost below is paid
    // only right after a repartition moves a boundary; overlapping
    // full-grid regions (the naive shared mode) flip ownership on
    // nearly every alternation.
    std::vector<int> tileOwner(static_cast<std::size_t>(hw_.tiles()),
                               -1);
    int hotStreak = 0;
    int cooldown = 0;
    const bool elastic =
        cfg_.repartition.elastic &&
        cfg_.partition.kind == PartitionKind::IsolationAware &&
        !schedCfg_.worstCase;
    Tick nextControl = kCheckIntervalCycles;

    for (;;) {
        // Pick the tenant with the earliest dispatch moment; picked
        // moments are non-decreasing across iterations, so the
        // injector and the controller advance monotonically.
        Tick best = serve::Batcher::kNever;
        std::size_t bestIdx = n;
        for (std::size_t i = 0; i < n; ++i) {
            Tenant &t = *tens[i];
            if (t.done)
                continue;
            if (t.source.finished(t.backend)) {
                t.done = true;
                continue;
            }
            const Tick d = t.source.admit(t.backend);
            if (d == serve::Batcher::kNever) {
                t.done = true; // every remaining arrival was shed
                continue;
            }
            if (d < best) {
                best = d;
                bestIdx = i;
            }
        }
        if (bestIdx == n)
            break;
        const Tick now = best;

        // ---- elastic repartition / preemption controller -----------
        if (elastic && now >= nextControl) {
            bool force = false;
            for (auto &up : tens) {
                Tenant &u = *up;
                const std::uint64_t issued = u.source.issued();
                const double arrived =
                    static_cast<double>(issued - u.issuedAtCheck);
                u.issuedAtCheck = issued;
                if (u.haveRateObs) {
                    constexpr double alpha = kLoadEwmaAlpha;
                    u.shortRateEwma = (1.0 - alpha) * u.shortRateEwma +
                                      alpha * arrived;
                    // The long EWMA moves 4x slower: it is the
                    // tenant's own baseline the short one is compared
                    // against.
                    u.longRateEwma =
                        (1.0 - alpha / 4.0) * u.longRateEwma +
                        (alpha / 4.0) * arrived;
                } else {
                    u.shortRateEwma = arrived;
                    u.longRateEwma = arrived;
                    u.haveRateObs = true;
                }
                if (u.boostChecksLeft > 0 &&
                    --u.boostChecksLeft == 0)
                    u.boost = 1.0;
                if (!u.done &&
                    u.spec->cls ==
                        serve::SloClass::LatencyCritical &&
                    u.haveLatency && u.boost == 1.0 &&
                    u.latencyEwmaTicks >
                        kPreemptLatencyFactor *
                            u.source.deadlineTicks()) {
                    // The latency-critical tenant is drowning: boost
                    // its share and repartition now, hysteresis be
                    // damned — that is what priority means.
                    u.boost = kPreemptBoost;
                    u.boostChecksLeft = kPreemptHoldChecks;
                    ++preemptions;
                    force = true;
                }
            }

            // Desired share = static work prior (the share the
            // initial partition used) modulated by the tenant's own
            // arrival-rate ratio, clamped so one noisy interval
            // cannot trigger a land-grab. The prior carries the
            // cross-tenant work normalization; the ratio carries the
            // temporal dynamics (bursts, lulls, drain-out).
            std::vector<double> desired(n);
            double totalDesired = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                Tenant &u = *tens[i];
                const double ratio = std::clamp(
                    u.shortRateEwma /
                        std::max(u.longRateEwma, 1e-9),
                    0.25, 4.0);
                desired[i] = u.done ? 1e-6
                                    : shares[i] * ratio * u.boost;
                totalDesired += desired[i];
            }
            double deviation = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                deviation = std::max(
                    deviation,
                    std::abs(desired[i] / totalDesired -
                             static_cast<double>(
                                 tens[i]->region.size()) /
                                 static_cast<double>(hw_.tiles())));

            if (cooldown > 0)
                --cooldown;
            hotStreak = deviation > kDeviationThreshold ? hotStreak + 1 : 0;
            bool repartitioned = false;
            if (cooldown == 0 &&
                (force || hotStreak >= kHysteresisChecks)) {
                const std::vector<TileRegion> newRegions =
                    partitioner.partition(desired);
                for (const InterferenceDegrade &d : applied)
                    chip.noc().setLinkBandwidthFactor(d.tile, d.dir,
                                                      1.0);
                applied = partitioner.interferenceDegrades(
                    newRegions, desired);
                for (const InterferenceDegrade &d : applied)
                    chip.noc().setLinkBandwidthFactor(d.tile, d.dir,
                                                      d.factor);
                for (std::size_t i = 0; i < n; ++i) {
                    Tenant &u = *tens[i];
                    // Partition-level delta re-schedule: a tenant
                    // whose region is unchanged keeps its installed
                    // schedule and compiled stores untouched.
                    if (newRegions[i] == u.rect)
                        continue;
                    u.rect = newRegions[i];
                    u.region = u.rect.tiles(hw_);
                    std::vector<TileId> alive = intersectTiles(
                        u.region, chip.healthyTiles());
                    u.backend.setTiles(alive.empty() ? u.region
                                                     : std::move(alive));
                    if (u.done)
                        continue;
                    // The old schedule targets tiles this tenant no
                    // longer owns, so — like fail-over — the rebuild
                    // is mandatory and exempt from the watchdog; its
                    // modeled cost is still charged in full.
                    u.backend.reinstall(now);
                    repartitioned = true;
                }
                if (repartitioned)
                    ++repartitions;
                hotStreak = 0;
                cooldown = kCooldownChecks;
            }
            while (nextControl <= now)
                nextControl += kCheckIntervalCycles;
            if (repartitioned)
                continue; // dispatch moments moved: re-pick
        }

        // ---- tenant-aware fail-over --------------------------------
        if (injector && injector->advanceTo(now, chip) &&
            cfg_.failover && !schedCfg_.worstCase) {
            bool repaired = false;
            for (auto &up : tens) {
                Tenant &u = *up;
                if (u.done)
                    continue;
                bool affected = false;
                for (TileId tile : injector->changedTiles())
                    affected =
                        affected || u.rect.contains(hw_, tile);
                if (!affected)
                    continue; // the fault struck someone else's
                              // region
                // A whole dead region keeps its schedule: degraded
                // lockstep execution serves on.
                if (!u.backend.failover(
                        intersectTiles(u.region, chip.healthyTiles()),
                        now))
                    continue;
                ++failoverRepairs;
                repaired = true;
            }
            if (repaired)
                continue; // re-admit against the new engine-free
                          // times
        }

        // ---- dispatch the chosen tenant ----------------------------
        Tenant &t = *tens[bestIdx];

        // Context-switch cost: tiles another tenant ran on since
        // this tenant's last dispatch hold foreign weights, so the
        // displaced fraction of the working set re-streams over
        // HBM. The stream is issued as a real HBM reservation at
        // `now` — the period's own weight loads contend with it and
        // get pushed back — rather than as a barrier offset, so the
        // barrier passed to runPeriod stays the monotone event time
        // that Hbm::trim's safety contract requires.
        std::size_t foreignTiles = 0;
        for (TileId tile : t.region)
            if (tileOwner[static_cast<std::size_t>(tile)] != -1 &&
                tileOwner[static_cast<std::size_t>(tile)] !=
                    static_cast<int>(bestIdx))
                ++foreignTiles;
        if (foreignTiles > 0) {
            const Bytes streamBytes = static_cast<Bytes>(
                static_cast<double>(t.weightBytes) *
                static_cast<double>(foreignTiles) /
                static_cast<double>(t.region.size()));
            if (streamBytes > 0) {
                chip.hbm().access(now, t.region.front(),
                                  streamBytes);
                chip.chargeHbmEnergy(streamBytes);
            }
            ++tenantSwitches;
        }
        for (TileId tile : t.region)
            tileOwner[static_cast<std::size_t>(tile)] =
                static_cast<int>(bestIdx);

        const serve::Backend::Dispatch d =
            t.backend.dispatch(chip, now);
        for (std::size_t b = 0; b < d.formed.size(); ++b) {
            for (const serve::Request &r : d.formed[b].requests) {
                const Tick end = d.result.batchEnds[b];
                const double lat = static_cast<double>(end - r.arrival);
                t.latencyEwmaTicks =
                    t.haveLatency
                        ? 0.9 * t.latencyEwmaTicks + 0.1 * lat
                        : lat;
                t.haveLatency = true;
                t.backend.complete(r.routing, r.arrival, now, end);
            }
        }
    }

    // ---- report -----------------------------------------------------
    MTenantReport report;
    report.mode = partitionKindName(cfg_.partition.kind);
    report.repartitions = repartitions;
    report.preemptions = preemptions;
    report.failoverRepairs = failoverRepairs;
    report.interferenceLinks = static_cast<int>(applied.size());
    report.tenantSwitches = tenantSwitches;
    for (std::size_t i = 0; i < n; ++i) {
        Tenant &t = *tens[i];
        // Fault state is chip-level; every tenant reports the same
        // end-of-run snapshot.
        serve::ServeReport r = t.backend.report(chip);
        t.source.fillReport(r);

        TenantResult tr;
        tr.id = t.spec->id;
        tr.cls = t.spec->cls;
        tr.tiles = static_cast<int>(t.region.size());
        tr.serve = std::move(r);
        report.aggregateGoodputRps += tr.serve.goodputRps;
        report.worstP99Ms =
            std::max(report.worstP99Ms, tr.serve.p99Ms);
        report.horizonTicks =
            std::max(report.horizonTicks, tr.serve.horizonTicks);
        report.tenants.push_back(std::move(tr));
    }
    return report;
}

} // namespace adyna::mtenant
