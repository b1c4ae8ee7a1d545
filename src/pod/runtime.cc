#include "pod/runtime.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <tuple>

#include "arch/chip.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "serve/backend.hh"
#include "serve/validate.hh"

namespace adyna::pod {

namespace {

/** Payload of one routed request (input activations plus metadata),
 * bytes. */
constexpr Bytes kRequestBytes = 4096;

/** Payload of one response (output logits plus metadata), bytes. */
constexpr Bytes kResponseBytes = 2048;

/** Hedge when a request's age exceeds this quantile of recent
 * completed pod latencies. */
constexpr double kHedgeQuantile = 0.95;

/** Completed-latency window the hedge trigger quantile reads. */
constexpr std::size_t kHedgeWindow = 128;

/** Health-probe ping payload serialized each way on the chip's
 * links, bytes. */
constexpr Bytes kProbePayloadBytes = 64;

/** Modeled chip-side ping service, cycles; a chip_slow straggler
 * dilates it, which is what the breaker's latency trip sees. */
constexpr Cycles kProbeServiceCycles = 500;

/** One chip: its serving back-end plus the pod driver's own state
 * (the physical chip and its tile-scope faults, interconnect
 * deliveries, dark/heal state, and routing counters). */
struct ChipBackend
{
    int id = 0;
    int model = 0;
    arch::Chip chip;

    /** Per-chip (tile/link/probe/store-fit) fault timeline. */
    std::optional<fault::FaultInjector> injector;

    serve::Backend backend;

    /** Requests routed to this chip but still crossing the
     * interconnect (delivery-ordered — deliveries on one directed
     * link serialize, so arrival ticks are non-decreasing). They
     * enter the Batcher only once the pod clock reaches their
     * delivery tick, preserving the single-chip invariant that
     * everything queued has already arrived. */
    std::deque<serve::Request> inflight;

    /** Weight working set re-streamed over the interconnect on
     * (re)join. */
    Bytes weightBytes = 0;

    bool dark = false;

    // Delivered-arrival bookkeeping (per-chip offered rate).
    bool haveArrival = false;
    Tick firstArrival = 0;
    Tick lastArrival = 0;

    std::uint64_t routed = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t hedged = 0;
    std::uint64_t drained = 0;

    ChipBackend(int chip_id, int model_idx, const PodWorkload &w,
                std::uint64_t seed, const arch::HwConfig &hw,
                const core::SchedulerConfig &sched_cfg,
                const core::ExecPolicy &policy,
                const serve::ServeConfig &serve_cfg,
                core::CacheContext &ctx)
        : id(chip_id), model(model_idx), chip(hw),
          backend(*w.dg, w.traceCfg, hw, sched_cfg, policy, serve_cfg,
                  w.name, ctx, seed),
          weightBytes(w.dg->graph().totalWeightBytes())
    {
    }
};

/** A pod-scope chip_fail strike or heal on the pod timeline. The
 * gray kinds (chip_slow / link_flaky / payload_corrupt) are
 * stateless spans instead — they never enter this timeline. */
struct PodFaultEvent
{
    Tick at = 0;
    int chip = 0;
    bool recover = false;
};

std::vector<PodFaultEvent>
podFaultTimeline(const fault::FaultPlan &plan)
{
    constexpr Tick kForever = ~Tick{0};
    std::vector<PodFaultEvent> out;
    for (const fault::FaultEvent &ev : plan.events) {
        if (ev.kind != fault::FaultKind::ChipFail)
            continue;
        out.push_back({ev.at, ev.chip, false});
        if (ev.duration > 0 && ev.at <= kForever - ev.duration)
            out.push_back({ev.at + ev.duration, ev.chip, true});
    }
    // Strikes before heals at equal ticks, then by chip id.
    std::stable_sort(out.begin(), out.end(),
                     [](const PodFaultEvent &a,
                        const PodFaultEvent &b) {
                         return std::tuple(a.at, a.recover, a.chip) <
                                std::tuple(b.at, b.recover, b.chip);
                     });
    return out;
}

} // namespace

const char *
placementName(Placement placement)
{
    switch (placement) {
      case Placement::Replicated:
        return "replicated";
      default:
        return "partitioned";
    }
}

void
writeFields(JsonWriter &w, const PodReport &r)
{
    w.field("policy", r.policy).field("placement", r.placement);
    w.field("chip_count", r.chipCount);
    w.field("requests", r.requests);
    w.field("shed_requests", r.shedRequests);
    w.field("dark_chip_sheds", r.darkChipSheds);
    w.field("rerouted", r.rerouted);
    w.field("drained", r.drained);
    w.field("diverted", r.diverted);
    w.field("affinity_hits", r.affinityHits);
    w.field("affinity_misses", r.affinityMisses);
    w.field("chip_fail_events", r.chipFailEvents);
    w.field("chip_heals", r.chipHeals);
    w.field("ic_transfers", r.icTransfers);
    w.field("ic_request_bytes", r.icRequestBytes);
    w.field("ic_response_bytes", r.icResponseBytes);
    w.field("ic_weight_bytes", r.icWeightBytes);
    w.fixed("offered_rps", r.offeredRps, 2);
    w.fixed("achieved_rps", r.achievedRps, 2);
    w.fixed("p50_ms", r.p50Ms, 4);
    w.fixed("p95_ms", r.p95Ms, 4);
    w.fixed("p99_ms", r.p99Ms, 4);
    w.fixed("slo_attainment", r.sloAttainment, 4);
    w.fixed("goodput_rps", r.goodputRps, 2);
    w.field("horizon_ticks", r.horizonTicks);
    if (r.reliabilityActive) {
        const PodReliabilityStats &s = r.reliability;
        w.key("router_stats").beginObject();
        w.field("sheds", r.shedRequests);
        w.field("diverted", r.diverted);
        w.field("hedges", s.hedges);
        w.field("hedge_wins", s.hedgeWins);
        w.field("hedge_cancelled", s.hedgeCancelled);
        w.field("wasted_completions", s.wastedCompletions);
        w.field("brownout_sheds", s.brownoutSheds);
        w.field("timeouts", s.timeouts);
        w.field("probes", s.probes);
        w.field("probe_failures", s.probeFailures);
        w.field("breaker_trips", s.breakerTrips);
        w.field("breaker_reopens", s.breakerReopens);
        w.field("breaker_closes", s.breakerCloses);
        w.field("link_retries", s.linkRetries);
        w.field("integrity_retries", s.integrityRetries);
        w.field("corruptions_injected", s.corruptionsInjected);
        w.field("corruptions_detected", s.corruptionsDetected);
        w.field("corruptions_undetected", s.corruptionsUndetected);
        w.field("ic_probe_bytes", s.icProbeBytes);
        w.field("ic_retry_bytes", s.icRetryBytes);
        w.endObject();
    }
    w.key("chips").beginArray();
    for (const ChipResult &c : r.chips) {
        w.beginObject().field("chip", c.id).field("model", c.model);
        w.field("dark", c.dark);
        w.field("routed", c.routed);
        w.field("rerouted", c.rerouted);
        w.field("drained", c.drained);
        if (r.reliabilityActive)
            w.field("hedged", c.hedged).field("sdc", c.sdc);
        serve::writeFields(w, c.serve);
        w.endObject();
    }
    w.endArray();
}

std::string
toJson(const PodReport &r)
{
    JsonWriter w;
    writeFields(w.beginObject(), r);
    return w.endObject().take();
}

PodRuntime::PodRuntime(std::vector<PodWorkload> workloads,
                       arch::HwConfig hw,
                       core::SchedulerConfig sched_cfg,
                       core::ExecPolicy policy, PodConfig cfg)
    : workloads_(std::move(workloads)), hw_(hw),
      schedCfg_(sched_cfg), policy_(policy), cfg_(std::move(cfg))
{
    serve::validateServeConfig(cfg_.serve);
    if (!cfg_.serve.faultPlan.empty())
        ADYNA_FATAL("PodConfig.serve.faultPlan is not supported — "
                    "configure the pod-scope PodConfig.faultPlan or "
                    "the per-chip PodConfig.chipFaultPlans instead");
    ADYNA_ASSERT(cfg_.chips >= 1, "a pod needs >= 1 chip (got ",
                 cfg_.chips, ")");
    ADYNA_ASSERT(!workloads_.empty(), "a pod needs >= 1 workload");
    double fracSum = 0.0;
    for (std::size_t m = 0; m < workloads_.size(); ++m) {
        const PodWorkload &w = workloads_[m];
        ADYNA_ASSERT(w.dg != nullptr, "pod workload ", m,
                     ": PodWorkload.dg must be set");
        ADYNA_ASSERT(
            w.traceCfg.batchSize ==
                static_cast<std::int64_t>(
                    cfg_.serve.batching.maxBatch),
            "pod workload \"", w.name,
            "\": the workload graph must be compiled at the "
            "batcher's maxBatch (got trace batchSize ",
            w.traceCfg.batchSize, " vs maxBatch ",
            cfg_.serve.batching.maxBatch, ")");
        ADYNA_ASSERT(w.trafficFraction > 0.0, "pod workload \"",
                     w.name, "\": trafficFraction must be > 0");
        fracSum += w.trafficFraction;
    }
    ADYNA_ASSERT(fracSum > 0.99 && fracSum < 1.01,
                 "pod traffic fractions must sum to 1, got ",
                 fracSum);
    if (cfg_.placement == Placement::Replicated)
        ADYNA_ASSERT(workloads_.size() == 1,
                     "replicated placement serves one model (got ",
                     workloads_.size(), ")");
    else
        ADYNA_ASSERT(
            cfg_.chips >= static_cast<int>(workloads_.size()),
            "partitioned placement needs >= 1 chip per model (",
            workloads_.size(), " models on ", cfg_.chips, " chips)");
    ADYNA_ASSERT(!cfg_.serve.admissionControl,
                 "per-chip admissionControl must be off in a pod: "
                 "the router's queueLimit is the pod's admission "
                 "backpressure");
    for (const fault::FaultEvent &ev : cfg_.faultPlan.events) {
        ADYNA_ASSERT(fault::podScopeFault(ev.kind),
                     "the pod fault plan is pod scope: only "
                     "chip_fail / chip_slow / link_flaky / "
                     "payload_corrupt events allowed (put ",
                     fault::faultKindName(ev.kind),
                     " into chipFaultPlans)");
        if (ev.kind != fault::FaultKind::PayloadCorrupt)
            ADYNA_ASSERT(ev.chip >= 0 && ev.chip < cfg_.chips,
                         fault::faultKindName(ev.kind),
                         " targets chip ", ev.chip, " of a ",
                         cfg_.chips, "-chip pod");
    }
    ADYNA_ASSERT(cfg_.chipFaultPlans.empty() ||
                     cfg_.chipFaultPlans.size() ==
                         static_cast<std::size_t>(cfg_.chips),
                 "chipFaultPlans must be empty or hold one plan per "
                 "chip (got ",
                 cfg_.chipFaultPlans.size(), " for ", cfg_.chips,
                 " chips)");
    ADYNA_ASSERT(!(cfg_.reliability.hedging &&
                   !cfg_.router.reRouteOnFailure),
                 "hedging needs the adaptive router "
                 "(reRouteOnFailure): static pinning has no "
                 "next-best chip to hedge onto");

    // Model -> chip-group assignment. Replicated: every chip serves
    // model 0. Partitioned: contiguous groups, one chip minimum,
    // remaining chips to the models with the largest unmet ideal
    // share (frac * chips) — deterministic, ties to the lowest model.
    chipModel_.assign(static_cast<std::size_t>(cfg_.chips), 0);
    if (cfg_.placement == Placement::Partitioned) {
        const std::size_t m = workloads_.size();
        std::vector<int> counts(m, 1);
        int remaining = cfg_.chips - static_cast<int>(m);
        while (remaining-- > 0) {
            std::size_t pick = 0;
            double bestDeficit = -1.0;
            for (std::size_t i = 0; i < m; ++i) {
                const double deficit =
                    workloads_[i].trafficFraction * cfg_.chips -
                    counts[i];
                if (deficit > bestDeficit) {
                    bestDeficit = deficit;
                    pick = i;
                }
            }
            ++counts[pick];
        }
        int next = 0;
        for (std::size_t i = 0; i < m; ++i)
            for (int c = 0; c < counts[i]; ++c)
                chipModel_[static_cast<std::size_t>(next++)] =
                    static_cast<int>(i);
    }
}

PodReport
PodRuntime::run()
{
    const int K = cfg_.chips;
    const auto kNever = serve::Batcher::kNever;

    core::CacheContext ctx(hw_, sharedMapper_, sharedStoreCache_);

    Interconnect ic(cfg_.interconnect, K);
    Router router(cfg_.router, K);

    /** Charge one chip-boundary payload on the interconnect; returns
     * its delivery tick. A 1-chip pod has no fabric: nothing crosses
     * a chip boundary, so every payload lands when it is sent. */
    const auto hop = [&](int c, bool inbound, Tick when, Bytes bytes,
                         PayloadClass cls) {
        return K == 1 ? when : ic.transfer(c, inbound, when, bytes, cls);
    };

    const std::uint64_t faultSeedBase = cfg_.serve.seed ^ fault::kSeedSalt;

    // ---- reliability layer setup (DESIGN.md §15) -------------------
    // Gray-failure kinds replay as stateless [start, end) spans — a
    // chip_slow span dilates that chip's execution, link_flaky /
    // payload_corrupt spans arm the interconnect's per-attempt fault
    // draws — instead of entering the stateful chip_fail timeline.
    const ReliabilityConfig &rel = cfg_.reliability;
    constexpr Tick kForever = ~Tick{0};
    struct SlowSpan
    {
        Tick start;
        Tick end;
        double factor;
    };
    std::vector<std::vector<SlowSpan>> slowSpans(
        static_cast<std::size_t>(K));
    bool grayActive = false;
    {
        std::vector<std::vector<UnreliableWindow>> flakyWin(
            static_cast<std::size_t>(K));
        std::vector<UnreliableWindow> corruptWin;
        for (const fault::FaultEvent &ev : cfg_.faultPlan.events) {
            if (ev.kind == fault::FaultKind::ChipFail)
                continue;
            grayActive = true;
            const Tick end =
                ev.duration > 0 && ev.at <= kForever - ev.duration
                    ? ev.at + ev.duration
                    : kForever;
            if (ev.kind == fault::FaultKind::ChipSlow)
                slowSpans[static_cast<std::size_t>(ev.chip)]
                    .push_back({ev.at, end, ev.factor});
            else if (ev.kind == fault::FaultKind::LinkFlaky)
                flakyWin[static_cast<std::size_t>(ev.chip)]
                    .push_back({ev.at, end, ev.factor});
            else
                corruptWin.push_back({ev.at, end, ev.factor});
        }
        for (int c = 0; c < K; ++c)
            if (!flakyWin[static_cast<std::size_t>(c)].empty())
                ic.setFlakyWindows(
                    c, std::move(
                           flakyWin[static_cast<std::size_t>(c)]));
        if (!corruptWin.empty())
            ic.setCorruptWindows(std::move(corruptWin));
    }
    ic.setChecksums(rel.checksums);
    ic.setSeed(faultSeedBase ^ 0xa0761d6478bd642fULL);

    /** Clock-dilation factor of chip @p c at tick @p t (1 = healthy;
     * overlapping chip_slow spans take the worst). */
    const auto slowFactorAt = [&](int c, Tick t) {
        double f = 1.0;
        for (const SlowSpan &sp :
             slowSpans[static_cast<std::size_t>(c)])
            if (t >= sp.start && t < sp.end)
                f = std::max(f, sp.factor);
        return f;
    };

    const bool haveBreakers = rel.breaker;
    std::vector<CircuitBreaker> breakers;
    if (haveBreakers)
        breakers.assign(static_cast<std::size_t>(K),
                        CircuitBreaker(rel.breakerCfg));
    std::vector<std::uint64_t> sdcSeen(static_cast<std::size_t>(K),
                                       0);

    /** Feed newly checksum-detected corruptions on chip @p c's links
     * into its breaker's SDC counter. */
    const auto feedSdc = [&](int c, Tick t) {
        if (!haveBreakers || !rel.checksums)
            return;
        const std::uint64_t seen = ic.sdcDetected(c);
        auto &fed = sdcSeen[static_cast<std::size_t>(c)];
        while (fed < seen) {
            breakers[static_cast<std::size_t>(c)].recordSdc(t);
            ++fed;
        }
    };

    /** Hedge / timeout bookkeeping is live (outstanding table +
     * timer heap). */
    const bool relTracking =
        rel.hedging || rel.timeoutDeadlineFactor > 0.0;
    const bool relActive = relTracking || haveBreakers ||
                           rel.checksums || grayActive;

    const double deadlineTicks =
        cfg_.serve.slo.deadlineMs * 1e-3 * hw_.tech.freqGhz * 1e9;
    const Tick timeoutTicks =
        rel.timeoutDeadlineFactor > 0.0
            ? static_cast<Tick>(std::llround(
                  rel.timeoutDeadlineFactor * deadlineTicks))
            : 0;

    // ---- per-chip back-ends ----------------------------------------
    std::vector<std::unique_ptr<ChipBackend>> chips;
    chips.reserve(static_cast<std::size_t>(K));
    for (int c = 0; c < K; ++c) {
        const int model = chipModel_[static_cast<std::size_t>(c)];
        // A 1-chip pod's one back-end takes the serving seed itself,
        // so its probe streams are ServeRuntime's (the K = 1 identity).
        const std::uint64_t chipSeed =
            K == 1 ? cfg_.serve.seed
                   : cfg_.serve.seed ^
                         (0x6a09e667f3bcc909ULL *
                          static_cast<std::uint64_t>(c + 1));
        chips.push_back(std::make_unique<ChipBackend>(
            c, model, workloads_[static_cast<std::size_t>(model)],
            chipSeed, hw_, schedCfg_, policy_, cfg_.serve, ctx));
        ChipBackend &b = *chips.back();
        if (!cfg_.chipFaultPlans.empty() &&
            !cfg_.chipFaultPlans[static_cast<std::size_t>(c)]
                 .empty()) {
            b.injector.emplace(
                cfg_.chipFaultPlans[static_cast<std::size_t>(c)],
                faultSeedBase ^ (0x2545f4914f6cdd1dULL *
                                 static_cast<std::uint64_t>(c)));
            b.backend.setFaultInjector(&*b.injector);
        }
    }

    // ---- per-chip bring-up: profiling, drift reference, first
    // schedule, initial weight stream over the interconnect ----------
    for (auto &bp : chips) {
        ChipBackend &b = *bp;
        b.backend.bringUp();
        // The model's weight working set streams in over the chip's
        // ingress link before it can serve (all chips in parallel —
        // each has its own link).
        b.backend.delayUntil(
            hop(b.id, true, 0, b.weightBytes, PayloadClass::Weights));
    }

    // ---- pod front-end ---------------------------------------------
    std::vector<serve::SourceModel> served;
    for (const PodWorkload &w : workloads_)
        served.push_back({w.dg, w.traceCfg, w.trafficFraction});
    serve::OpenLoopSource source(served, hw_, cfg_.serve,
                                 cfg_.serve.seed);
    serve::SloTracker podSlo(cfg_.serve.slo, hw_.tech.freqGhz);

    const auto total =
        static_cast<std::uint64_t>(cfg_.serve.numRequests);
    std::uint64_t completed = 0;
    std::uint64_t shedFront = 0;    ///< router shed (no chip / full)
    std::uint64_t darkChipSheds = 0;
    std::uint64_t reroutedTotal = 0;
    std::uint64_t drainedTotal = 0;
    std::uint64_t chipFailEvents = 0;
    std::uint64_t chipHeals = 0;

    // The pod arrival tick and model of every issued request, by id
    // (ids are dense). Re-routed requests keep their id, so their
    // end-to-end latency stays anchored at the original arrival.
    std::vector<Tick> podArrivalOf(total, 0);
    std::vector<int> modelOf(total, 0);

    std::vector<PodFaultEvent> podFaults =
        podFaultTimeline(cfg_.faultPlan);
    std::size_t podFaultCursor = 0;

    // ---- hedge / timeout state -------------------------------------
    /** Where the (up to two) live copies of an outstanding request
     * sit; -1 = no copy in that slot. First completion wins. */
    struct Outstanding
    {
        bool done = false;
        int chipA = -1; ///< primary copy
        int chipB = -1; ///< hedge copy (or a re-routed second slot)
        int copies() const
        {
            return (chipA >= 0 ? 1 : 0) + (chipB >= 0 ? 1 : 0);
        }
    };
    std::vector<Outstanding> outs;
    if (relTracking)
        outs.resize(total);
    /** Routing draw of every issued request, retained so a hedge can
     * re-issue an identical copy. */
    std::vector<trace::BatchRouting> routingOf;
    if (rel.hedging)
        routingOf.resize(total);
    /** Pending (tick, id, kind) timers, min-heap; kind 0 = hedge
     * trigger, 1 = timeout. */
    using TimerEv = std::tuple<Tick, std::uint64_t, int>;
    std::priority_queue<TimerEv, std::vector<TimerEv>,
                        std::greater<TimerEv>>
        timers;
    /** Recent completed pod latencies (ticks) feeding the hedge
     * trigger quantile. */
    std::deque<double> latWin;
    PodReliabilityStats relStats;
    /** Next health-probe round (breaker heartbeat). Probes piggyback
     * on the event loop and never extend the run: once arrivals,
     * queues, deliveries, and timers are all exhausted the pod stops
     * pinging too. */
    Tick nextProbe = rel.probeIntervalCycles;

    /** The hedge trigger delay for a request arriving now: the
     * kHedgeQuantile of recent completed latencies, clamped into
     * [min, max] fractions of the SLO deadline. */
    const auto hedgeDelayTicks = [&]() -> Tick {
        const double lo =
            rel.hedgeMinDeadlineFraction * deadlineTicks;
        const double hi =
            rel.hedgeMaxDeadlineFraction * deadlineTicks;
        double d = hi;
        if (!latWin.empty()) {
            std::vector<double> tmp(latWin.begin(), latWin.end());
            const auto k = static_cast<std::size_t>(
                kHedgeQuantile * static_cast<double>(tmp.size() - 1));
            std::nth_element(tmp.begin(),
                             tmp.begin() +
                                 static_cast<std::ptrdiff_t>(k),
                             tmp.end());
            d = tmp[k];
        }
        d = std::clamp(d, lo, std::max(lo, hi));
        return static_cast<Tick>(std::llround(d));
    };

    /** Route-time status snapshot of every chip. */
    const auto statuses = [&](int model, Tick now) {
        std::vector<ChipStatus> st(static_cast<std::size_t>(K));
        for (int c = 0; c < K; ++c) {
            const ChipBackend &b = *chips[static_cast<std::size_t>(c)];
            ChipStatus &s = st[static_cast<std::size_t>(c)];
            s.alive = !b.dark;
            s.servesModel = b.model == model;
            const serve::Backend &be = b.backend;
            s.queued = be.batcher().queued() + b.inflight.size();
            const double backlog =
                be.engineFree() > now
                    ? static_cast<double>(be.engineFree() - now)
                    : 0.0;
            // Before the first completion there is no service
            // estimate; charge one tick per queued request so equal
            // bring-up backlogs (every chip streaming weights in
            // parallel) still tie-break on queue depth instead of
            // funnelling the whole cold-start burst to chip 0.
            const double perRequest =
                be.haveService() ? be.serviceEwma() /
                                       cfg_.serve.batching.maxBatch
                                 : 1.0;
            s.load = backlog + static_cast<double>(s.queued) *
                                   perRequest;
            s.installedLoadMean = be.installedLoadMean();
            s.admittable =
                !haveBreakers ||
                breakers[static_cast<std::size_t>(c)].admits(now);
        }
        return st;
    };

    /** Deliver one routed request onto a chip over the
     * interconnect. */
    const auto deliverTo = [&](int c, serve::Request r, Tick when,
                               bool is_reroute, bool is_hedge) {
        ChipBackend &b = *chips[static_cast<std::size_t>(c)];
        const Tick delivered =
            hop(c, true, when, kRequestBytes, PayloadClass::Request);
        const std::uint64_t id = r.id;
        r.arrival = delivered;
        b.inflight.push_back(std::move(r));
        ++b.routed;
        if (is_reroute) {
            ++b.rerouted;
            ++reroutedTotal;
        }
        if (is_hedge)
            ++b.hedged;
        if (relTracking) {
            Outstanding &o = outs[id];
            if (is_hedge || o.chipA >= 0)
                o.chipB = c;
            else
                o.chipA = c;
        }
        if (!b.haveArrival) {
            b.firstArrival = delivered;
            b.haveArrival = true;
        }
        b.lastArrival = delivered;
    };

    /**
     * Cancel the copy of request @p id living on chip @p c — erase
     * it from the admission queue or the in-flight deque. False when
     * the copy is already inside a formed batch (an executing loser:
     * its completion is wasted work, not cancellable).
     */
    const auto cancelCopy = [&](std::uint64_t id, int c) {
        ChipBackend &b = *chips[static_cast<std::size_t>(c)];
        Outstanding &o = outs[id];
        if (o.chipA == c)
            o.chipA = -1;
        else if (o.chipB == c)
            o.chipB = -1;
        if (b.backend.batcher().cancel(id))
            return true;
        for (auto it = b.inflight.begin(); it != b.inflight.end();
             ++it) {
            if (it->id == id) {
                b.inflight.erase(it);
                return true;
            }
        }
        return false;
    };

    /** Move every in-flight request delivered by @p up_to into the
     * chip's admission queue. */
    const auto flushDeliveries = [](ChipBackend &b, Tick up_to) {
        bool any = false;
        while (!b.inflight.empty() &&
               b.inflight.front().arrival <= up_to) {
            b.backend.batcher().enqueue(std::move(b.inflight.front()));
            b.inflight.pop_front();
            any = true;
        }
        return any;
    };

    /** Draw, route, and deliver (or shed) the next pod arrival. */
    const auto routeArrival = [&]() {
        auto [r, model] = source.next();
        const Tick at = r.arrival;
        podArrivalOf[r.id] = at;
        modelOf[r.id] = model;
        if (rel.hedging)
            routingOf[r.id] = r.routing;
        const double sig = static_cast<double>(trace::totalDynLoad(
            *workloads_[static_cast<std::size_t>(model)].dg,
            r.routing));
        const RouteDecision dec =
            router.route(statuses(model, at), sig);
        if (dec.chip == RouteDecision::kShed) {
            ++shedFront;
            if (relTracking)
                outs[r.id].done = true;
        } else if (chips[static_cast<std::size_t>(dec.chip)]->dark) {
            // Static pinning dispatched onto a dark chip: the
            // request is lost (brownout, not collapse).
            ++darkChipSheds;
            if (relTracking)
                outs[r.id].done = true;
        } else {
            const std::uint64_t id = r.id;
            deliverTo(dec.chip, std::move(r), at, false, false);
            if (rel.hedging)
                timers.push({at + hedgeDelayTicks(), id, 0});
            if (timeoutTicks > 0)
                timers.push({at + timeoutTicks, id, 1});
        }
    };

    /** Apply every pod-scope chip_fail strike / heal due at or
     * before @p up_to. A strike drains the dark chip's queue and
     * re-routes it onto the survivors (adaptive) or sheds it
     * (static pinning); a heal re-streams the weight working set
     * over the interconnect before the chip rejoins. */
    const auto applyPodFaults = [&](Tick up_to) {
        bool any = false;
        while (podFaultCursor < podFaults.size() &&
               podFaults[podFaultCursor].at <= up_to) {
            const PodFaultEvent &ev = podFaults[podFaultCursor];
            ChipBackend &b =
                *chips[static_cast<std::size_t>(ev.chip)];
            if (!ev.recover && !b.dark) {
                b.dark = true;
                ++chipFailEvents;
                std::vector<serve::Request> drained =
                    b.backend.batcher().drain();
                for (serve::Request &r : b.inflight)
                    drained.push_back(std::move(r));
                b.inflight.clear();
                b.drained += drained.size();
                drainedTotal += drained.size();
                for (serve::Request &r : drained) {
                    if (relTracking) {
                        Outstanding &o = outs[r.id];
                        if (o.chipA == ev.chip)
                            o.chipA = -1;
                        else if (o.chipB == ev.chip)
                            o.chipB = -1;
                        if (o.done)
                            continue;
                        if (o.copies() > 0) {
                            // A hedged twin still lives elsewhere:
                            // this copy never runs, so it counts as
                            // the hedge's cancelled loser.
                            ++relStats.hedgeCancelled;
                            continue;
                        }
                    }
                    if (!cfg_.router.reRouteOnFailure) {
                        ++darkChipSheds;
                        if (relTracking)
                            outs[r.id].done = true;
                        continue;
                    }
                    const int model = modelOf[r.id];
                    const double sig =
                        static_cast<double>(trace::totalDynLoad(
                            *workloads_[static_cast<std::size_t>(
                                            model)]
                                 .dg,
                            r.routing));
                    const RouteDecision dec =
                        router.route(statuses(model, ev.at), sig);
                    if (dec.chip == RouteDecision::kShed ||
                        chips[static_cast<std::size_t>(dec.chip)]
                            ->dark) {
                        ++shedFront;
                        if (relTracking)
                            outs[r.id].done = true;
                    } else {
                        deliverTo(dec.chip, std::move(r), ev.at,
                                  true, false);
                    }
                }
            } else if (ev.recover && b.dark) {
                b.dark = false;
                ++chipHeals;
                b.backend.delayUntil(hop(ev.chip, true, ev.at,
                                         b.weightBytes,
                                         PayloadClass::Weights));
            }
            ++podFaultCursor;
            any = true;
        }
        return any;
    };

    // ---- the pod serving loop --------------------------------------
    for (;;) {
        // The next pod event horizon: the earliest dispatch moment
        // across the live chips with admitted work (lowest id wins
        // ties — deterministic), or the earliest pending
        // interconnect delivery, whichever comes first. Dispatch
        // moments only consider *delivered* requests; a request
        // still crossing the interconnect cannot shorten them, so no
        // batch ever forms before its members physically arrive.
        Tick best = kNever;
        int bestIdx = -1;
        Tick nextDelivery = kNever;
        for (int c = 0; c < K; ++c) {
            ChipBackend &b = *chips[static_cast<std::size_t>(c)];
            if (b.dark)
                continue;
            if (!b.inflight.empty())
                nextDelivery = std::min(
                    nextDelivery, b.inflight.front().arrival);
            const Tick d = b.backend.nextDispatch();
            if (d < best) {
                best = d;
                bestIdx = c;
            }
        }
        // Drop timers of already-settled requests lazily, then fold
        // the earliest live timer into the horizon.
        Tick nextTimer = kNever;
        while (!timers.empty()) {
            const TimerEv &top = timers.top();
            if (outs[std::get<1>(top)].done) {
                timers.pop();
                continue;
            }
            nextTimer = std::get<0>(top);
            break;
        }
        const Tick horizon =
            std::min({best, nextDelivery, nextTimer});

        // Route every pod arrival due by the horizon (or the next
        // arrival alone when the pod is idle — it defines the
        // clock), then re-pick.
        bool routedAny = false;
        if (source.pending()) {
            if (horizon == kNever) {
                routeArrival();
                routedAny = true;
            } else {
                while (source.pending() &&
                       source.nextArrival() <= horizon) {
                    routeArrival();
                    routedAny = true;
                }
            }
        }
        if (routedAny)
            continue;
        if (horizon == kNever)
            break; // no queues, no deliveries, no arrivals: done

        // Pod-scope chip faults due by the horizon strike before
        // anything else moves; they change the picture, so re-pick.
        if (applyPodFaults(horizon))
            continue;

        // Health-probe rounds due by the horizon ping every chip and
        // feed the breakers. The probe measures the chip-side service
        // component (what a straggler dilates), not the full round
        // trip — propagation latency would mask the dilation — and it
        // samples the slow factor at the ping's nominal arrival
        // (probe tick + propagation): arrivals are pipeline-routed up
        // to the event horizon, so the FIFO ingress link can already
        // hold future-timestamped request payloads that would push
        // the probe's delivery tick far past the window it is meant
        // to observe. Both transfer legs are still costed on the
        // interconnect.
        if (haveBreakers && nextProbe <= horizon) {
            const Tick at = nextProbe;
            for (int c = 0; c < K; ++c) {
                ChipBackend &b = *chips[static_cast<std::size_t>(c)];
                ++relStats.probes;
                if (b.dark) {
                    breakers[static_cast<std::size_t>(c)].recordPing(
                        at, 0.0, false);
                    ++relStats.probeFailures;
                    continue;
                }
                const Tick in = hop(c, true, at, kProbePayloadBytes,
                                    PayloadClass::Probe);
                const double service =
                    static_cast<double>(kProbeServiceCycles) *
                    slowFactorAt(
                        c, at + cfg_.interconnect.latencyCycles);
                hop(c, false,
                    in + static_cast<Tick>(std::llround(service)),
                    kProbePayloadBytes, PayloadClass::Probe);
                feedSdc(c, at);
                breakers[static_cast<std::size_t>(c)].recordPing(
                    at, service, true);
            }
            nextProbe = at + rel.probeIntervalCycles;
            continue;
        }

        // Hedge / timeout timers due by the horizon fire next.
        bool firedAny = false;
        while (!timers.empty() &&
               std::get<0>(timers.top()) <= horizon) {
            const auto [at, id, kind] = timers.top();
            timers.pop();
            Outstanding &o = outs[id];
            if (o.done)
                continue;
            firedAny = true;
            if (kind == 1) {
                // Deadline timeout: give up on the request and
                // cancel whatever copies have not started executing.
                o.done = true;
                ++relStats.timeouts;
                if (o.chipA >= 0)
                    cancelCopy(id, o.chipA);
                if (o.chipB >= 0)
                    cancelCopy(id, o.chipB);
                continue;
            }
            // Hedge trigger: the request is still outstanding past
            // the latency-percentile delay — issue one duplicate on
            // the best other chip (idempotent: first completion
            // wins, the loser is cancelled or discarded).
            if (o.copies() != 1)
                continue;
            const int holder = o.chipA >= 0 ? o.chipA : o.chipB;
            const int model = modelOf[id];
            const auto st = statuses(model, at);
            int target = -1;
            for (int c = 0; c < K; ++c) {
                if (c == holder)
                    continue;
                const ChipStatus &s =
                    st[static_cast<std::size_t>(c)];
                if (!s.alive || !s.servesModel || !s.admittable)
                    continue;
                if (cfg_.router.queueLimit != 0 &&
                    s.queued >= cfg_.router.queueLimit)
                    continue;
                if (target < 0 ||
                    s.load <
                        st[static_cast<std::size_t>(target)].load)
                    target = c;
            }
            if (target < 0)
                continue; // nowhere to hedge onto
            // Graceful brownout: a hedge whose projected completion
            // (queue + interconnect + service estimate) already misses
            // the deadline is wasted interconnect + compute — account
            // and skip it.
            const serve::Backend &tb =
                chips[static_cast<std::size_t>(target)]->backend;
            const double perReq =
                tb.haveService()
                    ? tb.serviceEwma() / cfg_.serve.batching.maxBatch
                    : 0.0;
            const double projected =
                static_cast<double>(at) +
                st[static_cast<std::size_t>(target)].load + perReq;
            if (projected >
                static_cast<double>(podArrivalOf[id]) + deadlineTicks) {
                ++relStats.brownoutSheds;
                continue;
            }
            serve::Request copy;
            copy.id = id;
            copy.routing = routingOf[id];
            deliverTo(target, std::move(copy), at, false, true);
            ++relStats.hedges;
        }
        if (firedAny)
            continue;

        // Interconnect deliveries due by the horizon land next;
        // admitted work can move dispatch moments, so re-pick.
        bool flushedAny = false;
        for (int c = 0; c < K; ++c)
            flushedAny |= flushDeliveries(
                *chips[static_cast<std::size_t>(c)], horizon);
        if (flushedAny)
            continue;

        // Nothing pending before it: dispatch the best chip.
        ChipBackend &b = *chips[static_cast<std::size_t>(bestIdx)];

        // Per-chip (tile-scope) faults replay on the chip's own
        // clock with the single-chip fail-over path.
        if (b.injector && b.injector->advanceTo(best, b.chip) &&
            cfg_.serve.failover && !schedCfg_.worstCase &&
            b.backend.failover(b.chip.healthyTiles(), best))
            continue; // re-pick against the new engine-free time

        // ---- dispatch the chosen chip ------------------------------
        // A chip_slow span dilates the chip's clock (see
        // Backend::dispatch).
        const serve::Backend::Dispatch d = b.backend.dispatch(
            b.chip, best, slowFactorAt(bestIdx, best));
        for (std::size_t bi = 0; bi < d.formed.size(); ++bi) {
            for (const serve::Request &r : d.formed[bi].requests) {
                if (relTracking) {
                    Outstanding &o = outs[r.id];
                    if (o.done) {
                        // A hedged twin (or a timeout) already
                        // settled this request: the batch slot it
                        // occupied is pure wasted work.
                        ++relStats.wastedCompletions;
                        continue;
                    }
                    o.done = true;
                    if (o.chipB >= 0 && bestIdx == o.chipB)
                        ++relStats.hedgeWins;
                    const int other =
                        bestIdx == o.chipA ? o.chipB : o.chipA;
                    if (other >= 0 && cancelCopy(r.id, other))
                        ++relStats.hedgeCancelled;
                }
                // The response serializes back over the chip's
                // egress link; end-to-end latency is pod arrival to
                // response delivery.
                const Tick respTick =
                    hop(bestIdx, false, d.result.batchEnds[bi],
                        kResponseBytes, PayloadClass::Response);
                feedSdc(bestIdx, respTick);
                podSlo.record(podArrivalOf[r.id], best, respTick);
                if (rel.hedging) {
                    latWin.push_back(static_cast<double>(
                        respTick - podArrivalOf[r.id]));
                    while (latWin.size() > kHedgeWindow)
                        latWin.pop_front();
                }
                ++completed;
                b.backend.complete(r.routing, podArrivalOf[r.id], best,
                                   respTick);
            }
        }
    }

    // ---- report -----------------------------------------------------
    PodReport report;
    report.policy = routePolicyName(cfg_.router.policy);
    report.placement = placementName(cfg_.placement);
    report.chipCount = K;
    report.requests = completed;
    report.shedRequests = shedFront;
    report.darkChipSheds = darkChipSheds;
    report.rerouted = reroutedTotal;
    report.drained = drainedTotal;
    report.diverted = router.diverted();
    report.affinityHits = router.affinityHits();
    report.affinityMisses = router.affinityMisses();
    report.chipFailEvents = chipFailEvents;
    report.chipHeals = chipHeals;
    report.icTransfers = ic.transfers();
    report.icRequestBytes = ic.requestBytes();
    report.icResponseBytes = ic.responseBytes();
    report.icWeightBytes = ic.weightBytes();
    report.reliabilityActive = relActive;
    for (const CircuitBreaker &brk : breakers) {
        relStats.breakerTrips += brk.trips();
        relStats.breakerReopens += brk.reopens();
        relStats.breakerCloses += brk.closes();
    }
    relStats.linkRetries = ic.linkRetries();
    relStats.integrityRetries = ic.integrityRetries();
    relStats.corruptionsInjected = ic.corruptionsInjected();
    relStats.corruptionsDetected = ic.corruptionsDetected();
    relStats.corruptionsUndetected = ic.corruptionsUndetected();
    relStats.icProbeBytes = ic.probeBytes();
    relStats.icRetryBytes = ic.retryBytes();
    report.reliability = relStats;
    const double tickSec = 1.0 / (hw_.tech.freqGhz * 1e9);
    report.offeredRps = source.offeredRps();
    report.horizonTicks = podSlo.lastEnd();
    if (report.horizonTicks > 0)
        report.achievedRps =
            static_cast<double>(completed) /
            (static_cast<double>(report.horizonTicks) * tickSec);
    report.p50Ms = podSlo.latencyPercentileMs(0.50);
    report.p95Ms = podSlo.latencyPercentileMs(0.95);
    report.p99Ms = podSlo.latencyPercentileMs(0.99);
    report.sloAttainment = podSlo.sloAttainment();
    report.goodputRps = podSlo.goodputRps(report.horizonTicks);

    ADYNA_ASSERT(report.requests + report.shedRequests +
                         report.darkChipSheds + relStats.timeouts ==
                     total,
                 "pod request accounting: ", report.requests,
                 " completed + ", report.shedRequests, " shed + ",
                 report.darkChipSheds, " dark-chip sheds + ",
                 relStats.timeouts, " timeouts != ", total);
    // Exactly-once hedging: each hedge's losing copy is cancelled
    // before it runs or completes as a discarded duplicate. A timeout
    // cancels copies too, so the identity holds only without them.
    ADYNA_ASSERT(rel.timeoutDeadlineFactor > 0.0 ||
                     relStats.hedgeCancelled +
                             relStats.wastedCompletions ==
                         relStats.hedges,
                 "hedge accounting: ", relStats.hedgeCancelled,
                 " cancelled + ", relStats.wastedCompletions,
                 " wasted != ", relStats.hedges, " hedges");

    const bool podFaultActive = !cfg_.faultPlan.empty();
    for (int c = 0; c < K; ++c) {
        ChipBackend &b = *chips[static_cast<std::size_t>(c)];
        serve::ServeReport r = b.backend.report(b.chip);
        if (b.routed > 1 && b.lastArrival > b.firstArrival)
            r.offeredRps = static_cast<double>(b.routed - 1) /
                           (static_cast<double>(b.lastArrival -
                                                b.firstArrival) *
                            tickSec);
        // Per-chip admission control is off in a pod (asserted at
        // construction), so only the pod-scope plan adds to faultActive.
        r.faultActive = r.faultActive || podFaultActive;

        ChipResult cr;
        cr.id = b.id;
        cr.model = r.workload;
        cr.dark = b.dark;
        cr.routed = b.routed;
        cr.rerouted = b.rerouted;
        cr.drained = b.drained;
        cr.hedged = b.hedged;
        cr.sdc = ic.sdcDetected(c);
        cr.serve = std::move(r);
        report.chips.push_back(std::move(cr));
    }
    return report;
}

} // namespace adyna::pod
