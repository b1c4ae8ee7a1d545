#include <algorithm>
#include <vector>

#include "arch/chip.hh"
#include "baselines/designs.hh"
#include "core/engine.hh"
#include "core/scheduler.hh"
#include "costmodel/mapper.hh"
#include "kernels/store_cache.hh"
#include "search/search.hh"
#include "workloads.hh"
#include "workloads_common.hh"

namespace perfbench {

using namespace adyna;
using baselines::Design;

namespace {

/** Time @p n calls of @p gen.next() under one span, ms. */
double
timeDraws(trace::TraceGenerator &gen, int n, const char *span_name,
          SpanLog &spans)
{
    ScopedSpan span(spans, span_name, -1);
    const double t0 = nowMs();
    for (int i = 0; i < n; ++i)
        (void)gen.next();
    const double ms = nowMs() - t0;
    span.counter("draws", n);
    return ms;
}

/** Median host ms of @p reps calls of @p fn, each under a span. */
template <typename Fn>
double
medianMs(int reps, const char *span_name, SpanLog &spans, Fn &&fn)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        ScopedSpan span(spans, span_name, -1);
        const double t0 = nowMs();
        fn();
        ms.push_back(nowMs() - t0);
    }
    return median(std::move(ms));
}

} // namespace

ProbeCosts
runProbe(const ProbeSpec &spec, std::uint64_t seed, Scale scale,
         SpanLog &spans, Metrics &out)
{
    const bool tiny = scale == Scale::Tiny;
    const int requestDraws = tiny ? 50 : 2000;
    const int batchDraws = tiny ? 4 : 100;
    const int buildReps = tiny ? 1 : 5;
    const auto schedCfg = baselines::schedulerConfig(Design::Adyna);
    const auto policy = baselines::execPolicy(Design::Adyna);

    ProbeCosts costs;
    double reqMs = 0, reqN = 0, batchMs = 0, batchN = 0, draws = 0;
    double coldMs = 0, warmMs = 0, deltaMs = 0, segments = 0,
           rebuilt = 0;
    double engineMs = 0, engineBatches = 0, execHits = 0,
           execMisses = 0;
    double byteHops = 0, linkBusy = 0, hbmBytes = 0, liveMax = 0;
    double searchMs = 0, improved = 0, exhausted = 0;
    core::SearchStats searchStats;

    for (std::size_t i = 0; i < spec.models.size(); ++i) {
        const ProbeModel &pm = spec.models[i];
        const graph::DynGraph &dg = *pm.dg;
        ScopedSpan probeSpan(spans, "probe." + pm.name, -1);
        const std::uint64_t mseed = deriveSeed(seed, 1000 + i);

        // ---- trace: request draws and batch draws ------------------
        trace::TraceConfig reqCfg = pm.trace;
        reqCfg.batchSize = 1;
        trace::TraceGenerator reqGen(dg, reqCfg, mseed);
        const double rMs =
            timeDraws(reqGen, requestDraws, "trace.next.request", spans);
        trace::TraceGenerator gen(dg, pm.trace, deriveSeed(mseed, 1));
        const double bMs =
            timeDraws(gen, batchDraws, "trace.next.batch", spans);
        costs.usPerRequestDraw.push_back(rMs * 1e3 / requestDraws);
        costs.usPerBatchDraw.push_back(bMs * 1e3 / batchDraws);
        reqMs += rMs;
        reqN += requestDraws;
        batchMs += bMs;
        batchN += batchDraws;

        // ---- build inputs, made as the reschedule workload makes them
        const BuildInputs in =
            profileInputs(dg, pm.trace, deriveSeed(mseed, 2), 8);
        costmodel::Mapper mapper(kHw.tech);
        kernels::KernelStoreCache cache;
        core::Scheduler sched(dg, kHw, mapper, schedCfg);
        sched.setStoreCache(&cache);

        // ---- scheduler: cold, warm, one-op delta -------------------
        coldMs += medianMs(buildReps, "core.scheduler.build.cold", spans,
                           [&] {
                               costmodel::Mapper m(kHw.tech);
                               kernels::KernelStoreCache c;
                               core::Scheduler s(dg, kHw, m, schedCfg);
                               s.setStoreCache(&c);
                               (void)s.build(in.expectations,
                                             in.kernelValues,
                                             &in.profiler);
                           });
        const core::Schedule base =
            sched.build(in.expectations, in.kernelValues, &in.profiler);
        segments += static_cast<double>(base.segments.size());
        warmMs += medianMs(buildReps, "core.scheduler.build.warm", spans,
                           [&] {
                               (void)sched.build(in.expectations,
                                                 in.kernelValues,
                                                 &in.profiler);
                           });
        core::DeltaStats delta;
        deltaMs += medianMs(buildReps, "core.scheduler.build.delta",
                            spans, [&] {
                                (void)sched.buildDelta(
                                    base, in.expectations,
                                    in.kernelValues, &in.profiler,
                                    {in.changedOp}, &delta);
                            });
        rebuilt += static_cast<double>(delta.segmentsRebuilt);

        // ---- engine on a fresh chip, workload period length --------
        std::vector<std::vector<trace::BatchRouting>> periods(
            static_cast<std::size_t>(spec.periods));
        for (auto &period : periods)
            for (int b = 0; b < spec.periodBatches; ++b)
                period.push_back(gen.next());
        core::Engine engine(dg, kHw, mapper, policy);
        arch::Chip chip(kHw);
        double eMs = 0.0;
        Tick barrier = 0;
        for (const auto &period : periods) {
            ScopedSpan span(spans, "core.engine.runPeriod", -1);
            const double t0 = nowMs();
            const core::PeriodResult res =
                engine.runPeriod(chip, base, period, nullptr, barrier);
            eMs += nowMs() - t0;
            barrier = res.endTime;
            liveMax = std::max(
                liveMax, static_cast<double>(chip.hbm().reservationCount()));
        }
        const double nBatches =
            static_cast<double>(spec.periods * spec.periodBatches);
        costs.usPerBatch.push_back(eMs * 1e3 / nBatches);
        engineMs += eMs;
        engineBatches += nBatches;
        execHits += static_cast<double>(engine.execHits());
        execMisses += static_cast<double>(engine.execMisses());
        byteHops += static_cast<double>(chip.noc().byteHopsServed());
        linkBusy += static_cast<double>(chip.noc().linkBusyTicks());
        hbmBytes += static_cast<double>(chip.hbm().bytesServed());

        // ---- one budget-bounded search on the 8 probe batches ------
        search::ScheduleSearch searcher(dg, kHw, mapper, policy,
                                        searchConfig(scale, mseed));
        // run() ORs its flag into the stats; count it per model.
        searchStats.budgetExhausted = false;
        {
            ScopedSpan span(spans, "search.run", -1);
            const double t0 = nowMs();
            const auto res = searcher.run(
                sched, base, nullptr, in.expectations, in.kernelValues,
                &in.profiler, in.probe, &cache, &searchStats);
            searchMs += nowMs() - t0;
            improved += res.improved ? 1.0 : 0.0;
        }
        exhausted += searchStats.budgetExhausted ? 1.0 : 0.0;
        draws += requestDraws + batchDraws + 40 + 8 + nBatches;
    }

    out.set("trace.next_us.req", reqMs * 1e3 / reqN, "us");
    out.set("trace.next_us.batch", batchMs * 1e3 / batchN, "us");
    out.set("trace.draws", draws, "count");
    out.set("core.scheduler.build_cold_ms", coldMs, "ms");
    out.set("core.scheduler.build_warm_ms", warmMs, "ms");
    out.set("core.scheduler.build_delta_ms", deltaMs, "ms");
    out.set("core.scheduler.segments", segments, "count");
    out.set("core.scheduler.delta_segments_rebuilt", rebuilt, "count");
    out.set("core.engine.us_per_batch", engineMs * 1e3 / engineBatches,
            "us");
    out.set("core.engine.exec_memo_hit_ratio",
            execHits + execMisses > 0.0
                ? execHits / (execHits + execMisses)
                : 0.0,
            "ratio");
    out.set("arch.noc.byte_hops_per_batch", byteHops / engineBatches,
            "B");
    out.set("arch.noc.link_busy_ticks_per_batch",
            linkBusy / engineBatches, "ticks");
    out.set("arch.hbm.bytes_per_batch", hbmBytes / engineBatches, "B");
    out.set("arch.hbm.live_reservations_max", liveMax, "count");
    out.set("search.run_ms", searchMs, "ms");
    out.set("search.tried",
            static_cast<double>(searchStats.candidatesTried), "count");
    out.set("search.accepted",
            static_cast<double>(searchStats.candidatesAccepted), "count");
    out.set("search.materialized",
            static_cast<double>(searchStats.materialized), "count");
    out.set("search.segments_rebuilt",
            static_cast<double>(searchStats.segmentsRebuilt), "count");
    out.set("search.segments_spliced",
            static_cast<double>(searchStats.segmentsSpliced), "count");
    out.set("search.budget_exhausted", exhausted, "count");
    out.set("search.improved", improved, "count");
    return costs;
}

} // namespace perfbench
