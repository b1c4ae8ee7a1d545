#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "baselines/designs.hh"
#include "core/report_io.hh"
#include "core/sampling.hh"
#include "core/scheduler.hh"
#include "core/system.hh"
#include "core/validate.hh"
#include "costmodel/mapper.hh"
#include "graph/parser.hh"
#include "kernels/store_cache.hh"
#include "models/models.hh"
#include "pod/runtime.hh"
#include "search/search.hh"
#include "serve/server.hh"
#include "workloads_common.hh"

namespace perfbench {

using namespace adyna;
using baselines::Design;

namespace {

// ---- per-layer counter table ---------------------------------------

struct CounterDef
{
    const char *name;
    const char *unit;
};

/** Counters read from the runtimes' reports; a workload that does
 * not exercise a layer leaves its counters at 0. */
constexpr CounterDef kCounters[] = {
    {"serve.batches", "count"},
    {"serve.mean_batch", "requests"},
    {"serve.drift_windows", "count"},
    {"serve.reschedules", "count"},
    {"serve.delta_reschedules", "count"},
    {"serve.segments_rebuilt", "count"},
    {"serve.segments_spliced", "count"},
    {"pod.ic_transfers", "count"},
    {"pod.ic_bytes", "B"},
    {"pod.diverted", "count"},
    {"pod.front_sheds", "count"},
    {"pod.route_imbalance", "x"},
    {"core.system.reconfigurations", "count"},
    {"kernels.store_hits", "count"},
    {"kernels.store_misses", "count"},
    {"kernels.store_hit_ratio", "ratio"},
    {"costmodel.mapper_hits", "count"},
    {"costmodel.mapper_misses", "count"},
    {"costmodel.mapper_hit_ratio", "ratio"},
};

void
count(Metrics &out, const std::string &name, double value)
{
    for (const CounterDef &c : kCounters)
        if (name == c.name) {
            out.set(name, value, c.unit);
            return;
        }
    std::fprintf(stderr, "perfbench: unknown counter %s\n", name.c_str());
    std::abort();
}

double
ratio(double hits, double misses)
{
    return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

/** Mean over cells of cache counters (hits, misses) -> metrics. */
void
cacheCounters(Metrics &out, double cells, double store_hits,
              double store_misses, double mapper_hits,
              double mapper_misses)
{
    count(out, "kernels.store_hits", store_hits / cells);
    count(out, "kernels.store_misses", store_misses / cells);
    count(out, "kernels.store_hit_ratio", ratio(store_hits, store_misses));
    count(out, "costmodel.mapper_hits", mapper_hits / cells);
    count(out, "costmodel.mapper_misses", mapper_misses / cells);
    count(out, "costmodel.mapper_hit_ratio",
          ratio(mapper_hits, mapper_misses));
}

/** Serve-layer counters, summed over @p reports, per cell. */
void
serveCounters(Metrics &out, double cells,
              const std::vector<const serve::ServeReport *> &reports)
{
    double batches = 0, meanBatch = 0, windows = 0, resched = 0,
           delta = 0, rebuilt = 0, spliced = 0;
    for (const serve::ServeReport *r : reports) {
        batches += static_cast<double>(r->batches);
        meanBatch += r->meanBatchSize;
        windows += r->driftWindows;
        resched += r->reschedules;
        delta += r->deltaReschedules;
        rebuilt += static_cast<double>(r->segmentsRebuilt);
        spliced += static_cast<double>(r->segmentsSpliced);
    }
    count(out, "serve.batches", batches / cells);
    count(out, "serve.mean_batch",
          reports.empty() ? 0.0
                          : meanBatch / static_cast<double>(reports.size()));
    count(out, "serve.drift_windows", windows / cells);
    count(out, "serve.reschedules", resched / cells);
    count(out, "serve.delta_reschedules", delta / cells);
    count(out, "serve.segments_rebuilt", rebuilt / cells);
    count(out, "serve.segments_spliced", spliced / cells);
}

/** What the simulated serving metrics read from one serving run. */
struct ServingOutcome
{
    std::size_t model;
    double p50Ms, p99Ms;

    /** The model's calibrated batch interval (the batcher's max
     * wait), ms. */
    double batchIntervalMs;
};

/**
 * Serving runs: per model, the ratio of the calibrated batch interval
 * to each run's simulated p50 request latency, taken at the 90th
 * percentile over the model's runs; sim_score is the geometric mean
 * of that over models. It falls when modelled execution, batching or
 * re-scheduling delays requests. The 90th percentile, because a drift
 * phase tips a share of runs into overload that varies with the seed
 * from a fifth to over half, which spreads any mean or median of run
 * latencies by 6-14% between seeds; the runs it leaves alone hold
 * steady. The latency percentiles themselves are per-layer
 * diagnostics (geometric mean over runs).
 */
void
servingSimulated(const std::vector<ServingOutcome> &runs, Metrics &e2e,
                 Metrics &layer)
{
    std::map<std::size_t, std::vector<double>> perModel;
    std::vector<double> p50, p99;
    for (const ServingOutcome &r : runs) {
        perModel[r.model].push_back(r.batchIntervalMs / r.p50Ms);
        p50.push_back(r.p50Ms);
        p99.push_back(r.p99Ms);
    }
    std::vector<double> score;
    for (const auto &[model, ratios] : perModel)
        score.push_back(percentile(ratios, 0.9));
    e2e.set("sim_score", geomean(score), "x");
    layer.set("sim.p50_ms", geomean(p50), "ms");
    layer.set("sim.p99_ms", geomean(p99), "ms");
}

/** p50 and p99 of the simulated time between consecutive batch
 * completions, ms. */
std::pair<double, double>
batchIntervalMs(std::vector<Tick> ends)
{
    std::sort(ends.begin(), ends.end());
    std::vector<double> gaps;
    for (std::size_t i = 1; i < ends.size(); ++i)
        gaps.push_back(ticksToMs(ends[i] - ends[i - 1]));
    return {percentile(gaps, 0.5), percentile(gaps, 0.99)};
}

/** A model's dynamism model at the workload's batch size. */
trace::TraceConfig
traceAt(const Model &m, std::int64_t batch)
{
    trace::TraceConfig tc = m.bundle.traceConfig;
    tc.batchSize = batch;
    return tc;
}

/** The layer probe over @p models at the workload's batch size. */
ProbeSpec
probeOf(const std::vector<Model> &models, std::int64_t batch,
        int period_batches, int periods)
{
    ProbeSpec p;
    for (const Model &m : models)
        p.models.push_back({&m.dg, traceAt(m, batch), m.bundle.name});
    p.periodBatches = period_batches;
    p.periods = periods;
    return p;
}

/** Seed of the capacity calibration runs. The offered load is part
 * of a workload's definition, so it does not vary with --seed. */
constexpr std::uint64_t kCalibrationSeed = 7;

/** Capacity of a model at a batch size: an Adyna-static offline
 * run, as the serving load generators calibrate. */
struct Calibration
{
    double capacityRps = 0.0;
    double batchIntervalMs = 0.0;
};

Calibration
calibrate(const Model &m, std::int64_t batch, int batches, SpanLog &spans)
{
    costmodel::Mapper mapper(kHw.tech);
    kernels::KernelStoreCache cache;
    core::System sys =
        baselines::makeSystem(m.dg, traceAt(m, batch), kHw,
                              Design::AdynaStatic, batches,
                              kCalibrationSeed);
    sys.setSharedMapper(&mapper);
    sys.setSharedStoreCache(&cache);
    ScopedSpan span(spans, "core.system.run", -1);
    const core::RunReport r = sys.run();
    return {r.batchesPerSecond * static_cast<double>(batch),
            1e3 / r.batchesPerSecond};
}

Cycles
msToCycles(double ms)
{
    return static_cast<Cycles>(ms * 1e-3 * kHw.tech.freqGhz * 1e9);
}

// ---- serve-drift ---------------------------------------------------

/**
 * Single-chip ServeRuntime over SkipNet, PABEE and Tutel-MoE at max
 * batch 32: Poisson arrivals at 0.6x calibrated capacity, a drifting
 * dynamism trace (strength 0.9, the serve_loadgen drift cell),
 * drift-triggered delta re-scheduling on, search off.
 */
class ServeDrift final : public Workload
{
  public:
    static constexpr std::int64_t kMaxBatch = 32;

    ServeDrift(std::uint64_t seed, Scale scale)
        : seed_(seed), tiny_(scale == Scale::Tiny)
    {
        for (const char *key : kModels)
            labels_.push_back(key);
    }

    void
    setup(SpanLog &spans) override
    {
        for (const char *key : kModels)
            models_.push_back(buildModel(key, kMaxBatch, spans));
        for (const Model &m : models_)
            calib_.push_back(
                calibrate(m, kMaxBatch, tiny_ ? 10 : 60, spans));
    }

    const std::vector<std::string> &
    cells() const override
    {
        return labels_;
    }

    int
    inputSets() const override
    {
        return tiny_ ? 1 : 32;
    }

    CellOutcome
    runCell(std::size_t m, int input, bool first,
            SpanLog &spans) override
    {
        const Model &mod = models_[m];
        const Calibration &c = calib_[m];

        serve::ServeConfig sc;
        sc.arrival.kind = serve::ArrivalKind::Poisson;
        sc.arrival.ratePerSec = 0.6 * c.capacityRps;
        sc.batching.maxBatch = kMaxBatch;
        sc.batching.maxWaitCycles = msToCycles(c.batchIntervalMs);
        sc.slo.deadlineMs = 6.0 * c.batchIntervalMs;
        sc.drift.windowRequests = 200;
        sc.driftReschedule = true;
        sc.deltaReschedule = true;
        sc.numRequests = tiny_ ? 200 : 2000;
        sc.seed = deriveSeed(seed_, m, static_cast<std::uint64_t>(input));

        costmodel::Mapper mapper(kHw.tech);
        kernels::KernelStoreCache cache;
        serve::ServeRuntime rt(
            mod.dg, driftingTrace(mod), kHw,
            baselines::schedulerConfig(Design::Adyna),
            baselines::execPolicy(Design::Adyna), sc, mod.bundle.name);
        rt.setSharedMapper(&mapper);
        rt.setSharedStoreCache(&cache);

        CellOutcome out;
        serve::ServeReport rep;
        {
            ScopedSpan span(spans, "serve.run", static_cast<int>(m));
            const double t0 = nowMs();
            rep = rt.run();
            out.ms = nowMs() - t0;
            span.counter("requests", static_cast<double>(rep.requests));
            span.counter("batches", static_cast<double>(rep.batches));
            span.counter("reschedules", rep.reschedules);
        }
        out.digest = fnv1a(serve::toJson(rep));
        out.failure = serveFailure(rep, sc.numRequests);
        out.model = static_cast<int>(m);
        out.requests = static_cast<double>(rep.requests);
        out.batches = static_cast<double>(rep.batches);
        out.requestDraws = sc.numRequests;
        out.batchDraws = sc.profileBatches;
        if (first) {
            outcomes_.push_back(
                {m, rep.p50Ms, rep.p99Ms, c.batchIntervalMs});
            first_.push_back(std::move(rep));
        }
        return out;
    }

    void
    simulatedMetrics(Metrics &e2e, Metrics &layer) const override
    {
        servingSimulated(outcomes_, e2e, layer);
    }

    std::string
    runSpan() const override
    {
        return "serve.run";
    }

    void
    layerCounters(Metrics &out) const override
    {
        std::vector<const serve::ServeReport *> reports;
        double sh = 0, sm = 0, mh = 0, mm = 0;
        for (const serve::ServeReport &r : first_) {
            reports.push_back(&r);
            sh += static_cast<double>(r.storeHits);
            sm += static_cast<double>(r.storeMisses);
            mh += static_cast<double>(r.mapperHits);
            mm += static_cast<double>(r.mapperMisses);
        }
        const auto cells = static_cast<double>(first_.size());
        serveCounters(out, cells, reports);
        cacheCounters(out, cells, sh, sm, mh, mm);
    }

    ProbeSpec
    probeSpec() const override
    {
        ProbeSpec p = probeOf(models_, kMaxBatch, 1, tiny_ ? 8 : 200);
        for (std::size_t m = 0; m < models_.size(); ++m)
            p.models[m].trace = driftingTrace(models_[m]);
        return p;
    }

  private:
    static constexpr const char *kModels[] = {"skipnet", "pabee",
                                              "tutel-moe"};

    /** The serve_loadgen drift cell's trace: strength 0.9, 700
     * requests per drift phase. */
    static trace::TraceConfig
    driftingTrace(const Model &m)
    {
        trace::TraceConfig tc = traceAt(m, kMaxBatch);
        tc.driftStrength = 0.9;
        tc.driftPeriod = 700;
        return tc;
    }

    std::uint64_t seed_;
    bool tiny_;
    std::vector<std::string> labels_;
    std::vector<Model> models_;
    std::vector<Calibration> calib_;
    std::vector<serve::ServeReport> first_;
    std::vector<ServingOutcome> outcomes_;
};

// ---- pod-scaleout --------------------------------------------------

/**
 * PodRuntime with K=8 chips serving replicated SkipNet at max batch
 * 8 behind least-loaded routing, at 0.6x aggregate capacity.
 */
class PodScaleout final : public Workload
{
  public:
    static constexpr std::int64_t kMaxBatch = 8;

    PodScaleout(std::uint64_t seed, Scale scale)
        : seed_(seed), tiny_(scale == Scale::Tiny),
          chips_(tiny_ ? 2 : 8)
    {
        labels_.push_back("skipnet-k" + std::to_string(chips_));
    }

    void
    setup(SpanLog &spans) override
    {
        model_.emplace_back(buildModel("skipnet", kMaxBatch, spans));
        calib_ = calibrate(model_[0], kMaxBatch, tiny_ ? 10 : 60, spans);
    }

    const std::vector<std::string> &
    cells() const override
    {
        return labels_;
    }

    int
    inputSets() const override
    {
        return tiny_ ? 1 : 64;
    }

    CellOutcome
    runCell(std::size_t i, int input, bool first,
            SpanLog &spans) override
    {
        const Model &mod = model_[0];
        pod::PodConfig pc;
        pc.chips = chips_;
        pc.placement = pod::Placement::Replicated;
        pc.router.policy = pod::RoutePolicy::LeastLoaded;
        pc.router.queueLimit = static_cast<std::size_t>(8 * kMaxBatch);
        pc.serve.arrival.ratePerSec = 0.6 * chips_ * calib_.capacityRps;
        pc.serve.batching.maxBatch = kMaxBatch;
        pc.serve.batching.maxWaitCycles =
            msToCycles(calib_.batchIntervalMs);
        pc.serve.slo.deadlineMs = 8.0 * calib_.batchIntervalMs;
        pc.serve.numRequests = (tiny_ ? 40 : 400) * chips_;
        pc.serve.seed =
            deriveSeed(seed_, 0, static_cast<std::uint64_t>(input));
        const int issued = pc.serve.numRequests;
        const int profile = pc.serve.profileBatches;

        costmodel::Mapper mapper(kHw.tech);
        kernels::KernelStoreCache cache;
        pod::PodRuntime rt({{&mod.dg, traceAt(mod, kMaxBatch),
                            mod.bundle.name}},
                           kHw,
                           baselines::schedulerConfig(Design::Adyna),
                           baselines::execPolicy(Design::Adyna),
                           std::move(pc));
        rt.setSharedMapper(&mapper);
        rt.setSharedStoreCache(&cache);

        CellOutcome out;
        pod::PodReport rep;
        {
            ScopedSpan span(spans, "pod.run", static_cast<int>(i));
            const double t0 = nowMs();
            rep = rt.run();
            out.ms = nowMs() - t0;
            span.counter("requests", static_cast<double>(rep.requests));
            span.counter("ic_transfers",
                         static_cast<double>(rep.icTransfers));
        }
        out.digest = fnv1a(pod::toJson(rep));
        const std::uint64_t accounted =
            rep.requests + rep.shedRequests + rep.darkChipSheds;
        if (accounted != static_cast<std::uint64_t>(issued))
            out.failure = "pod: completed " +
                          std::to_string(rep.requests) + " + front sheds " +
                          std::to_string(rep.shedRequests) +
                          " + dark-chip sheds " +
                          std::to_string(rep.darkChipSheds) +
                          " != issued " + std::to_string(issued);
        out.model = 0;
        out.requests = static_cast<double>(rep.requests);
        for (const pod::ChipResult &c : rep.chips)
            out.batches += static_cast<double>(c.serve.batches);
        out.requestDraws = issued;
        out.batchDraws = static_cast<double>(profile * chips_);
        if (first) {
            outcomes_.push_back(
                {0, rep.p50Ms, rep.p99Ms, calib_.batchIntervalMs});
            first_.push_back(std::move(rep));
        }
        return out;
    }

    void
    simulatedMetrics(Metrics &e2e, Metrics &layer) const override
    {
        servingSimulated(outcomes_, e2e, layer);
    }

    std::string
    runSpan() const override
    {
        return "pod.run";
    }

    void
    layerCounters(Metrics &out) const override
    {
        std::vector<const serve::ServeReport *> reports;
        double transfers = 0, bytes = 0, diverted = 0, sheds = 0,
               imbalance = 0, sh = 0, sm = 0, mh = 0, mm = 0;
        for (const pod::PodReport &r : first_) {
            transfers += static_cast<double>(r.icTransfers);
            bytes += static_cast<double>(r.icRequestBytes +
                                         r.icResponseBytes +
                                         r.icWeightBytes);
            diverted += static_cast<double>(r.diverted);
            sheds += static_cast<double>(r.shedRequests);
            double routedMax = 0.0, routedSum = 0.0;
            for (const pod::ChipResult &c : r.chips) {
                reports.push_back(&c.serve);
                routedMax =
                    std::max(routedMax, static_cast<double>(c.routed));
                routedSum += static_cast<double>(c.routed);
                sh += static_cast<double>(c.serve.storeHits);
                sm += static_cast<double>(c.serve.storeMisses);
                mh += static_cast<double>(c.serve.mapperHits);
                mm += static_cast<double>(c.serve.mapperMisses);
            }
            if (routedSum > 0.0)
                imbalance += routedMax * static_cast<double>(
                                             r.chips.size()) /
                             routedSum;
        }
        const auto cells = static_cast<double>(first_.size());
        count(out, "pod.ic_transfers", transfers / cells);
        count(out, "pod.ic_bytes", bytes / cells);
        count(out, "pod.diverted", diverted / cells);
        count(out, "pod.front_sheds", sheds / cells);
        count(out, "pod.route_imbalance", imbalance / cells);
        serveCounters(out, cells, reports);
        cacheCounters(out, cells, sh, sm, mh, mm);
    }

    ProbeSpec
    probeSpec() const override
    {
        return probeOf(model_, kMaxBatch, 1, tiny_ ? 8 : 400);
    }

  private:
    std::uint64_t seed_;
    bool tiny_;
    int chips_;
    std::vector<std::string> labels_;
    std::vector<Model> model_;
    Calibration calib_;
    std::vector<pod::PodReport> first_;
    std::vector<ServingOutcome> outcomes_;
};

// ---- offline-sweep -------------------------------------------------

/**
 * core::System::run over the five paper models at batch 128 for
 * M-tile, M-tenant, Adyna (static) and Adyna: Figure 9 without the
 * analytic GPU and full-kernel points.
 */
class OfflineSweep final : public Workload
{
  public:
    static constexpr std::int64_t kBatch = 128;

    OfflineSweep(std::uint64_t seed, Scale scale)
        : seed_(seed), tiny_(scale == Scale::Tiny),
          batches_(tiny_ ? 8 : 80)
    {
        const std::size_t nModels = tiny_ ? 2 : 5;
        for (std::size_t m = 0; m < nModels; ++m)
            for (Design d : kDesigns) {
                specs_.push_back({m, d});
                labels_.push_back(models::workloadNames()[m] + "/" +
                                  baselines::designName(d));
            }
        first_.resize(specs_.size() *
                      static_cast<std::size_t>(inputSets()));
    }

    void
    setup(SpanLog &spans) override
    {
        const auto &names = models::workloadNames();
        const std::size_t nModels = tiny_ ? 2 : names.size();
        for (std::size_t m = 0; m < nModels; ++m)
            models_.push_back(buildModel(names[m], kBatch, spans));
    }

    const std::vector<std::string> &
    cells() const override
    {
        return labels_;
    }

    int
    inputSets() const override
    {
        return tiny_ ? 1 : 5;
    }

    CellOutcome
    runCell(std::size_t i, int input, bool first,
            SpanLog &spans) override
    {
        const auto [m, design] = specs_[i];
        const Model &mod = models_[m];
        // One trace per (model, input): every design sees the same
        // batches.
        const core::RunOptions opts = baselines::runOptions(
            design, batches_,
            deriveSeed(seed_, m, static_cast<std::uint64_t>(input)));

        costmodel::Mapper mapper(kHw.tech);
        kernels::KernelStoreCache cache;
        core::System sys(mod.dg, traceAt(mod, kBatch), kHw,
                         baselines::schedulerConfig(design),
                         baselines::execPolicy(design), opts,
                         baselines::designName(design));
        sys.setSharedMapper(&mapper);
        sys.setSharedStoreCache(&cache);

        CellOutcome out;
        core::RunReport rep;
        {
            ScopedSpan span(spans, "core.system.run", static_cast<int>(i));
            const double t0 = nowMs();
            rep = sys.run();
            out.ms = nowMs() - t0;
            span.counter("reconfigurations", rep.reconfigurations);
            span.counter("segments", rep.segments);
        }
        out.digest = fnv1a(core::toJson(rep, /*include_batches=*/true));
        if (rep.batchEnds.size() != static_cast<std::size_t>(batches_))
            out.failure = "offline: " +
                          std::to_string(rep.batchEnds.size()) +
                          " batch ends for " + std::to_string(batches_) +
                          " batches";
        else if (rep.usefulMacs > rep.issuedMacs)
            out.failure = "offline: useful MACs exceed issued MACs";
        out.model = static_cast<int>(m);
        out.batches = batches_;
        out.batchDraws = batches_ + opts.profileBatches;
        if (first)
            first_[static_cast<std::size_t>(input) * specs_.size() + i] =
                std::move(rep);
        return out;
    }

    void
    simulatedMetrics(Metrics &e2e, Metrics &layer) const override
    {
        std::vector<double> p50, p99, speedups;
        for (const core::RunReport &r : first_) {
            const auto [lo, hi] = batchIntervalMs(r.batchEnds);
            p50.push_back(lo);
            p99.push_back(hi);
        }
        // M-tile over Adyna simulated time, per (model, input).
        const std::size_t n = specs_.size();
        for (std::size_t k = 0; k < first_.size(); ++k) {
            if (specs_[k % n].second != Design::MTile)
                continue;
            for (std::size_t j = 0; j < n; ++j)
                if (specs_[j].first == specs_[k % n].first &&
                    specs_[j].second == Design::Adyna)
                    speedups.push_back(first_[k].timeMs /
                                       first_[k - k % n + j].timeMs);
        }
        e2e.set("sim_score", geomean(speedups), "x");
        layer.set("sim.p50_ms", geomean(p50), "ms");
        layer.set("sim.p99_ms", geomean(p99), "ms");
    }

    std::string
    runSpan() const override
    {
        return "core.system.run";
    }

    void
    layerCounters(Metrics &out) const override
    {
        double reconf = 0, sh = 0, sm = 0, mh = 0, mm = 0;
        for (const core::RunReport &r : first_) {
            reconf += r.reconfigurations;
            sh += static_cast<double>(r.storeHits);
            sm += static_cast<double>(r.storeMisses);
            mh += static_cast<double>(r.mapperHits);
            mm += static_cast<double>(r.mapperMisses);
        }
        const auto cells = static_cast<double>(first_.size());
        count(out, "core.system.reconfigurations", reconf / cells);
        cacheCounters(out, cells, sh, sm, mh, mm);
    }

    ProbeSpec
    probeSpec() const override
    {
        return probeOf(models_, kBatch, tiny_ ? 4 : 40, tiny_ ? 2 : 3);
    }

  private:
    static constexpr Design kDesigns[] = {Design::MTile, Design::MTenant,
                                          Design::AdynaStatic,
                                          Design::Adyna};

    std::uint64_t seed_;
    bool tiny_;
    int batches_;
    std::vector<std::pair<std::size_t, Design>> specs_;
    std::vector<std::string> labels_;
    std::vector<Model> models_;
    std::vector<core::RunReport> first_;
};

// ---- reschedule ----------------------------------------------------

/**
 * For each paper model at batch 128, after the standard 40-batch
 * offline profile: a cold Scheduler::build (fresh Mapper, empty
 * KernelStoreCache), warm builds against the primed cache and memo,
 * one-op buildDelta calls, and a budget-bounded ScheduleSearch::run
 * on 8 probe batches. One group per (model, input set); the group's
 * mapper and cache are created by its cold cell.
 */
class Reschedule final : public Workload
{
  public:
    static constexpr std::int64_t kBatch = 128;

    Reschedule(std::uint64_t seed, Scale scale)
        : seed_(seed), tiny_(scale == Scale::Tiny)
    {
        const std::size_t nModels = tiny_ ? 2 : 5;
        const int repeats = tiny_ ? 1 : 4;
        for (std::size_t m = 0; m < nModels; ++m) {
            const std::string base = models::workloadNames()[m] + "/";
            add(m, Kind::Cold, base + "cold");
            for (int k = 0; k < repeats; ++k)
                add(m, Kind::Warm, base + "warm");
            for (int k = 0; k < repeats; ++k)
                add(m, Kind::Delta, base + "delta");
            add(m, Kind::Search, base + "search");
        }
        firstSearch_.resize(nModels *
                            static_cast<std::size_t>(inputSets()));
    }

    void
    setup(SpanLog &spans) override
    {
        const auto &names = models::workloadNames();
        const std::size_t nModels = tiny_ ? 2 : names.size();
        for (std::size_t m = 0; m < nModels; ++m)
            models_.push_back(buildModel(names[m], kBatch, spans));
        // One group per (model, input set): the profile, then 8 probe
        // batches for the search.
        for (std::size_t m = 0; m < nModels; ++m)
            for (int s = 0; s < inputSets(); ++s) {
                ScopedSpan span(spans, "trace.profile", -1);
                groups_.push_back(profileInputs(
                    models_[m].dg, traceAt(models_[m], kBatch),
                    deriveSeed(seed_, m, static_cast<std::uint64_t>(s)),
                    8));
            }
    }

    const std::vector<std::string> &
    cells() const override
    {
        return labels_;
    }

    int
    inputSets() const override
    {
        return tiny_ ? 1 : 9;
    }

    CellOutcome
    runCell(std::size_t i, int input, bool first,
            SpanLog &spans) override
    {
        const auto [m, kind] = specs_[i];
        const std::size_t g =
            m * static_cast<std::size_t>(inputSets()) +
            static_cast<std::size_t>(input);
        const BuildInputs &grp = groups_[g];
        const Model &mod = models_[m];
        const int cell = static_cast<int>(i);
        CellOutcome out;
        out.model = static_cast<int>(m);

        switch (kind) {
        case Kind::Cold: {
            live_ = std::make_unique<Live>(mod.dg);
            {
                ScopedSpan span(spans, "core.scheduler.build.cold", cell);
                const double t0 = nowMs();
                live_->base = live_->sched.build(grp.expectations,
                                                 grp.kernelValues,
                                                 &grp.profiler);
                out.ms = nowMs() - t0;
                span.counter("segments", static_cast<double>(
                                             live_->base.segments.size()));
            }
            live_->baseDigest = scheduleDigest(live_->base);
            out.digest = live_->baseDigest;
            const auto issues =
                core::validateSchedule(live_->base, mod.dg, kHw);
            if (!issues.empty())
                out.failure = "cold build invalid: " +
                              core::issuesToString(issues);
            // An empty-change delta must splice the base verbatim.
            const core::Schedule splice = live_->sched.buildDelta(
                live_->base, grp.expectations, grp.kernelValues,
                &grp.profiler, {}, nullptr);
            if (out.failure.empty() &&
                scheduleDigest(splice) != live_->baseDigest)
                out.failure = "empty-change buildDelta differs from base";
            break;
        }
        case Kind::Warm: {
            core::Schedule sch;
            {
                ScopedSpan span(spans, "core.scheduler.build.warm", cell);
                const double t0 = nowMs();
                sch = live_->sched.build(grp.expectations,
                                         grp.kernelValues, &grp.profiler);
                out.ms = nowMs() - t0;
            }
            out.digest = scheduleDigest(sch);
            if (out.digest != live_->baseDigest)
                out.failure = "warm build differs from cold build";
            break;
        }
        case Kind::Delta: {
            core::Schedule sch;
            core::DeltaStats stats;
            {
                ScopedSpan span(spans, "core.scheduler.build.delta", cell);
                const double t0 = nowMs();
                sch = live_->sched.buildDelta(
                    live_->base, grp.expectations, grp.kernelValues,
                    &grp.profiler, {grp.changedOp}, &stats);
                out.ms = nowMs() - t0;
                span.counter("segments_rebuilt",
                             static_cast<double>(stats.segmentsRebuilt));
            }
            out.digest = scheduleDigest(sch);
            // The inputs are unchanged, so rebuilding the op's segment
            // must reproduce it exactly.
            if (out.digest != live_->baseDigest)
                out.failure = "one-op delta differs from its base";
            break;
        }
        case Kind::Search: {
            search::ScheduleSearch searcher(
                mod.dg, kHw, live_->mapper,
                baselines::execPolicy(Design::Adyna),
                searchConfig(tiny_ ? Scale::Tiny : Scale::Full,
                             deriveSeed(seed_, m,
                                        static_cast<std::uint64_t>(input))));
            core::SearchStats stats;
            search::ScheduleSearch::Result res;
            {
                ScopedSpan span(spans, "search.run", cell);
                const double t0 = nowMs();
                res = searcher.run(live_->sched, live_->base, nullptr,
                                   grp.expectations, grp.kernelValues,
                                   &grp.profiler, grp.probe,
                                   &live_->cache, &stats);
                out.ms = nowMs() - t0;
                span.counter("tried",
                             static_cast<double>(stats.candidatesTried));
                span.counter("improved", res.improved ? 1.0 : 0.0);
            }
            out.digest = searchDigest(res, stats);
            if (res.searchedCost > res.heuristicCost)
                out.failure = "search: searched cost " +
                              std::to_string(res.searchedCost) +
                              " > heuristic " +
                              std::to_string(res.heuristicCost);
            else if (!core::validateSchedule(res.schedule, mod.dg, kHw)
                          .empty())
                out.failure = "search: winning schedule invalid";
            if (first)
                firstSearch_[g] = summarize(mod, grp, res);
            break;
        }
        }
        return out;
    }

    void
    simulatedMetrics(Metrics &e2e, Metrics &layer) const override
    {
        std::vector<double> p50, p99;
        double gain = 0.0;
        for (const SearchSummary &s : firstSearch_) {
            p50.push_back(s.p50Ms);
            p99.push_back(s.p99Ms);
            gain += static_cast<double>(s.heuristicCost) /
                    static_cast<double>(s.searchedCost) /
                    static_cast<double>(firstSearch_.size());
        }
        e2e.set("sim_score", gain, "x");
        layer.set("sim.p50_ms", geomean(p50), "ms");
        layer.set("sim.p99_ms", geomean(p99), "ms");
    }

    /** Its cells are scheduler and search calls, no runtime. */
    std::string
    runSpan() const override
    {
        return {};
    }

    void
    layerCounters(Metrics &out) const override
    {
        double sh = 0, sm = 0, mh = 0, mm = 0;
        for (const SearchSummary &s : firstSearch_) {
            sh += static_cast<double>(s.storeHits);
            sm += static_cast<double>(s.storeMisses);
            mh += static_cast<double>(s.mapperHits);
            mm += static_cast<double>(s.mapperMisses);
        }
        cacheCounters(out, static_cast<double>(firstSearch_.size()), sh,
                      sm, mh, mm);
    }

    ProbeSpec
    probeSpec() const override
    {
        return probeOf(models_, kBatch, tiny_ ? 4 : 40, tiny_ ? 2 : 3);
    }

  private:
    enum class Kind { Cold, Warm, Delta, Search };

    /** A group's scheduler state, created fresh by its cold cell. */
    struct Live
    {
        explicit Live(const graph::DynGraph &dg)
            : mapper(kHw.tech),
              sched(dg, kHw, mapper,
                    baselines::schedulerConfig(Design::Adyna))
        {
            sched.setStoreCache(&cache);
        }
        costmodel::Mapper mapper;
        kernels::KernelStoreCache cache;
        core::Scheduler sched;
        core::Schedule base;
        std::uint64_t baseDigest = 0;
    };

    /** What the simulated metrics and counters need of a search. */
    struct SearchSummary
    {
        Tick heuristicCost = 1;
        Tick searchedCost = 1;
        double p50Ms = 0.0;
        double p99Ms = 0.0;
        std::uint64_t storeHits = 0, storeMisses = 0;
        std::uint64_t mapperHits = 0, mapperMisses = 0;
    };

    void
    add(std::size_t model, Kind kind, std::string label)
    {
        specs_.push_back({model, kind});
        labels_.push_back(std::move(label));
    }

    /** Untimed: replay the winner on the probe batches for the
     * simulated per-batch times, and read the group's caches. */
    SearchSummary
    summarize(const Model &mod, const BuildInputs &grp,
              const search::ScheduleSearch::Result &res) const
    {
        SearchSummary s;
        s.heuristicCost = std::max<Tick>(res.heuristicCost, 1);
        s.searchedCost = std::max<Tick>(res.searchedCost, 1);
        s.storeHits = live_->cache.hits();
        s.storeMisses = live_->cache.misses();
        s.mapperHits = live_->mapper.hits();
        s.mapperMisses = live_->mapper.misses();
        core::Engine engine(mod.dg, kHw, live_->mapper,
                            baselines::execPolicy(Design::Adyna));
        arch::Chip chip(kHw);
        const core::PeriodResult pr =
            engine.runPeriod(chip, res.schedule, grp.probe, nullptr, 0);
        std::vector<Tick> ends = pr.batchEnds;
        ends.insert(ends.begin(), 0);
        std::tie(s.p50Ms, s.p99Ms) = batchIntervalMs(std::move(ends));
        return s;
    }

    static std::uint64_t
    searchDigest(const search::ScheduleSearch::Result &res,
                 const core::SearchStats &stats)
    {
        const std::uint64_t fields[] = {
            res.heuristicCost,
            res.searchedCost,
            res.improved ? 1u : 0u,
            search::PlanTree::fingerprint(res.tree),
            stats.candidatesTried,
            stats.candidatesAccepted,
            stats.materialized,
            stats.budgetSpentCycles,
            scheduleDigest(res.schedule)};
        return fnv1a(std::string_view(
            reinterpret_cast<const char *>(fields), sizeof(fields)));
    }

    std::uint64_t seed_;
    bool tiny_;
    std::vector<std::pair<std::size_t, Kind>> specs_; ///< (model, kind)
    std::vector<std::string> labels_;
    std::vector<Model> models_;
    std::vector<BuildInputs> groups_;
    std::unique_ptr<Live> live_;
    std::vector<SearchSummary> firstSearch_;
};

} // namespace

Model
buildModel(const std::string &key, std::int64_t batch, SpanLog &spans)
{
    models::ModelBundle bundle = [&] {
        ScopedSpan span(spans, "models.build", -1);
        return models::buildByName(key, batch);
    }();
    ScopedSpan span(spans, "graph.parse", -1);
    graph::DynGraph dg = graph::parseModel(bundle.graph);
    return Model{std::move(bundle), std::move(dg)};
}

std::uint64_t
scheduleDigest(const core::Schedule &schedule)
{
    std::uint64_t h = fnv1a({});
    const auto mix = [&h](std::int64_t v) {
        h = fnv1a(std::string_view(reinterpret_cast<const char *>(&v),
                                   sizeof(v)),
                  h);
    };
    for (const auto &seg : schedule.segments) {
        for (const core::StageAssign &st : seg->stages) {
            mix(st.op);
            mix(st.baseTiles);
            for (TileId t : st.tiles)
                mix(t);
            for (const auto &[tiles, store] : st.stores) {
                mix(tiles);
                for (const kernels::Kernel &k : store->kernels()) {
                    mix(k.value);
                    h = fnv1a(std::string_view(
                                  reinterpret_cast<const char *>(
                                      k.image.data()),
                                  k.image.size()),
                              h);
                }
            }
        }
        mix(-1); // segment boundary
    }
    return h;
}

BuildInputs
profileInputs(const graph::DynGraph &dg, const trace::TraceConfig &tc,
              std::uint64_t seed, int probe_batches)
{
    BuildInputs in;
    costmodel::Mapper mapper(kHw.tech);
    core::Scheduler sched(dg, kHw, mapper,
                          baselines::schedulerConfig(Design::Adyna));
    in.kernelValues = sched.initialKernelValues();
    trace::TraceGenerator gen(dg, tc, seed);
    for (int b = 0; b < 40; ++b) {
        const trace::BatchRouting routing = gen.next();
        in.profiler.noteBatch();
        for (const auto &[sw, oc] : routing.outcomes)
            in.profiler.recordBranchLoads(sw, oc.branchCounts);
        for (OpId op : dg.dynamicOps())
            in.profiler.recordValue(op, routing.dynValue(dg, op));
    }
    core::refreshScheduleInputs(in.profiler, true, in.expectations,
                                in.kernelValues);
    for (int b = 0; b < probe_batches; ++b)
        in.probe.push_back(gen.next());

    std::vector<OpId> dynamicOps;
    for (const auto &seg : sched.partition())
        for (OpId op : seg)
            if (dg.isDynamic(op))
                dynamicOps.push_back(op);
    in.changedOp =
        dynamicOps.empty()
            ? sched.partition().front().front()
            : dynamicOps[deriveSeed(seed, 1) % dynamicOps.size()];
    return in;
}

search::SearchConfig
searchConfig(Scale scale, std::uint64_t seed)
{
    search::SearchConfig cfg;
    cfg.chains = 4;
    cfg.mutationBudget = scale == Scale::Tiny ? 200 : 4000;
    cfg.materializeTop = 6;
    cfg.seed = seed;
    return cfg;
}

std::string
serveFailure(const serve::ServeReport &r, int issued)
{
    if (r.requests + r.shedRequests != static_cast<std::uint64_t>(issued))
        return "serve: completed " + std::to_string(r.requests) +
               " + shed " + std::to_string(r.shedRequests) +
               " != issued " + std::to_string(issued);
    if (!(r.p50Ms <= r.p99Ms && r.p99Ms <= r.maxMs))
        return "serve: p50 " + std::to_string(r.p50Ms) + " <= p99 " +
               std::to_string(r.p99Ms) + " <= max " +
               std::to_string(r.maxMs) + " does not hold";
    return {};
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = seed ^ (0x9e3779b97f4a7c15ull * (a + 1)) ^
                      (0xc2b2ae3d27d4eb4full * (b + 1));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "serve-drift", "pod-scaleout", "offline-sweep", "reschedule"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, Scale scale)
{
    if (name == "serve-drift")
        return std::make_unique<ServeDrift>(seed, scale);
    if (name == "pod-scaleout")
        return std::make_unique<PodScaleout>(seed, scale);
    if (name == "offline-sweep")
        return std::make_unique<OfflineSweep>(seed, scale);
    if (name == "reschedule")
        return std::make_unique<Reschedule>(seed, scale);
    return nullptr;
}

void
zeroLayerCounters(Metrics &out)
{
    for (const CounterDef &c : kCounters)
        out.set(c.name, 0.0, c.unit);
}

} // namespace perfbench
