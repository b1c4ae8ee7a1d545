/**
 * @file
 * Harness self-check: times the hot paths of the simulator and gates
 * every optimization on byte-identical outputs.
 *
 * 1. The full workload x design sweep -- (A) the seed configuration
 *    (serial, per-run mapper, legacy per-period segment planner, no
 *    store cache), (B) serial with every cache layer on, and (C) the
 *    same plus the --jobs thread pool -- verifying that all three
 *    produce identical reports.
 * 2. The reconfiguration-latency bench: N re-schedules per workload
 *    cold (fresh mapper, no store cache) and warm (primed
 *    kernel-store cache + mapper memo), verifying cold- and
 *    warm-built schedules are identical down to the encoded kernel
 *    images.
 * 3. The delta re-schedule bench: warm full rebuilds vs pure-splice
 *    Scheduler::buildDelta calls on the most segmented workload,
 *    verifying splices are byte-identical to their base and gating
 *    delta p99 at >= 10x below full-rebuild p99.
 *
 * Everything lands in a machine-readable `BENCH_sweep.json` so the
 * perf trajectory is trackable across PRs.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.hh"
#include "common/buildinfo.hh"
#include "core/report_io.hh"
#include "kernels/store_cache.hh"

using namespace adyna;
using namespace adyna::bench;
using baselines::Design;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Cache/parallelism switches of one sweep configuration. */
struct SweepCfg
{
    int jobs = 1;
    bool planCache = false;
    bool shareMapper = false;
    bool storeCache = false;
};

struct SweepResult
{
    std::vector<core::RunReport> reports;
    double wallMs = 0.0;
    std::uint64_t mapperHits = 0;
    std::uint64_t mapperMisses = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
};

/** Run the full workload x design matrix under one configuration.
 * Each sweep gets its own store cache so timings are independent of
 * sweep order. */
SweepResult
runSweep(const std::vector<Workload> &workloads,
         const std::vector<Design> &designs, const BenchParams &p,
         const arch::HwConfig &hw, const SweepCfg &cfg)
{
    ThreadPool pool(cfg.jobs);
    costmodel::Mapper shared(hw.tech);
    kernels::KernelStoreCache cache;

    struct Task
    {
        std::size_t wi;
        Design d;
    };
    std::vector<Task> tasks;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi)
        for (Design d : designs)
            tasks.push_back({wi, d});

    SweepResult out;
    const double t0 = nowMs();
    out.reports = pool.parallelMap(tasks.size(), [&](std::size_t i) {
        const Workload &w = workloads[tasks[i].wi];
        trace::TraceConfig tc = w.bundle.traceConfig;
        tc.batchSize = p.batchSize;
        auto pol = baselines::execPolicy(tasks[i].d);
        pol.planCache = cfg.planCache;
        auto scfg = baselines::schedulerConfig(tasks[i].d);
        scfg.storeCache = cfg.storeCache;
        core::System sys(w.dg, tc, hw, scfg, pol,
                         baselines::runOptions(tasks[i].d, p.batches,
                                               p.seed),
                         baselines::designName(tasks[i].d));
        if (cfg.shareMapper)
            sys.setSharedMapper(&shared);
        sys.setSharedStoreCache(&cache);
        return sys.run();
    });
    out.wallMs = nowMs() - t0;
    out.mapperHits = shared.hits();
    out.mapperMisses = shared.misses();
    out.storeHits = cache.hits();
    out.storeMisses = cache.misses();
    return out;
}

/** Simulation outputs (not cache counters) must match exactly. */
bool
reportsIdentical(const std::vector<core::RunReport> &a,
                 const std::vector<core::RunReport> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (core::toJson(a[i], /*include_batches=*/true) !=
            core::toJson(b[i], /*include_batches=*/true))
            return false;
    return true;
}

/** Everything a schedule compiles down to, including the encoded
 * 128-byte kernel images (cold- and warm-built schedules must agree
 * byte for byte). */
std::string
scheduleFingerprint(const core::Schedule &sch)
{
    std::ostringstream os;
    for (const auto &seg : sch.segments) {
        for (const auto &st : seg->stages) {
            os << st.op << ':' << st.baseTiles << ':';
            for (TileId t : st.tiles)
                os << t << ',';
            for (const auto &[count, store] : st.stores) {
                os << '|' << count;
                for (const auto &k : store->kernels()) {
                    os << '/' << k.value << '#';
                    for (unsigned byte : k.image)
                        os << byte << '.';
                }
            }
            os << ';';
        }
        os << '\n';
    }
    return os.str();
}

/** Reconfiguration-latency figures for one workload. */
struct ReconfigResult
{
    double coldMs = 0.0;
    double warmMs = 0.0;
    bool identical = false;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
};

/**
 * Time @p rounds re-schedules of one workload. Cold builds recompile
 * every store through a fresh mapper (the seed re-schedule path);
 * warm builds reuse a primed kernel-store cache, the path a
 * drift-triggered re-schedule takes in the serving runtime.
 */
ReconfigResult
runReconfig(const Workload &w, const arch::HwConfig &hw, int rounds)
{
    const auto scfg =
        baselines::schedulerConfig(Design::Adyna);
    std::map<OpId, double> expectations; // worst-case weights
    std::map<OpId, std::vector<std::int64_t>> kernelValues;
    {
        costmodel::Mapper m(hw.tech);
        core::Scheduler s(w.dg, hw, m, scfg);
        kernelValues = s.initialKernelValues();
    }

    ReconfigResult out;
    std::string coldFp;

    // Cold: every round compiles every kernel store from scratch.
    // (Fingerprints come from separate untimed builds so the string
    // construction never pollutes the latency figures.)
    {
        costmodel::Mapper m0(hw.tech);
        core::Scheduler s0(w.dg, hw, m0, scfg);
        coldFp = scheduleFingerprint(
            s0.build(expectations, kernelValues, nullptr));
        const double t0 = nowMs();
        for (int r = 0; r < rounds; ++r) {
            costmodel::Mapper m(hw.tech);
            core::Scheduler s(w.dg, hw, m, scfg);
            (void)s.build(expectations, kernelValues, nullptr);
        }
        out.coldMs = (nowMs() - t0) / rounds;
    }

    // Warm: one untimed priming build, then re-schedules against the
    // populated store cache and mapper memo.
    {
        costmodel::Mapper m(hw.tech);
        kernels::KernelStoreCache cache;
        core::Scheduler s(w.dg, hw, m, scfg);
        s.setStoreCache(&cache);
        const std::string warmFp = scheduleFingerprint(
            s.build(expectations, kernelValues, nullptr));
        const double t0 = nowMs();
        for (int r = 0; r < rounds; ++r)
            (void)s.build(expectations, kernelValues, nullptr);
        out.warmMs = (nowMs() - t0) / rounds;
        out.identical = warmFp == coldFp;
        out.storeHits = cache.hits();
        out.storeMisses = cache.misses();
    }
    return out;
}

// ---- 3. delta re-schedule latency ----------------------------------

/** Warm full rebuild vs pure-splice buildDelta percentiles. */
struct DeltaResult
{
    std::string workload;
    double fullP50 = 0.0;
    double fullP99 = 0.0;
    double deltaP50 = 0.0;
    double deltaP99 = 0.0;
    std::uint64_t segmentsTotal = 0;
    std::uint64_t segmentsRebuilt = 0;
    /** Pure splice == base, and an all-ops delta == a full build. */
    bool identical = false;
};

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

/**
 * Time @p rounds warm full rebuilds against @p rounds pure-splice
 * delta rebuilds (no op changed -- the serve loop's
 * sub-tolerance-drift fast path) of the most segmented workload.
 * Everything runs against a primed store cache and mapper memo, so
 * the full builds measure exactly what a drift re-schedule paid
 * before buildDelta existed.
 */
DeltaResult
runDeltaBench(const std::vector<Workload> &workloads,
              const arch::HwConfig &hw, int rounds)
{
    const auto scfg = baselines::schedulerConfig(Design::Adyna);
    const std::map<OpId, double> expectations;

    // Most segmented workload: splicing only pays when there is more
    // than one segment to skip.
    std::size_t best = 0;
    std::size_t bestSegs = 0;
    std::map<OpId, std::vector<std::int64_t>> kernelValues;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        costmodel::Mapper m(hw.tech);
        core::Scheduler s(workloads[i].dg, hw, m, scfg);
        const auto kv = s.initialKernelValues();
        const auto sch = s.build(expectations, kv, nullptr);
        if (sch.segments.size() > bestSegs) {
            bestSegs = sch.segments.size();
            best = i;
            kernelValues = kv;
        }
    }
    const Workload &w = workloads[best];

    DeltaResult out;
    out.workload = w.name;

    costmodel::Mapper m(hw.tech);
    kernels::KernelStoreCache cache;
    core::Scheduler s(w.dg, hw, m, scfg);
    s.setStoreCache(&cache);
    const core::Schedule base =
        s.build(expectations, kernelValues, nullptr);

    // All stage ops changed == the full-build path, byte for byte.
    std::vector<OpId> allOps;
    for (const auto &seg : base.segments)
        for (const auto &st : seg->stages)
            allOps.push_back(st.op);
    core::DeltaStats stats;
    const core::Schedule spliced = s.buildDelta(
        base, expectations, kernelValues, nullptr, {}, &stats);
    const core::Schedule rebuilt = s.buildDelta(
        base, expectations, kernelValues, nullptr, allOps, nullptr);
    out.segmentsTotal = stats.segmentsTotal;
    out.segmentsRebuilt = stats.segmentsRebuilt;
    out.identical =
        scheduleFingerprint(spliced) == scheduleFingerprint(base) &&
        scheduleFingerprint(rebuilt) == scheduleFingerprint(base) &&
        stats.segmentsRebuilt == 0;

    // Both paths sit in the microsecond range, where one-shot
    // samples are scheduler-jitter lotteries: each sample times a
    // small batch of builds (identically for both paths) so the
    // percentiles reflect the build, not the timer.
    constexpr int kBatch = 16;
    std::vector<double> fullTimes, deltaTimes;
    fullTimes.reserve(static_cast<std::size_t>(rounds));
    deltaTimes.reserve(static_cast<std::size_t>(rounds));
    for (int r = 0; r < kBatch; ++r) { // warm-up, untimed
        (void)s.build(expectations, kernelValues, nullptr);
        (void)s.buildDelta(base, expectations, kernelValues, nullptr,
                           {}, nullptr);
    }
    // Interleave the two paths round by round so a machine-load
    // burst lands on both distributions instead of skewing one.
    for (int r = 0; r < rounds; ++r) {
        double t0 = nowMs();
        for (int b = 0; b < kBatch; ++b)
            (void)s.build(expectations, kernelValues, nullptr);
        fullTimes.push_back((nowMs() - t0) / kBatch);
        t0 = nowMs();
        for (int b = 0; b < kBatch; ++b)
            (void)s.buildDelta(base, expectations, kernelValues,
                               nullptr, {}, nullptr);
        deltaTimes.push_back((nowMs() - t0) / kBatch);
    }
    out.fullP50 = percentile(fullTimes, 0.50);
    out.fullP99 = percentile(fullTimes, 0.99);
    out.deltaP50 = percentile(deltaTimes, 0.50);
    out.deltaP99 = percentile(deltaTimes, 0.99);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    BenchParams p = BenchParams::fromArgs(args);
    if (!args.has("batches"))
        p.batches = 120;
    const int reconfigRounds =
        static_cast<int>(args.getInt("reconfig-rounds", 5));
    const int deltaRounds =
        static_cast<int>(args.getInt("delta-rounds", 60));
    const arch::HwConfig hw;
    printBanner("=== Harness self-check: sweep wall-clock, "
                "reconfiguration latency and equivalence ===",
                hw, p);

    const auto workloads = makeAllWorkloads(p.batchSize);
    const auto designs = baselines::allDesigns();
    std::printf("Sweep: %zu workloads x %zu designs = %zu runs, "
                "%d batches each\n\n",
                workloads.size(), designs.size(),
                workloads.size() * designs.size(), p.batches);

    // ---- 1. the full sweep, three ways -----------------------------
    const auto base = runSweep(workloads, designs, p, hw,
                               SweepCfg{1, false, false, false});
    const auto cached = runSweep(workloads, designs, p, hw,
                                 SweepCfg{1, true, true, true});
    const auto parallel = runSweep(workloads, designs, p, hw,
                                   SweepCfg{p.jobs, true, true, true});

    const bool eqCached = reportsIdentical(base.reports,
                                           cached.reports);
    const bool eqParallel = reportsIdentical(base.reports,
                                             parallel.reports);

    TextTable t("End-to-end sweep wall-clock");
    t.header({"configuration", "wall (ms)", "speedup",
              "reports identical"});
    t.row({"A: seed (serial, uncached)", TextTable::num(base.wallMs, 0),
           "1.00x", "-"});
    t.row({"B: serial + all caches",
           TextTable::num(cached.wallMs, 0),
           TextTable::mult(base.wallMs / cached.wallMs),
           eqCached ? "yes" : "NO"});
    t.row({"C: --jobs " + std::to_string(p.jobs) + " + all caches",
           TextTable::num(parallel.wallMs, 0),
           TextTable::mult(base.wallMs / parallel.wallMs),
           eqParallel ? "yes" : "NO"});
    t.print(std::cout);

    const auto hitRate = [](std::uint64_t h, std::uint64_t m) {
        return h + m ? 100.0 * static_cast<double>(h) /
                           static_cast<double>(h + m)
                     : 0.0;
    };
    std::printf("\nSerial cached sweep: mapper %llu/%llu hits/misses "
                "(%.1f%%), stores %llu/%llu (%.1f%%)\n",
                static_cast<unsigned long long>(cached.mapperHits),
                static_cast<unsigned long long>(cached.mapperMisses),
                hitRate(cached.mapperHits, cached.mapperMisses),
                static_cast<unsigned long long>(cached.storeHits),
                static_cast<unsigned long long>(cached.storeMisses),
                hitRate(cached.storeHits, cached.storeMisses));

    // ---- 2. reconfiguration latency --------------------------------
    std::vector<ReconfigResult> reconfigs;
    for (const Workload &w : workloads)
        reconfigs.push_back(runReconfig(w, hw, reconfigRounds));

    TextTable rt("Re-schedule latency (ms per build, " +
                 std::to_string(reconfigRounds) + " rounds)");
    rt.header({"workload", "cold", "warm", "speedup", "identical"});
    double coldSum = 0.0, warmSum = 0.0;
    double bestSpeedup = 0.0;
    bool schedulesIdentical = true;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const ReconfigResult &r = reconfigs[i];
        const double spd =
            r.warmMs > 0.0 ? r.coldMs / r.warmMs : 0.0;
        bestSpeedup = std::max(bestSpeedup, spd);
        coldSum += r.coldMs;
        warmSum += r.warmMs;
        schedulesIdentical = schedulesIdentical && r.identical;
        rt.row({workloads[i].name, TextTable::num(r.coldMs, 2),
                TextTable::num(r.warmMs, 3), TextTable::mult(spd),
                r.identical ? "yes" : "NO"});
    }
    rt.print(std::cout);

    // ---- 3. delta re-schedule latency ------------------------------
    const DeltaResult del = runDeltaBench(workloads, hw, deltaRounds);
    const double deltaSpeedupP99 =
        del.deltaP99 > 0.0 ? del.fullP99 / del.deltaP99 : 0.0;
    std::printf("\nDelta re-schedule (%s, %llu segments, %d rounds): "
                "warm full p50/p99 %.3f/%.3f ms, splice p50/p99 "
                "%.4f/%.4f ms (p99 %.1fx), schedules %s\n",
                del.workload.c_str(),
                static_cast<unsigned long long>(del.segmentsTotal),
                deltaRounds, del.fullP50, del.fullP99, del.deltaP50,
                del.deltaP99, deltaSpeedupP99,
                del.identical ? "identical" : "DIVERGED");

    // ---- BENCH_sweep.json ------------------------------------------
    const std::string jsonPath =
        args.getString("json", "BENCH_sweep.json");
    const bool warmFaster = warmSum < coldSum;
    {
        std::ofstream out(jsonPath);
        std::ostringstream os;
        os << "{\n  \"bench\": \"perf_selfcheck\",\n  "
           << buildStampJson() << ",\n  \"jobs\": " << p.jobs
           << ",\n  \"batches\": " << p.batches
           << ",\n  \"batch_size\": " << p.batchSize
           << ",\n  \"runs\": " << workloads.size() * designs.size()
           << ",\n  \"serial_uncached_ms\": " << base.wallMs
           << ",\n  \"serial_cached_ms\": " << cached.wallMs
           << ",\n  \"parallel_cached_ms\": " << parallel.wallMs
           << ",\n  \"speedup_cache\": "
           << base.wallMs / cached.wallMs
           << ",\n  \"speedup_total\": "
           << base.wallMs / parallel.wallMs
           << ",\n  \"mapper_hits\": " << cached.mapperHits
           << ",\n  \"mapper_misses\": " << cached.mapperMisses
           << ",\n  \"store_hits\": " << cached.storeHits
           << ",\n  \"store_misses\": " << cached.storeMisses
           << ",\n  \"reports_identical\": "
           << (eqCached && eqParallel ? "true" : "false")
           << ",\n  \"reconfig\": [\n";
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            const ReconfigResult &r = reconfigs[i];
            os << "    {\"workload\": \"" << workloads[i].name
               << "\", \"cold_ms\": " << r.coldMs
               << ", \"warm_ms\": " << r.warmMs << ", \"speedup\": "
               << (r.warmMs > 0.0 ? r.coldMs / r.warmMs : 0.0)
               << ", \"store_hits\": " << r.storeHits
               << ", \"store_misses\": " << r.storeMisses
               << ", \"schedules_identical\": "
               << (r.identical ? "true" : "false") << "}"
               << (i + 1 < workloads.size() ? "," : "") << "\n";
        }
        os << "  ],\n  \"reconfig_cold_ms\": " << coldSum
           << ",\n  \"reconfig_warm_ms\": " << warmSum
           << ",\n  \"reconfig_speedup\": " << bestSpeedup
           << ",\n  \"schedules_identical\": "
           << (schedulesIdentical ? "true" : "false")
           << ",\n  \"delta_workload\": \"" << del.workload << "\""
           << ",\n  \"delta_segments\": " << del.segmentsTotal
           << ",\n  \"delta_full_p50_ms\": " << del.fullP50
           << ",\n  \"delta_full_p99_ms\": " << del.fullP99
           << ",\n  \"delta_p50_ms\": " << del.deltaP50
           << ",\n  \"delta_p99_ms\": " << del.deltaP99
           << ",\n  \"delta_speedup_p99\": " << deltaSpeedupP99
           << ",\n  \"delta_identical\": "
           << (del.identical ? "true" : "false") << "\n}\n";
        out << os.str();
    }
    std::printf("Wrote %s\n", jsonPath.c_str());

    const bool deltaOk = del.identical && deltaSpeedupP99 >= 10.0;
    const bool pass = eqCached && eqParallel && schedulesIdentical &&
                      warmFaster && deltaOk;
    if (!pass) {
        std::printf("\nFAIL:%s%s%s%s\n",
                    !eqCached || !eqParallel
                        ? " sweep reports diverge from the seed path;"
                        : "",
                    !schedulesIdentical
                        ? " warm-built schedules differ from cold;"
                        : "",
                    !warmFaster
                        ? " warm re-schedules not faster than cold;"
                        : "",
                    !deltaOk ? " delta re-schedule p99 below 10x the "
                               "warm full rebuild (or splice "
                               "diverged);"
                             : "");
        return 1;
    }
    std::printf("\nPASS: cached/parallel sweeps and warm re-schedules "
                "are equivalent to the seed path, warm re-schedules "
                "are faster than cold, and delta re-schedule p99 "
                "clears 10x the warm full rebuild\n");
    return 0;
}
