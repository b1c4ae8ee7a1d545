/**
 * @file
 * Shared helpers for the figure/table reproduction benches: flag
 * parsing, workload construction, design sweeps, and the standard
 * header that echoes the Table III configuration and the run
 * parameters so every bench output is self-describing.
 */

#ifndef ADYNA_BENCH_BENCH_COMMON_HH
#define ADYNA_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "baselines/designs.hh"
#include "baselines/gpu.hh"
#include "common/buildinfo.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "costmodel/mapper.hh"
#include "graph/parser.hh"
#include "models/models.hh"

namespace adyna::bench {

/** Standard run parameters shared by all benches. */
struct BenchParams
{
    int batches = 200;
    std::int64_t batchSize = 128;
    std::uint64_t seed = 7;

    /** Worker threads for the sweep (--jobs N, default hardware
     * concurrency both here and in fromArgs, so benches constructed
     * either way reflect parallel throughput; --jobs 1 = the exact
     * serial seed behaviour). */
    int jobs = ThreadPool::defaultJobs();

    static BenchParams
    fromArgs(const CliArgs &args)
    {
        BenchParams p;
        p.batches = static_cast<int>(args.getInt("batches", 200));
        p.batchSize = args.getInt("batch", 128);
        p.seed = static_cast<std::uint64_t>(args.getInt("seed", 7));
        p.jobs = static_cast<int>(
            args.getInt("jobs", ThreadPool::defaultJobs()));
        if (p.jobs < 1)
            ADYNA_FATAL("--jobs must be a positive worker count, got ",
                        p.jobs, " (omit the flag for the default of ",
                        ThreadPool::defaultJobs(),
                        " hardware threads)");
        return p;
    }
};

/** Print the reproduction banner with Table III and run params. */
inline void
printBanner(const std::string &title, const arch::HwConfig &hw,
            const BenchParams &p)
{
    std::printf("%s\n", title.c_str());
    std::printf("Adyna reproduction | %dx%d tiles, %dx%d FP16 PEs/tile, "
                "%.0f kB spad/tile, %d HBM2 stacks (%.0f GB/s), "
                "2D torus %.0f GB/s/link | %.0f TFLOPS peak\n",
                hw.gridRows, hw.gridCols, hw.tech.peRows,
                hw.tech.peCols,
                static_cast<double>(hw.tech.spadBytes) / 1024.0,
                hw.hbmStacks, hw.hbmTotalBytesPerCycle,
                hw.nocLinkBytesPerCycle, hw.peakTflops());
    std::printf("batches=%d batch-size=%ld seed=%llu\n\n", p.batches,
                static_cast<long>(p.batchSize),
                static_cast<unsigned long long>(p.seed));
    // Harness configuration goes to stderr: stdout must remain
    // byte-identical for any --jobs value.
    std::fprintf(stderr, "[adyna] sweep harness: jobs=%d\n", p.jobs);
}

/** One workload ready to simulate. */
struct Workload
{
    std::string name;        ///< Table I display name
    models::ModelBundle bundle;
    graph::DynGraph dg;
};

/** Build a workload by registry name at the given batch size. */
inline Workload
makeWorkload(const std::string &name, std::int64_t batch_size)
{
    models::ModelBundle bundle = models::buildByName(name, batch_size);
    graph::DynGraph dg = graph::parseModel(bundle.graph);
    return Workload{bundle.name, std::move(bundle), std::move(dg)};
}

/** Build all five paper workloads (Table I). */
inline std::vector<Workload>
makeAllWorkloads(std::int64_t batch_size)
{
    std::vector<Workload> out;
    for (const std::string &name : models::workloadNames())
        out.push_back(makeWorkload(name, batch_size));
    return out;
}

/** Run one accelerator design on one workload. @p shared_mapper,
 * when non-null, memoizes mapping searches across runs (must match
 * hw.tech). */
inline core::RunReport
runDesign(const Workload &w, baselines::Design design,
          const BenchParams &p, const arch::HwConfig &hw,
          costmodel::Mapper *shared_mapper = nullptr)
{
    trace::TraceConfig cfg = w.bundle.traceConfig;
    cfg.batchSize = p.batchSize;
    auto sys = baselines::makeSystem(w.dg, cfg, hw, design, p.batches,
                                     p.seed);
    sys.setSharedMapper(shared_mapper);
    return sys.run();
}

/** Run the GPU baseline on one workload. */
inline core::RunReport
runGpuBaseline(const Workload &w, const BenchParams &p)
{
    trace::TraceConfig cfg = w.bundle.traceConfig;
    cfg.batchSize = p.batchSize;
    return baselines::runGpu(w.dg, cfg, baselines::GpuParams{},
                             p.batches, p.seed);
}

/**
 * The parallel sweep harness: a thread pool sized by --jobs plus one
 * mapping-search cache shared by every run of the sweep (for a fixed
 * HwConfig). Benches enumerate their independent (workload, design)
 * runs as tasks, `map` executes them concurrently, and results come
 * back in input order so the printed tables are deterministic and
 * byte-identical to the serial --jobs 1 sweep.
 */
class Sweep
{
  public:
    Sweep(const BenchParams &p, const arch::HwConfig &hw)
        : p_(p), pool_(p.jobs), mapper_(hw.tech)
    {
    }

    /** Run fn(0..n-1) concurrently; results in input order. */
    template <typename Fn>
    auto
    map(std::size_t n, Fn &&fn)
        -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>>
    {
        return pool_.parallelMap(n, std::forward<Fn>(fn));
    }

    /** The sweep-wide shared mapper. */
    costmodel::Mapper *
    sharedMapper()
    {
        return &mapper_;
    }

    /** runDesign through the shared mapper. */
    core::RunReport
    run(const Workload &w, baselines::Design d, const arch::HwConfig &hw)
    {
        return runDesign(w, d, p_, hw, sharedMapper());
    }

    /** runDesign with per-task params (batch-size sweeps etc.). */
    core::RunReport
    run(const Workload &w, baselines::Design d, const BenchParams &bp,
        const arch::HwConfig &hw)
    {
        return runDesign(w, d, bp, hw, sharedMapper());
    }

  private:
    BenchParams p_;
    ThreadPool pool_;
    costmodel::Mapper mapper_;
};

/** A workload's serving capacity at the compiled batch size; the
 * serving benches derive arrival rates, batching waits and SLO
 * deadlines from it. */
struct Calibration
{
    double capacityRps = 0.0;     ///< max request throughput
    double batchIntervalMs = 0.0; ///< steady-state ms per batch
};

/** Calibrate every workload on @p sweep: 60 Adyna-static batches at
 * @p p's batch size. Results in workload order. */
inline std::vector<Calibration>
calibrate(Sweep &sweep, const std::vector<Workload> &workloads,
          const BenchParams &p, const arch::HwConfig &hw)
{
    return sweep.map(workloads.size(), [&](std::size_t i) {
        BenchParams cp = p;
        cp.batches = 60;
        const core::RunReport r =
            runDesign(workloads[i], baselines::Design::AdynaStatic, cp,
                      hw, sweep.sharedMapper());
        Calibration c;
        c.capacityRps =
            r.batchesPerSecond * static_cast<double>(p.batchSize);
        c.batchIntervalMs = 1e3 / r.batchesPerSecond;
        return c;
    });
}

/**
 * Write a BENCH_*.json file: the bench name, the build stamp on one
 * line, the fields @p header(w) writes, and the array @p runs_key of
 * @p count objects whose fields @p run(w, i) writes. No jobs or
 * wall-clock field, so the file is the same at any --jobs value.
 */
template <typename Header, typename Run>
void
writeBenchJson(const std::string &path, const char *bench,
               Header &&header, const char *runs_key, std::size_t count,
               Run &&run)
{
    JsonWriter w;
    w.beginObject(JsonLayout::Indented)
        .field("bench", bench)
        .field("git_sha", gitSha()).sameLine()
        .field("build_type", buildType()).sameLine()
        .field("sanitize", sanitizerMode());
    header(w);
    w.key(runs_key).beginArray(JsonLayout::Indented);
    for (std::size_t i = 0; i < count; ++i) {
        run(w.beginObject(), i);
        w.endObject();
    }
    w.endArray().endObject();
    std::ofstream out(path);
    out << w.take() << '\n';
}

} // namespace adyna::bench

#endif // ADYNA_BENCH_BENCH_COMMON_HH
