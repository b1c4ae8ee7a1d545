/**
 * @file
 * The benchmark program: set up one workload (several times, for the
 * set-up time), run its cells in rounds for the measured time, check
 * every cell's output, and print the metrics. The last stdout line is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--scale full|tiny] [--spans PATH]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 is the traced
 * run: it records spans around the benchmark's calls into each layer
 * (written to --spans at exit), runs the layer probe, and reports the
 * per-layer metrics.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10.0;
    bool trace = false;
    Scale scale = Scale::Full;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--scale full|tiny] [--spans PATH]\nworkloads:",
                 msg);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0' || val.empty() || val[0] == '-')
                usage("--seed takes a non-negative integer");
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0.0 && o.seconds <= 120.0))
                usage("--seconds takes a number in (0, 120]");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (key == "--scale") {
            if (val != "full" && val != "tiny")
                usage("--scale takes full or tiny");
            o.scale = val == "tiny" ? Scale::Tiny : Scale::Full;
        } else if (key == "--spans") {
            o.spansPath = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/** Host samples of one cell label across rounds: raw ms, and the
 * index of the reference timing taken before each call. */
struct LabelStats
{
    std::vector<double> ms;
    std::vector<std::size_t> ref;
    std::vector<bool> traced;
    std::vector<double> selfEstMs;
};

/**
 * Reference timings interleaved with the measured calls: the
 * reference kernel runs once before the first call and again after a
 * call whenever 25 ms have passed. A call's scaled host time is its
 * raw time over the mean of the reference timings just before and
 * just after it, in units of the kernel's nominal 1 ms: raw ms on an
 * idle machine, and steady when other tenants slow the machine down
 * for a while. One run per timing: the simulator's work in between
 * evicts the table, and a second run straight after would time a
 * cache-resident table instead. Timing only between rounds, up to
 * 2 s apart, tracked contention too loosely (see README.md).
 */
class ReferenceClock
{
  public:
    ReferenceClock() { time(); }

    /** Index of the latest reference timing. */
    std::size_t latest() const { return ms_.size() - 1; }

    /** Between calls: time the kernel if 25 ms have passed. */
    void
    maybeTime()
    {
        if (nowMs() - last_ >= 25.0)
            time();
    }

    void
    time()
    {
        ms_.push_back(kernel_.runMs());
        last_ = nowMs();
    }

    double
    scaled(double ms, std::size_t ref) const
    {
        const double r = ref + 1 < ms_.size()
                             ? 0.5 * (ms_[ref] + ms_[ref + 1])
                             : ms_[ref];
        return ms * ReferenceKernel::kNominalMs / r;
    }

    double medianMs() const { return median(ms_); }

  private:
    ReferenceKernel kernel_;
    std::vector<double> ms_;
    double last_ = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    if (!makeWorkload(opt.workload, opt.seed, opt.scale))
        usage(("unknown workload " + opt.workload).c_str());

    SpanLog spans;
    spans.setEnabled(opt.trace);

    ReferenceClock clock;

    // ---- set-up, repeated: setup_s is the median -------------------
    // At least five set-ups and one second of them (a sub-millisecond
    // set-up stops at 200 repetitions).
    std::vector<double> setupMs;
    std::vector<std::size_t> setupRef;
    std::unique_ptr<Workload> wl;
    double setupTotal = 0.0;
    while (setupMs.size() < 5 ||
           (setupTotal < 1000.0 && setupMs.size() < 200)) {
        wl.reset(); // never hold two set-ups at once (peak RSS)
        wl = makeWorkload(opt.workload, opt.seed, opt.scale);
        const std::size_t ref = clock.latest();
        const double t0 = nowMs();
        wl->setup(spans);
        setupMs.push_back(nowMs() - t0);
        setupTotal += setupMs.back();
        setupRef.push_back(ref);
        clock.maybeTime();
    }

    Metrics layer;
    ProbeCosts probe;
    if (opt.trace) {
        probe = runProbe(wl->probeSpec(), opt.seed, opt.scale, spans,
                         layer);
        clock.maybeTime();
    }

    // ---- measured rounds -------------------------------------------
    const std::vector<std::string> &cells = wl->cells();
    std::map<std::string, LabelStats> stats;
    std::vector<std::string> order; // first-appearance label order
    for (const std::string &c : cells)
        if (stats.emplace(c, LabelStats{}).second)
            order.push_back(c);

    // Rounds cycle through the input sets; the first cycle always
    // runs in full (it feeds the simulated metrics), then rounds
    // continue until the measured time is up. A repeated input must
    // reproduce its first digest.
    const int inputs = wl->inputSets();
    const std::string runSpan = wl->runSpan();
    std::map<std::pair<std::string, int>, std::uint64_t> digests;
    std::vector<std::pair<std::string, int>> digestOrder;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> requestRates, batchRates;
    const double start = nowMs();
    const double deadline = start + opt.seconds * 1e3;
    int rounds = 0;
    bool done = false;
    for (int round = 0; !done; ++round) {
        const int input = round % inputs;
        const bool first = round < inputs;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!first && nowMs() >= deadline) {
                done = true;
                break;
            }
            // The traced run alternates traced and untraced calls per
            // label, for the span overhead.
            const bool traced =
                opt.trace && (static_cast<std::size_t>(round) + i) % 2 == 1;
            spans.setEnabled(traced);
            const std::size_t ref = clock.latest();
            const CellOutcome out = wl->runCell(i, input, first, spans);
            clock.maybeTime();
            ++attempted;
            LabelStats &ls = stats[cells[i]];
            ls.ms.push_back(out.ms);
            ls.ref.push_back(ref);
            ls.traced.push_back(traced);
            std::string failure = out.failure;
            const auto key = std::make_pair(cells[i], input);
            const auto [it, fresh] = digests.emplace(key, out.digest);
            if (fresh)
                digestOrder.push_back(key);
            else if (it->second != out.digest && failure.empty())
                failure = "output differs from an earlier run of the "
                          "same inputs";
            if (!failure.empty()) {
                ++failed;
                std::fprintf(stderr,
                             "perfbench: cell %s (input %d) failed: %s\n",
                             cells[i].c_str(), input, failure.c_str());
            }
            const double sec = out.ms * 1e-3;
            if (out.requests > 0.0 && sec > 0.0)
                requestRates.push_back(out.requests / sec);
            if (out.batches > 0.0 && sec > 0.0)
                batchRates.push_back(out.batches / sec);
            if (traced && !runSpan.empty() && out.model >= 0 &&
                !probe.usPerBatch.empty()) {
                const auto m = static_cast<std::size_t>(out.model);
                ls.selfEstMs.push_back(
                    out.ms -
                    (out.batches * probe.usPerBatch[m] +
                     out.requestDraws * probe.usPerRequestDraw[m] +
                     out.batchDraws * probe.usPerBatchDraw[m]) *
                        1e-3);
            }
        }
        rounds = round + 1;
    }
    clock.time(); // closes the last calls' bracket
    spans.setEnabled(opt.trace);
    const double measuredS = (nowMs() - start) * 1e-3;
    std::vector<double> setupScaled;
    for (std::size_t k = 0; k < setupMs.size(); ++k)
        setupScaled.push_back(clock.scaled(setupMs[k], setupRef[k]));

    // ---- end-to-end metrics ----------------------------------------
    // Host times are reference-scaled medians per label (see
    // ReferenceClock); raw medians are reported beside them.
    // The traced run's per-label figures come from the same pass.
    std::vector<double> medians, rawMedians, p90s, overhead, spanMs,
        selfEst;
    std::size_t samples = 0;
    for (const std::string &label : order) {
        const LabelStats &ls = stats[label];
        std::vector<double> scaled, traced, untraced, tracedRaw;
        for (std::size_t k = 0; k < ls.ms.size(); ++k) {
            scaled.push_back(clock.scaled(ls.ms[k], ls.ref[k]));
            (ls.traced[k] ? traced : untraced).push_back(scaled.back());
            if (ls.traced[k])
                tracedRaw.push_back(ls.ms[k]);
        }
        medians.push_back(median(scaled));
        rawMedians.push_back(median(ls.ms));
        p90s.push_back(percentile(scaled, 0.9));
        if (!traced.empty() && !untraced.empty())
            overhead.push_back(median(traced) / median(untraced));
        if (!tracedRaw.empty())
            spanMs.push_back(median(tracedRaw));
        if (!ls.selfEstMs.empty())
            selfEst.push_back(median(ls.selfEstMs));
        samples += ls.ms.size();
    }

    Metrics e2e;
    e2e.set("host_ms_per_cell", geomean(medians), "ms");
    e2e.set("setup_s", median(setupScaled) * 1e-3, "s");
    e2e.set("peak_rss_mb", peakRssMb(), "MB");
    wl->simulatedMetrics(e2e, layer);

    // ---- per-layer metrics (traced run) ----------------------------
    double selfMean = 0.0;
    for (double x : selfEst)
        selfMean += x / static_cast<double>(selfEst.size());
    const auto setupReps = static_cast<double>(setupMs.size());
    const auto spanTotal = [&](const char *name) {
        double sum = 0.0;
        for (double ms : spans.durationsMs(name))
            sum += ms;
        return sum / setupReps;
    };
    layer.set("bench.span_overhead_pct",
              overhead.empty() ? 0.0 : (geomean(overhead) - 1.0) * 100.0,
              "%");
    layer.set("bench.reference_ms", clock.medianMs(), "ms");
    layer.set("host_ms_per_cell.raw", geomean(rawMedians), "ms");
    layer.set("host_ms_per_cell.p90", geomean(p90s), "ms");
    layer.set("host_ms_per_cell.n", static_cast<double>(samples),
              "count");
    layer.set("setup_s.raw", median(setupMs) * 1e-3, "s");
    layer.set("setup_s.n", setupReps, "count");
    // The workload's runtime span; the other runtimes read 0.
    for (const std::string name : {"serve.run", "pod.run", "core.system.run"})
        layer.set(name + "_ms", name == runSpan ? geomean(spanMs) : 0.0,
                  "ms");
    layer.set("runtime.self_ms_est", selfMean, "ms");
    layer.set("sim_requests_per_host_s",
              requestRates.empty() ? 0.0 : median(requestRates), "1/s");
    layer.set("sim_batches_per_host_s",
              batchRates.empty() ? 0.0 : median(batchRates), "1/s");
    layer.set("models.build_ms", spanTotal("models.build"), "ms");
    layer.set("graph.parse_ms", spanTotal("graph.parse"), "ms");
    zeroLayerCounters(layer);
    wl->layerCounters(layer);

    // ---- report ----------------------------------------------------
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "scale=%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0,
                opt.scale == Scale::Tiny ? "tiny" : "full");
    std::printf("setup: %zu reps, median %.4f s raw, %.4f s scaled; "
                "reference kernel median %.4f ms\n",
                setupMs.size(), median(setupMs) * 1e-3,
                median(setupScaled) * 1e-3, clock.medianMs());
    std::printf("measured: %.2f s, %d rounds over %d input sets, %llu "
                "cells attempted, %llu failed\n",
                measuredS, rounds, inputs,
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t k = 0; k < order.size(); ++k)
        std::printf("cell %-30s n=%-4zu median %10.4f ms scaled, "
                    "%10.4f ms raw\n",
                    order[k].c_str(), stats[order[k]].ms.size(),
                    medians[k], rawMedians[k]);
    // One digest per (cell, input set) of the first cycle, and their
    // combination: a host-only change must leave every one unchanged.
    std::uint64_t simDigest = fnv1a({});
    for (const auto &key : digestOrder) {
        const std::uint64_t d = digests[key];
        std::printf("digest %-30s input=%-3d %016llx\n", key.first.c_str(),
                    key.second, static_cast<unsigned long long>(d));
        simDigest = fnv1a(key.first, simDigest);
        simDigest = fnv1a(
            std::string_view(reinterpret_cast<const char *>(&d), sizeof(d)),
            simDigest);
    }
    std::printf("sim_digest %016llx\n",
                static_cast<unsigned long long>(simDigest));

    const Metrics &reported = opt.trace ? layer : e2e;
    bool finite = true;
    for (const Metrics *ms : {&e2e, &layer})
        for (const Metric &m : ms->all()) {
            std::printf("metric %-40s %.6g %s%s\n", m.name.c_str(),
                        m.value, m.unit.c_str(),
                        ms == &reported ? "" : " (not reported)");
            if (ms == &reported && !std::isfinite(m.value))
                finite = false;
        }

    if (opt.trace && !opt.spansPath.empty() &&
        !spans.writeJson(opt.spansPath))
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     opt.spansPath.c_str());

    std::string json = "{\"correct\": ";
    json += failed == 0 && finite ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool firstMetric = true;
    for (const Metric &m : reported.all()) {
        json += firstMetric ? "" : ", ";
        firstMetric = false;
        json += jsonString(m.name) + ": {\"value\": " +
                (std::isfinite(m.value) ? jsonNumber(m.value)
                                        : std::string("0")) +
                ", \"unit\": " + jsonString(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
