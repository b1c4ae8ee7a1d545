/**
 * @file
 * The benchmark's four workloads (serve-drift, pod-scaleout,
 * offline-sweep, reschedule) behind one interface, plus the layer
 * probe that the traced run adds.
 *
 * A cell is one call into a public entry point (one
 * ServeRuntime::run, one PodRuntime::run, one System::run, one
 * Scheduler build or one ScheduleSearch::run). A round runs every
 * cell of the workload once on one input set; rounds cycle through a
 * fixed pool of input sets derived from the seed, so host medians
 * pool many distinct inputs and repeated inputs check determinism.
 * The first full cycle always runs and alone feeds the simulated
 * metrics, which are therefore exact functions of the seed. Every
 * cell builds its own Mapper and KernelStoreCache (a reschedule group
 * shares one across its cold, warm, delta and search calls, in a
 * fixed order), so a cell's host time never depends on what ran
 * before it in the process.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/dyngraph.hh"
#include "harness.hh"
#include "trace/trace.hh"

namespace perfbench {

/** Input sizes: the benchmark proper, or the smoke test's. */
enum class Scale { Full, Tiny };

/** What one cell did, as seen from outside the call. */
struct CellOutcome
{
    /** Host time of the call, ms. */
    double ms = 0.0;

    /** Digest of the cell's simulated output (report JSON bytes or
     * schedule fingerprint). */
    std::uint64_t digest = 0;

    /** Empty when every output check passed. */
    std::string failure;

    /** Index of the model the cell ran (into the probe's list). */
    int model = -1;

    /** Simulated requests completed and engine batches executed
     * (0 for schedule builds). */
    double requests = 0.0;
    double batches = 0.0;

    /** Trace draws the call made: batch-1 request draws and draws
     * at the compiled batch size (for the self-time estimate). */
    double requestDraws = 0.0;
    double batchDraws = 0.0;
};

/** One model the layer probe exercises. */
struct ProbeModel
{
    const adyna::graph::DynGraph *dg = nullptr;
    adyna::trace::TraceConfig trace; ///< batchSize = the workload's
    std::string name;
};

/** What the layer probe runs for a workload. */
struct ProbeSpec
{
    std::vector<ProbeModel> models;

    /** Batches per Engine::runPeriod call: one formed batch when
     * serving, the reconfiguration period offline. */
    int periodBatches = 1;

    /** runPeriod calls per model. */
    int periods = 1;
};

/** Per-model host costs the probe measured (self-time estimates). */
struct ProbeCosts
{
    std::vector<double> usPerBatch;
    std::vector<double> usPerRequestDraw;
    std::vector<double> usPerBatchDraw;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Model build, graph parse, capacity calibration and profiling:
     * everything before the first timed cell. */
    virtual void setup(SpanLog &spans) = 0;

    /** One round's cells, in run order. Repeated calls share a
     * label; host samples are grouped by label. */
    virtual const std::vector<std::string> &cells() const = 0;

    /** Size of the input-set pool the rounds cycle through. */
    virtual int inputSets() const = 0;

    /** Run cell @p i once on input set @p input. @p first marks the
     * first cycle, whose outputs feed the simulated metrics. */
    virtual CellOutcome runCell(std::size_t i, int input, bool first,
                                SpanLog &spans) = 0;

    /** Simulated metrics from the first cycle: the end-to-end
     * sim_score and the per-layer sim.* latencies. */
    virtual void simulatedMetrics(Metrics &e2e, Metrics &layer) const = 0;

    /** Per-layer counters from the first cycle's reports, per cell.
     * Counters of layers the workload does not exercise stay 0. */
    virtual void layerCounters(Metrics &out) const = 0;

    /** The models, batch size and period length for the probe. */
    virtual ProbeSpec probeSpec() const = 0;

    /** Name of the span around the workload's runtime call
     * ("serve.run", "pod.run" or "core.system.run"); empty when its
     * cells are scheduler and search calls. */
    virtual std::string runSpan() const = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** A fresh workload; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, Scale scale);

/** Per-layer counters every workload reports, all set to 0 (a
 * workload overwrites the layers it exercises). */
void zeroLayerCounters(Metrics &out);

/**
 * The layer probe: for each model at the workload's batch size and
 * seed, time TraceGenerator::next at batch 1 and at the batch size,
 * cold / warm / one-op-delta Scheduler builds, Engine::runPeriod on a
 * fresh Chip in the workload's period length, and one
 * ScheduleSearch::run; then read the NoC and HBM counters. Fills the
 * probe's per-layer metrics and returns the per-model host costs.
 */
ProbeCosts runProbe(const ProbeSpec &spec, std::uint64_t seed,
                    Scale scale, SpanLog &spans, Metrics &out);

/** Mix @p a and @p b into @p seed (splitmix64 finaliser). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b = 0);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
