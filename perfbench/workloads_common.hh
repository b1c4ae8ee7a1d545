/**
 * @file
 * Helpers shared by the workloads and the layer probe (internal to
 * the benchmark).
 */

#ifndef PERFBENCH_WORKLOADS_COMMON_HH
#define PERFBENCH_WORKLOADS_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/hwconfig.hh"
#include "arch/profiler.hh"
#include "core/schedule.hh"
#include "graph/dyngraph.hh"
#include "harness.hh"
#include "models/models.hh"
#include "search/search.hh"
#include "serve/server.hh"
#include "trace/trace.hh"
#include "workloads.hh"

namespace perfbench {

/** The Table III chip every workload runs on. */
inline const adyna::arch::HwConfig kHw{};

/** Simulated ticks to milliseconds on kHw's clock. */
inline double
ticksToMs(adyna::Tick ticks)
{
    return static_cast<double>(ticks) / (kHw.tech.freqGhz * 1e6);
}

/** One model: the registry bundle and its parsed graph. */
struct Model
{
    adyna::models::ModelBundle bundle;
    adyna::graph::DynGraph dg;
};

/** Build and parse a registry model, with setup spans. */
Model buildModel(const std::string &key, std::int64_t batch,
                 SpanLog &spans);

/** Digest of everything a schedule compiles down to, including the
 * encoded kernel images. */
std::uint64_t scheduleDigest(const adyna::core::Schedule &schedule);

/** Profiled build inputs of one model at one seed. */
struct BuildInputs
{
    adyna::arch::Profiler profiler;
    std::map<adyna::OpId, double> expectations;
    std::map<adyna::OpId, std::vector<std::int64_t>> kernelValues;

    /** Batches drawn after the profile, from the same stream. */
    std::vector<adyna::trace::BatchRouting> probe;

    /** The op a one-op delta build names: a dynamic op of the
     * heuristic partition picked by seed (the first op when the model
     * has no dynamic op). */
    adyna::OpId changedOp = adyna::kInvalidOp;
};

/** The standard 40-batch offline profile of @p dg under @p tc at
 * @p seed (the System / ServeRuntime profiling loop), then
 * @p probe_batches further draws from the same stream. */
BuildInputs profileInputs(const adyna::graph::DynGraph &dg,
                          const adyna::trace::TraceConfig &tc,
                          std::uint64_t seed, int probe_batches);

/** The benchmark's search policy: 4 chains, 4000 mutations (200 at
 * tiny scale), 6 candidates materialised. */
adyna::search::SearchConfig searchConfig(Scale scale, std::uint64_t seed);

/** Empty when a serving run's accounting holds: completed + shed =
 * issued and p50 <= p99 <= max. */
std::string serveFailure(const adyna::serve::ServeReport &report,
                         int issued);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_COMMON_HH
