/**
 * @file
 * Multi-kernel sampling (Section VII, Algorithms 1 and 2).
 *
 * Given the current set of sampled dyn_dim values and the kernel
 * invocation frequencies reported by the hardware profiler, the
 * scheduler iteratively removes the value whose absence costs the
 * least (Equation 1's punishment) and inserts a new value where it
 * saves the most, redistributing frequencies under a uniform
 * within-range assumption.
 *
 * Also the one copy of a run's bring-up (Figure 4): the offline
 * profile on a probe stream that System, the serving back-end and
 * the search sweep take their first expectations and kernel sample
 * from.
 */

#ifndef ADYNA_CORE_SAMPLING_HH
#define ADYNA_CORE_SAMPLING_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "arch/profiler.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "graph/dyngraph.hh"
#include "trace/trace.hh"

namespace adyna::core {

/**
 * Algorithm 2: redistribute the frequencies of the old sampled
 * values onto the re-sampled values, assuming a uniform distribution
 * inside each old range (v_{i-1}, v_i].
 *
 * @param vals old sampled values, ascending.
 * @param freq frequency of each old value (same length).
 * @param new_vals re-sampled values, ascending.
 * @return per-new-value frequencies (same length as new_vals).
 */
std::vector<double>
redistributeFrequencies(const std::vector<std::int64_t> &vals,
                        const std::vector<double> &freq,
                        const std::vector<std::int64_t> &new_vals);

/**
 * Algorithm 1: re-sample the kernel value set to match the observed
 * frequency distribution. The largest value is never removed (the
 * dispatcher needs a kernel covering the worst case).
 *
 * @param vals current sampled values, ascending.
 * @param freq observed frequency per value.
 * @param iterations maximum move iterations (N in the paper).
 * @return the new sampled values, ascending.
 */
std::vector<std::int64_t>
resampleKernelValues(std::vector<std::int64_t> vals,
                     std::vector<double> freq, int iterations);

/**
 * Bucket a raw dyn_dim value histogram onto a kernel value set: each
 * observed value counts toward the smallest sampled value that is no
 * less than it (the kernel the dispatcher would pick). Values above
 * the maximum count toward the maximum.
 */
std::vector<double>
bucketFrequencies(const FreqHistogram &observed,
                  const std::vector<std::int64_t> &vals);

/**
 * Pull the profiler report into the scheduler's inputs (the
 * reconfiguration step shared by the offline periodic loop and the
 * online serving runtime): replace @p expectations with the
 * frequency-table expectations of every tracked op (kept unchanged
 * if the profiler saw nothing), and, when @p resample is set, run
 * Algorithm 1 re-sampling on every kernel-value set whose op has a
 * non-empty table. The caller still owns resetting the profiler
 * window afterwards.
 */
void refreshScheduleInputs(
    const arch::Profiler &profiler, bool resample,
    std::map<OpId, double> &expectations,
    std::map<OpId, std::vector<std::int64_t>> &kernel_values);

/**
 * Seed of a run's offline probe stream, derived from the run's seed
 * @p run_seed: the routings the offline profile draws, which the
 * serving back-end's drift reference draws again.
 */
constexpr std::uint64_t
probeSeed(std::uint64_t run_seed)
{
    return run_seed ^ 0x517cc1b727220a95ULL;
}

/** Where an offline profile takes batch @p b's routing from. */
using RoutingSource = std::function<trace::BatchRouting(int b)>;

/**
 * Figure 4's offline profile: record @p batches routings from
 * @p next into @p profiler (each batch noted, then each switch's
 * branch loads in `outcomes` order, then each dynamic op's dyn value
 * in `dynamicOps()` order), pull the expectations and, when
 * @p resample is set, the initial kernel sample from it
 * (refreshScheduleInputs), then reset its frequency tables. The
 * branch-load history stays for the first schedule's sharing pairs
 * and grouped branches.
 */
void profileOffline(arch::Profiler &profiler, const graph::DynGraph &dg,
                    int batches, const RoutingSource &next, bool resample,
                    std::map<OpId, double> &expectations,
                    std::map<OpId, std::vector<std::int64_t>> &kernel_values);

/** Fixed reconfiguration overhead charged per re-schedule on top of
 * the natural pipeline drain (the kernel/metadata reload), cycles:
 * System's periodic and fail-over rebuilds and every serving
 * back-end's rebuild. */
inline constexpr Cycles kReconfigOverheadCycles = 10000;

} // namespace adyna::core

#endif // ADYNA_CORE_SAMPLING_HH
