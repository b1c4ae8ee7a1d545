/**
 * @file
 * Distribution-shift detection for the serving runtime: the monitor
 * keeps the per-request dyn-value distributions the current schedule
 * was built from (a Profiler table snapshot) and compares each
 * observation window against them with the windowed L1 distance
 * (arch::Profiler::driftL1). A re-schedule triggers only after a
 * configurable number of consecutive hot windows (hysteresis) and is
 * followed by a cooldown, so sampling noise on a stationary stream
 * cannot cause re-schedule storms.
 */

#ifndef ADYNA_SERVE_DRIFT_HH
#define ADYNA_SERVE_DRIFT_HH

#include "arch/profiler.hh"
#include "common/types.hh"
#include "graph/dyngraph.hh"
#include "trace/trace.hh"

namespace adyna::serve {

/** Drift detection policy. */
struct DriftConfig
{
    /** Requests per observation window. */
    int windowRequests = 256;

    /** Absolute drift distance (see DriftMonitor::distanceTo, in
     * [0, 2]) above which a window counts as hot; the floor of the
     * effective threshold. */
    double threshold = 0.15;

    /** The effective threshold is max(threshold, noiseMultiplier x
     * the measured same-distribution noise floor), so one policy
     * works across workloads whose sampling noise differs by an
     * order of magnitude (binary skip gates vs expert histograms). */
    double noiseMultiplier = 2.5;

    /** Consecutive hot windows required to trigger a re-schedule. */
    int hysteresisWindows = 2;

    /** Windows after a trigger during which no new trigger fires
     * (the pipeline-drain + re-sampling cost must amortize). */
    int cooldownWindows = 2;
};

/**
 * The drift profiler's synthetic series: a request's total dynamic
 * load (the sum of its dyn-op values). Exit/skip gates are binary per
 * request and all shift together under a drift phase, so each op's
 * own distribution moves only slightly while the execution-path-length
 * distribution moves a lot — this series captures that correlated
 * shift. Its id is one past the graph's ops: a dense slot that sorts
 * after every op, so the drift sums take it last. It only ever enters
 * the drift profiler, never the scheduler.
 */
OpId loadSeriesOp(const graph::DynGraph &dg);

/**
 * Record one request's dyn-value draws into a drift profiler: one
 * noted batch, each dynamic op's value, and their sum at
 * loadSeriesOp(). Once every value is in its table this allocates
 * nothing.
 */
void recordRequest(arch::Profiler &prof, const graph::DynGraph &dg,
                   const trace::BatchRouting &routing);

/** Windowed L1 drift detector with hysteresis and cooldown. */
class DriftMonitor
{
  public:
    explicit DriftMonitor(DriftConfig cfg);

    /** Install the reference distributions the active schedule was
     * built from (typically Profiler::tablesSnapshot()). Clears the
     * hot streak and starts the cooldown. */
    void setReference(arch::FreqTables reference);

    /** Calibrate the same-distribution noise floor: the L1 distance
     * measured between two windows of known-identical traffic (e.g.
     * two halves of the reference probe stream). */
    void setNoiseFloor(double floor);

    /** The threshold actually compared against. */
    double effectiveThreshold() const;

    /**
     * Distance of @p profiler's current tables from the reference:
     * the worse of the bucketed shape distance (Profiler::driftL1)
     * and the per-op relative expectation shift, clamped to the same
     * [0, 2] scale. The expectation term is what bucketing can hide:
     * a tail that moves a lot of compute (deeper early-exits, say)
     * barely dents the bucket masses but moves the mean — and the
     * scheduler allocates tiles by exactly these expectations, so a
     * mean shift is by definition a stale schedule. Both walks run in
     * ascending op id (the load series, one past the graph, last),
     * which fixes the order of the expectation sums.
     */
    double distanceTo(const arch::Profiler &profiler) const;

    /**
     * Score one completed window held in @p profiler's frequency
     * tables against the reference. Returns true when the hysteresis
     * criterion is met and the cooldown has expired — the caller
     * should re-schedule and install a new reference. The caller
     * owns resetting the profiler window afterwards.
     */
    bool observe(const arch::Profiler &profiler);

    /** Distance of the most recent window. */
    double lastDistance() const { return lastDistance_; }

    /** Current consecutive-hot-window count. */
    int hotStreak() const { return hotStreak_; }

    /** Windows observed since construction. */
    int windowsObserved() const { return windows_; }

    const arch::FreqTables &reference() const { return reference_; }

  private:
    DriftConfig cfg_;
    /** Indexed by OpId, like the profiler's tables. */
    arch::FreqTables reference_;
    double noiseFloor_ = 0.0;
    double lastDistance_ = 0.0;
    int hotStreak_ = 0;
    int cooldown_ = 0;
    int windows_ = 0;
};

} // namespace adyna::serve

#endif // ADYNA_SERVE_DRIFT_HH
