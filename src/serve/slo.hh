/**
 * @file
 * Per-request latency accounting for the serving runtime: queueing
 * plus execution latency of every completed request, summarized as
 * p50/p95/p99 percentiles (common/stats percentile) and
 * goodput-under-deadline — the fraction and rate of requests that
 * met their latency SLO.
 */

#ifndef ADYNA_SERVE_SLO_HH
#define ADYNA_SERVE_SLO_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace adyna::serve {

/** Latency service-level objective. */
struct SloConfig
{
    /** End-to-end (arrival to completion) deadline, milliseconds. */
    double deadlineMs = 5.0;
};

/** Collects per-request latencies and SLO attainment. */
class SloTracker
{
  public:
    SloTracker(SloConfig cfg, double freq_ghz);

    /** Record one completed request: @p arrival -> queued until
     * @p dispatch -> finished at @p end (all ticks). */
    void record(Tick arrival, Tick dispatch, Tick end);

    std::uint64_t completed() const { return latencyMs_.size(); }

    /** Requests that met the deadline. */
    std::uint64_t met() const { return met_; }

    /** Fraction of completed requests within the deadline; 1 when
     * nothing completed yet. */
    double sloAttainment() const;

    /** Requests-per-second of deadline-meeting completions over
     * @p horizon_ticks (the goodput of the run). */
    double goodputRps(Tick horizon_ticks) const;

    /** End-to-end latency percentile in milliseconds (q in [0,1]). */
    double latencyPercentileMs(double q) const;

    double meanLatencyMs() const { return latency_.mean(); }
    double maxLatencyMs() const { return latency_.max(); }

    /** Mean time spent queued before dispatch, milliseconds. */
    double meanQueueMs() const { return queue_.mean(); }

    /** Completion tick of the latest recorded request. */
    Tick lastEnd() const { return lastEnd_; }

  private:
    SloConfig cfg_;
    double freqGhz_;
    std::vector<double> latencyMs_;
    RunningStats latency_;
    RunningStats queue_;
    std::uint64_t met_ = 0;
    Tick lastEnd_ = 0;
};

} // namespace adyna::serve

#endif // ADYNA_SERVE_SLO_HH
