/**
 * @file
 * Request arrival processes for the online serving runtime: open-loop
 * load generators producing monotone request timestamps in simulated
 * accelerator cycles. Three kinds are supported — Poisson (the
 * classic open-loop assumption), a 2-state Markov-modulated Poisson
 * process (bursty traffic: a high-rate burst state with exponential
 * dwell times), and replay of a recorded arrival-timestamp file (the
 * hook for driving the simulator with production traffic traces).
 * Deterministic given (config, seed).
 */

#ifndef ADYNA_SERVE_ARRIVAL_HH
#define ADYNA_SERVE_ARRIVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace adyna::serve {

/** The supported arrival process families. */
enum class ArrivalKind {
    Poisson, ///< memoryless arrivals at a fixed mean rate
    Bursty,  ///< 2-state MMPP: burst state multiplies the rate
    Replay,  ///< timestamps replayed from a trace file
};

/** Arrival process parameters. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;

    /** Long-run mean arrival rate, requests per second (Poisson and
     * Bursty; the burst/normal split is derived so the mean holds). */
    double ratePerSec = 2000.0;

    /** Bursty: rate multiplier while in the burst state. */
    double burstRateMultiplier = 4.0;

    /** Bursty: long-run fraction of time spent in the burst state,
     * in (0, 1). */
    double burstFraction = 0.15;

    /** Bursty: mean dwell time in the burst state, seconds. */
    double burstDwellSec = 0.02;

    /** Replay: path of an arrival-timestamp file (one ascending
     * timestamp in seconds per line; '#' comments allowed). The
     * trace wraps around, shifted by its span, when exhausted. */
    std::string traceFile;
};

/** One timestamped arrival stream. */
class ArrivalProcess
{
  public:
    /** @param freq_ghz the chip clock that converts seconds to
     * ticks. */
    ArrivalProcess(ArrivalConfig cfg, double freq_ghz,
                   std::uint64_t seed);

    /** Tick of the next arrival; non-decreasing across calls. */
    Tick next();

    /** Arrivals drawn so far. */
    std::uint64_t generated() const { return generated_; }

  private:
    /** Exponential inter-arrival draw at @p rate_per_sec. */
    double expDraw(double rate_per_sec);

    ArrivalConfig cfg_;
    double freqGhz_;
    Rng rng_;
    std::uint64_t generated_ = 0;
    double nowSec_ = 0.0;

    // Bursty (MMPP-2) state.
    bool inBurst_ = false;
    double stateEndSec_ = 0.0;
    double normalRate_ = 0.0; ///< base-state rate achieving the mean

    // Replay state.
    std::vector<double> replaySec_;
    std::size_t replayCursor_ = 0;
    double replayOffsetSec_ = 0.0;
};

/**
 * Load an arrival-timestamp trace: one timestamp in seconds per
 * line, ascending, '#'-prefixed comments and blank lines ignored.
 * fatal() on unreadable files or non-monotone timestamps.
 */
std::vector<double> loadArrivalTrace(const std::string &path);

/** Write an arrival-timestamp trace in the loadArrivalTrace format. */
void saveArrivalTrace(const std::string &path,
                      const std::vector<double> &timestamps_sec);

} // namespace adyna::serve

#endif // ADYNA_SERVE_ARRIVAL_HH
