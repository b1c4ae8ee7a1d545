/**
 * @file
 * Observability of one schedule-search run (src/search). Lives in
 * core so reports can carry the counters without depending on the
 * search library (search depends on core, never the reverse).
 */

#ifndef ADYNA_CORE_SEARCH_STATS_HH
#define ADYNA_CORE_SEARCH_STATS_HH

#include <cstdint>

#include "common/types.hh"

namespace adyna::core {

/** What one ScheduleSearch::run() did and cost. Counters accumulate
 * across runs when the same struct is passed repeatedly (the serving
 * runtime sums every drift-window search into one report). */
struct SearchStats
{
    /** Surrogate-evaluated mutations across all chains (SA proposals
     * plus beam-refine probes). */
    std::uint64_t candidatesTried = 0;

    /** Mutations the annealer/refiner kept (accepted moves). */
    std::uint64_t candidatesAccepted = 0;

    /** Candidate schedules materialized through Scheduler::buildDelta
     * and costed on the probe engine. */
    std::uint64_t materialized = 0;

    /** Segments rebuilt vs spliced across all materializations (the
     * cheap-mutate claim: most candidates splice most segments). */
    std::uint64_t segmentsRebuilt = 0;
    std::uint64_t segmentsSpliced = 0;

    /** Materializations that rebuilt every segment (no splice). */
    std::uint64_t fullRebuilds = 0;

    /** Modeled cycles the search consumed (mutations, evaluations,
     * store compiles) — what the serve watchdog charges. */
    Cycles budgetSpentCycles = 0;

    /** Searches that hit their cycle budget and stopped early. */
    std::uint64_t budgetExhausted = 0;

    /** Parallel chains the last run used. */
    int chains = 0;

    /** Probe makespan of the heuristic baseline vs the best searched
     * schedule (ticks; last run). searchedCost == heuristicCost when
     * the search fell back to the heuristic. */
    double heuristicCost = 0.0;
    double searchedCost = 0.0;

    /** The last run's best schedule beat the heuristic baseline. */
    bool improved = false;

    /**
     * Cache traffic attributed to candidate evaluation (store cache,
     * mapper memo). Scoped here so the run-level and serve cache
     * counters reflect the installed schedule, not the rejected
     * candidates.
     */
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t mapperHits = 0;
    std::uint64_t mapperMisses = 0;
};

} // namespace adyna::core

#endif // ADYNA_CORE_SEARCH_STATS_HH
