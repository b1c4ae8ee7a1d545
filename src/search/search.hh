/**
 * @file
 * Anytime, budget-bounded schedule search: K simulated-annealing
 * chains over the cheap-mutate plan tree (tree.hh), a greedy refine
 * tail per chain, and a serial materialization pass that evaluates
 * the surviving candidates on the real engine. The whole run is
 * byte-stable across thread counts: the chain count is configuration
 * (not --jobs), every chain owns a seeded RNG stream, and candidates
 * are merged/tie-broken by (cost, fingerprint).
 *
 * Budget semantics: the search charges itself a modeled cycle cost
 * (mutations, materializations, store compiles) against
 * SearchConfig::cycleBudget and stops before it would overspend —
 * the serve runtime uses this to run the search inside its watchdog
 * re-schedule budget with the heuristic schedule as the fallback.
 */

#ifndef ADYNA_SEARCH_SEARCH_HH
#define ADYNA_SEARCH_SEARCH_HH

#include <cstdint>
#include <map>
#include <vector>

#include "arch/hwconfig.hh"
#include "arch/profiler.hh"
#include "common/parallel.hh"
#include "core/engine.hh"
#include "core/scheduler.hh"
#include "core/search_stats.hh"
#include "costmodel/mapper.hh"
#include "graph/dyngraph.hh"
#include "kernels/store_cache.hh"
#include "search/tree.hh"
#include "trace/trace.hh"

namespace adyna::search {

// ---- modeled self-cost (the budget currency) ----------------------
// A materialization also pays kernels::kStoreCompileCycles per kernel
// store it compiles.

/** Modeled cycles per mutation proposal. */
inline constexpr Cycles kMutateCycles = 40;

/** Modeled cycles per candidate materialization + evaluation (delta
 * build, validation, probe replay). */
inline constexpr Cycles kMaterializeCycles = 6000;

/** Search policy knobs. */
struct SearchConfig
{
    /** Independent SA chains. Part of the result's identity — NOT
     * derived from the thread count, so results are byte-stable
     * across --jobs. */
    int chains = 4;

    /** Total mutation proposals across all chains (split evenly;
     * the anytime knob). */
    int mutationBudget = 4000;

    /** Candidates materialized and evaluated on the real engine
     * after merging the chains (the beam width). */
    int materializeTop = 4;

    /** RNG seed; chain i derives an independent stream from it. */
    std::uint64_t seed = 1;

    /**
     * Total modeled cycles the search may spend; 0 = unbounded (the
     * offline setting). The search clamps its mutation count up
     * front and pre-charges a conservative bound before each
     * materialization, so the spend NEVER exceeds this cap.
     */
    Cycles cycleBudget = 0;
};

/** Driver for one or more searches over a fixed design point. */
class ScheduleSearch
{
  public:
    /** The engine/policy evaluate candidates exactly as the caller's
     * runs would; the mapper may be shared (its counters are
     * snapshot-scoped per run()). All references must outlive the
     * search. */
    ScheduleSearch(const graph::DynGraph &dg,
                   const arch::HwConfig &hw,
                   costmodel::Mapper &mapper, core::ExecPolicy policy,
                   SearchConfig cfg);

    /** Run chains on @p pool (nullptr = serial). Results are
     * identical either way. */
    void setThreadPool(ThreadPool *pool) { pool_ = pool; }

    /** Re-cap the next run()'s modeled spend (the serve loop sets
     * this to whatever the watchdog budget leaves after each
     * heuristic rebuild). 0 = unbounded. */
    void setCycleBudget(Cycles budget) { cfg_.cycleBudget = budget; }

    /** Re-seed the next run()'s chain streams (the serve loop salts
     * the configured seed per re-schedule so successive searches
     * explore independently). */
    void setSeed(std::uint64_t seed) { cfg_.seed = seed; }

    /** Outcome of one search run. */
    struct Result
    {
        /** The winning schedule: a searched one when `improved`,
         * otherwise a copy of the base. */
        core::Schedule schedule;

        /** Override reproducing the winning schedule (meaningful
         * only when `improved`; the caller must keep it alive while
         * installed on a scheduler). */
        core::PlanOverride planOverride;

        /** Tree state of the winner (the incumbent for the next
         * online search). */
        TreeState tree;

        /** A searched candidate strictly beat the base schedule. */
        bool improved = false;

        /** Probe makespan of the base schedule, cycles. */
        Tick heuristicCost = 0;

        /** Probe makespan of the winner (== heuristicCost when not
         * improved). */
        Tick searchedCost = 0;

        /** Modeled cycles spent (<= cfg.cycleBudget when bounded). */
        Cycles spentCycles = 0;
    };

    /**
     * Search for a schedule beating @p base on the @p probe batches.
     *
     * @param scheduler the scheduler that built @p base (healthy-tile
     *        state and store cache are reused; its plan-override
     *        pointer is restored before returning).
     * @param incumbent tree state that produced @p base, nullptr when
     *        @p base is the pure heuristic schedule.
     * @param probe recent batch routings candidates are scored on
     *        (must be non-empty).
     * @param store_cache the cache @p scheduler compiles through
     *        (nullptr when disabled) — its unique-insertion delta
     *        prices store compiles against the budget.
     * @param stats accumulates counters across runs when non-null
     *        (satellite: counter deltas are snapshot-scoped to this
     *        run, so installed-schedule stats stay clean).
     */
    Result run(core::Scheduler &scheduler, const core::Schedule &base,
               const TreeState *incumbent,
               const std::map<OpId, double> &expectations,
               const std::map<OpId, std::vector<std::int64_t>>
                   &kernel_values,
               const arch::Profiler *profiler,
               const std::vector<trace::BatchRouting> &probe,
               kernels::KernelStoreCache *store_cache,
               core::SearchStats *stats);

    /** One chain's surviving candidates, by surrogate cost. */
    struct Candidate
    {
        double surrogate = 0.0;
        std::uint64_t fp = 0;
        TreeState state;
    };

    struct ChainResult
    {
        std::uint64_t tried = 0;
        std::uint64_t accepted = 0;
        std::vector<Candidate> top;
    };

  private:
    /** Run one SA + refine chain from @p start. */
    ChainResult runChain(const SearchContext &ctx,
                         const TreeState &start, int chain,
                         int proposals) const;

    const graph::DynGraph &dg_;
    arch::HwConfig hw_;
    costmodel::Mapper &mapper_;
    core::ExecPolicy policy_;
    SearchConfig cfg_;
    ThreadPool *pool_ = nullptr;

    /** Private evaluation engine: its scratch state never leaks
     * into the caller's serving engine. */
    core::Engine engine_;
};

} // namespace adyna::search

#endif // ADYNA_SEARCH_SEARCH_HH
