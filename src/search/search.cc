#include "search/search.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "arch/chip.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/validate.hh"

namespace adyna::search {

namespace {

/** Tail fraction of each chain's proposals spent on greedy
 * hill-climbing from the chain's best state. */
constexpr double kRefineFraction = 0.25;

/** Initial SA temperature, relative to the starting surrogate cost
 * (accepting a +8% move at probability 1/e). */
constexpr double kInitTemp = 0.08;

/** Final relative temperature (geometric decay endpoint). */
constexpr double kTempDecayTo = 1e-3;

/** Insert @p c into the (surrogate, fp)-sorted top list, keeping at
 * most @p width entries and dropping fingerprint duplicates. */
void
insertTop(std::vector<ScheduleSearch::Candidate> &top,
          ScheduleSearch::Candidate c, std::size_t width)
{
    for (const auto &t : top)
        if (t.fp == c.fp)
            return;
    const auto pos = std::lower_bound(
        top.begin(), top.end(), c, [](const auto &a, const auto &b) {
            return a.surrogate != b.surrogate
                       ? a.surrogate < b.surrogate
                       : a.fp < b.fp;
        });
    if (pos == top.end() && top.size() >= width)
        return;
    top.insert(pos, std::move(c));
    if (top.size() > width)
        top.pop_back();
}

/**
 * Draw a mutation. Tile nudges dominate the mix (the surrogate's
 * best-calibrated axis); boundary toggles are proposed sparingly and
 * only when @p allow_boundary — local chains keep the heuristic
 * partition and refine allocation only, so the beam always carries
 * candidates from the region where the surrogate is near-exact.
 */
Mutation
propose(const SearchContext &ctx, Rng &rng, bool allow_boundary)
{
    const int gaps =
        allow_boundary ? std::max(0, ctx.numAtoms() - 1) : 0;
    const int ops = ctx.numOps();
    const int switches =
        ctx.groupingEnabled() ? ctx.numSwitches() : 0;
    Mutation m;
    if (gaps > 0 && ((ops == 0 && switches == 0) ||
                     rng.uniform() < 0.2)) {
        m.kind = Mutation::kBoundaryToggle;
        m.index = static_cast<int>(rng.uniformInt(0, gaps - 1));
        return m;
    }
    if (switches > 0 && (ops == 0 || rng.uniform() < 0.1)) {
        m.kind = Mutation::kRegroup;
        m.index =
            static_cast<int>(rng.uniformInt(0, switches - 1));
        m.delta = static_cast<int>(rng.uniformInt(0, 2));
        return m;
    }
    m.kind = Mutation::kTileNudge;
    m.index = static_cast<int>(rng.uniformInt(0, ops - 1));
    m.delta = rng.bernoulli(0.5) ? 1 : -1;
    return m;
}

} // namespace

ScheduleSearch::ScheduleSearch(const graph::DynGraph &dg,
                               const arch::HwConfig &hw,
                               costmodel::Mapper &mapper,
                               core::ExecPolicy policy,
                               SearchConfig cfg)
    : dg_(dg), hw_(hw), mapper_(mapper), policy_(policy), cfg_(cfg),
      engine_(dg, hw, mapper, policy)
{
    ADYNA_ASSERT(cfg_.chains > 0 && cfg_.materializeTop > 0 &&
                     cfg_.mutationBudget >= 0,
                 "invalid search configuration");
}

ScheduleSearch::ChainResult
ScheduleSearch::runChain(const SearchContext &ctx,
                         const TreeState &start, int chain,
                         int proposals) const
{
    ChainResult out;
    if (proposals <= 0 ||
        ctx.numAtoms() + ctx.numOps() + ctx.numSwitches() == 0)
        return out;

    // Independent per-chain stream: nearby chain indices decorrelate
    // through the golden-ratio stride + SplitMix64 seeding.
    Rng rng(cfg_.seed ^
            (0x9e3779b97f4a7c15ULL *
             static_cast<std::uint64_t>(chain + 1)));

    // Even chains refine allocation within the incumbent partition
    // (the surrogate's near-exact region); odd chains also move
    // segment boundaries. The materialization pass interleaves both
    // pools, so every run evaluates trustworthy local candidates
    // alongside the structural explorers.
    const bool allowBoundary = chain % 2 != 0;

    PlanTree tree(ctx);
    tree.setState(start);
    const double baseScale = std::max(1.0, tree.cost());
    const std::size_t width =
        static_cast<std::size_t>(cfg_.materializeTop);

    const int refineIters = static_cast<int>(
        static_cast<double>(proposals) * kRefineFraction);
    const int saIters = proposals - refineIters;

    Candidate best{tree.cost(), tree.fingerprint(), tree.state()};
    insertTop(out.top, best, width);

    double cur = tree.cost();
    Undo undo;
    for (int t = 0; t < saIters; ++t) {
        ++out.tried;
        const Mutation m = propose(ctx, rng, allowBoundary);
        if (!tree.apply(m, undo))
            continue;
        const double dc = tree.cost() - cur;
        const double frac =
            saIters > 1 ? static_cast<double>(t) /
                              static_cast<double>(saIters - 1)
                        : 1.0;
        const double temp =
            kInitTemp * std::pow(kTempDecayTo / kInitTemp, frac);
        const bool accept =
            dc <= 0.0 ||
            rng.uniform() < std::exp(-(dc / baseScale) / temp);
        if (!accept) {
            tree.revert(undo);
            continue;
        }
        ++out.accepted;
        cur = tree.cost();
        Candidate c{cur, tree.fingerprint(), tree.state()};
        if (c.surrogate < best.surrogate ||
            (c.surrogate == best.surrogate && c.fp < best.fp))
            best = c;
        insertTop(out.top, std::move(c), width);
    }

    // Greedy tail: hill-climb from the chain's best state.
    tree.setState(best.state);
    cur = tree.cost();
    for (int t = 0; t < refineIters; ++t) {
        ++out.tried;
        const Mutation m = propose(ctx, rng, allowBoundary);
        if (!tree.apply(m, undo))
            continue;
        if (tree.cost() >= cur) {
            tree.revert(undo);
            continue;
        }
        ++out.accepted;
        cur = tree.cost();
        insertTop(out.top,
                  Candidate{cur, tree.fingerprint(), tree.state()},
                  width);
    }
    return out;
}

ScheduleSearch::Result
ScheduleSearch::run(core::Scheduler &scheduler,
                    const core::Schedule &base,
                    const TreeState *incumbent,
                    const std::map<OpId, double> &expectations,
                    const std::map<OpId, std::vector<std::int64_t>>
                        &kernel_values,
                    const arch::Profiler *profiler,
                    const std::vector<trace::BatchRouting> &probe,
                    kernels::KernelStoreCache *store_cache,
                    core::SearchStats *stats)
{
    ADYNA_ASSERT(!probe.empty(),
                 "search needs a non-empty probe trace");

    // Counter scoping: every cache counter this run moves is
    // attributed to the search via snapshot deltas, so the caller can
    // keep its installed-schedule stats clean of rejected candidates.
    const std::uint64_t storeHits0 =
        store_cache ? store_cache->hits() : 0;
    const std::uint64_t storeMisses0 =
        store_cache ? store_cache->misses() : 0;
    const std::uint64_t mapperHits0 = mapper_.hits();
    const std::uint64_t mapperMisses0 = mapper_.misses();

    const SearchContext ctx = [&] {
        SearchContext c(scheduler, dg_, hw_, expectations, profiler);
        c.buildCostCurves(mapper_, policy_.kernelFitting);
        return c;
    }();

    PlanTree seedTree(ctx);
    const TreeState baseState =
        incumbent ? *incumbent : seedTree.state();
    const std::uint64_t baseFp = PlanTree::fingerprint(baseState);

    // A budget below even one probe evaluation buys nothing: hand
    // the heuristic fallback back without spending a cycle.
    if (cfg_.cycleBudget > 0 && cfg_.cycleBudget < kMaterializeCycles) {
        Result res;
        res.schedule = base;
        res.tree = baseState;
        if (stats) {
            stats->budgetExhausted = true;
            stats->chains = cfg_.chains;
        }
        return res;
    }

    // Clamp the mutation count so mutations + the baseline
    // evaluation provably fit the budget; the clamp depends only on
    // configuration, never on thread count.
    int proposals = cfg_.mutationBudget;
    bool exhausted = false;
    if (cfg_.cycleBudget > 0) {
        // The early return above leaves cycleBudget >= one evaluation.
        const Cycles cap =
            (cfg_.cycleBudget - kMaterializeCycles) / kMutateCycles;
        if (cap < static_cast<Cycles>(proposals)) {
            proposals = static_cast<int>(cap);
            exhausted = true;
        }
    }
    const int perChain = proposals / cfg_.chains;

    const auto chains = [&] {
        const auto one = [&](std::size_t i) {
            return runChain(ctx, baseState, static_cast<int>(i),
                            perChain);
        };
        if (pool_ && cfg_.chains > 1)
            return pool_->parallelMap(
                static_cast<std::size_t>(cfg_.chains), one);
        std::vector<ChainResult> out;
        out.reserve(static_cast<std::size_t>(cfg_.chains));
        for (int i = 0; i < cfg_.chains; ++i)
            out.push_back(one(static_cast<std::size_t>(i)));
        return out;
    }();

    // Merge per chain kind, then interleave local candidates first:
    // the real engine adjudicates every materialized candidate, but
    // the local pool is where the surrogate ranking is trustworthy,
    // so it must never be crowded out of the beam by structural
    // explorers with optimistic surrogate scores.
    Cycles spent = 0;
    std::uint64_t tried = 0, accepted = 0;
    const std::size_t beamWidth =
        static_cast<std::size_t>(cfg_.materializeTop);
    std::vector<Candidate> localTop, globalTop;
    for (std::size_t ci = 0; ci < chains.size(); ++ci) {
        const ChainResult &c = chains[ci];
        tried += c.tried;
        accepted += c.accepted;
        for (const Candidate &cand : c.top)
            if (cand.fp != baseFp)
                insertTop(ci % 2 == 0 ? localTop : globalTop, cand,
                          beamWidth);
    }
    std::vector<Candidate> merged;
    for (std::size_t i = 0;
         merged.size() < beamWidth &&
         (i < localTop.size() || i < globalTop.size());
         ++i) {
        for (const auto *pool : {&localTop, &globalTop}) {
            if (i >= pool->size() || merged.size() >= beamWidth)
                continue;
            const Candidate &cand = (*pool)[i];
            const bool dup = std::any_of(
                merged.begin(), merged.end(),
                [&](const Candidate &m) { return m.fp == cand.fp; });
            if (!dup)
                merged.push_back(cand);
        }
    }
    spent += static_cast<Cycles>(tried) * kMutateCycles;

    Result res;
    res.tree = baseState;

    // Score the base schedule on the probe first: the yardstick
    // every candidate must strictly beat. A fresh chip per
    // evaluation keeps candidate scores independent of each other
    // and of the serving chip's clock.
    {
        arch::Chip chip(hw_);
        res.heuristicCost =
            engine_.runPeriod(chip, base, probe, nullptr, 0).endTime;
        spent += kMaterializeCycles;
    }
    res.searchedCost = res.heuristicCost;

    // Base partition op lists + changed-op sets price the
    // materialization bound exactly like buildDelta will splice.
    std::vector<std::vector<OpId>> baseOps;
    baseOps.reserve(base.segments.size());
    for (const auto &seg : base.segments) {
        std::vector<OpId> ops;
        ops.reserve(seg->stages.size());
        for (const auto &st : seg->stages)
            ops.push_back(st.op);
        baseOps.push_back(std::move(ops));
    }

    const core::PlanOverride *entryOverride =
        scheduler.planOverride();
    std::uint64_t bestFp = 0;
    std::uint64_t materialized = 0, segsRebuilt = 0,
                  segsSpliced = 0, fullRebuilds = 0;

    core::PlanOverride scratchOverride;
    for (const Candidate &cand : merged) {
        core::PlanOverride ov = PlanTree::toOverride(ctx, cand.state);
        const std::vector<OpId> changed =
            PlanTree::diffOps(ctx, baseState, cand.state);
        const std::set<OpId> changedSet(changed.begin(),
                                        changed.end());

        // Conservative pre-charge: every op of a non-splicable
        // segment compiles at most 4 stores (base tiles + the three
        // share-pair allocations), so the bound dominates the actual
        // store-miss charge and the budget can never be overshot.
        std::int64_t rebuiltOps = 0;
        for (const auto &segOps : ov.partition) {
            const bool splicable =
                std::find(baseOps.begin(), baseOps.end(), segOps) !=
                    baseOps.end() &&
                std::none_of(segOps.begin(), segOps.end(),
                             [&](OpId op) {
                                 return changedSet.count(op) != 0;
                             });
            if (!splicable)
                rebuiltOps +=
                    static_cast<std::int64_t>(segOps.size());
        }
        const Cycles bound =
            kMaterializeCycles + static_cast<Cycles>(4 * rebuiltOps) *
                                     kernels::kStoreCompileCycles;
        if (cfg_.cycleBudget > 0 &&
            spent + bound > cfg_.cycleBudget) {
            exhausted = true;
            break;
        }

        scratchOverride = std::move(ov);
        scheduler.setPlanOverride(&scratchOverride);
        // Charge by the stores this build inserts: buildDelta compiles
        // serially, so unless another thread fills the same cache, the
        // cache-size delta equals the build's miss count.
        const std::uint64_t stores0 =
            store_cache ? store_cache->size() : 0;
        core::DeltaStats ds;
        core::Schedule sch = scheduler.buildDelta(
            base, expectations, kernel_values, profiler, changed,
            &ds);
        const auto issues = core::validateSchedule(sch, dg_, hw_);
        ADYNA_ASSERT(issues.empty(), "searched schedule invalid: ",
                     core::issuesToString(issues));

        const std::int64_t compiled =
            store_cache ? static_cast<std::int64_t>(
                              store_cache->size() - stores0)
                        : rebuiltOps;
        spent += kMaterializeCycles + static_cast<Cycles>(compiled) *
                                          kernels::kStoreCompileCycles;
        ++materialized;
        segsRebuilt += ds.segmentsRebuilt;
        segsSpliced += ds.segmentsTotal - ds.segmentsRebuilt;
        if (ds.segmentsRebuilt == ds.segmentsTotal)
            ++fullRebuilds;

        arch::Chip chip(hw_);
        const Tick cost =
            engine_.runPeriod(chip, sch, probe, nullptr, 0).endTime;
        const bool better =
            cost < res.searchedCost ||
            (res.improved && cost == res.searchedCost &&
             cand.fp < bestFp);
        if (better && cost < res.heuristicCost) {
            res.schedule = std::move(sch);
            res.planOverride = scratchOverride;
            res.tree = cand.state;
            res.searchedCost = cost;
            res.improved = true;
            bestFp = cand.fp;
        }
    }

    // The caller owns override lifetime; never leave the scheduler
    // pointing at this frame's scratch storage.
    scheduler.setPlanOverride(entryOverride);

    if (!res.improved)
        res.schedule = base;
    res.spentCycles = spent;
    ADYNA_ASSERT(cfg_.cycleBudget == 0 || spent <= cfg_.cycleBudget,
                 "search overspent its cycle budget");

    if (stats) {
        stats->candidatesTried += tried;
        stats->candidatesAccepted += accepted;
        stats->materialized += materialized;
        stats->segmentsRebuilt += segsRebuilt;
        stats->segmentsSpliced += segsSpliced;
        stats->fullRebuilds += fullRebuilds;
        stats->budgetSpentCycles += spent;
        stats->budgetExhausted =
            stats->budgetExhausted || exhausted;
        stats->chains = cfg_.chains;
        stats->heuristicCost =
            static_cast<double>(res.heuristicCost);
        stats->searchedCost = static_cast<double>(res.searchedCost);
        stats->improved = res.improved;
        if (store_cache) {
            stats->storeHits += store_cache->hits() - storeHits0;
            stats->storeMisses +=
                store_cache->misses() - storeMisses0;
        }
        stats->mapperHits += mapper_.hits() - mapperHits0;
        stats->mapperMisses += mapper_.misses() - mapperMisses0;
    }
    return res;
}

} // namespace adyna::search
