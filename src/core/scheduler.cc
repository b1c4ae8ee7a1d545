#include "core/scheduler.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "kernels/store.hh"
#include "kernels/store_cache.hh"

namespace adyna::core {

using graph::Dim;
using graph::OpKind;
using graph::OpNode;
using graph::SwitchInfo;

namespace {

constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

std::vector<AllocUnit>
allocateTiles(const std::vector<double> &work,
              const std::vector<int> &group, int tiles)
{
    ADYNA_ASSERT(!work.empty() && work.size() == group.size() &&
                     tiles >= 1,
                 "allocateTiles needs one group id per position and "
                 "at least one position and one tile");

    // ---- allocation units ------------------------------------------
    int groups = 0;
    for (int g : group)
        groups = std::max(groups, g + 1);
    std::vector<int> unitOfGroup(static_cast<std::size_t>(groups), -1);
    std::vector<AllocUnit> units;
    for (std::size_t i = 0; i < work.size(); ++i) {
        const int g = group[i];
        std::size_t ui = units.size();
        if (g >= 0 && unitOfGroup[static_cast<std::size_t>(g)] >= 0)
            ui = static_cast<std::size_t>(
                unitOfGroup[static_cast<std::size_t>(g)]);
        if (ui == units.size()) {
            units.emplace_back();
            if (g >= 0)
                unitOfGroup[static_cast<std::size_t>(g)] =
                    static_cast<int>(ui);
        }
        units[ui].members.push_back(static_cast<int>(i));
        units[ui].work += work[i];
    }

    // ---- fold the smallest units while they outnumber the tiles ----
    // (small chips / large switch regions); their members then share
    // a tile range temporally, like grouped branches.
    while (static_cast<int>(units.size()) > tiles) {
        std::size_t a = 0, b = 1;
        for (std::size_t i = 0; i < units.size(); ++i) {
            if (units[i].work < units[a].work) {
                b = a;
                a = i;
            } else if (i != a && units[i].work < units[b].work) {
                b = i;
            }
        }
        if (a > b)
            std::swap(a, b);
        units[a].members.insert(units[a].members.end(),
                                units[b].members.begin(),
                                units[b].members.end());
        units[a].work += units[b].work;
        units.erase(units.begin() + static_cast<std::ptrdiff_t>(b));
    }

    // ---- frequency-weighted tile counts ----------------------------
    double totalWork = 0.0;
    for (const AllocUnit &u : units)
        totalWork += u.work;
    if (totalWork <= 0.0)
        totalWork = 1.0;

    std::vector<double> fractional(units.size());
    int used = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const double ideal =
            units[i].work / totalWork * static_cast<double>(tiles);
        units[i].tiles = std::max(1, static_cast<int>(ideal));
        fractional[i] = ideal - static_cast<double>(units[i].tiles);
        used += units[i].tiles;
    }
    while (used > tiles) { // min-1 clamps may overshoot
        const auto it = std::max_element(
            units.begin(), units.end(),
            [](const AllocUnit &x, const AllocUnit &y) {
                return x.tiles < y.tiles;
            });
        ADYNA_ASSERT(it->tiles > 1, "cannot fit units on tiles");
        --it->tiles;
        --used;
    }
    while (used < tiles) { // largest-remainder distribution
        std::size_t best = 0;
        for (std::size_t i = 1; i < units.size(); ++i)
            if (fractional[i] > fractional[best])
                best = i;
        ++units[best].tiles;
        fractional[best] -= 1.0;
        ++used;
    }
    return units;
}

Scheduler::Scheduler(const graph::DynGraph &dg, arch::HwConfig hw,
                     costmodel::Mapper &mapper, SchedulerConfig cfg)
    : dg_(dg), hw_(std::move(hw)), mapper_(mapper), cfg_(cfg)
{
}

void
Scheduler::setPlanOverride(const PlanOverride *override)
{
    override_ = override;
    segCacheValid_ = false; // the partition may change either way
}

double
Scheduler::allocBias(OpId op) const
{
    if (!override_)
        return 1.0;
    const auto it = override_->allocBias.find(op);
    return it != override_->allocBias.end() ? it->second : 1.0;
}

double
Scheduler::groupThreshold(OpId switch_op) const
{
    double scale = 1.0;
    if (override_) {
        const auto it = override_->groupScale.find(switch_op);
        if (it != override_->groupScale.end())
            scale = it->second;
    }
    return kGroupActivityThreshold * scale;
}

void
Scheduler::setHealthyTiles(std::vector<TileId> healthy)
{
    std::sort(healthy.begin(), healthy.end());
    healthy.erase(std::unique(healthy.begin(), healthy.end()),
                  healthy.end());
    for (TileId t : healthy)
        ADYNA_ASSERT(static_cast<int>(t) < hw_.tiles(),
                     "healthy tile ", t, " outside the grid");
    segCacheValid_ = false; // the partition budgets healthy tiles
    if (healthy.empty() ||
        static_cast<int>(healthy.size()) == hw_.tiles()) {
        // Empty (the documented "clear" form) or everything healthy:
        // restore the exact full-grid path.
        healthyTiles_.clear();
        return;
    }
    healthyTiles_ = std::move(healthy);
}

std::vector<TileId>
Scheduler::activeTileOrder() const
{
    std::vector<TileId> order = arch::snakeTileOrder(hw_);
    if (healthyTiles_.empty())
        return order;
    std::vector<char> healthy(
        static_cast<std::size_t>(hw_.tiles()), 0);
    for (TileId t : healthyTiles_)
        healthy[t] = 1;
    order.erase(std::remove_if(order.begin(), order.end(),
                               [&](TileId t) { return !healthy[t]; }),
                order.end());
    return order;
}

std::vector<OpId>
Scheduler::stageOps() const
{
    std::vector<OpId> out;
    for (OpId id : dg_.topo()) {
        const OpKind kind = dg_.graph().node(id).kind;
        if (graph::isCompute(kind) || graph::isFusable(kind))
            out.push_back(id);
    }
    return out;
}

double
Scheduler::expectedRows(OpId op,
                        const std::map<OpId, double> &expectations) const
{
    if (!cfg_.worstCase && dg_.isDynamic(op)) {
        const auto it = expectations.find(op);
        if (it != expectations.end())
            return std::max(1.0, it->second);
    }
    return static_cast<double>(dg_.graph().node(op).dims.n());
}

double
Scheduler::expectedWork(OpId op,
                        const std::map<OpId, double> &expectations) const
{
    return expectedRows(op, expectations) *
           costmodel::perRowWork(dg_.graph().node(op), hw_.tech);
}

std::vector<std::vector<OpId>>
Scheduler::segmentationAtoms() const
{
    const std::vector<OpId> ops = stageOps();

    // Atom of each op: a switch region [switch..merge] must stay
    // within one segment so its dynamic routing happens on-chip;
    // everything else is its own atom.
    const auto atomOf = [&](OpId op) -> OpId {
        const graph::DynOpInfo &di = dg_.info(op);
        if (di.dynamic && di.branch >= 0) {
            const SwitchInfo &sw = dg_.switchInfo(di.ownerSwitch);
            if (sw.mergeOp != kInvalidOp)
                return di.ownerSwitch;
        }
        return op;
    };

    // Atoms in first-occurrence order.
    std::vector<std::pair<OpId, std::vector<OpId>>> atoms;
    for (OpId op : ops) {
        const OpId key = atomOf(op);
        if (atoms.empty() || atoms.back().first != key) {
            bool merged = false;
            for (auto &[k, list] : atoms) {
                if (k == key) {
                    list.push_back(op); // non-contiguous member
                    merged = true;
                    break;
                }
            }
            if (!merged)
                atoms.push_back({key, {op}});
        } else {
            atoms.back().second.push_back(op);
        }
    }

    std::vector<std::vector<OpId>> out;
    out.reserve(atoms.size());
    for (auto &[key, list] : atoms)
        out.push_back(std::move(list));
    return out;
}

const std::vector<std::vector<OpId>> &
Scheduler::segmentOps() const
{
    if (segCacheValid_)
        return segCache_;
    if (override_ && !override_->partition.empty()) {
        // The override pins the partition; check it covers exactly
        // the stage ops (a stale override against a different graph
        // would otherwise build a silently wrong schedule).
        std::vector<OpId> flat;
        for (const auto &seg : override_->partition)
            flat.insert(flat.end(), seg.begin(), seg.end());
        std::vector<OpId> want = stageOps();
        std::vector<OpId> got = flat;
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ADYNA_ASSERT(got == want,
                     "PlanOverride partition must cover exactly the "
                     "stage ops (got ", got.size(), " ops, want ",
                     want.size(), ")");
        segCache_ = override_->partition;
        segCacheValid_ = true;
        return segCache_;
    }
    const std::vector<std::vector<OpId>> atoms = segmentationAtoms();

    // Degraded builds budget only the surviving tiles' scratchpad
    // (identical to totalSpad() when every tile is healthy).
    const Bytes spadAvail =
        static_cast<Bytes>(activeTileCount()) * hw_.tech.spadBytes;
    const Bytes budget = static_cast<Bytes>(
        static_cast<double>(spadAvail) * kSpadFill);
    const std::size_t maxStages =
        static_cast<std::size_t>(activeTileCount());

    std::vector<std::vector<OpId>> segments;
    std::vector<OpId> current;
    Bytes currentWeights = 0;
    for (const auto &list : atoms) {
        Bytes atomWeights = 0;
        for (OpId op : list)
            atomWeights += dg_.graph().node(op).weightBytes();
        const bool overflow =
            !current.empty() &&
            (currentWeights + atomWeights > budget ||
             current.size() + list.size() > maxStages);
        if (overflow) {
            segments.push_back(std::move(current));
            current.clear();
            currentWeights = 0;
        }
        current.insert(current.end(), list.begin(), list.end());
        currentWeights += atomWeights;
    }
    if (!current.empty())
        segments.push_back(std::move(current));
    segCache_ = std::move(segments);
    segCacheValid_ = true;
    return segCache_;
}

int
Scheduler::effectiveKernelBudget() const
{
    // The per-operator value budget can never exceed what the
    // scratchpad's metadata region holds after tile sharing's 6x
    // amplification (2 operators x 3 allocation ratios, Section VII).
    const int hwCap =
        std::max(1, hw_.tech.maxKernelsPerTile() / 6);
    return std::min(cfg_.kernelBudgetPerOp, hwCap);
}

std::map<OpId, std::vector<std::int64_t>>
Scheduler::initialKernelValues() const
{
    std::map<OpId, std::vector<std::int64_t>> out;
    for (OpId op : dg_.dynamicOps()) {
        const OpKind kind = dg_.graph().node(op).kind;
        if (!graph::isCompute(kind) && !graph::isFusable(kind))
            continue;
        out[op] = kernels::uniformKernelValues(
            dg_.maxDyn(op), effectiveKernelBudget());
    }
    return out;
}

Schedule
Scheduler::build(const std::map<OpId, double> &expectations,
                 const std::map<OpId, std::vector<std::int64_t>>
                     &kernel_values,
                 const arch::Profiler *profiler) const
{
    // Against an empty base nothing splices: every segment is built
    // and compiled, in partition order.
    return buildDelta(Schedule{}, expectations, kernel_values, profiler,
                      {});
}

Schedule
Scheduler::buildDelta(const Schedule &base,
                      const std::map<OpId, double> &expectations,
                      const std::map<OpId, std::vector<std::int64_t>>
                          &kernel_values,
                      const arch::Profiler *profiler,
                      const std::vector<OpId> &changed_ops,
                      DeltaStats *stats) const
{
    const auto &segs = segmentOps();

    // changed_ops is a handful of dynamic ops at most, so a linear
    // scan beats hashing it into a set (which would allocate on the
    // serve loop's pure-splice fast path).
    const auto isChanged = [&changed_ops](OpId op) {
        return std::find(changed_ops.begin(), changed_ops.end(),
                         op) != changed_ops.end();
    };

    // A base segment is reusable when it covers exactly the same ops
    // in the same order -- tile allocation and sharing only depend on
    // the segment's own ops, so segments are independent given the
    // partition.
    const auto sameOps = [](const Segment &seg,
                            const std::vector<OpId> &ops) {
        if (seg.stages.size() != ops.size())
            return false;
        for (std::size_t i = 0; i < ops.size(); ++i)
            if (seg.stages[i].op != ops[i])
                return false;
        return true;
    };

    Schedule schedule;
    schedule.segments.reserve(segs.size());
    std::vector<Segment> rebuiltSegs;
    std::vector<std::size_t> rebuiltAt;
    for (std::size_t i = 0; i < segs.size(); ++i) {
        bool touched = false;
        for (OpId op : segs[i])
            touched |= isChanged(op);
        if (!touched && i < base.segments.size() &&
            sameOps(*base.segments[i], segs[i])) {
            // Splice: a refcount bump on the base's immutable
            // segment — stages, tile ranges, and compiled stores are
            // shared, not copied.
            schedule.segments.push_back(base.segments[i]);
        } else {
            rebuiltAt.push_back(i);
            rebuiltSegs.push_back(
                buildSegment(segs[i], expectations, profiler));
            schedule.segments.emplace_back(); // frozen below
        }
    }
    // Only rebuilt segments need stores; a pure splice skips the
    // compile pass entirely.
    if (!rebuiltSegs.empty()) {
        compileStores(rebuiltSegs, kernel_values);
        for (std::size_t j = 0; j < rebuiltSegs.size(); ++j)
            schedule.segments[rebuiltAt[j]] =
                std::make_shared<const Segment>(
                    std::move(rebuiltSegs[j]));
    }
    if (stats) {
        stats->segmentsTotal = segs.size();
        stats->segmentsRebuilt = rebuiltAt.size();
    }
    return schedule;
}

Segment
Scheduler::buildSegment(const std::vector<OpId> &segOps,
                        const std::map<OpId, double> &expectations,
                        const arch::Profiler *profiler) const
{
    const std::size_t n = segOps.size();
    // Segment position of every op (-1 outside the segment).
    std::vector<int> pos(dg_.graph().size(), -1);
    for (std::size_t i = 0; i < n; ++i)
        pos[segOps[i]] = static_cast<int>(i);

    // ---- branch grouping --------------------------------------------
    // group[i]: branch group id of position i, -1 for none.
    std::vector<int> group(n, -1);
    int nextGroup = 0;
    if (cfg_.branchGrouping && profiler) {
        for (const SwitchInfo &sw : dg_.switches()) {
            std::vector<int> lowBranches;
            for (int b = 0; b < sw.numBranches(); ++b) {
                bool hasStage = false;
                for (OpId op : sw.branches[static_cast<std::size_t>(b)])
                    hasStage |= pos[op] >= 0;
                if (hasStage &&
                    profiler->branchActivity(sw.switchOp, b) <
                        groupThreshold(sw.switchOp))
                    lowBranches.push_back(b);
            }
            if (lowBranches.size() < 2)
                continue;
            const int gid = nextGroup++;
            for (int b : lowBranches)
                for (OpId op : sw.branches[static_cast<std::size_t>(b)])
                    if (pos[op] >= 0)
                        group[static_cast<std::size_t>(pos[op])] = gid;
        }
    }

    // ---- allocation units and tile counts -----------------------------
    std::vector<double> work(n);
    for (std::size_t i = 0; i < n; ++i)
        work[i] =
            expectedWork(segOps[i], expectations) * allocBias(segOps[i]);
    const std::vector<AllocUnit> units =
        allocateTiles(work, group, activeTileCount());

    // ---- weight residency, tile ranges (snake order), stages ----------
    // Weights stay resident when the unit's tiles can hold them next
    // to the activation double buffers; otherwise they are streamed
    // from DRAM each batch. Compute balance is never sacrificed for
    // residency: streaming a few megabytes per batch costs far less
    // than starving the bottleneck stage.
    const Bytes perTileWeightBudget = static_cast<Bytes>(
        static_cast<double>(hw_.tech.spadBytes) * kResidentWeightFill);
    const auto snake = activeTileOrder();
    Segment seg;
    seg.stages.resize(n);
    int cursor = 0;
    for (const AllocUnit &u : units) {
        Bytes weights = 0;
        for (int m : u.members)
            weights += dg_.graph()
                           .node(segOps[static_cast<std::size_t>(m)])
                           .weightBytes();
        const bool resident =
            u.tiles >= ceilDiv(static_cast<std::int64_t>(weights),
                               static_cast<std::int64_t>(
                                   perTileWeightBudget));
        std::vector<TileId> range;
        for (int t = 0; t < u.tiles; ++t)
            range.push_back(
                snake[static_cast<std::size_t>(cursor + t) %
                      snake.size()]);
        cursor += u.tiles;
        for (int m : u.members) {
            StageAssign &st = seg.stages[static_cast<std::size_t>(m)];
            st.op = segOps[static_cast<std::size_t>(m)];
            st.tiles = range;
            st.baseTiles = u.tiles;
            st.weightsResident = resident;
        }
        if (resident)
            seg.residentWeightBytes += weights;
    }

    // ---- tile sharing ----------------------------------------------
    if (cfg_.tileSharing && profiler) {
        for (const SwitchInfo &sw : dg_.switches()) {
            // Branches with stages in this segment, ungrouped.
            std::vector<int> cands;
            for (int b = 0; b < sw.numBranches(); ++b) {
                bool ok = false;
                for (OpId op : sw.branches[static_cast<
                         std::size_t>(b)]) {
                    const int i = pos[op];
                    if (i >= 0 && group[static_cast<std::size_t>(i)] < 0)
                        ok = true;
                }
                if (ok)
                    cands.push_back(b);
            }
            if (cands.size() < 2)
                continue;
            // Greedy pairing by least load covariance: the two
            // branches least likely to peak together complement
            // each other best (Section V-B).
            std::vector<std::tuple<double, int, int>> covs;
            for (std::size_t i = 0; i < cands.size(); ++i)
                for (std::size_t j = i + 1; j < cands.size(); ++j)
                    covs.emplace_back(
                        profiler->branchCovariance(
                            sw.switchOp, cands[i], cands[j]),
                        cands[i], cands[j]);
            std::sort(covs.begin(), covs.end());
            std::vector<char> taken(
                static_cast<std::size_t>(sw.numBranches()), 0);
            for (const auto &[cov, ba, bb] : covs) {
                (void)cov;
                if (taken[static_cast<std::size_t>(ba)] ||
                    taken[static_cast<std::size_t>(bb)])
                    continue;
                taken[static_cast<std::size_t>(ba)] = 1;
                taken[static_cast<std::size_t>(bb)] = 1;

                const auto &opsA =
                    sw.branches[static_cast<std::size_t>(ba)];
                const auto &opsB =
                    sw.branches[static_cast<std::size_t>(bb)];
                const std::size_t depth =
                    std::min(opsA.size(), opsB.size());
                for (std::size_t d = 0; d < depth; ++d) {
                    const int ia = pos[opsA[d]];
                    const int ib = pos[opsB[d]];
                    if (ia < 0 || ib < 0)
                        continue;
                    StageAssign &sa =
                        seg.stages[static_cast<std::size_t>(ia)];
                    StageAssign &sb =
                        seg.stages[static_cast<std::size_t>(ib)];
                    if (sa.sharePair >= 0 || sb.sharePair >= 0)
                        continue;
                    const int ta = sa.baseTiles;
                    const int tb = sb.baseTiles;
                    const int tt = ta + tb;
                    if (tt < 2)
                        continue;
                    const double wa =
                        std::max(work[static_cast<std::size_t>(ia)], 1.0);
                    const double wb =
                        std::max(work[static_cast<std::size_t>(ib)], 1.0);
                    const auto ratioAlloc = [tt](double x,
                                                 double y) {
                        int a = static_cast<int>(
                            std::lround(x / (x + y) * tt));
                        a = std::clamp(a, 1, tt - 1);
                        return std::pair<int, int>{a, tt - a};
                    };
                    SharePair pair;
                    pair.stageA = ia;
                    pair.stageB = ib;
                    pair.alloc[0] = {ta, tb};
                    pair.alloc[1] = ratioAlloc(2 * wa, wb);
                    pair.alloc[2] = ratioAlloc(wa, 2 * wb);

                    // Union range: A's tiles then B's tiles; A
                    // allocates from the front, B from the back.
                    std::vector<TileId> unionRange = sa.tiles;
                    unionRange.insert(unionRange.end(),
                                      sb.tiles.begin(),
                                      sb.tiles.end());
                    sa.tiles = unionRange;
                    sb.tiles = unionRange;
                    sa.sharePair =
                        static_cast<int>(seg.pairs.size());
                    sb.sharePair = sa.sharePair;
                    sa.shareFirst = true;
                    sb.shareFirst = false;
                    seg.pairs.push_back(pair);
                }
            }
        }
    }

    return seg;
}

void
Scheduler::compileStores(std::vector<Segment> &segments,
                         const std::map<OpId,
                                        std::vector<std::int64_t>>
                             &kernel_values) const
{
    // Runs before the segments are frozen behind shared_ptr<const>
    // — spliced segments never pass through here.
    for (Segment &seg : segments) {
        for (StageAssign &st : seg.stages) {
            const OpNode &node = dg_.graph().node(st.op);

            std::vector<std::int64_t> values;
            if (cfg_.worstCase || !dg_.isDynamic(st.op)) {
                values = {node.dims.n()};
            } else {
                const auto it = kernel_values.find(st.op);
                values = it != kernel_values.end()
                             ? it->second
                             : kernels::uniformKernelValues(
                                   dg_.maxDyn(st.op),
                                   effectiveKernelBudget());
            }
            // Clamp, dedup, and always cover the worst case.
            std::vector<std::int64_t> clean;
            for (std::int64_t v : values) {
                v = std::clamp<std::int64_t>(v, 1, node.dims.n());
                if (clean.empty() || clean.back() != v)
                    clean.push_back(v);
            }
            std::sort(clean.begin(), clean.end());
            clean.erase(std::unique(clean.begin(), clean.end()),
                        clean.end());
            if (clean.empty() || clean.back() != node.dims.n())
                clean.push_back(node.dims.n());

            // Fit the on-chip metadata budget across all the tile
            // counts this stage can run at: thin the value set to an
            // evenly spaced subset that keeps the worst case.
            const int countVariants = st.sharePair >= 0 ? 3 : 1;
            const int maxValues = std::max(
                1, hw_.tech.maxKernelsPerTile() /
                       (2 * countVariants));
            if (static_cast<int>(clean.size()) > maxValues) {
                std::vector<std::int64_t> thin;
                for (int i = 0; i < maxValues; ++i) {
                    const std::size_t idx =
                        (clean.size() - 1) * static_cast<std::size_t>(
                            i) / static_cast<std::size_t>(
                            std::max(1, maxValues - 1));
                    if (thin.empty() || thin.back() != clean[idx])
                        thin.push_back(clean[idx]);
                }
                if (thin.back() != clean.back())
                    thin.push_back(clean.back());
                clean = std::move(thin);
            }

            std::vector<int> counts{st.baseTiles};
            if (st.sharePair >= 0) {
                const SharePair &pair =
                    seg.pairs[static_cast<std::size_t>(st.sharePair)];
                counts.clear();
                for (int c = 0; c < 3; ++c) {
                    const auto [a, b] =
                        pair.alloc[static_cast<std::size_t>(c)];
                    counts.push_back(st.shareFirst ? a : b);
                }
                std::sort(counts.begin(), counts.end());
                counts.erase(
                    std::unique(counts.begin(), counts.end()),
                    counts.end());
            }
            // Fetch or compile one store per tile count (compilation
            // is deterministic, so a cached store equals a fresh one).
            for (int count : counts) {
                if (storeCache_) {
                    st.stores.emplace(
                        count,
                        storeCache_->getOrCompile(node, clean, count,
                                                  mapper_, hw_.tech));
                } else {
                    st.stores.emplace(
                        count,
                        std::make_shared<const kernels::KernelStore>(
                            kernels::compileStore(node, clean, count,
                                                  mapper_, hw_.tech)));
                }
            }
        }
    }
}

} // namespace adyna::core
