#include "search/tree.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace adyna::search {

using graph::SwitchInfo;

namespace {

/** Batches the surrogate prices a segment pipeline over. */
constexpr int kSurrogateBatches = 8;

/** Fixed surrogate cost per segment (activation/drain), cycles. */
constexpr double kSegmentFixedCycles = 2000.0;

} // namespace

double
groupModeScale(GroupMode mode)
{
    switch (mode) {
    case kGroupDefault:
        return 1.0;
    case kGroupOff:
        return 0.0;
    case kGroupAggressive:
        return 4.0;
    }
    return 1.0;
}

double
biasOf(int exp)
{
    return std::pow(1.25, static_cast<double>(exp));
}

// ---- SearchContext -------------------------------------------------

SearchContext::SearchContext(const core::Scheduler &scheduler,
                             const graph::DynGraph &dg,
                             const arch::HwConfig &hw,
                             const std::map<OpId, double> &expectations,
                             const arch::Profiler *profiler)
    : dg_(&dg)
{
    atoms_ = scheduler.segmentationAtoms();
    atomStart_.reserve(atoms_.size() + 1);
    for (const auto &atom : atoms_) {
        atomStart_.push_back(static_cast<int>(ops_.size()));
        for (OpId op : atom) {
            opIndex_[op] = static_cast<int>(ops_.size());
            atomOfOp_.push_back(
                static_cast<int>(atomStart_.size()) - 1);
            ops_.push_back(op);
            work_.push_back(scheduler.expectedWork(op, expectations));
            weight_.push_back(static_cast<double>(
                dg.graph().node(op).weightBytes()));
        }
    }
    atomStart_.push_back(static_cast<int>(ops_.size()));

    // ---- per-op data flow (DynGraph's producer resolution) ---------
    // Expected per-batch activation bytes on every edge, so the
    // surrogate can price the DRAM round trips a partition induces:
    // the engine store-and-forwards every cross-segment edge through
    // HBM, and that traffic — not the pipeline shape — is what makes
    // over-splitting expensive.
    const auto expectedRows = [&](OpId op) {
        const auto &node = dg.graph().node(op);
        double rows = static_cast<double>(node.dims.n());
        if (!scheduler.config().worstCase && dg.isDynamic(op)) {
            const auto it = expectations.find(op);
            if (it != expectations.end())
                rows = std::max(1.0, it->second);
        }
        return rows;
    };
    inEdges_.resize(ops_.size());
    extInBytes_.assign(ops_.size(), 0.0);
    outBytes_.assign(ops_.size(), 0.0);
    consumers_.resize(ops_.size());
    rows_.reserve(ops_.size());
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        const OpId op = ops_[i];
        const double rows = expectedRows(op);
        rows_.push_back(rows);
        outBytes_[i] =
            rows * static_cast<double>(dg.outBytesPerRow(op));
        for (const graph::Producer &p : dg.producers(op)) {
            const bool input =
                dg.graph().node(p.op).kind == graph::OpKind::Input;
            const double prows = input ? rows : expectedRows(p.op);
            const double bytes =
                std::min(rows, prows) *
                static_cast<double>(dg.outBytesPerRow(p.op));
            const int pidx = input ? -1 : opIndex(p.op);
            if (pidx >= 0) {
                inEdges_[i].push_back(EdgeCtx{pidx, bytes});
                consumers_[static_cast<std::size_t>(pidx)].push_back(
                    static_cast<int>(i));
            } else {
                extInBytes_[i] += bytes;
            }
        }
    }

    tiles_ = scheduler.activeTileCount();
    spadBytes_ = static_cast<double>(hw.tech.spadBytes);
    hbmBpc_ = std::max(1.0, hw.hbmTotalBytesPerCycle);
    grouping_ =
        scheduler.config().branchGrouping && profiler != nullptr;

    switchOfOp_.assign(ops_.size(), -1);
    for (const SwitchInfo &sw : dg.switches()) {
        SwitchCtx ctx;
        ctx.switchOp = sw.switchOp;
        for (int b = 0; b < sw.numBranches(); ++b) {
            std::vector<int> present;
            for (OpId op : sw.branches[static_cast<std::size_t>(b)]) {
                const int idx = opIndex(op);
                if (idx >= 0)
                    present.push_back(idx);
            }
            if (present.empty())
                continue;
            ctx.branches.push_back(b);
            ctx.activity.push_back(
                profiler ? profiler->branchActivity(sw.switchOp, b)
                         : 0.0);
            ctx.ops.insert(ctx.ops.end(), present.begin(),
                           present.end());
            ctx.branchOps.push_back(std::move(present));
        }
        if (ctx.branches.size() < 2)
            continue; // nothing to group or regroup
        const int swIdx = static_cast<int>(switches_.size());
        for (int idx : ctx.ops)
            switchOfOp_[static_cast<std::size_t>(idx)] = swIdx;
        switches_.push_back(std::move(ctx));
    }

    // Reproduce the scheduler's current partition as cut positions
    // over the atom gaps (every legal partition is a split of the
    // atom sequence, so this alignment always exists).
    defaultCuts_.assign(
        atoms_.empty() ? 0 : atoms_.size() - 1, 0);
    const auto &part = scheduler.partition();
    std::size_t atom = 0;
    for (std::size_t s = 0; s < part.size(); ++s) {
        std::size_t covered = 0;
        while (covered < part[s].size()) {
            ADYNA_ASSERT(atom < atoms_.size(),
                         "partition does not align with atoms");
            covered += atoms_[atom].size();
            ++atom;
        }
        ADYNA_ASSERT(covered == part[s].size(),
                     "partition segment splits an atom");
        if (s + 1 < part.size())
            defaultCuts_[atom - 1] = 1;
    }
}

int
SearchContext::opIndex(OpId op) const
{
    const auto it = opIndex_.find(op);
    return it != opIndex_.end() ? it->second : -1;
}

void
SearchContext::buildCostCurves(costmodel::Mapper &mapper,
                               bool kernel_fitting)
{
    curveTiles_.clear();
    for (int t = 1; t <= std::min(tiles_, 16); ++t)
        curveTiles_.push_back(t);
    for (int t = 20; t < tiles_;
         t += t < 32 ? 4 : (t < 64 ? 8 : 16))
        curveTiles_.push_back(t);
    if (tiles_ > 16)
        curveTiles_.push_back(tiles_);

    curve_.assign(ops_.size(), {});
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        const auto &node = dg_->graph().node(ops_[i]);
        const std::int64_t n = std::max<std::int64_t>(
            1, std::llround(rows_[i]));
        curve_[i].reserve(curveTiles_.size());
        for (int t : curveTiles_) {
            const costmodel::Mapping m = mapper.search(node, n, t);
            curve_[i].push_back(static_cast<double>(
                costmodel::evalKernel(node, m, n, kernel_fitting,
                                      mapper.tech())
                    .cycles));
        }
    }
}

double
SearchContext::opCycles(int i, int tiles) const
{
    const std::size_t idx = static_cast<std::size_t>(i);
    if (curve_.empty() || curve_[idx].empty())
        return work_[idx] /
               static_cast<double>(std::max(1, tiles));
    const auto &c = curve_[idx];
    const auto it = std::lower_bound(curveTiles_.begin(),
                                     curveTiles_.end(), tiles);
    if (it == curveTiles_.end())
        return c.back();
    const std::size_t k =
        static_cast<std::size_t>(it - curveTiles_.begin());
    if (*it == tiles || k == 0)
        return c[k];
    const double t0 = static_cast<double>(curveTiles_[k - 1]);
    const double t1 = static_cast<double>(curveTiles_[k]);
    return c[k - 1] + (c[k] - c[k - 1]) *
                          (static_cast<double>(tiles) - t0) /
                          (t1 - t0);
}

// ---- PlanTree ------------------------------------------------------

PlanTree::PlanTree(const SearchContext &ctx) : ctx_(ctx)
{
    TreeState s;
    s.cut = ctx.defaultCuts();
    s.biasExp.assign(static_cast<std::size_t>(ctx.numOps()), 0);
    s.groupMode.assign(static_cast<std::size_t>(ctx.numSwitches()),
                       kGroupDefault);
    setState(s);
}

TreeState
PlanTree::state() const
{
    return st_;
}

void
PlanTree::setState(const TreeState &s)
{
    ADYNA_ASSERT(
        s.cut.size() == static_cast<std::size_t>(
                            std::max(0, ctx_.numAtoms() - 1)) &&
            s.biasExp.size() ==
                static_cast<std::size_t>(ctx_.numOps()) &&
            s.groupMode.size() ==
                static_cast<std::size_t>(ctx_.numSwitches()),
        "TreeState shape does not match the search context");
    st_ = s;
    recostAll();
}

double
PlanTree::recostAll()
{
    segEnd_.clear();
    segCost_.clear();
    int start = 0;
    for (int a = 0; a < ctx_.numAtoms(); ++a) {
        const bool boundary =
            a + 1 == ctx_.numAtoms() ||
            st_.cut[static_cast<std::size_t>(a)] != 0;
        if (boundary) {
            segEnd_.push_back(a + 1);
            segCost_.push_back(segmentCost(start, a + 1));
            start = a + 1;
        }
    }
    retotal();
    return total_;
}

void
PlanTree::retotal()
{
    total_ = 0.0;
    for (double c : segCost_)
        total_ += c;
}

std::uint64_t
PlanTree::fingerprint(const TreeState &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    const auto mix = [&h](std::uint64_t byte) {
        h ^= byte;
        h *= 1099511628211ULL;
    };
    for (char c : s.cut)
        mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    mix(0xFF);
    for (std::int8_t e : s.biasExp)
        mix(static_cast<std::uint64_t>(
            static_cast<unsigned char>(e)));
    mix(0xFE);
    for (std::uint8_t m : s.groupMode)
        mix(static_cast<std::uint64_t>(m));
    return h;
}

std::uint64_t
PlanTree::fingerprint() const
{
    return fingerprint(st_);
}

std::size_t
PlanTree::segOfAtom(int a) const
{
    // First segment whose exclusive end is past the atom.
    const auto it =
        std::upper_bound(segEnd_.begin(), segEnd_.end(), a);
    ADYNA_ASSERT(it != segEnd_.end(), "atom ", a,
                 " outside the segment list");
    return static_cast<std::size_t>(it - segEnd_.begin());
}

double
PlanTree::segmentCost(int atom_begin, int atom_end) const
{
    const int lo = ctx_.atomStart(atom_begin);
    const int hi = ctx_.atomStart(atom_end);
    const int T = ctx_.tiles();

    // ---- branch grouping (mirrors Scheduler::buildSegment) --------
    // unitOf[o - lo]: -1 = own unit, else group id.
    std::vector<int> groupOf(static_cast<std::size_t>(hi - lo), -1);
    int nextGroup = 0;
    if (ctx_.groupingEnabled()) {
        for (const auto &sw : ctx_.switches()) {
            const GroupMode mode = static_cast<GroupMode>(
                st_.groupMode[static_cast<std::size_t>(
                    &sw - ctx_.switches().data())]);
            const double threshold =
                core::kGroupActivityThreshold * groupModeScale(mode);
            std::vector<std::size_t> low;
            for (std::size_t b = 0; b < sw.branches.size(); ++b) {
                bool inSeg = false;
                for (int o : sw.branchOps[b])
                    inSeg |= o >= lo && o < hi;
                if (inSeg && sw.activity[b] < threshold)
                    low.push_back(b);
            }
            if (low.size() < 2)
                continue;
            const int gid = nextGroup++;
            for (std::size_t b : low)
                for (int o : sw.branchOps[b])
                    if (o >= lo && o < hi)
                        groupOf[static_cast<std::size_t>(o - lo)] =
                            gid;
        }
    }

    // ---- allocation units ------------------------------------------
    struct Unit
    {
        double allocW = 0.0; ///< biased weight (drives tiles)
        double weight = 0.0; ///< weight bytes
        int tiles = 1;
        std::vector<int> opsIdx; ///< member stage-op indices
    };
    std::vector<Unit> units;
    std::vector<int> groupUnit(static_cast<std::size_t>(nextGroup),
                               -1);
    for (int o = lo; o < hi; ++o) {
        const int gid = groupOf[static_cast<std::size_t>(o - lo)];
        std::size_t ui;
        if (gid >= 0 &&
            groupUnit[static_cast<std::size_t>(gid)] >= 0) {
            ui = static_cast<std::size_t>(
                groupUnit[static_cast<std::size_t>(gid)]);
        } else {
            ui = units.size();
            units.push_back({});
            if (gid >= 0)
                groupUnit[static_cast<std::size_t>(gid)] =
                    static_cast<int>(ui);
        }
        units[ui].allocW +=
            ctx_.work(o) *
            biasOf(st_.biasExp[static_cast<std::size_t>(o)]);
        units[ui].weight += ctx_.weightBytes(o);
        units[ui].opsIdx.push_back(o);
    }

    // ---- fold the smallest units while they outnumber tiles --------
    while (static_cast<int>(units.size()) > T) {
        std::size_t a = 0, b = 1;
        for (std::size_t i = 0; i < units.size(); ++i) {
            if (units[i].allocW < units[a].allocW) {
                b = a;
                a = i;
            } else if (i != a && units[i].allocW < units[b].allocW) {
                b = i;
            }
        }
        if (a > b)
            std::swap(a, b);
        units[a].allocW += units[b].allocW;
        units[a].weight += units[b].weight;
        units[a].opsIdx.insert(units[a].opsIdx.end(),
                               units[b].opsIdx.begin(),
                               units[b].opsIdx.end());
        units.erase(units.begin() + static_cast<std::ptrdiff_t>(b));
    }

    // ---- frequency-weighted tile counts ----------------------------
    double totalAlloc = 0.0;
    for (const Unit &u : units)
        totalAlloc += u.allocW;
    if (totalAlloc <= 0.0)
        totalAlloc = 1.0;
    std::vector<double> fractional(units.size());
    int used = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const double ideal =
            units[i].allocW / totalAlloc * static_cast<double>(T);
        units[i].tiles = std::max(1, static_cast<int>(ideal));
        fractional[i] = ideal - static_cast<double>(units[i].tiles);
        used += units[i].tiles;
    }
    while (used > T) {
        std::size_t big = 0;
        for (std::size_t i = 1; i < units.size(); ++i)
            if (units[i].tiles > units[big].tiles)
                big = i;
        --units[big].tiles;
        --used;
    }
    while (used < T) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < units.size(); ++i)
            if (fractional[i] > fractional[best])
                best = i;
        ++units[best].tiles;
        fractional[best] -= 1.0;
        ++used;
    }

    // ---- price the pipeline ----------------------------------------
    // A segment streams kSurrogateBatches batches. Stages pipeline
    // both across batches and within one (a consumer starts once the
    // producer's first blocks arrive), so the steady state pays the
    // slower of the bottleneck stage and the segment's HBM traffic
    // per batch, and the fill is roughly one more such period — not
    // the sum of all stage times. Unit times come off the measured
    // kernel cost curve, which is what prices over-splitting: a
    // too-wide tile group scales sublinearly, and a boundary that
    // hands every op the whole grid buys little compute while paying
    // the DRAM round trips below. Streamed weights overlap their
    // stage's compute (double-buffered prefetch bounds completion,
    // not start): a non-resident unit costs the max of the two while
    // its bytes still count against the shared HBM bandwidth.
    const double perTileBudget = ctx_.spadBytes() * 0.6;
    double bottleneck = 0.0;
    double residentBytes = 0.0;
    double streamBytes = 0.0;
    for (const Unit &u : units) {
        const double minTiles =
            perTileBudget > 0.0
                ? std::ceil(u.weight / perTileBudget)
                : 0.0;
        const bool resident =
            static_cast<double>(u.tiles) >= minTiles;
        double t = 0.0;
        for (int o : u.opsIdx)
            t += ctx_.opCycles(o, u.tiles);
        if (resident) {
            residentBytes += u.weight;
        } else {
            t = std::max(t, u.weight / ctx_.hbmBytesPerCycle());
            streamBytes += u.weight;
        }
        bottleneck = std::max(bottleneck, t);
    }

    // ---- DRAM activation traffic -----------------------------------
    // The engine store-and-forwards every edge whose producer lives
    // outside the segment through HBM, and writes back every stage
    // some other segment (or a graph output) consumes. This traffic
    // is what a boundary really costs: without it the surrogate
    // rewards unbounded splitting (each segment then gets the whole
    // grid for fewer ops).
    double dramBytes = 0.0;
    for (int o = lo; o < hi; ++o) {
        dramBytes += ctx_.externalInBytes(o);
        for (const auto &e : ctx_.inEdges(o))
            if (e.producer < lo || e.producer >= hi)
                dramBytes += e.bytes;
        bool writesOut = ctx_.feedsOutput(o);
        if (!writesOut) {
            for (int c : ctx_.consumers(o)) {
                if (c < lo || c >= hi) {
                    writesOut = true;
                    break;
                }
            }
        }
        if (writesOut)
            dramBytes += ctx_.outBytes(o);
    }
    const double perBatchDram =
        (dramBytes + streamBytes) / ctx_.hbmBytesPerCycle();

    return (static_cast<double>(kSurrogateBatches) + 1.0) *
               std::max(bottleneck, perBatchDram) +
           residentBytes / ctx_.hbmBytesPerCycle() +
           kSegmentFixedCycles;
}

bool
PlanTree::apply(const Mutation &m, Undo &undo)
{
    undo.mut = m;
    undo.oldEnds.clear();
    undo.oldCosts.clear();
    undo.segIdx.clear();
    undo.structural = false;

    switch (m.kind) {
    case Mutation::kBoundaryToggle: {
        if (m.index < 0 ||
            m.index >= static_cast<int>(st_.cut.size()))
            return false;
        const std::size_t g = static_cast<std::size_t>(m.index);
        undo.structural = true;
        if (st_.cut[g]) {
            // Merge the two segments meeting at gap g.
            const std::size_t s = segOfAtom(m.index);
            ADYNA_ASSERT(s + 1 < segEnd_.size(),
                         "cut bookkeeping out of sync");
            undo.segAt = s;
            undo.oldEnds = {segEnd_[s], segEnd_[s + 1]};
            undo.oldCosts = {segCost_[s], segCost_[s + 1]};
            undo.newCount = 1;
            const int start =
                s == 0 ? 0 : segEnd_[s - 1];
            const double merged =
                segmentCost(start, segEnd_[s + 1]);
            st_.cut[g] = 0;
            segEnd_.erase(segEnd_.begin() +
                          static_cast<std::ptrdiff_t>(s));
            segCost_.erase(segCost_.begin() +
                           static_cast<std::ptrdiff_t>(s));
            segCost_[s] = merged;
        } else {
            // Split the segment containing gap g after atom g.
            const std::size_t s = segOfAtom(m.index);
            const int start = s == 0 ? 0 : segEnd_[s - 1];
            const int end = segEnd_[s];
            undo.segAt = s;
            undo.oldEnds = {end};
            undo.oldCosts = {segCost_[s]};
            undo.newCount = 2;
            const double c1 = segmentCost(start, m.index + 1);
            const double c2 = segmentCost(m.index + 1, end);
            st_.cut[g] = 1;
            segEnd_.insert(segEnd_.begin() +
                               static_cast<std::ptrdiff_t>(s),
                           m.index + 1);
            segCost_.insert(segCost_.begin() +
                                static_cast<std::ptrdiff_t>(s),
                            c1);
            segCost_[s + 1] = c2;
        }
        break;
    }
    case Mutation::kTileNudge: {
        if (m.index < 0 ||
            m.index >= static_cast<int>(st_.biasExp.size()))
            return false;
        const std::size_t i = static_cast<std::size_t>(m.index);
        const int next = st_.biasExp[i] + m.delta;
        if (next < -kBiasRange || next > kBiasRange ||
            m.delta == 0)
            return false;
        undo.oldVal = st_.biasExp[i];
        st_.biasExp[i] = static_cast<std::int8_t>(next);
        const std::size_t s = segOfAtom(ctx_.atomOfOp(m.index));
        undo.segIdx = {s};
        undo.oldCosts = {segCost_[s]};
        const int start = s == 0 ? 0 : segEnd_[s - 1];
        segCost_[s] = segmentCost(start, segEnd_[s]);
        break;
    }
    case Mutation::kRegroup: {
        if (!ctx_.groupingEnabled() || m.index < 0 ||
            m.index >= static_cast<int>(st_.groupMode.size()))
            return false;
        const std::size_t k = static_cast<std::size_t>(m.index);
        if (m.delta < 0 || m.delta > kGroupAggressive ||
            st_.groupMode[k] == static_cast<std::uint8_t>(m.delta))
            return false;
        undo.oldVal = st_.groupMode[k];
        st_.groupMode[k] = static_cast<std::uint8_t>(m.delta);
        // Re-price every segment holding one of the switch's ops
        // (one segment for merged switches; possibly several for
        // sink switches whose branches span atoms).
        for (int o : ctx_.switches()[k].ops) {
            const std::size_t s = segOfAtom(ctx_.atomOfOp(o));
            if (std::find(undo.segIdx.begin(), undo.segIdx.end(),
                          s) == undo.segIdx.end())
                undo.segIdx.push_back(s);
        }
        std::sort(undo.segIdx.begin(), undo.segIdx.end());
        for (std::size_t s : undo.segIdx) {
            undo.oldCosts.push_back(segCost_[s]);
            const int start = s == 0 ? 0 : segEnd_[s - 1];
            segCost_[s] = segmentCost(start, segEnd_[s]);
        }
        break;
    }
    }
    retotal();
    return true;
}

void
PlanTree::revert(const Undo &undo)
{
    switch (undo.mut.kind) {
    case Mutation::kBoundaryToggle: {
        const std::size_t g =
            static_cast<std::size_t>(undo.mut.index);
        st_.cut[g] = st_.cut[g] ? 0 : 1;
        segEnd_.erase(
            segEnd_.begin() +
                static_cast<std::ptrdiff_t>(undo.segAt),
            segEnd_.begin() +
                static_cast<std::ptrdiff_t>(undo.segAt +
                                            undo.newCount));
        segCost_.erase(
            segCost_.begin() +
                static_cast<std::ptrdiff_t>(undo.segAt),
            segCost_.begin() +
                static_cast<std::ptrdiff_t>(undo.segAt +
                                            undo.newCount));
        segEnd_.insert(segEnd_.begin() +
                           static_cast<std::ptrdiff_t>(undo.segAt),
                       undo.oldEnds.begin(), undo.oldEnds.end());
        segCost_.insert(segCost_.begin() +
                            static_cast<std::ptrdiff_t>(undo.segAt),
                        undo.oldCosts.begin(), undo.oldCosts.end());
        break;
    }
    case Mutation::kTileNudge:
        st_.biasExp[static_cast<std::size_t>(undo.mut.index)] =
            static_cast<std::int8_t>(undo.oldVal);
        segCost_[undo.segIdx[0]] = undo.oldCosts[0];
        break;
    case Mutation::kRegroup:
        st_.groupMode[static_cast<std::size_t>(undo.mut.index)] =
            static_cast<std::uint8_t>(undo.oldVal);
        for (std::size_t i = 0; i < undo.segIdx.size(); ++i)
            segCost_[undo.segIdx[i]] = undo.oldCosts[i];
        break;
    }
    retotal();
}

core::PlanOverride
PlanTree::toOverride(const SearchContext &ctx, const TreeState &s)
{
    core::PlanOverride out;
    std::vector<OpId> current;
    for (int a = 0; a < ctx.numAtoms(); ++a) {
        const auto &atom =
            ctx.atoms()[static_cast<std::size_t>(a)];
        current.insert(current.end(), atom.begin(), atom.end());
        const bool boundary =
            a + 1 == ctx.numAtoms() ||
            s.cut[static_cast<std::size_t>(a)] != 0;
        if (boundary) {
            out.partition.push_back(std::move(current));
            current.clear();
        }
    }
    for (std::size_t i = 0; i < s.biasExp.size(); ++i)
        if (s.biasExp[i] != 0)
            out.allocBias[ctx.ops()[i]] = biasOf(s.biasExp[i]);
    for (std::size_t k = 0; k < s.groupMode.size(); ++k)
        if (s.groupMode[k] != kGroupDefault)
            out.groupScale[ctx.switches()[k].switchOp] =
                groupModeScale(
                    static_cast<GroupMode>(s.groupMode[k]));
    return out;
}

std::vector<OpId>
PlanTree::diffOps(const SearchContext &ctx, const TreeState &a,
                  const TreeState &b)
{
    std::vector<OpId> out;
    for (std::size_t i = 0; i < a.biasExp.size(); ++i)
        if (a.biasExp[i] != b.biasExp[i])
            out.push_back(ctx.ops()[i]);
    for (std::size_t k = 0; k < a.groupMode.size(); ++k)
        if (a.groupMode[k] != b.groupMode[k])
            for (int o : ctx.switches()[k].ops)
                out.push_back(
                    ctx.ops()[static_cast<std::size_t>(o)]);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace adyna::search
