#include "core/validate.hh"

#include <map>
#include <set>
#include <sstream>

#include "common/logging.hh"

namespace adyna::core {

using graph::OpKind;

std::vector<ScheduleIssue>
validateSchedule(const Schedule &schedule, const graph::DynGraph &dg,
                 const arch::HwConfig &hw)
{
    std::vector<ScheduleIssue> issues;
    const auto add = [&](int seg, OpId op, std::string msg) {
        issues.push_back({seg, op, std::move(msg)});
    };

    // ---- coverage: every stage op in exactly one segment ----------
    std::map<OpId, int> segOf;
    for (std::size_t s = 0; s < schedule.segments.size(); ++s) {
        for (const StageAssign &st : schedule.segments[s]->stages) {
            if (segOf.count(st.op))
                add(static_cast<int>(s), st.op,
                    "op appears in multiple segments");
            segOf[st.op] = static_cast<int>(s);
        }
    }
    for (OpId id : dg.topo()) {
        const OpKind kind = dg.graph().node(id).kind;
        if ((graph::isCompute(kind) || graph::isFusable(kind)) &&
            !segOf.count(id))
            add(-1, id, "stage op missing from every segment");
    }

    // ---- topological order within and across segments --------------
    std::map<OpId, std::size_t> topoPos;
    for (std::size_t i = 0; i < dg.topo().size(); ++i)
        topoPos[dg.topo()[i]] = i;
    for (std::size_t s = 0; s < schedule.segments.size(); ++s) {
        const auto &stages = schedule.segments[s]->stages;
        for (std::size_t i = 1; i < stages.size(); ++i) {
            if (topoPos[stages[i - 1].op] > topoPos[stages[i].op])
                add(static_cast<int>(s), stages[i].op,
                    "stages out of topological order");
        }
    }

    // ---- switch regions with merges stay in one segment -------------
    for (const graph::SwitchInfo &sw : dg.switches()) {
        if (sw.mergeOp == kInvalidOp)
            continue;
        std::set<int> segs;
        for (const auto &branch : sw.branches)
            for (OpId op : branch)
                if (segOf.count(op))
                    segs.insert(segOf[op]);
        if (segs.size() > 1)
            add(-1, sw.switchOp,
                "merged switch region straddles segments");
    }

    // ---- per-stage checks --------------------------------------------
    for (std::size_t s = 0; s < schedule.segments.size(); ++s) {
        const Segment &seg = *schedule.segments[s];
        for (const StageAssign &st : seg.stages) {
            const auto &node = dg.graph().node(st.op);
            if (st.baseTiles < 1 ||
                static_cast<std::size_t>(st.baseTiles) >
                    st.tiles.size())
                add(static_cast<int>(s), st.op,
                    "baseTiles outside the stage's tile range");
            for (TileId t : st.tiles)
                if (t >= static_cast<TileId>(hw.tiles()))
                    add(static_cast<int>(s), st.op,
                        "tile id out of range");

            // Tile counts this stage may run at.
            std::set<int> counts{st.baseTiles};
            if (st.sharePair >= 0) {
                if (static_cast<std::size_t>(st.sharePair) >=
                    seg.pairs.size()) {
                    add(static_cast<int>(s), st.op,
                        "share pair index out of range");
                } else {
                    const SharePair &pair =
                        seg.pairs[static_cast<std::size_t>(
                            st.sharePair)];
                    for (int c = 0; c < 3; ++c) {
                        const auto [a, b] = pair.alloc[
                            static_cast<std::size_t>(c)];
                        counts.insert(st.shareFirst ? a : b);
                    }
                }
            }
            Bytes metadata = 0;
            for (int count : counts) {
                const auto it = st.stores.find(count);
                if (it == st.stores.end()) {
                    add(static_cast<int>(s), st.op,
                        "missing kernel store for tile count " +
                            std::to_string(count));
                    continue;
                }
                if (it->second->empty()) {
                    add(static_cast<int>(s), st.op,
                        "empty kernel store");
                    continue;
                }
                if (it->second->values().back() < node.dims.n())
                    add(static_cast<int>(s), st.op,
                        "kernel store does not cover the worst case");
                metadata += it->second->metadataBytes();
            }
            if (metadata > hw.tech.kernelSpadBudget())
                add(static_cast<int>(s), st.op,
                    "kernel metadata exceeds the on-chip budget");

            if (st.weightsResident && st.baseTiles > 0) {
                const Bytes perTile =
                    node.weightBytes() /
                    static_cast<Bytes>(st.baseTiles);
                if (perTile > hw.tech.spadBytes)
                    add(static_cast<int>(s), st.op,
                        "resident weights exceed scratchpad");
            }
        }

        // Share pairs reference valid stages.
        for (const SharePair &pair : seg.pairs) {
            if (pair.stageA < 0 || pair.stageB < 0 ||
                static_cast<std::size_t>(pair.stageA) >=
                    seg.stages.size() ||
                static_cast<std::size_t>(pair.stageB) >=
                    seg.stages.size())
                add(static_cast<int>(s), kInvalidOp,
                    "share pair references missing stages");
        }
    }
    return issues;
}

std::string
issuesToString(const std::vector<ScheduleIssue> &issues)
{
    std::ostringstream os;
    for (const ScheduleIssue &issue : issues) {
        os << "segment " << issue.segment << " op " << issue.op << ": "
           << issue.message << '\n';
    }
    return os.str();
}

void
checkSchedule(const Schedule &schedule, const graph::DynGraph &dg,
              const arch::HwConfig &hw)
{
    const auto issues = validateSchedule(schedule, dg, hw);
    ADYNA_ASSERT(issues.empty(), "\"", dg.name(), "\": invalid schedule:\n",
                 issuesToString(issues));
}

} // namespace adyna::core
