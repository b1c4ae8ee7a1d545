#include "graph/dyngraph.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/logging.hh"

namespace adyna::graph {

namespace {

/**
 * Append the producers of @p op to @p out: a depth-first walk over
 * its inputs that descends through Switch/Merge nodes (marking the
 * producers found below them as crossing routing) and skips Sink and
 * Output nodes. seen[v] == @p stamp marks nodes already visited for
 * the current root, so each producer is listed once.
 */
void
resolveProducers(const Graph &g, OpId op, bool crossed, OpId stamp,
                 std::vector<OpId> &seen, std::vector<Producer> &out)
{
    for (OpId in : g.node(op).inputs) {
        if (seen[in] == stamp)
            continue;
        seen[in] = stamp;
        const OpKind kind = g.node(in).kind;
        if (kind == OpKind::Switch || kind == OpKind::Merge)
            resolveProducers(g, in, /*crossed=*/true, stamp, seen, out);
        else if (kind != OpKind::Sink && kind != OpKind::Output)
            out.push_back({in, crossed});
    }
}

} // namespace

DynGraph::DynGraph(Graph graph, std::vector<DynOpInfo> info,
                   std::vector<SwitchInfo> switches)
    : graph_(std::move(graph)), info_(std::move(info)),
      switches_(std::move(switches))
{
    ADYNA_ASSERT(info_.size() == graph_.size(),
                 "DynOpInfo count mismatch: ", info_.size(), " vs ",
                 graph_.size());
    topo_ = graph_.topoOrder();
    for (OpId id : topo_)
        if (info_[id].dynamic)
            dynamicOps_.push_back(id);
    numberSwitches();
    buildDataFlow();
}

void
DynGraph::numberSwitches()
{
    std::vector<OpId> ids;
    ids.reserve(switches_.size());
    for (const SwitchInfo &sw : switches_)
        ids.push_back(sw.switchOp);
    std::sort(ids.begin(), ids.end());
    const auto slotOf = [&](OpId sw) {
        const auto it = std::lower_bound(ids.begin(), ids.end(), sw);
        ADYNA_ASSERT(it != ids.end() && *it == sw, "op ", sw,
                     " is owned by an unknown switch");
        return static_cast<std::uint32_t>(it - ids.begin());
    };
    for (SwitchInfo &sw : switches_)
        sw.slot = slotOf(sw.switchOp);
    for (DynOpInfo &di : info_)
        if (di.ownerSwitch != kInvalidOp)
            di.switchSlot = slotOf(di.ownerSwitch);
}

void
DynGraph::buildDataFlow()
{
    const std::size_t n = graph_.size();

    // Producers: one resolution per op, stamped with the op's own id
    // so the visited marks never need clearing.
    std::vector<OpId> seen(n, kInvalidOp);
    producerStart_.reserve(n + 1);
    producerStart_.push_back(0);
    for (OpId op = 0; op < n; ++op) {
        resolveProducers(graph_, op, /*crossed=*/false, op, seen,
                         producers_);
        producerStart_.push_back(
            static_cast<std::uint32_t>(producers_.size()));
    }

    // Consumers: the reverse lists, laid out by counting sort. After
    // the prefix sum consumerStart_[p] is the end of p's range; the
    // descending fill walks it back to the start, leaving each range
    // in ascending consumer order.
    consumerStart_.assign(n + 1, 0);
    for (const Producer &p : producers_)
        ++consumerStart_[p.op];
    std::partial_sum(consumerStart_.begin(), consumerStart_.end(),
                     consumerStart_.begin());
    consumers_.resize(producers_.size());
    for (OpId op = static_cast<OpId>(n); op-- > 0;)
        for (const Producer &p : producers(op))
            consumers_[--consumerStart_[p.op]] = op;

    feedsOutput_.assign(n, 0);
    for (OpId out : graph_.outputIds())
        for (const Producer &p : producers(out))
            feedsOutput_[p.op] = 1;

    outBytesPerRow_.reserve(n);
    for (const OpNode &node : graph_.nodes()) {
        const LoopDims &dims = node.kind == OpKind::Input
                                   ? node.dims
                                   : info_[node.id].outDims;
        outBytesPerRow_.push_back(
            static_cast<Bytes>(dims.k() * dims.p() * dims.q()) *
            node.dtypeBytes);
    }
}

const DynOpInfo &
DynGraph::info(OpId id) const
{
    ADYNA_ASSERT(id < info_.size(), "bad OpId ", id);
    return info_[id];
}

const SwitchInfo &
DynGraph::switchInfo(OpId switch_op) const
{
    for (const SwitchInfo &sw : switches_)
        if (sw.switchOp == switch_op)
            return sw;
    ADYNA_PANIC("no SwitchInfo for op ", switch_op);
}

std::vector<OpId>
DynGraph::computeOps() const
{
    std::vector<OpId> out;
    for (OpId id : topo_)
        if (isCompute(graph_.node(id).kind))
            out.push_back(id);
    return out;
}

std::int64_t
DynGraph::worstCaseMacs() const
{
    return graph_.totalMacs();
}

double
DynGraph::expectedMacs(
    const std::vector<std::pair<OpId, double>> &expected) const
{
    double total = 0.0;
    for (const OpNode &n : graph_.nodes()) {
        if (n.macs() == 0)
            continue;
        double scale = 1.0;
        for (const auto &[id, exp_n] : expected) {
            if (id == n.id && n.dims.n() > 0) {
                scale = exp_n / static_cast<double>(n.dims.n());
                break;
            }
        }
        total += scale * static_cast<double>(n.macs());
    }
    return total;
}

std::string
DynGraph::summary() const
{
    std::ostringstream os;
    os << "DynGraph '" << name() << "': " << graph_.size() << " ops, "
       << switches_.size() << " switches, " << dynamicOps().size()
       << " dynamic ops\n";
    for (OpId id : topo_) {
        const OpNode &n = graph_.node(id);
        const DynOpInfo &di = info_[id];
        os << "  #" << id << ' ' << opKindName(n.kind) << " '" << n.name
           << "' " << n.dims.str();
        if (di.dynamic) {
            os << " dyn(max=" << di.maxDyn << ", switch=" << di.ownerSwitch
               << ", branch=" << di.branch << ")";
        }
        if (di.epilogueOps > 0)
            os << " +" << di.epilogueOps << " fused";
        os << '\n';
    }
    return os.str();
}

} // namespace adyna::graph
