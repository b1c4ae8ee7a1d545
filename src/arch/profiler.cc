#include "arch/profiler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace adyna::arch {

namespace {

/** Index of @p op in a table grown on first use; kInvalidOp, a
 * sentinel rather than a graph index, never sizes a table. */
std::size_t
slotOf(OpId op)
{
    ADYNA_ASSERT(op != kInvalidOp, "profiler fed the invalid op id");
    return op;
}

} // namespace

const FreqHistogram Profiler::kEmptyTable{};
const BranchHistory Profiler::kEmptyHistory{};

void
BranchHistory::push(const std::vector<std::int64_t> &loads,
                    std::size_t capacity)
{
    if (rows_.size() < capacity) {
        if (rows_.empty())
            rows_.reserve(capacity);
        rows_.push_back(loads);
        return;
    }
    rows_[head_].assign(loads.begin(), loads.end());
    if (++head_ == rows_.size())
        head_ = 0;
}

Profiler::Profiler(std::size_t history) : history_(history)
{
    ADYNA_ASSERT(history_ >= 2, "profiler history too short");
}

void
Profiler::recordValue(OpId op, std::int64_t value)
{
    const std::size_t i = slotOf(op);
    if (i >= tables_.size())
        tables_.resize(i + 1);
    tables_[i].add(value);
}

void
Profiler::recordBranchLoads(OpId switch_op,
                            const std::vector<std::int64_t> &loads)
{
    const std::size_t i = slotOf(switch_op);
    if (i >= branches_.size())
        branches_.resize(i + 1);
    branches_[i].push(loads, history_);
}

const FreqHistogram &
Profiler::table(OpId op) const
{
    return op < tables_.size() ? tables_[op] : kEmptyTable;
}

std::vector<OpId>
Profiler::trackedOps() const
{
    std::vector<OpId> out;
    for (std::size_t op = 0; op < tables_.size(); ++op)
        if (!tables_[op].empty())
            out.push_back(static_cast<OpId>(op));
    return out;
}

const BranchHistory &
Profiler::branchHistory(OpId switch_op) const
{
    return switch_op < branches_.size() ? branches_[switch_op]
                                        : kEmptyHistory;
}

double
Profiler::branchCovariance(OpId switch_op, int a, int b) const
{
    const BranchHistory &hist = branchHistory(switch_op);
    if (hist.size() < 2)
        return 0.0;
    const auto ia = static_cast<std::size_t>(a);
    const auto ib = static_cast<std::size_t>(b);
    double meanA = 0.0, meanB = 0.0;
    for (std::size_t i = 0; i < hist.size(); ++i) {
        meanA += static_cast<double>(hist[i][ia]);
        meanB += static_cast<double>(hist[i][ib]);
    }
    meanA /= static_cast<double>(hist.size());
    meanB /= static_cast<double>(hist.size());
    double cov = 0.0;
    for (std::size_t i = 0; i < hist.size(); ++i)
        cov += (static_cast<double>(hist[i][ia]) - meanA) *
               (static_cast<double>(hist[i][ib]) - meanB);
    return cov / static_cast<double>(hist.size());
}

double
Profiler::branchActivity(OpId switch_op, int branch) const
{
    const BranchHistory &hist = branchHistory(switch_op);
    if (hist.empty())
        return 1.0;
    std::size_t active = 0;
    for (std::size_t i = 0; i < hist.size(); ++i)
        active += hist[i][static_cast<std::size_t>(branch)] > 0;
    return static_cast<double>(active) /
           static_cast<double>(hist.size());
}

double
Profiler::driftL1(const FreqTables &reference, int buckets) const
{
    double worst = 0.0;
    int compared = 0;
    for (std::size_t op = 0; op < reference.size(); ++op) {
        const FreqHistogram &ref = reference[op];
        if (ref.empty())
            continue;
        const FreqHistogram &cur = table(static_cast<OpId>(op));
        if (cur.empty())
            continue;
        worst = std::max(worst, distributionL1(ref, cur, buckets));
        ++compared;
    }
    return compared == 0 ? 0.0 : worst;
}

void
Profiler::resetTables()
{
    for (FreqHistogram &t : tables_)
        t.reset();
    windowBatches_ = 0;
}

void
Profiler::reset()
{
    tables_.clear();
    branches_.clear();
    windowBatches_ = 0;
}

} // namespace adyna::arch
