#include "core/sampling.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace adyna::core {

std::vector<double>
redistributeFrequencies(const std::vector<std::int64_t> &vals,
                        const std::vector<double> &freq,
                        const std::vector<std::int64_t> &new_vals)
{
    ADYNA_ASSERT(vals.size() == freq.size(),
                 "vals/freq length mismatch");
    ADYNA_ASSERT(!new_vals.empty(), "empty re-sampled value set");
    ADYNA_ASSERT(std::is_sorted(vals.begin(), vals.end()) &&
                     std::is_sorted(new_vals.begin(), new_vals.end()),
                 "value sets must be sorted");

    std::vector<double> newFreq(new_vals.size(), 0.0);
    // Both sets ascend, so the first new sample above each range's
    // lower bound only moves forward: one walk over new_vals serves
    // every range.
    std::size_t first = 0;
    for (std::size_t pos = 0; pos < vals.size(); ++pos) {
        const double f = freq[pos];
        if (f <= 0.0)
            continue;
        const std::int64_t ub = vals[pos];
        if (ub < new_vals.front()) {
            // Below every new sample: served by the smallest kernel.
            newFreq.front() += f;
            continue;
        }
        const std::int64_t lb = pos == 0 ? 0 : vals[pos - 1];
        while (first < new_vals.size() && new_vals[first] <= lb)
            ++first;

        // New samples inside (lb, ub], uniform mass split by the
        // widths of the sub-ranges they cover.
        std::int64_t pv = lb;
        double assigned = 0.0;
        bool any = false;
        for (std::size_t p = first;
             p < new_vals.size() && new_vals[p] <= ub; ++p) {
            const std::int64_t v = new_vals[p];
            const double share =
                f * static_cast<double>(v - pv) /
                static_cast<double>(ub - lb);
            newFreq[p] += share;
            assigned += share;
            pv = v;
            any = true;
        }
        const double rest = f - assigned;
        if (rest > 0.0 || !any) {
            // Mass above the largest new sample inside the range
            // (or ranges with no new sample at all) is served by the
            // next kernel upward; the top kernel catches overflow.
            const auto it = std::lower_bound(new_vals.begin(),
                                             new_vals.end(), ub);
            const std::size_t idx =
                it == new_vals.end()
                    ? new_vals.size() - 1
                    : static_cast<std::size_t>(it - new_vals.begin());
            newFreq[idx] += any ? rest : f;
        }
    }
    return newFreq;
}

std::vector<std::int64_t>
resampleKernelValues(std::vector<std::int64_t> vals,
                     std::vector<double> freq, int iterations)
{
    ADYNA_ASSERT(vals.size() == freq.size(),
                 "vals/freq length mismatch");
    ADYNA_ASSERT(std::is_sorted(vals.begin(), vals.end()),
                 "kernel values must be sorted");
    if (vals.size() < 3)
        return vals; // nothing sensible to move

    constexpr double kInf = std::numeric_limits<double>::infinity();

    for (int iter = 0; iter < iterations; ++iter) {
        const std::size_t n = vals.size();

        // Punishment of removing vals[i] (Equation 1 under the
        // uniform assumption): its mass must fall back to the next
        // larger kernel. The largest value is never removable.
        std::size_t rmPos = n; // invalid
        double rmBest = kInf;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            const double punish =
                freq[i] * static_cast<double>(vals[i + 1] - vals[i]);
            if (punish < rmBest) {
                rmBest = punish;
                rmPos = i;
            }
        }
        if (rmPos == n)
            break;
        const std::int64_t rmVal = vals[rmPos];

        std::vector<std::int64_t> newVals = vals;
        std::vector<double> newFreq = freq;
        newVals.erase(newVals.begin() +
                      static_cast<std::ptrdiff_t>(rmPos));
        newFreq.erase(newFreq.begin() +
                      static_cast<std::ptrdiff_t>(rmPos));

        // Saving of inserting the midpoint of each remaining range
        // (v_{p-1}, v_p]: the lower half of the range's mass then
        // matches a kernel closer by half the width.
        std::size_t inPos = newVals.size(); // invalid
        double inBest = -1.0;
        for (std::size_t p = 0; p < newVals.size(); ++p) {
            const std::int64_t lo = p == 0 ? 0 : newVals[p - 1];
            const std::int64_t width = newVals[p] - lo;
            if (width < 2)
                continue; // no integer midpoint strictly inside
            const double saving = 0.5 * newFreq[p] *
                                  (static_cast<double>(width) / 2.0);
            if (saving > inBest) {
                inBest = saving;
                inPos = p;
            }
        }
        if (inPos == newVals.size()) {
            return vals; // recover the removed value and stop
        }
        const std::int64_t lo = inPos == 0 ? 0 : newVals[inPos - 1];
        const std::int64_t inVal = (lo + newVals[inPos]) / 2;
        if (inVal == rmVal || inVal <= lo || inBest <= rmBest) {
            return vals; // no profitable move left (Algorithm 1 L11)
        }
        newVals.insert(newVals.begin() +
                           static_cast<std::ptrdiff_t>(inPos),
                       inVal);

        // Redistribute the observed frequencies onto the new set.
        const std::vector<double> redist =
            redistributeFrequencies(vals, freq, newVals);
        vals = std::move(newVals);
        freq = redist;
    }
    return vals;
}

std::vector<double>
bucketFrequencies(const FreqHistogram &observed,
                  const std::vector<std::int64_t> &vals)
{
    std::vector<double> freq(vals.size(), 0.0);
    if (vals.empty())
        return freq;
    for (const auto &[value, count] : observed.sorted()) {
        const auto it =
            std::lower_bound(vals.begin(), vals.end(), value);
        const std::size_t idx =
            it == vals.end()
                ? vals.size() - 1
                : static_cast<std::size_t>(it - vals.begin());
        freq[idx] += static_cast<double>(count);
    }
    return freq;
}

void
refreshScheduleInputs(
    const arch::Profiler &profiler, bool resample,
    std::map<OpId, double> &expectations,
    std::map<OpId, std::vector<std::int64_t>> &kernel_values)
{
    std::map<OpId, double> newExp;
    for (OpId op : profiler.trackedOps()) {
        const auto &table = profiler.table(op);
        if (!table.empty())
            newExp[op] = table.expectation();
    }
    if (!newExp.empty())
        expectations = std::move(newExp);

    if (!resample)
        return;
    for (auto &[op, values] : kernel_values) {
        const auto &table = profiler.table(op);
        if (table.empty())
            continue;
        const auto freq = bucketFrequencies(table, values);
        values = resampleKernelValues(values, freq,
                                      static_cast<int>(values.size()));
    }
}

void
profileOffline(arch::Profiler &profiler, const graph::DynGraph &dg,
               int batches, const RoutingSource &next, bool resample,
               std::map<OpId, double> &expectations,
               std::map<OpId, std::vector<std::int64_t>> &kernel_values)
{
    for (int b = 0; b < batches; ++b) {
        const trace::BatchRouting routing = next(b);
        profiler.noteBatch();
        for (const auto &[sw, oc] : routing.outcomes)
            profiler.recordBranchLoads(sw, oc.branchCounts);
        for (OpId op : dg.dynamicOps())
            profiler.recordValue(op, routing.dynValue(dg, op));
    }
    refreshScheduleInputs(profiler, resample, expectations, kernel_values);
    profiler.resetTables();
}

} // namespace adyna::core
