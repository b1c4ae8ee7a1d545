/**
 * @file
 * The hardware profiler (Sections IV, VI-A): per dynamic operator it
 * tracks the frequency of observed dyn_dim values (the frequency
 * track table) and, per switch, the recent per-branch load vectors
 * used by the scheduler for tile-sharing pair selection. Reports are
 * pulled periodically by the scheduler on the host.
 *
 * Like the hardware's table, which has one slot per dynamic operator,
 * the tables are flat: op ids are dense graph indices, so both the
 * frequency tables and the branch-load histories live in vectors
 * indexed by OpId, grown on first use. Every walk over them runs in
 * ascending op id; the serving runtime's drift-monitor load series
 * takes the id one past the graph, so it comes last.
 */

#ifndef ADYNA_ARCH_PROFILER_HH
#define ADYNA_ARCH_PROFILER_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace adyna::arch {

/** Frequency tables indexed by OpId; an op never recorded has an
 * empty table or lies past the end. */
using FreqTables = std::vector<FreqHistogram>;

/**
 * A switch's per-branch load vectors of its most recent batches: a
 * fixed ring of at most `capacity` rows, read oldest first. Once the
 * ring is full, a new row overwrites the oldest in place, so a
 * steady stream of same-width rows allocates nothing.
 */
class BranchHistory
{
  public:
    std::size_t size() const { return rows_.size(); }
    bool empty() const { return rows_.empty(); }

    /** The @p i-th oldest load vector. */
    const std::vector<std::int64_t> &operator[](std::size_t i) const
    {
        i += head_;
        return rows_[i < rows_.size() ? i : i - rows_.size()];
    }

    /** The newest load vector. */
    const std::vector<std::int64_t> &back() const
    {
        return (*this)[rows_.size() - 1];
    }

    /** Append @p loads, dropping the oldest row beyond @p capacity. */
    void push(const std::vector<std::int64_t> &loads,
              std::size_t capacity);

  private:
    std::vector<std::vector<std::int64_t>> rows_;
    /** Index of the oldest row (0 until the ring is full). */
    std::size_t head_ = 0;
};

/** Per-run profiler state. */
class Profiler
{
  public:
    /** @param history batches of per-branch loads kept per switch. */
    explicit Profiler(std::size_t history = 64);

    /** Record the dyn_dim value an operator observed in one batch.
     * A value the op's table already holds allocates nothing. */
    void recordValue(OpId op, std::int64_t value);

    /** Note one completed batch (or request) in the current
     * observation window; cleared by resetTables(). */
    void noteBatch() { ++windowBatches_; }

    /** Batches noted since the last resetTables() — the length of
     * the observation window the frequency tables cover. */
    std::uint64_t windowBatches() const { return windowBatches_; }

    /** Record one batch's per-branch loads at a switch. */
    void recordBranchLoads(OpId switch_op,
                           const std::vector<std::int64_t> &loads);

    /** Frequency track table of an operator (empty if never seen),
     * valid until the next record call. */
    const FreqHistogram &table(OpId op) const;

    /** All tracked operators (non-empty tables), ascending. */
    std::vector<OpId> trackedOps() const;

    /** Recent per-branch load history of a switch (oldest first),
     * valid until the next record call. */
    const BranchHistory &branchHistory(OpId switch_op) const;

    /**
     * Covariance of the loads of two branches of a switch over the
     * recorded history; 0 if fewer than two batches recorded.
     */
    double branchCovariance(OpId switch_op, int a, int b) const;

    /** Fraction of recorded batches in which a branch was active
     * (load > 0); 1.0 if no history. */
    double branchActivity(OpId switch_op, int branch) const;

    /** Copy of every current frequency table — the snapshot a drift
     * monitor keeps as its reference distribution at schedule time. */
    FreqTables tablesSnapshot() const { return tables_; }

    /**
     * Drift of the current window against a reference snapshot: the
     * worst (maximum) normalized-L1 distance (see distributionL1,
     * in [0, 2]) over the ops present with data on both sides,
     * folding wide value domains onto @p buckets equal-width
     * buckets. The max rather than the mean: one strongly-shifted
     * op (a repopularized expert, say) must not be averaged away by
     * many stationary ones. Returns 0 when nothing is comparable.
     */
    double driftL1(const FreqTables &reference, int buckets = 8) const;

    /** Clear the frequency tables (start of a profiling period),
     * keeping their storage; branch history is kept rolling. */
    void resetTables();

    /** Clear everything. */
    void reset();

  private:
    std::size_t history_;
    std::uint64_t windowBatches_ = 0;
    FreqTables tables_;
    /** Indexed by switch OpId. */
    std::vector<BranchHistory> branches_;

    static const FreqHistogram kEmptyTable;
    static const BranchHistory kEmptyHistory;
};

} // namespace adyna::arch

#endif // ADYNA_ARCH_PROFILER_HH
