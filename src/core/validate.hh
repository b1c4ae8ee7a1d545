/**
 * @file
 * Schedule validation: a reusable checker for the invariants every
 * schedule must satisfy before it can run (used by tests, by the
 * fuzz suite, and available to users who hand-construct schedules).
 */

#ifndef ADYNA_CORE_VALIDATE_HH
#define ADYNA_CORE_VALIDATE_HH

#include <string>
#include <vector>

#include "arch/hwconfig.hh"
#include "core/schedule.hh"
#include "graph/dyngraph.hh"

namespace adyna::core {

/** One validation problem. */
struct ScheduleIssue
{
    /** Segment index, -1 for schedule-wide issues. */
    int segment = -1;

    /** Offending op, kInvalidOp for segment-wide issues. */
    OpId op = kInvalidOp;

    std::string message;
};

/**
 * Check a schedule against its graph and hardware:
 *  - every compute / standalone vector op appears in exactly one
 *    segment, in topological order within it;
 *  - tile ids are in range and base allocations are positive;
 *  - switch regions with a merge do not straddle segments;
 *  - each stage owns a kernel store for every tile count it can run
 *    at (base + all share-pair allocations), covering its worst case;
 *  - per-tile kernel metadata fits the 25.6 kB budget;
 *  - resident weights fit the stage's tiles.
 *
 * @return all found issues (empty = valid).
 */
std::vector<ScheduleIssue>
validateSchedule(const Schedule &schedule, const graph::DynGraph &dg,
                 const arch::HwConfig &hw);

/** Render issues for diagnostics. */
std::string issuesToString(const std::vector<ScheduleIssue> &issues);

/** Abort with issuesToString's report if @p schedule fails
 * validateSchedule: the check each schedule System and the serving
 * back-end build passes before it is installed. */
void checkSchedule(const Schedule &schedule, const graph::DynGraph &dg,
                   const arch::HwConfig &hw);

} // namespace adyna::core

#endif // ADYNA_CORE_VALIDATE_HH
