/**
 * @file
 * Run-report serialization: JSON and CSV exporters, driven by one
 * field list, so bench results can feed external plotting pipelines
 * without scraping the text tables.
 */

#ifndef ADYNA_CORE_REPORT_IO_HH
#define ADYNA_CORE_REPORT_IO_HH

#include <string>
#include <vector>

#include "core/system.hh"

namespace adyna::core {

/**
 * Serialize one report as a JSON object. Includes scalar metrics and
 * the energy breakdown; per-batch series are included only when
 * @p include_batches is set. The cache and fault counters stay out,
 * so the bytes match across cache settings, --jobs and empty plans.
 */
std::string toJson(const RunReport &report,
                   bool include_batches = false);

/** Serialize several reports as a JSON array. */
std::string toJson(const std::vector<RunReport> &reports,
                   bool include_batches = false);

/** CSV document: the header, then one row of scalar metrics per
 * report. */
std::string toCsv(const std::vector<RunReport> &reports);

} // namespace adyna::core

#endif // ADYNA_CORE_REPORT_IO_HH
