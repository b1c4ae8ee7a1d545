/**
 * @file
 * Run-report serialization: JSON (one report) and CSV (a matrix of
 * reports) exporters so bench results can feed external plotting
 * pipelines without scraping the text tables.
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
 * @p include_batches is set.
 */
std::string toJson(const RunReport &report,
                   bool include_batches = false);

/** Serialize several reports as a JSON array. */
std::string toJson(const std::vector<RunReport> &reports,
                   bool include_batches = false);

/**
 * Serialize the run's cache counters (mapper memo, kernel-store
 * cache) as one JSON object. Kept out of toJson() deliberately: the
 * counters depend on cache state and job interleaving, and the
 * machine-readable reports must stay byte-identical across cache
 * settings (the equivalence gates).
 */
std::string cacheStatsJson(const RunReport &report);

/**
 * Serialize the run's fault-injection counters as one JSON object.
 * Kept out of toJson() for the same reason as the cache counters: a
 * fault-free run's machine-readable reports must stay byte-identical
 * to the pre-fault code (the empty-plan equivalence gate).
 */
std::string faultStatsJson(const RunReport &report);

/**
 * Escape @p s for use inside a JSON string literal: the quote, the
 * backslash and every control character. The report emitters pass
 * every free-form name (workload, tenant, model) through it.
 */
std::string jsonEscape(const std::string &s);

/** printf into a std::string sized to fit the whole result. */
[[gnu::format(printf, 1, 2)]] std::string
formatString(const char *fmt, ...);

/** CSV header matching toCsvRow(). */
std::string csvHeader();

/** One CSV row of scalar metrics. */
std::string toCsvRow(const RunReport &report);

/** Full CSV document (header + one row per report). */
std::string toCsv(const std::vector<RunReport> &reports);

} // namespace adyna::core

#endif // ADYNA_CORE_REPORT_IO_HH
