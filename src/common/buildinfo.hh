/**
 * @file
 * Build provenance for machine-readable bench outputs: the git
 * revision and build flags the binary was compiled from, so every
 * `BENCH_*.json` in the perf trajectory is attributable to a commit
 * and a configuration. Values are captured at CMake configure time
 * (re-run cmake after committing to refresh the SHA).
 */

#ifndef ADYNA_COMMON_BUILDINFO_HH
#define ADYNA_COMMON_BUILDINFO_HH

namespace adyna {

/** Abbreviated git SHA of the checkout at configure time, with a
 * "-dirty" suffix when the work tree had local modifications;
 * "unknown" outside a git checkout. */
const char *gitSha();

/** CMake build type ("RelWithDebInfo", "Debug", ...). */
const char *buildType();

/** Active ADYNA_SANITIZE mode ("thread", "address", "undefined"),
 * empty when built without a sanitizer. */
const char *sanitizerMode();

} // namespace adyna

#endif // ADYNA_COMMON_BUILDINFO_HH
