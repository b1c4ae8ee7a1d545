/**
 * @file
 * Serving-config validation: every user-facing knob of the serving
 * runtime is range-checked up front with a clear, field-naming error
 * message (ADYNA_FATAL, exit code 1) instead of failing deep inside
 * the run with an internal assertion. ServeRuntime validates its
 * ServeConfig on construction; the free functions are exposed so CLI
 * front-ends can validate before building the heavier runtime state.
 */

#ifndef ADYNA_SERVE_VALIDATE_HH
#define ADYNA_SERVE_VALIDATE_HH

#include "serve/server.hh"

namespace adyna::serve {

/** Fatal on non-positive rates, out-of-range burst parameters, or a
 * Replay config without a trace file. */
void validateArrivalConfig(const ArrivalConfig &cfg);

/** Fatal on a zero/negative maxBatch. */
void validateBatchPolicy(const BatchPolicy &policy);

/** Fatal on a non-positive deadline. */
void validateSloConfig(const SloConfig &cfg);

/** Fatal on a non-positive window, a threshold outside [0, 2], a
 * noise multiplier below 1, hysteresis below 1, or a negative
 * cooldown: the bounds DriftMonitor's constructor asserts. */
void validateDriftConfig(const DriftConfig &cfg);

/** Validate every nested config plus the serve-level knobs
 * (numRequests, profileBatches, and the search's chains, mutation
 * budget and beam width when searchOnDrift is set). */
void validateServeConfig(const ServeConfig &cfg);

} // namespace adyna::serve

#endif // ADYNA_SERVE_VALIDATE_HH
