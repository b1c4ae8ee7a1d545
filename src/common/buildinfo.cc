#include "common/buildinfo.hh"

// The build system injects the values; missing definitions (e.g. an
// ad-hoc compile outside CMake) degrade to "unknown" rather than
// failing the build.
#ifndef ADYNA_GIT_SHA
#define ADYNA_GIT_SHA "unknown"
#endif
#ifndef ADYNA_BUILD_TYPE
#define ADYNA_BUILD_TYPE "unknown"
#endif
#ifndef ADYNA_SANITIZE_MODE
#define ADYNA_SANITIZE_MODE ""
#endif

namespace adyna {

const char *
gitSha()
{
    return ADYNA_GIT_SHA;
}

const char *
buildType()
{
    return ADYNA_BUILD_TYPE;
}

const char *
sanitizerMode()
{
    return ADYNA_SANITIZE_MODE;
}

} // namespace adyna
