/**
 * @file
 * Test helper: a schedule's full identity as a string, so two
 * schedules compare equal only when every segment, stage, tile
 * range and compiled kernel store matches down to the encoded
 * 128-byte kernel images.
 */

#ifndef ADYNA_TESTS_SCHEDULE_FINGERPRINT_HH
#define ADYNA_TESTS_SCHEDULE_FINGERPRINT_HH

#include <sstream>
#include <string>

#include "core/schedule.hh"

namespace adyna::test {

/** Everything a schedule compiles down to, including kernel images. */
inline std::string
scheduleFingerprint(const core::Schedule &s)
{
    std::ostringstream os;
    for (const auto &seg : s.segments) {
        for (const auto &st : seg->stages) {
            os << st.op << ':' << st.baseTiles << ':';
            for (TileId t : st.tiles)
                os << t << ',';
            for (const auto &[count, store] : st.stores) {
                os << '|' << count;
                for (const auto &k : store->kernels()) {
                    os << '/' << k.value << '#';
                    for (unsigned byte : k.image)
                        os << byte << '.';
                }
            }
            os << ';';
        }
        os << '\n';
    }
    return os.str();
}

} // namespace adyna::test

#endif // ADYNA_TESTS_SCHEDULE_FINGERPRINT_HH
