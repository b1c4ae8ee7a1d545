#include "arch/resource.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace adyna::arch {

GapBandwidthResource::GapBandwidthResource(double bytes_per_tick)
    : rate_(bytes_per_tick)
{
    ADYNA_ASSERT(rate_ > 0.0, "channel rate must be positive: ", rate_);
}

Tick
GapBandwidthResource::serviceTime(Bytes bytes) const
{
    if (bytes == 0)
        return 0;
    const double ticks = static_cast<double>(bytes) / rate_;
    return static_cast<Tick>(std::ceil(ticks));
}

Reservation
GapBandwidthResource::acquire(Tick earliest, Bytes bytes, Tick dur)
{
#ifdef ADYNA_SANITIZE
    ADYNA_ASSERT(dur == serviceTime(bytes), "service time ", dur,
                 " given for ", bytes, " bytes");
#endif
    bytesServed_ += bytes;
    busyTicks_ += dur;
    ++acquires_;

    // The previous request again: grant it at the end of the interval
    // holding the previous grant when it ends strictly before the
    // next interval starts (see the class comment).
    if (dur != 0 && dur == lastDur_ && earliest == lastEarliest_) {
        Reservation &held = busy_[lastAt_];
        const std::size_t next = lastAt_ + 1;
        if (next == busy_.size() || held.end + dur < busy_[next].start) {
            const Reservation granted{held.end, held.end + dur};
            held.end = granted.end;
            ++repeatGrants_;
            return granted;
        }
    }

    // First idle gap of length >= dur starting at or after earliest.
    // The intervals are sorted and disjoint, so their ends are sorted
    // too: binary-search past every interval ending before earliest.
    // Such an interval cannot hold the request and cannot move the
    // candidate, so skipping it changes no grant. (Expired entries
    // before head_ end before every admissible earliest.) The bound
    // is end >= earliest, not >, so a zero-length interval at
    // earliest stays in the scan: a zero-byte request stops at it,
    // as it does in a scan from head_.
    Tick candidate = earliest;
    const auto first = std::lower_bound(
        busy_.begin() + static_cast<std::ptrdiff_t>(head_), busy_.end(),
        earliest,
        [](const Reservation &r, Tick e) { return r.end < e; });
    std::size_t insertAt =
        static_cast<std::size_t>(first - busy_.begin());
    for (; insertAt < busy_.size(); ++insertAt) {
        const Reservation &r = busy_[insertAt];
        if (candidate + dur <= r.start)
            break; // fits before this interval
        candidate = std::max(candidate, r.end);
    }
    const Reservation granted{candidate, candidate + dur};

    // Splice in place. Intervals are disjoint, so the grant can only
    // touch (not overlap) its neighbours; extending a neighbour
    // replaces the old rebuild-the-whole-vector merge pass. A grant
    // is never merged into the expired prefix: that would hide busy
    // time from the gap search, which starts at head_.
    const bool touchPrev = insertAt > head_ &&
                           busy_[insertAt - 1].end == granted.start;
    const bool touchNext = insertAt < busy_.size() &&
                           granted.end == busy_[insertAt].start;
    if (touchPrev && touchNext) {
        busy_[insertAt - 1].end = busy_[insertAt].end;
        busy_.erase(busy_.begin() +
                    static_cast<std::ptrdiff_t>(insertAt));
    } else if (touchPrev) {
        busy_[insertAt - 1].end = granted.end;
    } else if (touchNext) {
        busy_[insertAt].start = granted.start;
    } else {
        busy_.insert(busy_.begin() +
                         static_cast<std::ptrdiff_t>(insertAt),
                     granted);
    }
    lastEarliest_ = earliest;
    lastDur_ = dur;
    lastAt_ = touchPrev ? insertAt - 1 : insertAt;
    return granted;
}

void
GapBandwidthResource::trim(Tick before)
{
    lastDur_ = 0; // compaction below moves the remembered index
    while (head_ < busy_.size() && busy_[head_].end <= before)
        ++head_;
    // Compact once the expired prefix dominates, so the vector stays
    // bounded by the live working set instead of growing forever.
    if (head_ > 16 && head_ * 2 > busy_.size()) {
        busy_.erase(busy_.begin(),
                    busy_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
}

void
GapBandwidthResource::reset()
{
    busy_.clear();
    head_ = 0;
    busyTicks_ = 0;
    bytesServed_ = 0;
    lastDur_ = 0;
    acquires_ = 0;
    repeatGrants_ = 0;
}

Reservation
SerialResource::acquire(Tick earliest, Tick duration)
{
    const Tick start = std::max(earliest, busyUntil_);
    busyUntil_ = start + duration;
    busyTicks_ += duration;
    return {start, busyUntil_};
}

void
SerialResource::reset()
{
    busyUntil_ = 0;
    busyTicks_ = 0;
}

} // namespace adyna::arch
