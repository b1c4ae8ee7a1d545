/**
 * @file
 * Timed resources with reservation semantics.
 *
 * GapBandwidthResource models a serial channel (a NoC link, an HBM
 * channel) at a fixed rate: a reservation of B bytes occupies the
 * channel for ceil(B / rate) ticks in the first idle gap that starts
 * no earlier than the requested time. This is the standard
 * message-level contention model for interconnect and memory in
 * multi-tile accelerator simulators. SerialResource is the
 * busy-until server used for tile compute occupancy.
 */

#ifndef ADYNA_DES_RESOURCE_HH
#define ADYNA_DES_RESOURCE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace adyna::des {

/** Time interval [start, end) of a granted reservation. */
struct Reservation
{
    Tick start = 0;
    Tick end = 0;

    Tick duration() const { return end - start; }
};

/**
 * Serial channel with gap-filling reservations: a request whose
 * desired start lies in an idle gap between existing reservations may
 * claim that gap instead of queueing at the end. This avoids
 * head-of-line blocking when requests are issued out of time order
 * (e.g. a late write-back issued before the next batch's early read),
 * and makes every grant a function of the reserved intervals alone,
 * not of the order they were requested in. Backs the HBM channels,
 * every directed NoC link and the engine's host CPU.
 *
 * Lookup cost: acquire() binary-searches the live intervals for the
 * first one ending at or after the requested time, then scans forward
 * only until the request fits, so it costs O(log n) plus the
 * intervals it must skip past, not O(n) in the live interval count.
 * Live lists grow long when a period spans many batches (the engine
 * trims only at period barriers).
 */
class GapBandwidthResource
{
  public:
    explicit GapBandwidthResource(double bytes_per_tick);

    /** Reserve the channel for @p bytes at the earliest idle gap
     * starting no earlier than @p earliest. */
    Reservation acquire(Tick earliest, Bytes bytes);

    Tick serviceTime(Bytes bytes) const;

    Bytes bytesServed() const { return bytesServed_; }
    Tick busyTicks() const { return busyTicks_; }

    /**
     * Drop reservations that end at or before @p before. Caller
     * contract: every future acquire() passes earliest >= @p before
     * (the engine trims at the period barrier, which is monotone).
     * Under that contract an expired interval can never change a
     * grant, so trimming is behaviour-preserving; it keeps the live
     * interval list bounded under steady-state traffic instead of
     * grow-only.
     */
    void trim(Tick before);

    /** Live (non-expired) reservations currently tracked. */
    std::size_t reservationCount() const
    {
        return busy_.size() - head_;
    }

    void reset();

  private:
    double rate_;
    /** Sorted, disjoint busy intervals [start, end). Entries before
     * head_ are expired (end <= last trim barrier) and excluded from
     * the gap search; the prefix is compacted away once it dominates
     * the vector, so erasure cost amortizes to O(1) per trim. */
    std::vector<Reservation> busy_;
    std::size_t head_ = 0;
    Tick busyTicks_ = 0;
    Bytes bytesServed_ = 0;
};

/**
 * Unit-capacity server: a reservation occupies the server for an
 * explicit duration, starting no earlier than the end of the previous
 * one (used for tile compute occupancy).
 */
class SerialResource
{
  public:
    /** Reserve for @p duration ticks starting no earlier than
     * @p earliest. */
    Reservation acquire(Tick earliest, Tick duration);

    Tick busyUntil() const { return busyUntil_; }
    Tick busyTicks() const { return busyTicks_; }

    void reset();

  private:
    Tick busyUntil_ = 0;
    Tick busyTicks_ = 0;
};

} // namespace adyna::des

#endif // ADYNA_DES_RESOURCE_HH
