/**
 * @file
 * Off-chip HBM2 model: one bandwidth channel per stack, tiles mapped
 * to the nearest memory interface by column, plus a fixed access
 * latency.
 */

#ifndef ADYNA_ARCH_HBM_HH
#define ADYNA_ARCH_HBM_HH

#include <cstdint>
#include <vector>

#include "arch/hwconfig.hh"
#include "arch/resource.hh"

namespace adyna::arch {

/** Completed DRAM access summary. */
struct HbmAccess
{
    Tick start = 0;
    Tick end = 0;
};

/** HBM stacks as contended bandwidth channels. */
class Hbm
{
  public:
    explicit Hbm(const HwConfig &cfg);

    /** Channel serving a given tile (nearest interface). */
    int channelOf(TileId tile) const;

    /**
     * Access @p bytes (read or write) from @p tile, no earlier than
     * @p earliest.
     */
    HbmAccess access(Tick earliest, TileId tile, Bytes bytes);

    /** Total bytes moved to/from DRAM. */
    Bytes bytesServed() const;

    /** Aggregate channel busy ticks. */
    Tick busyTicks() const;

    /** Aggregate bandwidth in bytes per cycle. */
    double totalBandwidth() const;

    /**
     * Drop channel reservations ending at or before @p before. Safe
     * only when every later access passes earliest >= @p before; the
     * engine calls this with the monotone period barrier.
     */
    void trim(Tick before);

    /** Live reservations across all channels (bookkeeping bound). */
    std::size_t reservationCount() const;

    /** Channel reservations made, and those granted by the channels'
     * repeat rule (GapBandwidthResource::repeatGrants()). */
    std::uint64_t acquires() const;
    std::uint64_t repeatGrants() const;

    void reset();

  private:
    const HwConfig cfg_;
    std::vector<GapBandwidthResource> channels_;
};

} // namespace adyna::arch

#endif // ADYNA_ARCH_HBM_HH
