/**
 * @file
 * The inter-chip interconnect of a pod: an explicit, costed
 * bandwidth/latency tier above the on-chip torus. Each chip hangs off
 * the pod fabric through one ingress and one egress serial link
 * (think a handful of SerDes lanes vs the torus's 192 B/cycle/link),
 * and every payload that crosses the chip boundary — the request
 * payload a routed arrival carries in, the response payload a
 * completion carries out, and the weight working set re-streamed when
 * a healed chip rejoins — is serialized on its link and charged the
 * fabric's propagation latency. Links are FIFO with a busy-until
 * horizon: a transfer starts when both the requested start time and
 * the link's previous transfer allow, so delivery times on one link
 * are monotone in issue order (which is what lets delivered requests
 * feed a Batcher's monotone-arrival queue directly).
 *
 * Gray-failure windows (DESIGN.md §15) make individual transfers
 * unreliable: inside a link_flaky window each serialization attempt
 * is lost with probability p — detected at the link layer and
 * retransmitted until clean, each attempt re-serialized on the FIFO
 * link — and inside a payload_corrupt window each attempt takes a
 * silent bit-flip with probability p. With end-to-end checksums on,
 * a corrupted attempt is detected and retried exactly like a link
 * loss (and counted per chip for the circuit breaker's SDC trip);
 * with checksums off the corrupted payload is delivered wrong and
 * only the undetected counter knows. With no windows configured the
 * RNG is never drawn and transfers behave exactly as before, so
 * fault-free pods stay byte-identical.
 */

#ifndef ADYNA_POD_INTERCONNECT_HH
#define ADYNA_POD_INTERCONNECT_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace adyna::pod {

/** Inter-chip link parameters. */
struct InterconnectConfig
{
    /** Serialization bandwidth of one directed chip link, bytes per
     * cycle. Deliberately far below the on-chip torus link rate
     * (192 B/cycle): crossing the chip boundary is the expensive
     * tier. */
    double bytesPerCycle = 48.0;

    /** Propagation latency charged on every transfer, cycles. */
    Cycles latencyCycles = 2000;
};

/** What a transfer carries (per-class byte accounting). */
enum class PayloadClass {
    Request,  ///< router -> chip request payload
    Response, ///< chip -> router response payload
    Weights,  ///< HBM -> chip weight (re-)stream on (re)join
    Probe,    ///< router -> chip -> router health-probe ping
};

/** A [start, end) tick span during which transfers fault with
 * probability prob per attempt. */
struct UnreliableWindow
{
    Tick start = 0;
    Tick end = 0;
    double prob = 0.0;
};

/** The pod fabric: one ingress + one egress link per chip. */
class Interconnect
{
  public:
    Interconnect(InterconnectConfig cfg, int chips);

    /**
     * Serialize @p bytes onto @p chip's directed link (@p to_chip
     * picks ingress vs egress) no earlier than @p now.
     * @return the delivery tick (serialization + propagation,
     * including any retransmitted attempts).
     */
    Tick transfer(int chip, bool to_chip, Tick now, Bytes bytes,
                  PayloadClass cls);

    /** Tick the link's last accepted transfer finishes serializing. */
    Tick linkBusyUntil(int chip, bool to_chip) const;

    std::uint64_t transfers() const { return transfers_; }
    Bytes requestBytes() const { return requestBytes_; }
    Bytes responseBytes() const { return responseBytes_; }
    Bytes weightBytes() const { return weightBytes_; }
    Bytes probeBytes() const { return probeBytes_; }

    // ---- gray-failure windows (see file comment) -------------------

    /** Seed the per-attempt fault stream (one shared deterministic
     * stream; the pod loop is single-threaded). */
    void setSeed(std::uint64_t seed);

    /** Verify end-to-end checksums on every transfer (detect-and-
     * retry corrupted attempts). */
    void setChecksums(bool on) { checksums_ = on; }

    /** link_flaky windows of @p chip (both directions). */
    void setFlakyWindows(int chip,
                         std::vector<UnreliableWindow> windows);

    /** payload_corrupt windows (fabric-wide). */
    void setCorruptWindows(std::vector<UnreliableWindow> windows);

    /** Link-layer losses retransmitted (flaky windows). */
    std::uint64_t linkRetries() const { return linkRetries_; }
    /** Checksum-detected corruptions retransmitted. */
    std::uint64_t integrityRetries() const
    {
        return integrityRetries_;
    }
    std::uint64_t corruptionsInjected() const
    {
        return corruptionsInjected_;
    }
    std::uint64_t corruptionsDetected() const
    {
        return corruptionsDetected_;
    }
    /** Corrupted payloads delivered wrong (checksums off). */
    std::uint64_t corruptionsUndetected() const
    {
        return corruptionsUndetected_;
    }
    /** Checksum-detected corruptions on @p chip's links (the
     * breaker's SDC feed). */
    std::uint64_t sdcDetected(int chip) const;
    /** Extra bytes serialized by retransmitted attempts. */
    Bytes retryBytes() const { return retryBytes_; }

  private:
    std::size_t linkIndex(int chip, bool to_chip) const;
    static double windowProb(
        const std::vector<UnreliableWindow> &windows, Tick at);

    InterconnectConfig cfg_;
    int chips_ = 0;

    /** Per-link busy-until horizon: [2c] = ingress, [2c+1] =
     * egress. */
    std::vector<Tick> busyUntil_;

    std::uint64_t transfers_ = 0;
    Bytes requestBytes_ = 0;
    Bytes responseBytes_ = 0;
    Bytes weightBytes_ = 0;
    Bytes probeBytes_ = 0;

    bool checksums_ = false;
    Rng rng_{0x9d2c5680u};
    std::vector<std::vector<UnreliableWindow>> flaky_;
    std::vector<UnreliableWindow> corrupt_;
    bool unreliable_ = false;

    std::uint64_t linkRetries_ = 0;
    std::uint64_t integrityRetries_ = 0;
    std::uint64_t corruptionsInjected_ = 0;
    std::uint64_t corruptionsDetected_ = 0;
    std::uint64_t corruptionsUndetected_ = 0;
    std::vector<std::uint64_t> sdc_;
    Bytes retryBytes_ = 0;
};

} // namespace adyna::pod

#endif // ADYNA_POD_INTERCONNECT_HH
