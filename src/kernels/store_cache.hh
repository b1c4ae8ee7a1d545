/**
 * @file
 * A thread-safe cache of compiled kernel stores.
 *
 * Compiling a store is the expensive half of a (re-)schedule: one
 * mapping search plus one 128-byte metadata encode per sampled value
 * per tile count per stage. Re-schedules (periodic reconfiguration,
 * drift-triggered serving reconfiguration) and bench sweeps rebuild
 * stores for the same (operator, value set, tile count) triples over
 * and over; this cache turns those rebuilds into lookups.
 *
 * The key captures everything a compiled store depends on: the
 * operator's loop-nest signature (extents with N zeroed -- the
 * sampled values supersede the batch extent, mirroring the Mapper
 * memo key), stride, dtype, whether it is a compute op (the mapping
 * search costs a vector op differently), the exact clamped value
 * set, the tile count, and a hash of the technology parameters (so
 * one shared cache can serve hardware-sweep benches with different
 * chips).
 * Store compilation is deterministic given the key, so sharing a
 * cache across runs or threads never changes simulation outputs;
 * only the hit/miss counters depend on the interleaving (the same
 * contract as the shared Mapper memo).
 */

#ifndef ADYNA_KERNELS_STORE_CACHE_HH
#define ADYNA_KERNELS_STORE_CACHE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "costmodel/mapper.hh"
#include "graph/op.hh"
#include "kernels/store.hh"

namespace adyna::kernels {

/** Deterministic hash of every TechParams field a compiled store can
 * depend on (array shape, buffer capacities, metadata budget). */
std::uint64_t techHash(const costmodel::TechParams &tech);

/**
 * Compile one kernel store from scratch: for each value, search the
 * best mapping on @p tiles tiles and encode its metadata image.
 * @p values must be clamped/deduplicated by the caller (the
 * scheduler's "clean" set); the store keeps them sorted.
 */
KernelStore compileStore(const graph::OpNode &op,
                         const std::vector<std::int64_t> &values,
                         int tiles, costmodel::Mapper &mapper,
                         const costmodel::TechParams &tech);

/** Modeled cycles to compile one kernel store: the per-store term
 * of a serving rebuild's cost (what the watchdog budgets) and of a
 * schedule search's materializations. */
inline constexpr Cycles kStoreCompileCycles = 2000;

/** Memoizing cache of compiled kernel stores. */
class KernelStoreCache
{
  public:
    KernelStoreCache() = default;
    KernelStoreCache(const KernelStoreCache &) = delete;
    KernelStoreCache &operator=(const KernelStoreCache &) = delete;

    /**
     * The store for (@p op signature, @p values, @p tiles, @p tech),
     * compiling through @p mapper on a miss. Concurrent racers may
     * duplicate the compile for one key; the first insertion wins
     * and results are identical either way.
     */
    std::shared_ptr<const KernelStore>
    getOrCompile(const graph::OpNode &op,
                 const std::vector<std::int64_t> &values, int tiles,
                 costmodel::Mapper &mapper,
                 const costmodel::TechParams &tech);

    /** Drop every cached store (e.g. cold-start benchmarking). */
    void clear();

    /** Cached stores. */
    std::size_t size() const;

    /** Cache statistics (monotone; safe to read concurrently). */
    std::uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    std::uint64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

  private:
    struct Key
    {
        /** Loop extents with N zeroed (the value set supersedes the
         * batch extent). */
        std::array<std::int64_t, graph::kNumDims> ext{};
        int stride = 1;
        int dtypeBytes = 2;
        bool compute = false;
        int tiles = 1;
        std::uint64_t tech = 0;
        std::vector<std::int64_t> values;

        auto operator<=>(const Key &) const = default;
    };

    static Key makeKey(const graph::OpNode &op,
                       const std::vector<std::int64_t> &values,
                       int tiles, const costmodel::TechParams &tech);

    mutable std::shared_mutex mutex_;
    std::map<Key, std::shared_ptr<const KernelStore>> cache_;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
};

} // namespace adyna::kernels

#endif // ADYNA_KERNELS_STORE_CACHE_HH
