/**
 * @file
 * The mapping memo and kernel-store cache a run's schedule builds use
 * (DESIGN.md §9), taken the same way by System and every serving
 * runtime: shared across runs when the caller passes one in, else
 * local to the run.
 */

#ifndef ADYNA_CORE_CACHES_HH
#define ADYNA_CORE_CACHES_HH

#include <optional>

#include "arch/hwconfig.hh"
#include "costmodel/mapper.hh"
#include "kernels/store_cache.hh"

namespace adyna::core {

/** The cache hooks System and every serving runtime (single-chip,
 * multi-tenant, pod) expose to their schedule builds. */
class SharedCaches
{
  public:
    /**
     * Use @p mapper (shared, possibly with concurrent runs) instead
     * of a private per-run Mapper, so identical mapping searches are
     * memoized once per sweep. The mapper must be built from the same
     * TechParams as the run's HwConfig (the memo key does not include
     * the tech) and must outlive the run. Results are unaffected; only
     * wall-clock and the cache counters change. nullptr restores the
     * private mapper.
     */
    void setSharedMapper(costmodel::Mapper *mapper)
    {
        sharedMapper_ = mapper;
    }

    /**
     * Use @p cache (shared, possibly with concurrent runs) for
     * compiled-store reuse. It is keyed by tile count, so same-size
     * regions stay warm across repartitions. Must outlive the run.
     * Unset (or nullptr), each run compiles into a cache local to that
     * run. Results are unaffected; only wall-clock and the cache
     * counters change.
     */
    void setSharedStoreCache(kernels::KernelStoreCache *cache)
    {
        sharedStoreCache_ = cache;
    }

  protected:
    ~SharedCaches() = default;

    costmodel::Mapper *sharedMapper_ = nullptr;
    kernels::KernelStoreCache *sharedStoreCache_ = nullptr;
};

/**
 * The mapper and store cache one run uses: the shared ones where set,
 * else ones local to the run, so a run never depends on what earlier
 * runs in the same process compiled (a serving rebuild's modeled cost
 * reads the store cache's miss delta).
 */
class CacheContext
{
  public:
    CacheContext(const arch::HwConfig &hw,
                 costmodel::Mapper *shared_mapper,
                 kernels::KernelStoreCache *shared_stores)
        : mapper_(shared_mapper ? shared_mapper
                                : &localMapper_.emplace(hw.tech)),
          stores_(shared_stores ? shared_stores : &localStores_.emplace())
    {
    }
    CacheContext(const CacheContext &) = delete;
    CacheContext &operator=(const CacheContext &) = delete;

    costmodel::Mapper &mapper() { return *mapper_; }
    kernels::KernelStoreCache &storeCache() { return *stores_; }

  private:
    std::optional<costmodel::Mapper> localMapper_;
    std::optional<kernels::KernelStoreCache> localStores_;
    costmodel::Mapper *mapper_;
    kernels::KernelStoreCache *stores_;
};

} // namespace adyna::core

#endif // ADYNA_CORE_CACHES_HH
