#include "kernels/store_cache.hh"

#include <mutex>

#include "common/logging.hh"

namespace adyna::kernels {

namespace {

/** FNV-1a over a little stream of 64-bit words. */
class Fnv64
{
  public:
    void
    mix(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    mix(double value)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(value));
        __builtin_memcpy(&bits, &value, sizeof(bits));
        mix(bits);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace

std::uint64_t
techHash(const costmodel::TechParams &tech)
{
    // Conservative: hash every numeric field, including energy/area
    // constants a compiled store does not depend on. A false
    // negative only costs one redundant compile; a false positive
    // would silently share stores across incompatible chips.
    Fnv64 h;
    h.mix(static_cast<std::uint64_t>(tech.peRows));
    h.mix(static_cast<std::uint64_t>(tech.peCols));
    h.mix(tech.freqGhz);
    h.mix(static_cast<std::uint64_t>(tech.spadBytes));
    h.mix(static_cast<std::uint64_t>(tech.rfBytes));
    h.mix(tech.kernelSpadFraction);
    h.mix(static_cast<std::uint64_t>(tech.kernelMetadataBytes));
    h.mix(tech.eMacPj);
    h.mix(tech.eSramPerBytePj);
    h.mix(tech.eDramPerBytePj);
    h.mix(tech.eNocPerByteHopPj);
    h.mix(tech.peArrayAreaMm2);
    h.mix(tech.peArrayPowerMw);
    h.mix(tech.spadAreaMm2);
    h.mix(tech.spadPowerMw);
    h.mix(tech.dispatcherCtrlAreaMm2);
    h.mix(tech.dispatcherCtrlPowerMw);
    h.mix(tech.routerNicAreaMm2);
    h.mix(tech.routerNicPowerMw);
    return h.value();
}

KernelStore
compileStore(const graph::OpNode &op,
             const std::vector<std::int64_t> &values, int tiles,
             costmodel::Mapper &mapper,
             const costmodel::TechParams &tech)
{
    KernelStore store;
    for (std::int64_t v : values) {
        Kernel k;
        k.value = v;
        k.mapping = mapper.search(op, v, tiles);
        k.image = encodeKernel(k.mapping, op.stride, tech);
        store.add(std::move(k));
    }
    return store;
}

std::shared_ptr<const KernelStore>
KernelStoreCache::getOrCompile(const graph::OpNode &op,
                               const std::vector<std::int64_t> &values,
                               int tiles, costmodel::Mapper &mapper,
                               const costmodel::TechParams &tech)
{
    Key key = makeKey(op, values, tiles, tech);
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    // Compile outside the lock: concurrent racers may duplicate the
    // work for one key, but compilation is deterministic and emplace
    // keeps the first insertion.
    auto store = std::make_shared<const KernelStore>(
        compileStore(op, values, tiles, mapper, tech));
    std::unique_lock<std::shared_mutex> lock(mutex_);
    const auto [it, inserted] =
        cache_.emplace(std::move(key), std::move(store));
    (void)inserted;
    return it->second;
}

void
KernelStoreCache::clear()
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    cache_.clear();
}

std::size_t
KernelStoreCache::size() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return cache_.size();
}

KernelStoreCache::Key
KernelStoreCache::makeKey(const graph::OpNode &op,
                          const std::vector<std::int64_t> &values,
                          int tiles, const costmodel::TechParams &tech)
{
    Key key;
    key.ext = op.dims.ext;
    // The N extent is superseded by the compiled value set (the same
    // normalization as the Mapper memo key).
    key.ext[0] = 0;
    key.stride = op.stride;
    key.dtypeBytes = op.dtypeBytes;
    key.compute = graph::isCompute(op.kind);
    key.tiles = tiles;
    key.tech = techHash(tech);
    key.values = values;
    return key;
}

} // namespace adyna::kernels
