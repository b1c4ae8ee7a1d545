/**
 * @file
 * Unit tests for the kernel-store cache: key semantics (what shares
 * an entry and what must not), hit/miss accounting, invalidation via
 * clear(), equality with the compile-from-scratch path, and safe
 * concurrent population through a thread pool (the `concurrency`
 * label marks these worth re-running under -DADYNA_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "costmodel/mapper.hh"
#include "kernels/store_cache.hh"

namespace {

using namespace adyna;
using namespace adyna::costmodel;
using namespace adyna::kernels;
using namespace adyna::graph;

OpNode
matmulOp(std::int64_t n, std::int64_t k, std::int64_t c)
{
    OpNode op;
    op.kind = OpKind::MatMul;
    op.dims = LoopDims::matmul(n, k, c);
    return op;
}

/** Byte-level store equality: same values, same encoded images. */
bool
sameStore(const KernelStore &a, const KernelStore &b)
{
    if (a.kernels().size() != b.kernels().size())
        return false;
    for (std::size_t i = 0; i < a.kernels().size(); ++i) {
        if (a.kernels()[i].value != b.kernels()[i].value ||
            a.kernels()[i].image != b.kernels()[i].image)
            return false;
    }
    return true;
}

const std::vector<std::int64_t> kValues{16, 48, 96, 128};

} // namespace

TEST(StoreCache, HitReturnsTheCachedStore)
{
    TechParams tech;
    Mapper mapper(tech);
    KernelStoreCache cache;
    const OpNode op = matmulOp(128, 512, 256);

    const auto first =
        cache.getOrCompile(op, kValues, 6, mapper, tech);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    const auto second =
        cache.getOrCompile(op, kValues, 6, mapper, tech);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(first.get(), second.get());

    // And the cached store matches a from-scratch compile.
    Mapper fresh(tech);
    EXPECT_TRUE(sameStore(*first,
                          compileStore(op, kValues, 6, fresh, tech)));
}

TEST(StoreCache, BatchExtentSharesTheEntry)
{
    // The sampled values supersede the batch (N) extent, so ops that
    // differ only in N share one compiled store -- the same
    // normalization the Mapper memo applies.
    TechParams tech;
    Mapper mapper(tech);
    KernelStoreCache cache;

    (void)cache.getOrCompile(matmulOp(64, 512, 256), kValues, 6,
                             mapper, tech);
    (void)cache.getOrCompile(matmulOp(256, 512, 256), kValues, 6,
                             mapper, tech);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(StoreCache, DistinctKeysDoNotCollide)
{
    TechParams tech;
    Mapper mapper(tech);
    KernelStoreCache cache;
    const OpNode op = matmulOp(128, 512, 256);

    (void)cache.getOrCompile(op, kValues, 6, mapper, tech);

    // Different tile count, different value set, different K extent,
    // different stride, different dtype, a vector op with the same
    // dims: all separate entries.
    (void)cache.getOrCompile(op, kValues, 8, mapper, tech);
    (void)cache.getOrCompile(op, {16, 48}, 6, mapper, tech);
    (void)cache.getOrCompile(matmulOp(128, 768, 256), kValues, 6,
                             mapper, tech);
    OpNode strided = op;
    strided.stride = 2;
    (void)cache.getOrCompile(strided, kValues, 6, mapper, tech);
    OpNode fp32 = op;
    fp32.dtypeBytes = 4;
    (void)cache.getOrCompile(fp32, kValues, 6, mapper, tech);
    OpNode norm = op;
    norm.kind = OpKind::Norm;
    const auto normStore =
        cache.getOrCompile(norm, kValues, 6, mapper, tech);

    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 7u);
    EXPECT_EQ(cache.size(), 7u);
    Mapper fresh(tech);
    EXPECT_TRUE(
        sameStore(*normStore, compileStore(norm, kValues, 6, fresh, tech)));
}

TEST(StoreCache, TechHashSeparatesChips)
{
    TechParams a;
    TechParams b = a;
    EXPECT_EQ(techHash(a), techHash(b));
    b.peRows *= 2;
    EXPECT_NE(techHash(a), techHash(b));
    TechParams c = a;
    c.spadBytes /= 2;
    EXPECT_NE(techHash(a), techHash(c));

    // Two chips through one cache (the hw-sweep bench pattern).
    Mapper ma(a), mb(b);
    KernelStoreCache cache;
    const OpNode op = matmulOp(128, 512, 256);
    (void)cache.getOrCompile(op, kValues, 6, ma, a);
    (void)cache.getOrCompile(op, kValues, 6, mb, b);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(StoreCache, ClearEvictsEverything)
{
    TechParams tech;
    Mapper mapper(tech);
    KernelStoreCache cache;
    const OpNode op = matmulOp(128, 512, 256);

    (void)cache.getOrCompile(op, kValues, 6, mapper, tech);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    (void)cache.getOrCompile(op, kValues, 6, mapper, tech);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(StoreCache, ConcurrentBuildsProduceIdenticalStores)
{
    // Many threads populating one cache (and one shared mapper) with
    // overlapping keys: every lookup of a key must come back equal
    // to the serial compile, and the cache must end up with exactly
    // the distinct-key count.
    TechParams tech;
    Mapper shared(tech);
    KernelStoreCache cache;

    const std::vector<OpNode> ops{
        matmulOp(128, 512, 256), matmulOp(128, 768, 256),
        matmulOp(64, 512, 512), matmulOp(128, 1024, 128)};
    std::vector<KernelStore> reference;
    for (const OpNode &op : ops) {
        Mapper fresh(tech);
        reference.push_back(
            compileStore(op, kValues, 6, fresh, tech));
    }

    constexpr std::size_t kTasks = 32;
    ThreadPool pool(4);
    std::vector<int> ok(kTasks, 0);
    pool.parallelFor(kTasks, [&](std::size_t i) {
        const OpNode &op = ops[i % ops.size()];
        const auto store =
            cache.getOrCompile(op, kValues, 6, shared, tech);
        ok[i] = sameStore(*store, reference[i % ops.size()]) ? 1 : 0;
    });

    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(ok[i], 1) << "task " << i;
    EXPECT_EQ(cache.size(), ops.size());
    // Racers may double-compile a key, but every lookup is counted.
    // A thread that misses a key has inserted it before its next
    // lookup, so each of the pool's threads (the calling one
    // included) misses each key at most once.
    EXPECT_EQ(cache.hits() + cache.misses(), kTasks);
    EXPECT_LE(cache.misses(),
              static_cast<std::size_t>(pool.jobs()) * ops.size());
}
