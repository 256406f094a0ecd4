/**
 * @file
 * Unit tests for CoreSet, the fixed-capacity bitset behind every
 * core-region API. Exercises the full 1024-bit range, word boundaries,
 * iteration order, and the hashing/order guarantees the candidate
 * dedup and region-keyed maps rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

#include "sim/rng.h"
#include "sim/types.h"

namespace vnpu {
namespace {

TEST(CoreSetTest, EmptyAndSingleBit)
{
    CoreSet s;
    EXPECT_TRUE(s.none());
    EXPECT_FALSE(s.any());
    EXPECT_EQ(s.count(), 0);
    EXPECT_EQ(s.lowest(), CoreSet::kCapacity);

    s.set(0);
    s.set(63);
    s.set(64);
    s.set(CoreSet::kCapacity - 1);
    EXPECT_EQ(s.count(), 4);
    EXPECT_TRUE(s.test(0) && s.test(63) && s.test(64));
    EXPECT_TRUE(s.test(CoreSet::kCapacity - 1));
    EXPECT_FALSE(s.test(1));
    EXPECT_FALSE(s.test(65));

    s.reset(63);
    EXPECT_FALSE(s.test(63));
    EXPECT_EQ(s.count(), 3);
}

TEST(CoreSetTest, FirstNAcrossWordBoundaries)
{
    EXPECT_EQ(CoreSet::first_n(0).count(), 0);
    for (int n : {1, 63, 64, 65, 127, 128, 129, 1000, 1024}) {
        CoreSet s = CoreSet::first_n(n);
        EXPECT_EQ(s.count(), n) << "n=" << n;
        EXPECT_TRUE(s.test(n - 1));
        if (n < CoreSet::kCapacity) {
            EXPECT_FALSE(s.test(n));
        }
    }
}

TEST(CoreSetTest, FromWordAndFromRange)
{
    CoreSet w = CoreSet::from_word(0b1011);
    EXPECT_EQ(w.count(), 3);
    EXPECT_TRUE(w.test(0) && w.test(1) && w.test(3));

    std::vector<int> ids{5, 900, 66, 5};
    CoreSet r = CoreSet::from_range(ids);
    EXPECT_EQ(r.count(), 3); // duplicate collapses
    EXPECT_TRUE(r.test(5) && r.test(66) && r.test(900));
}

TEST(CoreSetTest, SetAlgebra)
{
    CoreSet a = CoreSet::of(1) | CoreSet::of(100) | CoreSet::of(1023);
    CoreSet b = CoreSet::of(100) | CoreSet::of(2);

    EXPECT_EQ((a & b), CoreSet::of(100));
    EXPECT_EQ((a | b).count(), 4);
    EXPECT_EQ((a ^ b).count(), 3);
    EXPECT_EQ(a.andnot(b), CoreSet::of(1) | CoreSet::of(1023));
    EXPECT_EQ(a & ~b, a.andnot(b));

    // The complement covers the full capacity.
    EXPECT_EQ((~CoreSet{}).count(), CoreSet::kCapacity);
}

TEST(CoreSetTest, IterationAscendingAcrossWords)
{
    std::vector<int> ids{0, 1, 63, 64, 65, 511, 512, 1023};
    CoreSet s = CoreSet::from_range(ids);
    std::vector<int> seen;
    for (int v : s)
        seen.push_back(v);
    EXPECT_EQ(seen, ids);

    // next() resumes mid-word and mid-set.
    EXPECT_EQ(s.next(2), 63);
    EXPECT_EQ(s.next(66), 511);
    EXPECT_EQ(s.next(1024), CoreSet::kCapacity);

    // pop_lowest drains in the same order.
    CoreSet t = s;
    std::vector<int> popped;
    while (t.any())
        popped.push_back(t.pop_lowest());
    EXPECT_EQ(popped, ids);
}

TEST(CoreSetTest, OrderingMatchesU64ForLowSets)
{
    // For sets within the first word the strict weak order must agree
    // with the old integer-mask comparison (candidate dedup sorts).
    Rng rng(42);
    for (int trial = 0; trial < 200; ++trial) {
        std::uint64_t x = rng.next();
        std::uint64_t y = rng.next();
        EXPECT_EQ(CoreSet::from_word(x) < CoreSet::from_word(y), x < y);
    }
    // High bits dominate low bits.
    EXPECT_LT(CoreSet::first_n(64), CoreSet::of(64));
    EXPECT_LT(CoreSet::of(1022), CoreSet::of(1023));
}

TEST(CoreSetTest, HashingSupportsUnorderedContainers)
{
    std::unordered_set<CoreSet> cache;
    std::set<CoreSet> ordered;
    Rng rng(7);
    for (int trial = 0; trial < 500; ++trial) {
        CoreSet s;
        int k = 1 + static_cast<int>(rng.next_below(20));
        for (int i = 0; i < k; ++i)
            s.set(static_cast<int>(rng.next_below(CoreSet::kCapacity)));
        cache.insert(s);
        ordered.insert(s);
    }
    EXPECT_EQ(cache.size(), ordered.size());
    for (const CoreSet& s : ordered)
        EXPECT_EQ(cache.count(s), 1u);
}

TEST(CoreSetTest, ToStringRendersRanges)
{
    EXPECT_EQ(CoreSet{}.to_string(), "{}");
    CoreSet s = CoreSet::first_n(3) | CoreSet::of(9) | CoreSet::of(64) |
                CoreSet::of(65);
    EXPECT_EQ(s.to_string(), "{0-2,9,64-65}");
}

TEST(CoreSetTest, NthSelectsAscendingSetBits)
{
    CoreSet s = CoreSet::of(3) | CoreSet::of(63) | CoreSet::of(64) |
                CoreSet::of(200) | CoreSet::of(1023);
    EXPECT_EQ(s.nth(0), 3);
    EXPECT_EQ(s.nth(1), 63);
    EXPECT_EQ(s.nth(2), 64);
    EXPECT_EQ(s.nth(3), 200);
    EXPECT_EQ(s.nth(4), 1023);

    // nth agrees with iteration order on random sets.
    Rng rng(21);
    for (int trial = 0; trial < 50; ++trial) {
        CoreSet r;
        int k = 1 + static_cast<int>(rng.next_below(40));
        for (int i = 0; i < k; ++i)
            r.set(static_cast<int>(rng.next_below(CoreSet::kCapacity)));
        int idx = 0;
        for (int v : r)
            EXPECT_EQ(r.nth(idx++), v);
        EXPECT_EQ(idx, r.count());
    }
}

TEST(CoreSetTest, RightShiftMatchesBitByBitReference)
{
    Rng rng(0x5417);
    CoreSet sparse, dense;
    for (int i = 0; i < CoreSet::kCapacity; ++i) {
        if (rng.next_below(100) < 10)
            sparse.set(i);
        if (rng.next_below(100) < 90)
            dense.set(i);
    }
    const CoreSet full = CoreSet::first_n(CoreSet::kCapacity);
    for (const CoreSet& s : {sparse, dense, full}) {
        for (int n : {0, 1, 63, 64, 65, 960, 1023, 1024}) {
            const CoreSet r = s >> n;
            for (int i = 0; i < CoreSet::kCapacity; ++i) {
                const bool want =
                    i + n < CoreSet::kCapacity && s.test(i + n);
                ASSERT_EQ(r.test(i), want) << "shift " << n << " bit " << i;
            }
        }
    }
}

TEST(CoreSetTest, TypesHelpersAgree)
{
    CoreSet s = core_bit(7) | core_bit(700);
    EXPECT_EQ(mask_count(s), 2);
    EXPECT_TRUE(s.test(700));
    EXPECT_EQ(kMaxCores, CoreSet::kCapacity);
}

} // namespace
} // namespace vnpu
