/**
 * @file
 * CoreSet: a fixed-capacity bitset over physical core / graph node ids.
 *
 * This is the value type behind every core-region API in the
 * virtualization stack (free-core masks, vNPU regions, confined-route
 * regions, candidate subgraphs). Capacity matches the largest mesh the
 * topology model supports (`kMaxMeshNodes` = kCapacity = 1024), lifting
 * the historical 64-core `uint64_t` cap.
 *
 * Invariants and conventions (see docs/sim_kernel.md):
 *  - Iteration (`begin()/end()`, `pop_lowest()`) visits set bits in
 *    ascending id order — identical to the ctz loops the u64 code used,
 *    so 64-core golden traces are unaffected by the widening.
 *  - `operator<` is numeric, most-significant word first; for sets that
 *    fit one word it orders exactly like the old integer masks (the
 *    candidate-dedup sort relies on this).
 *  - `operator~` complements all kCapacity bits. Mesh-bounded
 *    complements must intersect with `first_n(num_nodes)`.
 */

#ifndef VNPU_SIM_CORE_SET_H
#define VNPU_SIM_CORE_SET_H

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

#include "sim/log.h"

namespace vnpu {

class CoreSet {
  public:
    /** Largest representable core/node id + 1 (== noc::kMaxMeshNodes). */
    static constexpr int kCapacity = 1024;
    static constexpr int kWords = kCapacity / 64;

    constexpr CoreSet() : w_{} {}

    /** The singleton set {id}. */
    static constexpr CoreSet
    of(int id)
    {
        CoreSet s;
        s.set(id);
        return s;
    }

    /** Bits [0, n): the canonical "cores 0..n-1" mask. */
    static constexpr CoreSet
    first_n(int n)
    {
        VNPU_ASSERT(n >= 0 && n <= kCapacity);
        CoreSet s;
        const int full = n >> 6;
        for (int w = 0; w < full; ++w)
            s.w_[w] = ~std::uint64_t{0};
        if (n & 63)
            s.w_[full] = (std::uint64_t{1} << (n & 63)) - 1;
        return s;
    }

    /** Set whose lowest 64 ids come from `bits` (bit i <=> id i). */
    static constexpr CoreSet
    from_word(std::uint64_t bits)
    {
        CoreSet s;
        s.w_[0] = bits;
        return s;
    }

    /** Set of all ids in [first, last). */
    template <typename It>
    static CoreSet
    from_range(It first, It last)
    {
        CoreSet s;
        for (; first != last; ++first)
            s.set(static_cast<int>(*first));
        return s;
    }

    /** Set of all ids in a container of integers. */
    template <typename C>
    static CoreSet
    from_range(const C& c)
    {
        return from_range(c.begin(), c.end());
    }

    // ---- Single-bit access ----------------------------------------------
    constexpr void
    set(int i)
    {
        VNPU_ASSERT(valid(i));
        w_[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

    constexpr void
    reset(int i)
    {
        VNPU_ASSERT(valid(i));
        w_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    constexpr bool
    test(int i) const
    {
        VNPU_ASSERT(valid(i));
        return (w_[i >> 6] >> (i & 63)) & 1;
    }

    // ---- Aggregates ------------------------------------------------------
    /** Number of set bits (popcount). */
    constexpr int
    count() const
    {
        int c = 0;
        for (int w = 0; w < kWords; ++w)
            c += __builtin_popcountll(w_[w]);
        return c;
    }

    constexpr bool
    any() const
    {
        for (int w = 0; w < kWords; ++w)
            if (w_[w])
                return true;
        return false;
    }

    constexpr bool none() const { return !any(); }
    constexpr explicit operator bool() const { return any(); }

    // ---- Set-bit traversal (ascending id order) --------------------------
    /** Lowest set bit >= `from`, or kCapacity when none (ctz-style). */
    constexpr int
    next(int from) const
    {
        if (from >= kCapacity)
            return kCapacity;
        int wi = from >> 6;
        std::uint64_t w = w_[wi] & (~std::uint64_t{0} << (from & 63));
        while (true) {
            if (w)
                return (wi << 6) + __builtin_ctzll(w);
            if (++wi == kWords)
                return kCapacity;
            w = w_[wi];
        }
    }

    /** Lowest set bit, or kCapacity when empty. */
    constexpr int lowest() const { return next(0); }

    /**
     * The n-th set bit (0-indexed) in ascending id order — an O(kWords)
     * select, so "pick a uniform element of this set" needs no
     * materialized node vector. @pre 0 <= n < count()
     */
    constexpr int
    nth(int n) const
    {
        VNPU_ASSERT(n >= 0);
        for (int wi = 0; wi < kWords; ++wi) {
            const int c = __builtin_popcountll(w_[wi]);
            if (n < c) {
                std::uint64_t w = w_[wi];
                while (n--)
                    w &= w - 1;
                return (wi << 6) + __builtin_ctzll(w);
            }
            n -= c;
        }
        panic("CoreSet::nth beyond population");
    }

    /** Remove and return the lowest set bit. @pre any() */
    constexpr int
    pop_lowest()
    {
        for (int wi = 0; wi < kWords; ++wi) {
            if (w_[wi]) {
                const int b = __builtin_ctzll(w_[wi]);
                w_[wi] &= w_[wi] - 1;
                return (wi << 6) + b;
            }
        }
        panic("pop_lowest on empty CoreSet");
    }

    class const_iterator {
      public:
        constexpr const_iterator(const CoreSet* s, int bit)
            : s_(s), bit_(bit)
        {
        }
        constexpr int operator*() const { return bit_; }
        constexpr const_iterator&
        operator++()
        {
            bit_ = s_->next(bit_ + 1);
            return *this;
        }
        constexpr bool
        operator==(const const_iterator& o) const
        {
            return bit_ == o.bit_;
        }
        constexpr bool
        operator!=(const const_iterator& o) const
        {
            return bit_ != o.bit_;
        }

      private:
        const CoreSet* s_;
        int bit_;
    };

    constexpr const_iterator begin() const { return {this, next(0)}; }
    constexpr const_iterator end() const { return {this, kCapacity}; }

    // ---- Set algebra -----------------------------------------------------
    constexpr CoreSet&
    operator&=(const CoreSet& o)
    {
        for (int w = 0; w < kWords; ++w)
            w_[w] &= o.w_[w];
        return *this;
    }

    constexpr CoreSet&
    operator|=(const CoreSet& o)
    {
        for (int w = 0; w < kWords; ++w)
            w_[w] |= o.w_[w];
        return *this;
    }

    constexpr CoreSet&
    operator^=(const CoreSet& o)
    {
        for (int w = 0; w < kWords; ++w)
            w_[w] ^= o.w_[w];
        return *this;
    }

    friend constexpr CoreSet
    operator&(CoreSet a, const CoreSet& b)
    {
        a &= b;
        return a;
    }

    friend constexpr CoreSet
    operator|(CoreSet a, const CoreSet& b)
    {
        a |= b;
        return a;
    }

    friend constexpr CoreSet
    operator^(CoreSet a, const CoreSet& b)
    {
        a ^= b;
        return a;
    }

    /** Complement over all kCapacity bits (see file header). */
    constexpr CoreSet
    operator~() const
    {
        CoreSet r;
        for (int w = 0; w < kWords; ++w)
            r.w_[w] = ~w_[w];
        return r;
    }

    /**
     * Word-wise right shift: id i of the result is id i + n of this
     * set (ids past kCapacity read as 0). On a row-major W-wide mesh,
     * `s & (s >> 1)` keeps the cores whose east neighbour is also in
     * `s`, and `s & (s >> W)` those whose south neighbour is.
     */
    constexpr CoreSet
    operator>>(int n) const
    {
        VNPU_ASSERT(n >= 0);
        CoreSet r;
        const int q = n >> 6;
        const int b = n & 63;
        if (q >= kWords)
            return r;
        if (b == 0) {
            for (int w = 0; w + q < kWords; ++w)
                r.w_[w] = w_[w + q];
            return r;
        }
        for (int w = 0; w + q + 1 < kWords; ++w)
            r.w_[w] = w_[w + q] >> b | w_[w + q + 1] << (64 - b);
        r.w_[kWords - 1 - q] = w_[kWords - 1] >> b;
        return r;
    }

    /** this & ~o without materializing the complement. */
    constexpr CoreSet
    andnot(const CoreSet& o) const
    {
        CoreSet r;
        for (int w = 0; w < kWords; ++w)
            r.w_[w] = w_[w] & ~o.w_[w];
        return r;
    }

    friend constexpr bool
    operator==(const CoreSet& a, const CoreSet& b)
    {
        for (int w = 0; w < kWords; ++w)
            if (a.w_[w] != b.w_[w])
                return false;
        return true;
    }

    friend constexpr bool
    operator!=(const CoreSet& a, const CoreSet& b)
    {
        return !(a == b);
    }

    /** Numeric order, most-significant word first (matches u64 order). */
    friend constexpr bool
    operator<(const CoreSet& a, const CoreSet& b)
    {
        for (int w = kWords - 1; w >= 0; --w)
            if (a.w_[w] != b.w_[w])
                return a.w_[w] < b.w_[w];
        return false;
    }

    /** Raw 64-bit word `i` (ids [64i, 64i+64)); for fast paths. */
    constexpr std::uint64_t
    word(int i) const
    {
        VNPU_ASSERT(i >= 0 && i < kWords);
        return w_[i];
    }

    // ---- Hashing (map keys: region-keyed maps) --------------------------
    std::size_t
    hash() const
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (int w = 0; w < kWords; ++w) {
            h ^= w_[w];
            h *= 0x100000001b3ull;
            h ^= h >> 29;
        }
        return static_cast<std::size_t>(h);
    }

    /** "{0-5,9,12-13}" — compact debug / gtest-failure rendering. */
    std::string
    to_string() const
    {
        std::string out = "{";
        int run_start = -1, prev = -2;
        auto flush = [&](int last) {
            if (run_start < 0)
                return;
            if (out.size() > 1)
                out += ',';
            out += std::to_string(run_start);
            if (last > run_start)
                out += '-' + std::to_string(last);
        };
        for (int i : *this) {
            if (i != prev + 1) {
                flush(prev);
                run_start = i;
            }
            prev = i;
        }
        flush(prev);
        return out + "}";
    }

    friend std::ostream&
    operator<<(std::ostream& os, const CoreSet& s)
    {
        return os << s.to_string();
    }

  private:
    static constexpr bool valid(int i) { return i >= 0 && i < kCapacity; }

    std::uint64_t w_[kWords];
};

} // namespace vnpu

namespace std {

template <>
struct hash<vnpu::CoreSet> {
    size_t operator()(const vnpu::CoreSet& s) const { return s.hash(); }
};

} // namespace std

#endif // VNPU_SIM_CORE_SET_H
