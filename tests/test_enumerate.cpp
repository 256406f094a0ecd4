/**
 * @file
 * Tests for connected-induced-subgraph enumeration, checked against a
 * brute-force reference over all C(n, k) subsets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/enumerate.h"
#include "graph/graph.h"
#include "sim/rng.h"

namespace vnpu::graph {
namespace {

/** Brute force: all k-subsets of `allowed` that induce a connected set. */
std::set<NodeMask>
brute_force(const Graph& g, int k, const NodeMask& allowed)
{
    std::vector<int> nodes = Graph::mask_to_nodes(allowed);
    std::set<NodeMask> out;
    int n = static_cast<int>(nodes.size());
    // Iterate all k-combinations via bit tricks over positions.
    std::vector<int> idx(k);
    for (int i = 0; i < k; ++i)
        idx[i] = i;
    if (k > n)
        return out;
    while (true) {
        NodeMask m;
        for (int i : idx)
            m.set(nodes[i]);
        if (g.is_connected_subset(m))
            out.insert(m);
        // next combination
        int i = k - 1;
        while (i >= 0 && idx[i] == n - k + i)
            --i;
        if (i < 0)
            break;
        ++idx[i];
        for (int j = i + 1; j < k; ++j)
            idx[j] = idx[j - 1] + 1;
    }
    return out;
}

NodeMask
full_mask(int n)
{
    return NodeMask::first_n(n);
}

TEST(EnumerateTest, MatchesBruteForceOnMesh3x3)
{
    Graph g = Graph::mesh(3, 3);
    for (int k = 1; k <= 6; ++k) {
        std::set<NodeMask> expected = brute_force(g, k, full_mask(9));
        std::set<NodeMask> got;
        enumerate_connected_subsets(
            g, k, full_mask(9), [&](const NodeMask& m) {
                EXPECT_TRUE(got.insert(m).second) << "duplicate subset";
                return true;
            });
        EXPECT_EQ(got, expected) << "k=" << k;
    }
}

TEST(EnumerateTest, MatchesBruteForceWithRestrictedAllowedSet)
{
    Graph g = Graph::mesh(4, 3);
    // Exclude two cores, as if already allocated to another vNPU.
    NodeMask allowed =
        full_mask(12).andnot(NodeMask::of(0)).andnot(NodeMask::of(7));
    for (int k = 2; k <= 5; ++k) {
        std::set<NodeMask> expected = brute_force(g, k, allowed);
        std::set<NodeMask> got;
        enumerate_connected_subsets(g, k, allowed,
                                    [&](const NodeMask& m) {
                                        got.insert(m);
                                        return true;
                                    });
        EXPECT_EQ(got, expected) << "k=" << k;
    }
}

TEST(EnumerateTest, MatchesBruteForceOnRandomGraphs)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        int n = 6 + static_cast<int>(rng.next_below(5));
        Graph g(n);
        for (int a = 0; a < n; ++a)
            for (int b = a + 1; b < n; ++b)
                if (rng.next_double() < 0.3)
                    g.add_edge(a, b);
        int k = 2 + static_cast<int>(rng.next_below(4));
        EXPECT_EQ(count_connected_subsets(g, k, full_mask(n)),
                  brute_force(g, k, full_mask(n)).size())
            << "trial " << trial << " n=" << n << " k=" << k;
    }
}

TEST(EnumerateTest, MaxResultsStopsEarly)
{
    Graph g = Graph::mesh(4, 4);
    std::uint64_t seen = 0;
    std::uint64_t produced = enumerate_connected_subsets(
        g, 4, full_mask(16),
        [&](const NodeMask&) {
            ++seen;
            return true;
        },
        10);
    EXPECT_EQ(produced, 10u);
    EXPECT_EQ(seen, 10u);
}

TEST(EnumerateTest, CallbackFalseStops)
{
    Graph g = Graph::mesh(4, 4);
    std::uint64_t seen = 0;
    enumerate_connected_subsets(g, 3, full_mask(16),
                                [&](const NodeMask&) {
                                    ++seen;
                                    return seen < 5;
                                });
    EXPECT_EQ(seen, 5u);
}

TEST(EnumerateTest, DegenerateCases)
{
    Graph g = Graph::mesh(2, 2);
    EXPECT_EQ(count_connected_subsets(g, 0, full_mask(4)), 0u);
    EXPECT_EQ(count_connected_subsets(g, 5, full_mask(4)), 0u);
    // Singletons: every allowed node.
    EXPECT_EQ(count_connected_subsets(g, 1, full_mask(4)), 4u);
    // The full mesh itself.
    EXPECT_EQ(count_connected_subsets(g, 4, full_mask(4)), 1u);
}

TEST(EnumerateTest, AllowedBitsBeyondGraphAreIgnored)
{
    // A 4x4 mesh with allowed bits set far past its 16 nodes: those ids
    // have no adjacency and must be neither roots nor seeds.
    Graph g = Graph::mesh(4, 4);
    NodeMask allowed = full_mask(16) | NodeMask::of(16) |
                       NodeMask::of(200) | NodeMask::of(1023);
    for (int k = 1; k <= 5; ++k) {
        std::set<NodeMask> got;
        enumerate_connected_subsets(g, k, allowed, [&](const NodeMask& m) {
            got.insert(m);
            return true;
        });
        EXPECT_EQ(got, brute_force(g, k, full_mask(16))) << "k=" << k;
    }
    Rng r1(3), r2(3);
    EXPECT_EQ(sample_connected_subsets(g, 5, allowed, 64, r1),
              sample_connected_subsets(g, 5, full_mask(16), 64, r2));
    // Out-of-graph bits alone do not make up a k-subset.
    Rng r3(3);
    EXPECT_TRUE(sample_connected_subsets(g, 3, NodeMask::of(16) |
                                                   NodeMask::of(17) |
                                                   NodeMask::of(18),
                                         8, r3)
                    .empty());
}

/**
 * Reference enumerator: the exclusive-neighborhood expansion written
 * once over full-width masks for the whole graph, with the same step
 * budget. Records every emitted subset in order.
 */
struct ReferenceEnumeration {
    const Graph& g;
    int k;
    NodeMask allowed;
    std::uint64_t max_results;
    std::uint64_t stop_after; ///< the callback returns false here
    std::uint64_t budget = 0;
    std::vector<NodeMask> emitted = {};
    std::uint64_t steps = 0;
    bool budget_hit = false;
    bool stopped = false;

    void
    expand(const NodeMask& sub, NodeMask ext, NodeMask forbidden, int size)
    {
        if (stopped)
            return;
        if (++steps > budget) {
            budget_hit = stopped = true;
            return;
        }
        if (size == k) {
            emitted.push_back(sub);
            if (emitted.size() >= stop_after ||
                emitted.size() >= max_results)
                stopped = true;
            return;
        }
        while (ext.any() && !stopped) {
            const int w = ext.pop_lowest();
            NodeMask f = forbidden | ext | NodeMask::of(w);
            NodeMask e = ext | (g.neighbors(w) & allowed).andnot(f);
            expand(sub | NodeMask::of(w), e, f, size + 1);
            forbidden.set(w);
        }
    }

    std::uint64_t
    run()
    {
        budget = max_results == UINT64_MAX
                     ? UINT64_MAX
                     : std::max<std::uint64_t>(1'000'000, 256 * max_results);
        for (int root : allowed) {
            if (stopped)
                break;
            NodeMask forbidden = NodeMask::first_n(root + 1);
            expand(NodeMask::of(root),
                   (g.neighbors(root) & allowed).andnot(forbidden),
                   forbidden, 1);
        }
        return emitted.size();
    }
};

/** Runs both enumerators and compares sequence and count; returns the
 *  reference for further checks. */
ReferenceEnumeration
expect_matches_reference(const Graph& g, int k, const NodeMask& allowed,
                         std::uint64_t max_results,
                         std::uint64_t stop_after = UINT64_MAX)
{
    ReferenceEnumeration ref{g, k, allowed, max_results, stop_after};
    const std::uint64_t want = ref.run();
    std::vector<NodeMask> got;
    const std::uint64_t produced = enumerate_connected_subsets(
        g, k, allowed,
        [&](const NodeMask& m) {
            got.push_back(m);
            return got.size() < stop_after;
        },
        max_results);
    EXPECT_EQ(produced, want) << "k=" << k;
    EXPECT_TRUE(got == ref.emitted) << "k=" << k << ": sequences differ";
    return ref;
}

/** Largest set of nodes within k-1 hops of some root, inside the
 *  allowed nodes at or above it. */
int
max_root_reach(const Graph& g, int k, const NodeMask& allowed)
{
    int best = 0;
    for (int root : allowed) {
        NodeMask above = allowed.andnot(NodeMask::first_n(root));
        NodeMask reach = NodeMask::of(root);
        for (int hop = 1; hop < k; ++hop) {
            NodeMask next = reach;
            for (int v : reach)
                next |= g.neighbors(v) & above;
            reach = next;
        }
        best = std::max(best, reach.count());
    }
    return best;
}

TEST(EnumerateTest, RootLocalMatchesWideReference)
{
    const Graph g = Graph::mesh(32, 32);
    const NodeMask all = full_mask(1024);

    // Seeded fragmented free sets, one per k: ~60% of cores taken.
    for (int k = 2; k <= 47; ++k) {
        Rng rng(0xE17 + static_cast<std::uint64_t>(k));
        NodeMask free;
        for (int id = 0; id < 1024; ++id)
            if (rng.next_below(100) < 40)
                free.set(id);
        expect_matches_reference(g, k, free, 256);
    }

    // Free cores only in the first 64 ids: those roots run on word 0
    // directly, as in graphs of at most 64 nodes.
    expect_matches_reference(g, 6, full_mask(64), 5000);

    // A free 10x10 block: roots near its corner reach more than 64
    // cores within 11 hops, so the wide path runs.
    NodeMask block;
    for (int y = 4; y < 14; ++y)
        for (int x = 7; x < 17; ++x)
            block.set(y * 32 + x);
    ASSERT_GT(max_root_reach(g, 12, block), 64);
    expect_matches_reference(g, 12, block, 4096);
    // At k=40 the first subsets fill whole rows, reaching cores more
    // than 10 hops from the corner root.
    expect_matches_reference(g, 40, block, 256);
    // The max_results cut, and a callback that stops the walk.
    EXPECT_EQ(expect_matches_reference(g, 12, block, 300).emitted.size(),
              300u);
    EXPECT_EQ(expect_matches_reference(g, 6, all, UINT64_MAX, 777)
                  .emitted.size(),
              777u);

    // The step budget ends the walk: the 6x6 block's 36 cores cannot
    // hold k=40, but its roots walk its whole tree of smaller connected
    // subsets before the 7x7 block is reached.
    NodeMask two_blocks;
    for (int y = 0; y < 6; ++y)
        for (int x = 0; x < 6; ++x)
            two_blocks.set(y * 32 + x);
    for (int y = 10; y < 17; ++y)
        for (int x = 10; x < 17; ++x)
            two_blocks.set(y * 32 + x);
    const ReferenceEnumeration budgeted =
        expect_matches_reference(g, 40, two_blocks, 256);
    EXPECT_TRUE(budgeted.budget_hit);
    EXPECT_TRUE(budgeted.emitted.empty());
}

TEST(SampleTest, SamplesAreConnectedAndCorrectSize)
{
    Graph g = Graph::mesh(5, 5);
    Rng rng(99);
    auto samples = sample_connected_subsets(g, 9, full_mask(25), 64, rng);
    EXPECT_FALSE(samples.empty());
    for (const NodeMask& m : samples) {
        EXPECT_EQ(m.count(), 9);
        EXPECT_TRUE(g.is_connected_subset(m));
    }
    // Deduplicated and sorted.
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_LT(samples[i - 1], samples[i]);
}

/**
 * Reference sampler: the pre-reservoir implementation that materialized
 * a choices vector per growth step. The CoreSet::nth pick must draw the
 * same node for the same rng stream (the i-th vector entry was the i-th
 * set bit), so outputs are required to be identical, not just similar.
 */
std::vector<NodeMask>
reference_sample(const Graph& g, int k, const NodeMask& allowed,
                 int samples, Rng& rng)
{
    std::vector<NodeMask> out;
    if (k <= 0 || allowed.count() < k)
        return out;
    std::vector<int> seeds = Graph::mask_to_nodes(allowed);
    std::vector<int> choices;
    for (int s = 0; s < samples; ++s) {
        int seed = seeds[s % seeds.size()];
        NodeMask sub = NodeMask::of(seed);
        NodeMask frontier = g.neighbors(seed);
        for (int size = 1; size < k; ++size) {
            frontier = (frontier & allowed).andnot(sub);
            if (frontier.none()) {
                sub = NodeMask{};
                break;
            }
            choices.clear();
            for (int v : frontier)
                choices.push_back(v);
            int pick = choices[rng.next_below(choices.size())];
            sub.set(pick);
            frontier |= g.neighbors(pick);
        }
        if (sub.count() == k)
            out.push_back(sub);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

TEST(SampleTest, ReservoirPickMatchesChoicesVectorReference)
{
    // Same seed, same graph => bit-identical sample sets, including
    // across the 64-node word boundary (9x9 and 16x16 meshes).
    struct Case {
        int w, h, k, samples;
    };
    for (Case c : {Case{5, 5, 9, 64}, Case{9, 9, 7, 48},
                   Case{16, 16, 12, 64}}) {
        Graph g = Graph::mesh(c.w, c.h);
        NodeMask allowed = full_mask(c.w * c.h);
        // Punch holes so frontiers shrink mid-growth.
        for (int id = 3; id < c.w * c.h; id += 11)
            allowed.reset(id);
        Rng r1(0x5eed), r2(0x5eed);
        auto got = sample_connected_subsets(g, c.k, allowed, c.samples, r1);
        auto want = reference_sample(g, c.k, allowed, c.samples, r2);
        EXPECT_EQ(got, want) << c.w << "x" << c.h;
        EXPECT_FALSE(got.empty());
    }
}

TEST(SampleTest, GrowthPickIsUniformOverFrontier)
{
    // Distribution regression: on a star, the first growth step picks
    // uniformly among the leaves. Chi-square-ish bound on a seeded run.
    const int leaves = 7;
    Graph star(1 + leaves);
    for (int leaf = 1; leaf <= leaves; ++leaf)
        star.add_edge(0, leaf);
    NodeMask allowed = full_mask(1 + leaves);
    Rng rng(1234);
    const int trials = 7000;
    std::vector<int> picked(1 + leaves, 0);
    for (int t = 0; t < trials; ++t) {
        // k=2 from seed 0: one growth step over the full leaf frontier.
        auto s = sample_connected_subsets(star, 2, allowed, 1, rng);
        ASSERT_EQ(s.size(), 1u);
        NodeMask m = s[0];
        m.reset(0);
        picked[m.lowest()]++;
    }
    for (int leaf = 1; leaf <= leaves; ++leaf) {
        double expectation = static_cast<double>(trials) / leaves;
        EXPECT_NEAR(picked[leaf], expectation, 0.12 * expectation)
            << "leaf " << leaf;
    }
}

TEST(SampleTest, DeterministicForSameSeed)
{
    Graph g = Graph::mesh(5, 5);
    Rng r1(5), r2(5);
    auto a = sample_connected_subsets(g, 6, full_mask(25), 32, r1);
    auto b = sample_connected_subsets(g, 6, full_mask(25), 32, r2);
    EXPECT_EQ(a, b);
}

TEST(BinomialTest, SmallValuesAndSaturation)
{
    EXPECT_EQ(binomial(5, 2), 10u);
    EXPECT_EQ(binomial(25, 9), 2042975u);
    EXPECT_EQ(binomial(10, 0), 1u);
    EXPECT_EQ(binomial(10, 11), 0u);
    EXPECT_EQ(binomial(300, 150), UINT64_MAX); // saturates
}

} // namespace
} // namespace vnpu::graph
