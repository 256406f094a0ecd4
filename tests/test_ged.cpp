/**
 * @file
 * Tests for topology edit distance, including the paper's Figure 9
 * example and brute-force cross-checks of the exact search.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "graph/ged.h"
#include "graph/graph.h"
#include "sim/rng.h"

namespace vnpu::graph {
namespace {

/** Reference: minimum mapping cost over all n! bijections. */
double
brute_force_ged(const Graph& req, const Graph& cand, const GedOptions& opt)
{
    int n = req.num_nodes();
    std::vector<int> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    double best = std::numeric_limits<double>::infinity();
    do {
        best = std::min(best, ged_mapping_cost(req, cand, perm, opt));
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
}

TEST(GedTest, IdenticalGraphsHaveZeroDistance)
{
    Graph g = Graph::mesh(2, 3);
    GedResult r = exact_ged(g, g);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
    // Mapping realizes zero cost.
    EXPECT_DOUBLE_EQ(ged_mapping_cost(g, g, r.mapping), 0.0);
}

TEST(GedTest, IsomorphicGraphsHaveZeroDistance)
{
    // A 2x2 mesh is a 4-ring under relabeling.
    Graph a = Graph::mesh(2, 2);
    Graph b(4);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    b.add_edge(3, 0);
    EXPECT_DOUBLE_EQ(exact_ged(a, b).cost, 0.0);
}

TEST(GedTest, SingleEdgeDifferenceCostsOne)
{
    Graph a = Graph::chain(4);
    Graph b = Graph::chain(4);
    b.add_edge(0, 3); // ring: one extra edge -> one insertion
    EXPECT_DOUBLE_EQ(exact_ged(a, b).cost, 1.0);
    EXPECT_DOUBLE_EQ(exact_ged(b, a).cost, 1.0); // one deletion
}

TEST(GedTest, PaperFigure9Example)
{
    // Figure 9: transforming T1 into T2 takes two edge deletions, one
    // edge insertion and one node substitution => TED = 4.
    //
    // T1: 5-node chain 0-1-2-3-4 (4 edges).
    // T2: 3-star around node 0 plus an isolated node with a different
    //     attribute. The chain's maximum degree is 2, so at most two
    //     star edges can be preserved: 4-2 = 2 deletions, 3-2 = 1
    //     insertion, plus the forced node substitution = 4.
    Graph t1 = Graph::chain(5);
    Graph t2(5);
    t2.add_edge(0, 1);
    t2.add_edge(0, 2);
    t2.add_edge(0, 3);
    t2.set_label(4, 1); // substituted node type

    GedOptions opt; // unit costs
    double expected = brute_force_ged(t1, t2, opt);
    EXPECT_DOUBLE_EQ(expected, 4.0);
    EXPECT_DOUBLE_EQ(exact_ged(t1, t2, opt).cost, 4.0);
}

TEST(GedTest, ExactMatchesBruteForceOnRandomPairs)
{
    Rng rng(31);
    for (int trial = 0; trial < 25; ++trial) {
        int n = 3 + static_cast<int>(rng.next_below(4)); // 3..6 nodes
        auto rand_graph = [&](double p) {
            Graph g(n);
            for (int a = 0; a < n; ++a)
                for (int b = a + 1; b < n; ++b)
                    if (rng.next_double() < p)
                        g.add_edge(a, b);
            if (rng.next_double() < 0.5)
                g.set_label(static_cast<int>(rng.next_below(n)), 1);
            return g;
        };
        Graph a = rand_graph(0.5);
        Graph b = rand_graph(0.5);
        GedOptions opt;
        EXPECT_DOUBLE_EQ(exact_ged(a, b, opt).cost,
                         brute_force_ged(a, b, opt))
            << "trial " << trial;
    }
}

TEST(GedTest, ApproxIsUpperBoundAndOftenTight)
{
    Rng rng(77);
    int tight = 0;
    const int trials = 20;
    for (int trial = 0; trial < trials; ++trial) {
        int n = 5 + static_cast<int>(rng.next_below(3));
        auto rand_graph = [&] {
            Graph g(n);
            for (int a = 0; a < n; ++a)
                for (int b = a + 1; b < n; ++b)
                    if (rng.next_double() < 0.4)
                        g.add_edge(a, b);
            return g;
        };
        Graph a = rand_graph();
        Graph b = rand_graph();
        double exact = exact_ged(a, b).cost;
        GedResult approx = approx_ged(a, b);
        EXPECT_GE(approx.cost + 1e-9, exact);
        // Approx result is self-consistent.
        EXPECT_NEAR(ged_mapping_cost(a, b, approx.mapping), approx.cost,
                    1e-9);
        if (approx.cost <= exact + 1e-9)
            ++tight;
    }
    // The 2-opt heuristic should match the optimum most of the time on
    // these small graphs.
    EXPECT_GE(tight, trials / 2);
}

TEST(GedTest, ApproxFindsExactMatchForMeshInMesh)
{
    // Same shape => zero distance even through the approximation.
    Graph req = Graph::mesh(3, 3);
    Graph cand = Graph::mesh(3, 3);
    GedResult r = approx_ged(req, cand);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

TEST(GedTest, CustomNodeCostPenalizesLabelDistance)
{
    // Heterogeneous nodes: penalty = |distance-to-memory difference|
    // (paper: node-match penalty from memory-interface distance).
    Graph a(2);
    a.set_label(0, 0);
    a.set_label(1, 3);
    Graph b(2);
    b.set_label(0, 2);
    b.set_label(1, 0);
    GedOptions opt;
    opt.node_cost = [](int x, int y) {
        return static_cast<double>(std::abs(x - y));
    };
    // Best bijection: 0->1 (|0-0|=0), 1->0 (|3-2|=1) => cost 1.
    EXPECT_DOUBLE_EQ(exact_ged(a, b, opt).cost, 1.0);
}

TEST(GedTest, CustomEdgeCostPenalizesCriticalPath)
{
    // Critical edge 0-1 in the request costs 10 to delete; mapping
    // should preserve it even at the expense of other edges.
    Graph req = Graph::chain(4);          // 0-1-2-3
    Graph cand(4);                         // only one edge available
    cand.add_edge(2, 3);
    GedOptions opt;
    opt.edge_del_cost = [](int u, int v) {
        return (u == 0 && v == 1) ? 10.0 : 1.0;
    };
    GedResult r = exact_ged(req, cand, opt);
    // The preserved candidate edge must host req edge 0-1: cost = two
    // ordinary deletions (1-2, 2-3) = 2. Keeping any other edge would
    // cost >= 10 + 1.
    EXPECT_DOUBLE_EQ(r.cost, 2.0);
    EXPECT_TRUE(cand.has_edge(r.mapping[0], r.mapping[1]));
}

TEST(GedTest, MappingIsABijection)
{
    Graph a = Graph::mesh(2, 3);
    Graph b = Graph::ring(6);
    for (const GedResult& r : {exact_ged(a, b), approx_ged(a, b)}) {
        std::vector<bool> used(6, false);
        for (int img : r.mapping) {
            ASSERT_GE(img, 0);
            ASSERT_LT(img, 6);
            EXPECT_FALSE(used[img]);
            used[img] = true;
        }
    }
}

TEST(GedTest, DispatchUsesExactForSmall)
{
    Graph a = Graph::chain(5);
    Graph b = Graph::ring(5);
    EXPECT_DOUBLE_EQ(ged(a, b).cost, exact_ged(a, b).cost);
}

} // namespace
} // namespace vnpu::graph
