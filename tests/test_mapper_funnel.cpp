/**
 * @file
 * Tests for the similar/fragmented admission funnel (ISSUE 6): the
 * staged candidate scorer must make bit-identical decisions with the
 * funnel on or off, its GED lower bounds must be admissible, and the
 * scoring pool must be deterministic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/ged.h"
#include "hyp/topology_mapper.h"
#include "sim/rng.h"
#include "sim/task_pool.h"

namespace vnpu::hyp {
namespace {

graph::Graph
random_graph(int n, Rng& rng, int labels = 1)
{
    graph::Graph g(n);
    for (int a = 0; a < n; ++a)
        for (int b = a + 1; b < n; ++b)
            if (rng.next_below(3) == 0)
                g.add_edge(a, b);
    if (labels > 1)
        for (int v = 0; v < n; ++v)
            g.set_label(v, static_cast<int>(rng.next_below(labels)));
    return g;
}

/**
 * Run one fragmentation-churn sequence on a `side`x`side` mesh and
 * require the funneled and unfunneled mappers to agree on every
 * admission decision: same ok, same assignment (placement), same TED,
 * same error. The churn allocates snake requests of varying size and
 * frees the oldest live region every few steps, recreating the
 * fragmented free sets the funnel's memo and pruning stages see in
 * production.
 */
void
churn_differential(int side, int steps, MappingStrategy strategy)
{
    noc::MeshTopology topo(side, side);
    TopologyMapper mapper(topo);
    CoreSet free_cores = CoreSet::first_n(topo.num_nodes());
    std::vector<CoreSet> live;
    Rng rng(0xc0ffee + static_cast<std::uint64_t>(side));

    for (int step = 0; step < steps; ++step) {
        if (live.size() >= 3 && rng.next_below(3) == 0) {
            free_cores |= live.front();
            live.erase(live.begin());
        }
        int size = 6 + static_cast<int>(rng.next_below(27)); // 6..32

        MappingRequest req;
        req.vtopo = TopologyMapper::snake_topology(size);
        req.strategy = strategy;
        req.funnel = true;
        MappingResult on = mapper.map(req, free_cores);

        req.funnel = false;
        MappingResult off = mapper.map(req, free_cores);

        ASSERT_EQ(on.ok, off.ok) << "side=" << side << " step=" << step;
        EXPECT_EQ(on.assignment, off.assignment)
            << "side=" << side << " step=" << step;
        EXPECT_EQ(on.ted, off.ted) << "side=" << side << " step=" << step;
        EXPECT_EQ(on.error, off.error);

        if (on.ok) {
            CoreSet used;
            for (CoreId c : on.assignment)
                used.set(static_cast<int>(c));
            free_cores = free_cores.andnot(used);
            live.push_back(used);
        }
    }
}

TEST(MapperFunnelTest, DifferentialChurn16x16AllStrategies)
{
    for (MappingStrategy s :
         {MappingStrategy::kExact, MappingStrategy::kStraightforward,
          MappingStrategy::kSimilarTopology, MappingStrategy::kFragmented})
        churn_differential(16, 14, s);
}

TEST(MapperFunnelTest, DifferentialChurn32x32SimilarAndFragmented)
{
    // 32x32 exercises the sampled-candidate path (enumeration budget
    // overflows) and 47-node approximate GED. Kept short: the
    // funnel-off reference scorer is the slow path under test.
    churn_differential(32, 8, MappingStrategy::kSimilarTopology);
    churn_differential(32, 8, MappingStrategy::kFragmented);
}

TEST(MapperFunnelTest, StageCountersAccount)
{
    noc::MeshTopology topo(16, 16);
    TopologyMapper mapper(topo);
    CoreSet free_cores = CoreSet::first_n(256);
    // Punch holes so no TED-0 region exists and real scoring happens.
    Rng rng(11);
    for (int i = 0; i < 60; ++i)
        free_cores.reset(static_cast<int>(rng.next_below(256)));

    MappingRequest req;
    req.vtopo = TopologyMapper::snake_topology(24);
    req.strategy = MappingStrategy::kSimilarTopology;
    MappingResult r = mapper.map(req, free_cores);
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.funnel.candidates, 0u);
    // Every candidate probes the memo exactly once...
    EXPECT_EQ(r.funnel.candidates,
              r.funnel.memo_hits + r.funnel.memo_misses);
    // ...and every miss is then lower-bound-pruned, certified TED-0, or
    // fully scored (>= because the TED-0 early exit can stop reduction
    // mid-chunk after the probes were already counted).
    EXPECT_GE(r.funnel.memo_misses, r.funnel.lb_pruned +
                                        r.funnel.ted0_hits +
                                        r.funnel.full_ged);
    EXPECT_GT(r.funnel.full_ged, 0u);

    // Same request against the same free set: the memo now answers
    // (at least partially) and the decision is unchanged.
    MappingResult again = mapper.map(req, free_cores);
    ASSERT_TRUE(again.ok);
    EXPECT_GT(again.funnel.memo_hits, 0u);
    EXPECT_EQ(again.assignment, r.assignment);
    EXPECT_EQ(again.ted, r.ted);
}

TEST(MapperFunnelTest, CustomCostsDisableFunnelStages)
{
    // Custom edit costs cannot be lower-bounded, memo-keyed, or
    // assumed thread-safe: candidates are still counted and scored,
    // but every funnel stage (memo, LB prune, TED-0) must stay silent.
    noc::MeshTopology topo(8, 8);
    TopologyMapper mapper(topo);
    MappingRequest req;
    req.vtopo = TopologyMapper::snake_topology(12);
    req.strategy = MappingStrategy::kSimilarTopology;
    req.ged.node_cost = [](int a, int b) { return a == b ? 0.0 : 2.0; };
    MappingResult r = mapper.map(req, CoreSet::first_n(64));
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.funnel.candidates, 0u);
    EXPECT_GT(r.funnel.full_ged, 0u);
    EXPECT_EQ(r.funnel.memo_hits, 0u);
    EXPECT_EQ(r.funnel.memo_misses, 0u);
    EXPECT_EQ(r.funnel.lb_pruned, 0u);
    EXPECT_EQ(r.funnel.ted0_hits, 0u);
}

// ---- GED lower bound / bounded-search contracts -----------------------

TEST(GedLowerBoundTest, AdmissibleOnRandomPairs)
{
    Rng rng(42);
    for (int trial = 0; trial < 200; ++trial) {
        int n = 3 + static_cast<int>(rng.next_below(5)); // 3..7: exact
        graph::Graph a = random_graph(n, rng, 2);
        graph::Graph b = random_graph(n, rng, 2);
        double lb = graph::ged_lower_bound(a, b);
        double exact = graph::exact_ged(a, b).cost;
        EXPECT_LE(lb, exact) << "trial=" << trial << " n=" << n;
    }
}

TEST(GedLowerBoundTest, ProfileOverloadMatchesGraphOverload)
{
    Rng rng(43);
    for (int trial = 0; trial < 50; ++trial) {
        int n = 3 + static_cast<int>(rng.next_below(6));
        graph::Graph a = random_graph(n, rng, 3);
        graph::Graph b = random_graph(n, rng, 3);
        EXPECT_EQ(graph::ged_lower_bound(graph::ged_profile(a),
                                         graph::ged_profile(b)),
                  graph::ged_lower_bound(a, b));
    }
}

TEST(GedLowerBoundTest, CostBoundPreservesOrFlagsResult)
{
    // cost_bound is prune-only: a bound above the true minimum must
    // not change the result at all; a bound at/below it must yield the
    // {infinity, empty} sentinel.
    Rng rng(44);
    for (int trial = 0; trial < 60; ++trial) {
        int n = 3 + static_cast<int>(rng.next_below(5));
        graph::Graph a = random_graph(n, rng, 2);
        graph::Graph b = random_graph(n, rng, 2);
        graph::GedResult ref = graph::exact_ged(a, b);

        graph::GedOptions loose;
        loose.cost_bound = ref.cost + 0.5;
        graph::GedResult same = graph::exact_ged(a, b, loose);
        EXPECT_EQ(same.cost, ref.cost);
        EXPECT_EQ(same.mapping, ref.mapping);

        graph::GedOptions tight;
        tight.cost_bound = ref.cost;
        graph::GedResult cut = graph::exact_ged(a, b, tight);
        EXPECT_TRUE(std::isinf(cut.cost));
        EXPECT_TRUE(cut.mapping.empty());
    }
}

// ---- Batch scorer vs plain ged() --------------------------------------

TEST(GedScorerTest, SubsetScoresMatchPlainGed)
{
    Rng rng(45);
    noc::MeshTopology topo(8, 8);
    const graph::Graph& mesh = topo.to_graph();
    for (int k : {5, 9, 14, 20}) {
        graph::Graph req = TopologyMapper::snake_topology(k);
        graph::GedOptions opt;
        graph::GedScorer scorer(req, opt);
        auto subs = graph::sample_connected_subsets(
            mesh, k, CoreSet::first_n(64), 24, rng);
        ASSERT_FALSE(subs.empty());
        for (const auto& mask : subs) {
            graph::GedResult via_scorer = scorer.score_subset(mesh, mask);
            graph::GedResult via_ged = graph::ged(
                req, mesh.induced(graph::Graph::mask_to_nodes(mask)), opt);
            EXPECT_EQ(via_scorer.cost, via_ged.cost);
            EXPECT_EQ(via_scorer.mapping, via_ged.mapping);
        }
    }
}

TEST(GedScorerTest, IntegerFastPathMatchesGenericPath)
{
    // Callbacks that reproduce the default costs force the generic
    // floating-point 2-opt; the callback-free run takes the integer
    // fast path. Equal costs AND equal mappings prove the fast path
    // replays the identical swap sequence, not merely an equivalent
    // optimum.
    Rng rng(46);
    graph::GedOptions fast; // defaults: integer fast path eligible
    graph::GedOptions generic;
    generic.node_cost = [](int a, int b) { return a == b ? 0.0 : 1.0; };
    generic.edge_del_cost = [](int, int) { return 1.0; };
    for (int trial = 0; trial < 40; ++trial) {
        int n = 10 + static_cast<int>(rng.next_below(30)); // approx path
        graph::Graph a = random_graph(n, rng);
        graph::Graph b = random_graph(n, rng);
        graph::GedResult rf = graph::approx_ged(a, b, fast);
        graph::GedResult rg = graph::approx_ged(a, b, generic);
        EXPECT_EQ(rf.cost, rg.cost) << "trial=" << trial << " n=" << n;
        EXPECT_EQ(rf.mapping, rg.mapping) << "trial=" << trial;
    }
}

// ---- Scoring pool determinism -----------------------------------------

TEST(TaskPoolTest, RunsEveryIndexExactlyOnce)
{
    TaskPool& pool = TaskPool::instance();
    std::vector<std::atomic<int>> hits(500);
    for (auto& h : hits)
        h.store(0);
    pool.parallel_for(0, 500,
                      [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TaskPoolTest, PerIndexSlotsGiveDeterministicReduction)
{
    // The funnel's contract: workers write disjoint slots, the caller
    // reduces in index order, so the reduced value is independent of
    // scheduling. Floating-point sum in slot order must be bit-stable
    // across repeats.
    TaskPool& pool = TaskPool::instance();
    std::vector<double> slots(997);
    double first = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        pool.parallel_for(0, 997, [&](int i) {
            slots[i] = 1.0 / (1.0 + i * 0.37);
        });
        double sum = 0.0;
        for (double s : slots)
            sum += s;
        if (rep == 0)
            first = sum;
        else
            EXPECT_EQ(sum, first);
    }
}

TEST(TaskPoolTest, PropagatesFirstException)
{
    TaskPool& pool = TaskPool::instance();
    EXPECT_THROW(pool.parallel_for(0, 64,
                                   [](int i) {
                                       if (i == 13)
                                           throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool stays usable afterwards.
    std::atomic<int> n{0};
    pool.parallel_for(0, 8, [&](int) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 8);
}

TEST(TaskPoolTest, NestedCallsRunInline)
{
    TaskPool& pool = TaskPool::instance();
    std::vector<std::atomic<int>> hits(64);
    for (auto& h : hits)
        h.store(0);
    pool.parallel_for(0, 8, [&](int outer) {
        pool.parallel_for(0, 8, [&](int inner) {
            hits[outer * 8 + inner].fetch_add(1);
        });
    });
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

} // namespace
} // namespace vnpu::hyp
