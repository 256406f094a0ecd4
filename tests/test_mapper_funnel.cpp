/**
 * @file
 * Tests for the similar/fragmented admission funnel: the staged
 * candidate scorer must make the decisions of the unfunneled reference
 * (default costs as callbacks), its GED lower bounds must be admissible,
 * and the scoring pool must be deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
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
 * A 32x32 free set fragmented like straightforward-mapped tenants:
 * row-major runs of 8-47 cores, three in four of them taken.
 */
CoreSet
fragmented_1024(Rng& rng)
{
    CoreSet free_cores;
    for (int id = 0; id < 1024;) {
        const int run = 8 + static_cast<int>(rng.next_below(40));
        const bool take = rng.next_below(4) != 0;
        for (int end = std::min(1024, id + run); id < end; ++id)
            if (!take)
                free_cores.set(id);
    }
    return free_cores;
}

/** Options whose callbacks reproduce the default costs, forcing the
 *  generic floating-point GED paths. */
graph::GedOptions
generic_default_costs()
{
    graph::GedOptions o;
    o.node_cost = [](int a, int b) { return a == b ? 0.0 : 1.0; };
    o.edge_del_cost = [](int, int) { return 1.0; };
    return o;
}

/**
 * Run one fragmentation-churn sequence on a `side`x`side` mesh and
 * require the funneled mapper to agree with the unfunneled reference on
 * every admission decision: same ok, same assignment (placement), same
 * TED, same error. The reference passes the default costs as callbacks,
 * which switch off every funnel stage, keep scoring on the calling
 * thread and run the generic GED kernels. The churn allocates snake
 * requests of varying size and frees the oldest live region every few
 * steps, recreating the fragmented free sets the funnel's memo and
 * pruning stages see in production.
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
        MappingResult on = mapper.map(req, free_cores);

        req.ged = generic_default_costs();
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
    // unfunneled reference (generic kernels on the calling thread) is
    // the slow path under test.
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

TEST(MapperFunnelTest, EdgeInsertionCostKeysTheMemo)
{
    // The memo key is the request's structure and its edge insertion
    // cost: a request that differs only in that cost is scored afresh,
    // never served scores priced under the other cost.
    noc::MeshTopology topo(16, 16);
    CoreSet free_cores = CoreSet::first_n(256);
    Rng rng(12);
    for (int i = 0; i < 60; ++i)
        free_cores.reset(static_cast<int>(rng.next_below(256)));

    for (int k : {8, 24}) { // the exact and the approximate path
        MappingRequest unit;
        unit.vtopo = TopologyMapper::snake_topology(k);
        unit.strategy = MappingStrategy::kSimilarTopology;
        MappingRequest costly = unit;
        costly.ged.edge_ins_cost = 2.0;

        TopologyMapper shared(topo);
        ASSERT_TRUE(shared.map(unit, free_cores).ok) << "k=" << k;
        const MappingResult got = shared.map(costly, free_cores);
        const MappingResult want = TopologyMapper(topo).map(costly, free_cores);
        ASSERT_TRUE(got.ok) << "k=" << k;
        EXPECT_EQ(got.funnel.memo_hits, 0u) << "k=" << k;
        EXPECT_EQ(got.assignment, want.assignment) << "k=" << k;
        EXPECT_EQ(got.ted, want.ted) << "k=" << k;
        // The same request again is served from the memo.
        EXPECT_GT(shared.map(costly, free_cores).funnel.memo_hits, 0u)
            << "k=" << k;
    }
}

/** One similar admission of `similar_churn_32x32`, as the mapper
 *  reported it. */
struct ChurnRecord {
    bool ok;
    std::uint64_t assignment_hash; ///< FNV-1a over the assignment
    double ted;
    std::uint64_t candidates_considered;
    FunnelCounters funnel;
};

/**
 * A 32x32 similar-topology churn with the benchmark's candidate cap
 * (64): snake requests of every size in 8..47 on a fragmented mesh,
 * each admitted region held until a seeded coin retires the oldest.
 * Every tenth request is mapped twice against the same free set, so
 * the memo answers the repeat. The sequence reaches the sampled tail,
 * TED-0 exits on both the exact and the approximate path, and memo
 * hits.
 */
std::vector<ChurnRecord>
similar_churn_32x32()
{
    noc::MeshTopology topo(32, 32);
    TopologyMapper mapper(topo);
    Rng rng(2101);
    CoreSet free_cores = fragmented_1024(rng) | fragmented_1024(rng);
    std::vector<CoreSet> live;
    std::vector<ChurnRecord> out;
    for (int step = 0; step < 40; ++step) {
        MappingRequest req;
        req.vtopo = TopologyMapper::snake_topology(8 + step * 13 % 40);
        req.strategy = MappingStrategy::kSimilarTopology;
        req.max_candidates = 64;
        MappingResult r;
        for (int rep = 0; rep < (step % 10 == 9 ? 2 : 1); ++rep) {
            r = mapper.map(req, free_cores);
            std::uint64_t h = 0xcbf29ce484222325ULL;
            for (CoreId c : r.assignment) {
                h ^= static_cast<std::uint64_t>(c);
                h *= 0x100000001b3ULL;
            }
            out.push_back({r.ok, h, r.ted, r.candidates_considered,
                           r.funnel});
        }
        if (r.ok) {
            CoreSet used;
            for (CoreId c : r.assignment)
                used.set(static_cast<int>(c));
            free_cores = free_cores.andnot(used);
            live.push_back(used);
        }
        while (!live.empty() &&
               (free_cores.count() < 192 ||
                (live.size() > 3 && rng.next_below(2) == 0))) {
            free_cores |= live.front();
            live.erase(live.begin());
        }
    }
    return out;
}

TEST(MapperFunnelTest, SimilarChurnMatchesParentRecord)
{
    // Recorded from the sequential funnel (one chunk of 16 scored at a
    // time, hashing and sampling on the calling thread) before the
    // pooled phase jobs replaced it: (ok, assignment hash, TED,
    // candidates_considered, {candidates, lb_pruned, memo_hits,
    // memo_misses, ted0_hits, full_ged}) per admission.
    const ChurnRecord kRecord[] = {
        {true, 0xe0bf8cb11316f700ULL, 0, 485, {33, 12, 0, 33, 1, 18}},
        {true, 0xecda20f7eeaa7410ULL, 7, 251, {128, 8, 0, 128, 0, 120}},
        {true, 0xcd1f3160b61761f2ULL, 14, 138, {128, 0, 0, 128, 0, 128}},
        {true, 0x1444fc9df5195a4dULL, 44, 302, {128, 0, 0, 128, 0, 128}},
        {true, 0x69a455fbb57d3f53ULL, 17, 374, {128, 15, 0, 128, 0, 113}},
        {true, 0x8b164c1dbe90fbd7ULL, 21, 85, {57, 1, 0, 57, 0, 56}},
        {true, 0x2d49d68a5c833a10ULL, 32, 150, {128, 0, 0, 128, 0, 128}},
        {true, 0xfcfc38a44c435797ULL, 7, 219, {128, 10, 0, 128, 0, 118}},
        {true, 0x34542193b660a470ULL, 32, 175, {128, 0, 0, 128, 0, 128}},
        {true, 0x691ecb95421d6e18ULL, 56, 41, {28, 0, 0, 28, 0, 28}},
        {true, 0x691ecb95421d6e18ULL, 56, 41, {28, 0, 28, 0, 0, 0}},
        {true, 0xd68ec7be9ff336aaULL, 2, 203, {128, 10, 0, 128, 0, 118}},
        {true, 0xa2fd436159ed6f16ULL, 14, 146, {128, 0, 0, 128, 0, 128}},
        {true, 0x16b7def405bca57aULL, 41, 158, {128, 0, 0, 128, 0, 128}},
        {true, 0xde4cf5edb20b5592ULL, 3, 189, {128, 26, 0, 128, 0, 102}},
        {true, 0x790a2ec2bdf9a6fdULL, 15, 156, {116, 15, 0, 116, 0, 101}},
        {true, 0xdb439990175fb190ULL, 35, 115, {87, 0, 0, 87, 0, 87}},
        {true, 0x7ee75b8a4d080488ULL, 5, 188, {128, 10, 0, 128, 0, 118}},
        {true, 0x5e3416f97f48c7abULL, 12, 349, {128, 1, 0, 128, 0, 127}},
        {true, 0x698d6831115a687fULL, 41, 145, {112, 0, 0, 112, 0, 112}},
        {true, 0x40f6dd0aab875960ULL, 2, 291, {128, 50, 0, 128, 0, 78}},
        {true, 0x40f6dd0aab875960ULL, 2, 291, {128, 50, 78, 50, 0, 0}},
        {true, 0x5d11b2b7ede407a4ULL, 17, 331, {90, 0, 0, 90, 0, 90}},
        {true, 0xb3d9e528b47a21e3ULL, 41, 303, {70, 0, 0, 70, 0, 70}},
        {true, 0xb1256d4422bc11e2ULL, 1, 229, {123, 67, 0, 123, 0, 56}},
        {true, 0xce6b273cd9883f05ULL, 14, 149, {128, 1, 0, 128, 0, 127}},
        {true, 0xc8f9f0a158fa1f9eULL, 42, 111, {102, 0, 0, 102, 0, 102}},
        {true, 0x10f98bb1ed40c486ULL, 0, 278, {96, 12, 0, 96, 0, 78}},
        {true, 0xbde505e802cf6b1bULL, 9, 330, {128, 3, 0, 128, 0, 125}},
        {true, 0xc22690c0184fee5eULL, 49, 104, {100, 0, 0, 100, 0, 100}},
        {true, 0xb9e05e52d69c0ef2ULL, 1, 265, {122, 84, 0, 122, 0, 38}},
        {true, 0x274acaf10ea9a69aULL, 16, 328, {83, 0, 0, 83, 0, 83}},
        {true, 0x274acaf10ea9a69aULL, 16, 328, {83, 0, 83, 0, 0, 0}},
        {true, 0xcc1aedcc2560c14cULL, 46, 304, {73, 0, 0, 73, 0, 73}},
        {true, 0x386e8c26d01fc49fULL, 0, 294, {96, 59, 0, 96, 0, 32}},
        {true, 0xd8523058a2499c86ULL, 8, 141, {128, 1, 0, 128, 0, 127}},
        {true, 0x9abbbe74ac1d6df2ULL, 30, 64, {60, 0, 0, 60, 0, 60}},
        {true, 0x923bf22f06076fa6ULL, 1, 421, {96, 17, 0, 96, 0, 79}},
        {true, 0xb348b29fd202712fULL, 20, 139, {110, 13, 0, 110, 0, 97}},
        {false, 0xcbf29ce484222325ULL, 0, 0, {0, 0, 0, 0, 0, 0}},
        {true, 0xfc73ace37006be14ULL, 0, 405, {45, 15, 0, 45, 1, 26}},
        {true, 0x033cb0712ab4de80ULL, 9, 161, {128, 3, 0, 128, 0, 125}},
        {false, 0xcbf29ce484222325ULL, 0, 0, {0, 0, 0, 0, 0, 0}},
        {false, 0xcbf29ce484222325ULL, 0, 0, {0, 0, 0, 0, 0, 0}},
    };
    const std::vector<ChurnRecord> got = similar_churn_32x32();
    ASSERT_EQ(got.size(), std::size(kRecord));
    for (std::size_t i = 0; i < got.size(); ++i) {
        const ChurnRecord& g = got[i];
        const ChurnRecord& want = kRecord[i];
        EXPECT_EQ(g.ok, want.ok) << "admission " << i;
        EXPECT_EQ(g.assignment_hash, want.assignment_hash)
            << "admission " << i;
        EXPECT_EQ(g.ted, want.ted) << "admission " << i;
        EXPECT_EQ(g.candidates_considered, want.candidates_considered)
            << "admission " << i;
        for (const auto& [name, field] : kFunnelFields)
            EXPECT_EQ(g.funnel.*field, want.funnel.*field)
                << "admission " << i << " funnel." << name;
    }

    // The record covers what the replay must reproduce: the sampled
    // tail, TED-0 exits on the exact (certificate) and the approximate
    // path, and memo hits.
    bool sampled = false, exact_ted0 = false, approx_ted0 = false,
         memo = false;
    for (const ChurnRecord& r : kRecord) {
        sampled = sampled || r.funnel.candidates > 64;
        exact_ted0 = exact_ted0 || r.funnel.ted0_hits > 0;
        approx_ted0 = approx_ted0 ||
                      (r.ok && r.ted == 0.0 && r.funnel.ted0_hits == 0);
        memo = memo || r.funnel.memo_hits > 0;
    }
    EXPECT_TRUE(sampled && exact_ted0 && approx_ted0 && memo);
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
    // The exact search's bound is prune-only: a bound above the true
    // minimum must not change the result at all; a bound at/below it
    // must yield the {infinity, empty} sentinel.
    Rng rng(44);
    for (int trial = 0; trial < 60; ++trial) {
        int n = 3 + static_cast<int>(rng.next_below(5));
        graph::Graph a = random_graph(n, rng, 2);
        graph::Graph b = random_graph(n, rng, 2);
        graph::GedResult ref = graph::exact_ged(a, b);

        graph::GedResult same = graph::exact_ged(a, b, {}, ref.cost + 0.5);
        EXPECT_EQ(same.cost, ref.cost);
        EXPECT_EQ(same.mapping, ref.mapping);

        graph::GedResult cut = graph::exact_ged(a, b, {}, ref.cost);
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
            const graph::Graph cand =
                mesh.induced(graph::Graph::mask_to_nodes(mask));
            graph::GedResult via_scorer = scorer.score_subset(mesh, mask);
            graph::GedResult via_ged = graph::ged(req, cand, opt);
            EXPECT_EQ(via_scorer.cost, via_ged.cost);
            EXPECT_EQ(via_scorer.mapping, via_ged.mapping);
            if (k > graph::kGedExactLimit)
                continue;
            // A bounded score is the exact search under that cost
            // bound: the same cost and mapping, or {infinity, {}}.
            const double best = via_ged.cost;
            for (double bound : {std::numeric_limits<double>::infinity(),
                                 best, std::ceil(best / 2),
                                 std::numeric_limits<double>::min()}) {
                graph::GedResult got =
                    scorer.score_subset(mesh, mask, bound);
                graph::GedResult want =
                    graph::exact_ged(req, cand, opt, bound);
                EXPECT_EQ(got.cost, want.cost)
                    << "k=" << k << " bound=" << bound;
                EXPECT_EQ(got.mapping, want.mapping)
                    << "k=" << k << " bound=" << bound;
            }
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
    const graph::GedOptions fast; // defaults: integer fast path eligible
    const graph::GedOptions generic = generic_default_costs();
    for (int trial = 0; trial < 40; ++trial) {
        int n = 10 + static_cast<int>(rng.next_below(30)); // approx path
        graph::Graph a = random_graph(n, rng);
        graph::Graph b = random_graph(n, rng);
        graph::GedResult rf = graph::approx_ged(a, b, fast);
        graph::GedResult rg = graph::approx_ged(a, b, generic);
        EXPECT_EQ(rf.cost, rg.cost) << "trial=" << trial << " n=" << n;
        EXPECT_EQ(rf.mapping, rg.mapping) << "trial=" << trial;
    }

    // Sparse pairs, as the mapper scores them: snake requests against
    // connected subsets of a fragmented 32x32 mesh. Degrees are at most
    // four, so most pairs fall outside the 2-opt gain sets and the skip
    // decides most of the scan.
    noc::MeshTopology topo(32, 32);
    const graph::Graph& mesh = topo.to_graph();
    const CoreSet free_cores = fragmented_1024(rng);
    for (int n = 10; n <= 47; ++n) {
        const graph::Graph req = TopologyMapper::snake_topology(n);
        const auto subs =
            graph::sample_connected_subsets(mesh, n, free_cores, 3, rng);
        ASSERT_FALSE(subs.empty()) << "n=" << n;
        for (const auto& mask : subs) {
            const graph::Graph cand =
                mesh.induced(graph::Graph::mask_to_nodes(mask));
            graph::GedResult rf = graph::approx_ged(req, cand, fast);
            graph::GedResult rg = graph::approx_ged(req, cand, generic);
            EXPECT_EQ(rf.cost, rg.cost) << "n=" << n;
            EXPECT_EQ(rf.mapping, rg.mapping) << "n=" << n;
        }
    }
}

TEST(GedScorerTest, ExactFastPathMatchesGenericPath)
{
    // The integer branch and bound must return the generic search's
    // cost and mapping, or its {infinity, {}} sentinel, under every
    // prune bound: unbounded, the optimum itself (cut), a value in the
    // middle, and the smallest positive double (zero-cost mappings
    // only).
    Rng rng(47);
    const graph::GedOptions generic = generic_default_costs();
    noc::MeshTopology topo(32, 32);
    const graph::Graph& mesh = topo.to_graph();
    const CoreSet free_cores = fragmented_1024(rng);
    auto check = [&](const graph::Graph& a, const graph::Graph& b) {
        const double opt = graph::exact_ged(a, b, generic).cost;
        for (double bound : {std::numeric_limits<double>::infinity(), opt,
                             std::ceil(opt / 2),
                             std::numeric_limits<double>::min()}) {
            graph::GedResult rf = graph::exact_ged(a, b, {}, bound);
            graph::GedResult rg = graph::exact_ged(a, b, generic, bound);
            EXPECT_EQ(rf.cost, rg.cost)
                << "n=" << a.num_nodes() << " bound=" << bound;
            EXPECT_EQ(rf.mapping, rg.mapping)
                << "n=" << a.num_nodes() << " bound=" << bound;
        }
    };
    for (int n = 2; n <= 9; ++n) {
        for (int trial = 0; trial < 6; ++trial)
            check(random_graph(n, rng, trial % 2 ? 2 : 1),
                  random_graph(n, rng, trial % 2 ? 2 : 1));
        const graph::Graph snake = TopologyMapper::snake_topology(n);
        for (const auto& mask : graph::sample_connected_subsets(
                 mesh, n, free_cores, 4, rng)) {
            const graph::Graph cand =
                mesh.induced(graph::Graph::mask_to_nodes(mask));
            check(snake, cand);
            check(random_graph(n, rng), cand);
        }
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
