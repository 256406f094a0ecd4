/**
 * @file
 * Differential test harness for the exact-isomorphism mapping strategy.
 *
 * The exact strategy is the paper's topology lock-in baseline, so it is
 * held to an oracle standard: every verdict is cross-checked against an
 * independent reference — brute-force enumeration of connected free
 * subsets plus a self-contained backtracking isomorphism checker (no
 * shared code with the production VF2 search) on small instances, a
 * coordinate-level polyomino placement oracle on DCRA-scale fuzz runs,
 * and the similar-topology strategy's zero-cost hits on randomized
 * 16x16 / 32x32 fixtures.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/enumerate.h"
#include "hyp/topology_mapper.h"
#include "reference/polyomino_shapes.h"
#include "sim/rng.h"

namespace vnpu::hyp {
namespace {

using testref::cross_shape;
using testref::l_shape;
using testref::shape_graph;
using testref::t_shape;

// ---- Independent reference implementations ---------------------------

/**
 * Reference isomorphism test: plain backtracking on vertex id order with
 * adjacency-mask equality. Deliberately naive and structurally unlike
 * the production search (no ordering heuristic, no degree masks) so a
 * shared bug cannot hide.
 */
bool
ref_iso_rec(const graph::Graph& a, const graph::Graph& b,
            std::vector<int>& img, std::vector<char>& used, int v)
{
    const int n = a.num_nodes();
    if (v == n)
        return true;
    for (int h = 0; h < n; ++h) {
        if (used[h] || a.label(v) != b.label(h) ||
            a.degree(v) != b.degree(h))
            continue;
        bool ok = true;
        for (int u = 0; u < v && ok; ++u)
            ok = a.has_edge(u, v) == b.has_edge(img[u], h);
        if (!ok)
            continue;
        img[v] = h;
        used[h] = 1;
        if (ref_iso_rec(a, b, img, used, v + 1))
            return true;
        used[h] = 0;
    }
    return false;
}

bool
ref_isomorphic(const graph::Graph& a, const graph::Graph& b)
{
    if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges())
        return false;
    std::vector<int> img(a.num_nodes(), -1);
    std::vector<char> used(a.num_nodes(), 0);
    return ref_iso_rec(a, b, img, used, 0);
}

/**
 * Brute-force oracle: does any connected k-subset of `free` induce a
 * subgraph isomorphic to `pattern`? Enumerates every subset; the
 * (isomorphism-invariant) WL hash only orders the work, the verdict
 * always comes from the reference checker.
 */
bool
oracle_exists(const graph::Graph& mesh, const graph::Graph& pattern,
              const CoreSet& free)
{
    const std::uint64_t want = pattern.wl_hash();
    bool found = false;
    graph::enumerate_connected_subsets(
        mesh, pattern.num_nodes(), free, [&](const graph::NodeMask& m) {
            graph::Graph sub =
                mesh.induced(graph::Graph::mask_to_nodes(m));
            if (sub.wl_hash() == want && ref_isomorphic(pattern, sub)) {
                found = true;
                return false; // stop enumeration
            }
            return true;
        });
    return found;
}

/** The assignment realizes the request exactly: distinct free cores
 *  whose mesh adjacency (`mesh` = the topology's graph, built once by
 *  the caller) mirrors the request edge-for-edge. */
void
expect_exact_placement(const graph::Graph& mesh,
                       const graph::Graph& vtopo, const CoreSet& free,
                       const std::vector<CoreId>& assignment)
{
    ASSERT_EQ(assignment.size(),
              static_cast<std::size_t>(vtopo.num_nodes()));
    std::set<CoreId> used;
    for (CoreId c : assignment) {
        EXPECT_TRUE(free.test(c));
        EXPECT_TRUE(used.insert(c).second);
    }
    for (int u = 0; u < vtopo.num_nodes(); ++u)
        for (int v = u + 1; v < vtopo.num_nodes(); ++v)
            EXPECT_EQ(vtopo.has_edge(u, v),
                      mesh.has_edge(assignment[u], assignment[v]))
                << "virtual pair (" << u << "," << v << ")";
}

/**
 * Seeded fragmentation of a whole mesh: scattered dead cores plus
 * occupied blocks, denser for odd seeds.
 */
CoreSet
fragmented_free(const noc::MeshTopology& topo, std::uint64_t seed)
{
    const int n = topo.num_nodes();
    Rng rng(0x5bec + seed * 131 + static_cast<std::uint64_t>(n));
    CoreSet free = CoreSet::first_n(n);
    for (int i = 0; i < n; ++i)
        if (rng.next_below(100) < (seed % 2 ? 25u : 8u))
            free.reset(i);
    for (int b = 0; b < n / 32; ++b) {
        const int x0 = static_cast<int>(rng.next_below(topo.width()));
        const int y0 = static_cast<int>(rng.next_below(topo.height()));
        const int bw = 1 + static_cast<int>(rng.next_below(5));
        const int bh = 1 + static_cast<int>(rng.next_below(5));
        for (int y = y0; y < std::min(topo.height(), y0 + bh); ++y)
            for (int x = x0; x < std::min(topo.width(), x0 + bw); ++x)
                free.reset(topo.id_of(x, y));
    }
    return free;
}

MappingRequest
exact_request(graph::Graph g)
{
    MappingRequest req;
    req.vtopo = std::move(g);
    req.strategy = MappingStrategy::kExact;
    return req;
}

// ---- Differential harness: all small topologies vs brute force -------

/**
 * Every connected topology of up to 7 nodes that can occur as an
 * induced mesh region (collected by enumerating a 4x4 mesh and
 * deduplicating by shape), plus deliberately non-embeddable shapes,
 * against mixed free-set fixtures on a 5x5 mesh: the mapper's verdict
 * must equal the brute-force oracle's on every (topology, fixture)
 * pair, and every success must be a valid exact placement.
 */
TEST(ExactDifferentialTest, AllSmallTopologiesMatchBruteForce)
{
    // Collect distinct pattern shapes.
    graph::Graph donor = graph::Graph::mesh(4, 4);
    std::vector<graph::Graph> patterns;
    std::set<std::uint64_t> shapes_seen;
    for (int k = 2; k <= 7; ++k) {
        graph::enumerate_connected_subsets(
            donor, k, graph::NodeMask::first_n(16),
            [&](const graph::NodeMask& m) {
                graph::Graph sub =
                    donor.induced(graph::Graph::mask_to_nodes(m));
                if (shapes_seen.insert(sub.wl_hash()).second)
                    patterns.push_back(std::move(sub));
                return true;
            });
    }
    // Non-embeddable controls: odd cycles (mesh is bipartite), a
    // degree-5 star, K4.
    patterns.push_back(graph::Graph::ring(3));
    patterns.push_back(graph::Graph::ring(5));
    {
        graph::Graph star(6);
        for (int leaf = 1; leaf < 6; ++leaf)
            star.add_edge(0, leaf);
        patterns.push_back(std::move(star));
        graph::Graph k4(4);
        for (int a = 0; a < 4; ++a)
            for (int b = a + 1; b < 4; ++b)
                k4.add_edge(a, b);
        patterns.push_back(std::move(k4));
    }
    ASSERT_GT(patterns.size(), 30u);

    noc::MeshTopology topo(5, 5);
    TopologyMapper mapper(topo);
    graph::Graph mesh = topo.to_graph();

    // Fixtures: fully free plus seeded random occupancies of varying
    // density, including heavily fragmented ones where exact requests
    // genuinely fail.
    std::vector<CoreSet> fixtures{CoreSet::first_n(25)};
    Rng rng(0xd1ff);
    for (int f = 0; f < 6; ++f) {
        CoreSet free = CoreSet::first_n(25);
        int holes = 3 + f * 2;
        for (int i = 0; i < holes; ++i)
            free.reset(static_cast<int>(rng.next_below(25)));
        fixtures.push_back(free);
    }

    int disagreements = 0, successes = 0, refusals = 0;
    for (const graph::Graph& pattern : patterns) {
        for (const CoreSet& free : fixtures) {
            if (free.count() < pattern.num_nodes())
                continue;
            MappingResult r = mapper.map(exact_request(pattern), free);
            ASSERT_FALSE(r.budget_exhausted);
            // Degree > 4 (the star) is refuted before any search step.
            if (pattern.max_degree() > 4) {
                EXPECT_EQ(r.search_steps, 0u);
            }
            bool exists = oracle_exists(mesh, pattern, free);
            if (r.ok != exists)
                ++disagreements;
            EXPECT_EQ(r.ok, exists)
                << "pattern n=" << pattern.num_nodes()
                << " e=" << pattern.num_edges()
                << " free=" << free.to_string();
            if (r.ok) {
                ++successes;
                EXPECT_EQ(r.ted, 0.0);
                expect_exact_placement(mesh, pattern, free, r.assignment);
            } else {
                ++refusals;
            }
        }
    }
    EXPECT_EQ(disagreements, 0);
    // The sweep must exercise both verdicts to mean anything.
    EXPECT_GT(successes, 100);
    EXPECT_GT(refusals, 20);
}

/**
 * Brute-force differential coverage up to 16-node requests: seeded
 * random connected patterns of 8..16 nodes (mesh-region shapes, id
 * permutations of them, and edge-dropped mutants that are usually not
 * realizable), each cross-checked against exhaustive enumeration over
 * every fixture. The 5x5 host keeps the full subset scan affordable
 * even for the 16-node refusals.
 */
TEST(ExactDifferentialTest, RandomMidSizeTopologiesMatchBruteForce)
{
    noc::MeshTopology topo(5, 5);
    TopologyMapper mapper(topo);
    graph::Graph mesh = topo.to_graph();
    Rng rng(0x16b);

    std::vector<CoreSet> fixtures{CoreSet::first_n(25)};
    for (int f = 0; f < 2; ++f) {
        CoreSet free = CoreSet::first_n(25);
        for (int i = 0; i < 4 + 2 * f; ++i)
            free.reset(static_cast<int>(rng.next_below(25)));
        fixtures.push_back(free);
    }

    int successes = 0, refusals = 0;
    for (int k : {8, 10, 12, 14, 16}) {
        auto regions = graph::sample_connected_subsets(
            mesh, k, CoreSet::first_n(25), 18, rng);
        ASSERT_GE(regions.size(), 6u) << "k=" << k;
        for (int i = 0; i < 6; ++i) {
            graph::Graph pattern = mesh.induced(
                graph::Graph::mask_to_nodes(regions[i]));
            if (i % 3 == 1) {
                // Random id permutation (Fisher-Yates).
                std::vector<int> perm(k);
                for (int v = 0; v < k; ++v)
                    perm[v] = v;
                for (int v = k - 1; v > 0; --v)
                    std::swap(perm[v],
                              perm[rng.next_below(
                                  static_cast<std::uint64_t>(v) + 1)]);
                graph::Graph shuffled(k);
                for (auto [a, b] : pattern.edges())
                    shuffled.add_edge(perm[a], perm[b]);
                pattern = std::move(shuffled);
            } else if (i % 3 == 2) {
                // Drop one random edge: often no induced region can
                // realize the mutant, exercising proven refusals.
                auto edges = pattern.edges();
                auto [a, b] =
                    edges[rng.next_below(edges.size())];
                pattern.remove_edge(a, b);
                if (!pattern.is_connected())
                    continue; // exact requires connected (R-3)
            }
            for (const CoreSet& free : fixtures) {
                MappingResult r =
                    mapper.map(exact_request(pattern), free);
                ASSERT_FALSE(r.budget_exhausted);
                bool exists = oracle_exists(mesh, pattern, free);
                EXPECT_EQ(r.ok, exists)
                    << "k=" << k << " variant " << i
                    << " free=" << free.to_string();
                if (r.ok) {
                    ++successes;
                    EXPECT_EQ(r.ted, 0.0);
                    expect_exact_placement(mesh, pattern, free,
                                           r.assignment);
                } else {
                    ++refusals;
                }
            }
        }
    }
    EXPECT_GT(successes, 30);
    EXPECT_GT(refusals, 10);
}

/** Node numbering must not matter: permuted copies of one topology get
 *  the same verdict and a valid placement. */
TEST(ExactDifferentialTest, VerdictInvariantUnderRelabeling)
{
    noc::MeshTopology topo(6, 6);
    TopologyMapper mapper(topo);
    graph::Graph mesh = topo.to_graph();
    graph::Graph base = shape_graph(l_shape(3, 4, 1)); // 6-node L path
    Rng rng(42);
    CoreSet free = CoreSet::first_n(36);
    for (int i = 0; i < 7; ++i)
        free.reset(static_cast<int>(rng.next_below(36)));

    MappingResult ref = mapper.map(exact_request(base), free);
    for (int trial = 0; trial < 8; ++trial) {
        // Random permutation of vertex ids.
        std::vector<int> perm(base.num_nodes());
        for (int i = 0; i < base.num_nodes(); ++i)
            perm[i] = i;
        for (int i = base.num_nodes() - 1; i > 0; --i)
            std::swap(perm[i],
                      perm[rng.next_below(static_cast<std::uint64_t>(i) +
                                          1)]);
        graph::Graph shuffled(base.num_nodes());
        for (auto [a, b] : base.edges())
            shuffled.add_edge(perm[a], perm[b]);
        MappingResult r = mapper.map(exact_request(shuffled), free);
        ASSERT_EQ(r.ok, ref.ok) << "trial " << trial;
        if (r.ok)
            expect_exact_placement(mesh, shuffled, free, r.assignment);
    }
}

// ---- Cross-check against the similar strategy's zero-cost hits -------

/**
 * On randomized DCRA-scale fixtures, whenever the similar-topology
 * strategy finds a TED-0 placement, an isomorphic region exists — so
 * the exact strategy must find one too.
 */
TEST(ExactDifferentialTest, ExactCoversSimilarZeroCostHits)
{
    for (int side : {16, 32}) {
        noc::MeshTopology topo(side, side);
        TopologyMapper mapper(topo);
        graph::Graph mesh = topo.to_graph();
        Rng rng(0xcafe + side);
        int zero_cost_hits = 0;
        for (int trial = 0; trial < 6; ++trial) {
            CoreSet free = CoreSet::first_n(side * side);
            int holes = static_cast<int>(rng.next_below(side * 2));
            for (int i = 0; i < holes; ++i)
                free.reset(
                    static_cast<int>(rng.next_below(side * side)));
            int k = 6 + static_cast<int>(rng.next_below(15));

            MappingRequest sim;
            sim.vtopo = TopologyMapper::snake_topology(k);
            sim.strategy = MappingStrategy::kSimilarTopology;
            sim.max_candidates = 48;
            MappingResult rs = mapper.map(sim, free);
            if (!rs.ok || rs.ted != 0.0)
                continue;
            ++zero_cost_hits;

            MappingResult re =
                mapper.map(exact_request(sim.vtopo), free);
            ASSERT_TRUE(re.ok)
                << side << "x" << side << " trial " << trial
                << ": similar found TED 0 but exact failed: "
                << re.error;
            EXPECT_EQ(re.ted, 0.0);
            expect_exact_placement(mesh, sim.vtopo, free, re.assignment);
        }
        EXPECT_GT(zero_cost_hits, 0) << side << "x" << side;
    }
}

// ---- Acceptance: non-rectangular shapes at DCRA scale ----------------

TEST(ExactScaleTest, IrregularShapesSucceedOnFreeLargeMeshes)
{
    struct Shape {
        const char* name;
        std::vector<std::pair<int, int>> cells;
    };
    std::vector<Shape> shapes{
        {"L 6x4+2", l_shape(6, 4, 2)},          // 20 nodes
        {"T bar8 stem5x2", t_shape(8, 5, 2)},   // 22 nodes
        {"cross 6x2", cross_shape(6, 2)},       // 20 nodes
        {"L 8x8 thin", l_shape(8, 8, 2)},       // 28 nodes
        {"cross 7x3", cross_shape(7, 3)},       // 33 -> capped below
    };
    for (int side : {16, 32}) {
        noc::MeshTopology topo(side, side);
        TopologyMapper mapper(topo);
        graph::Graph mesh = topo.to_graph();
        CoreSet free = CoreSet::first_n(side * side);
        for (const Shape& s : shapes) {
            if (static_cast<int>(s.cells.size()) > 32)
                continue;
            graph::Graph pattern = shape_graph(s.cells);
            MappingResult r = mapper.map(exact_request(pattern), free);
            ASSERT_TRUE(r.ok) << s.name << " on " << side << "x" << side
                              << ": " << r.error;
            EXPECT_EQ(r.ted, 0.0);
            expect_exact_placement(mesh, pattern, free, r.assignment);
            // The slide fast path should carry these: a full VF2 walk
            // is budgeted but not needed on an empty mesh.
            EXPECT_LT(r.search_steps, 200000u) << s.name;
        }
    }
}

TEST(ExactScaleTest, BudgetBoundsWorkAndIsReported)
{
    noc::MeshTopology topo(32, 32);
    TopologyMapper mapper(topo);
    // Checkerboard-ish fragmentation: no 2x2 block survives, so a big
    // rectangle request fails. Grid rigidity makes the rectangle scan
    // complete for W, H >= 2, so the miss is a proof that spends none
    // of the (tiny) budget.
    CoreSet free = CoreSet::first_n(1024);
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            if ((x + y) % 2 == 0)
                free.reset(topo.id_of(x, y));

    MappingRequest req = exact_request(graph::Graph::mesh(4, 5));
    req.exact_search_budget = 2000;
    MappingResult r = mapper.map(req, free);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.budget_exhausted);
    EXPECT_EQ(r.search_steps, 0u);
    // Proven absence must agree with geometry: no free 2x2 exists.
    bool any_2x2 = false;
    for (int y = 0; y + 1 < 32 && !any_2x2; ++y)
        for (int x = 0; x + 1 < 32 && !any_2x2; ++x)
            any_2x2 = free.test(topo.id_of(x, y)) &&
                      free.test(topo.id_of(x + 1, y)) &&
                      free.test(topo.id_of(x, y + 1)) &&
                      free.test(topo.id_of(x + 1, y + 1));
    EXPECT_FALSE(any_2x2);

    // A 4x4 grid in snake vertex order against 3-row free strips (every
    // 4th row taken) is refuted by the symmetry slide of its one
    // embedding: a proof whose only steps are those of the embedding
    // probe (what a hit on the empty mesh spends), with no VF2 search
    // through the strips after it.
    CoreSet strips = CoreSet::first_n(1024);
    for (int y = 3; y < 32; y += 4)
        for (int x = 0; x < 32; ++x)
            strips.reset(topo.id_of(x, y));
    MappingRequest snake = exact_request(TopologyMapper::snake_topology(16));
    snake.exact_search_budget = 2000;
    MappingResult rs = mapper.map(snake, strips);
    EXPECT_FALSE(rs.ok);
    EXPECT_FALSE(rs.budget_exhausted);
    MappingResult on_empty = mapper.map(snake, CoreSet::first_n(1024));
    ASSERT_TRUE(on_empty.ok);
    EXPECT_EQ(rs.search_steps, on_empty.search_steps);
}

/**
 * Placement spec of row-major grid requests: mesh(W, H) lands on the
 * first free W x H block (row-major anchors) with the identity
 * assignment, else on the first free H x W block with the transpose
 * v -> (ax + v / W, ay + v % W). A path reads as a 1 x k column first.
 * For W, H >= 2 a miss of both scans is a proof that spends no budget;
 * a path may still bend around obstacles (phases 2 and 3).
 * `candidates_considered` counts the anchors this scan tries, up to the
 * hit or all of them.
 */
TEST(ExactScaleTest, GridRequestsFollowTheRectangleSpec)
{
    struct Dims {
        int w, h;
    };
    int hits = 0, transposed_hits = 0, misses = 0;
    // 12- and 40-wide rows straddle 64-bit words of the free set.
    for (Dims mesh_dims : {Dims{8, 8}, Dims{16, 8}, Dims{32, 32},
                           Dims{12, 10}, Dims{40, 25}}) {
        noc::MeshTopology topo(mesh_dims.w, mesh_dims.h);
        TopologyMapper mapper(topo);
        graph::Graph mesh = topo.to_graph();
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            const CoreSet free = fragmented_free(topo, seed);
            for (int w = 1; w <= 8; ++w) {
                for (int h = 1; h <= 8; ++h) {
                    const int k = w * h;
                    if (free.count() < k)
                        continue;
                    // Paths are scanned as a 1 x k column, then a row.
                    const int gw = std::min(w, h) == 1 ? 1 : w;
                    const int gh = k / gw;
                    std::vector<CoreId> expect;
                    std::uint64_t anchors = 0; // tried, in scan order
                    for (int o = 0; o < (gw == gh ? 1 : 2) && expect.empty();
                         ++o) {
                        const int rw = o ? gh : gw, rh = o ? gw : gh;
                        for (int ay = 0; ay + rh <= topo.height() &&
                                         expect.empty();
                             ++ay)
                            for (int ax = 0; ax + rw <= topo.width() &&
                                             expect.empty();
                                 ++ax) {
                                ++anchors;
                                bool fits = true;
                                for (int c = 0; c < k && fits; ++c)
                                    fits = free.test(topo.id_of(
                                        ax + c % rw, ay + c / rw));
                                if (!fits)
                                    continue;
                                for (int v = 0; v < k; ++v)
                                    expect.push_back(
                                        o ? topo.id_of(ax + v / gw,
                                                       ay + v % gw)
                                          : topo.id_of(ax + v % gw,
                                                       ay + v / gw));
                                transposed_hits += o;
                            }
                    }
                    const graph::Graph pattern = graph::Graph::mesh(w, h);
                    MappingResult r = mapper.map(exact_request(pattern), free);
                    SCOPED_TRACE(testing::Message()
                                 << mesh_dims.w << "x" << mesh_dims.h
                                 << " seed " << seed << " request " << w
                                 << "x" << h);
                    if (!expect.empty()) {
                        ++hits;
                        ASSERT_TRUE(r.ok);
                        EXPECT_EQ(r.assignment, expect);
                        EXPECT_EQ(r.search_steps, 0u);
                        EXPECT_EQ(r.candidates_considered, anchors);
                    } else if (w >= 2 && h >= 2) {
                        ++misses;
                        EXPECT_FALSE(r.ok);
                        EXPECT_FALSE(r.budget_exhausted);
                        EXPECT_EQ(r.search_steps, 0u);
                        EXPECT_EQ(r.candidates_considered, anchors);
                    } else {
                        // A path goes on to slide its phase-2 shape.
                        EXPECT_GE(r.candidates_considered, anchors);
                    }
                    if (r.ok)
                        expect_exact_placement(mesh, pattern, free,
                                               r.assignment);
                }
            }
        }
    }
    // The fixtures must exercise both verdicts and both orientations.
    EXPECT_GT(hits, 100);
    EXPECT_GT(transposed_hits, 10);
    EXPECT_GT(misses, 20);
}

/**
 * Grid recognition is the old whole-graph test: W exactly when the
 * request equals `Graph::mesh(W, k / W)`. Checked on every grid up to
 * 8 x 8 and on near-misses of each (an extra edge, a missing edge, a
 * label, a relabelled vertex order).
 */
TEST(ExactScaleTest, GridRecognitionMatchesMeshEquality)
{
    auto reference = [](const graph::Graph& g) {
        const int k = g.num_nodes();
        for (int w = 1; w <= k; ++w)
            if (k % w == 0 && g == graph::Graph::mesh(w, k / w))
                return w;
        return 0;
    };
    int grids = 0;
    for (int w = 1; w <= 8; ++w) {
        for (int h = 1; h <= 8; ++h) {
            const graph::Graph grid = graph::Graph::mesh(w, h);
            const int k = w * h;
            std::vector<graph::Graph> variants{grid};
            if (k >= 3) {
                graph::Graph extra = grid;
                extra.add_edge(0, k - 1);
                variants.push_back(extra);
                graph::Graph labelled = grid;
                labelled.set_label(k - 1, 2);
                variants.push_back(labelled);
                graph::Graph shifted(k);
                for (auto [u, v] : grid.edges())
                    shifted.add_edge((u + 1) % k, (v + 1) % k);
                variants.push_back(shifted);
            }
            if (grid.num_edges() > 0) {
                graph::Graph missing(k);
                const auto edges = grid.edges();
                for (std::size_t e = 0; e + 1 < edges.size(); ++e)
                    missing.add_edge(edges[e].first, edges[e].second);
                variants.push_back(missing);
            }
            for (const graph::Graph& g : variants) {
                const int want = reference(g);
                EXPECT_EQ(row_major_grid_width(g), want)
                    << w << "x" << h << " variant";
                grids += want > 0;
            }
        }
    }
    EXPECT_GE(grids, 64);
}

/**
 * Placement spec of phase 2, kept here as a per-anchor scan: the
 * request's first embedding in the whole mesh gives a cell shape; its 8
 * symmetries (transpose, then x and y flips; normalized; congruent
 * repeats dropped) each scan the anchors in row-major order, and the
 * first anchor where every cell is free is the placement. Requests are
 * L and T polyominoes, so phase 1 never takes them.
 */
TEST(ExactScaleTest, PolyominoRequestsFollowTheSlideSpec)
{
    using Cells = std::vector<std::pair<int, int>>;
    const std::vector<Cells> shapes{l_shape(4, 3, 2), l_shape(5, 4, 2),
                                    t_shape(5, 3, 1), t_shape(6, 4, 2),
                                    t_shape(7, 5, 1)};
    struct Dims {
        int w, h;
    };
    int hits = 0, misses = 0;
    for (Dims mesh_dims : {Dims{8, 8}, Dims{12, 10}, Dims{40, 25}}) {
        noc::MeshTopology topo(mesh_dims.w, mesh_dims.h);
        TopologyMapper mapper(topo);
        const graph::Graph mesh = topo.to_graph();
        for (const Cells& shape : shapes) {
            const graph::Graph pattern = shape_graph(shape);
            const int k = pattern.num_nodes();
            ASSERT_EQ(row_major_grid_width(pattern), 0);
            graph::IsoOptions iso;
            iso.max_steps = graph::kDefaultIsoSearchBudget;
            const graph::IsoResult embed = graph::find_induced_isomorphism(
                pattern, mesh, CoreSet::first_n(topo.num_nodes()), iso);
            ASSERT_TRUE(embed.found);
            std::vector<Cells> variants;
            std::vector<Cells> seen_sets;
            for (int t = 0; t < 8; ++t) {
                Cells v(k);
                for (int p = 0; p < k; ++p) {
                    int x = topo.x_of(embed.mapping[p]);
                    int y = topo.y_of(embed.mapping[p]);
                    if (t & 4)
                        std::swap(x, y);
                    v[p] = {t & 1 ? -x : x, t & 2 ? -y : y};
                }
                int min_x = v[0].first, min_y = v[0].second;
                for (auto [x, y] : v) {
                    min_x = std::min(min_x, x);
                    min_y = std::min(min_y, y);
                }
                for (auto& [x, y] : v) {
                    x -= min_x;
                    y -= min_y;
                }
                Cells key = v;
                std::sort(key.begin(), key.end());
                if (std::find(seen_sets.begin(), seen_sets.end(), key) !=
                    seen_sets.end())
                    continue;
                seen_sets.push_back(key);
                variants.push_back(v);
            }
            for (std::uint64_t seed = 0; seed < 6; ++seed) {
                const CoreSet free = fragmented_free(topo, seed);
                std::vector<CoreId> expect;
                std::uint64_t anchors = 0;
                for (const Cells& v : variants) {
                    int bw = 0, bh = 0;
                    for (auto [x, y] : v) {
                        bw = std::max(bw, x + 1);
                        bh = std::max(bh, y + 1);
                    }
                    for (int ay = 0; ay + bh <= topo.height() &&
                                     expect.empty();
                         ++ay)
                        for (int ax = 0;
                             ax + bw <= topo.width() && expect.empty();
                             ++ax) {
                            ++anchors;
                            bool fits = true;
                            for (auto [x, y] : v)
                                fits = fits &&
                                       free.test(topo.id_of(ax + x, ay + y));
                            if (!fits)
                                continue;
                            for (auto [x, y] : v)
                                expect.push_back(topo.id_of(ax + x, ay + y));
                        }
                    if (!expect.empty())
                        break;
                }
                MappingResult r = mapper.map(exact_request(pattern), free);
                SCOPED_TRACE(testing::Message()
                             << mesh_dims.w << "x" << mesh_dims.h << " seed "
                             << seed << " shape of " << k << " cells");
                EXPECT_EQ(r.candidates_considered, anchors);
                if (!expect.empty()) {
                    ++hits;
                    ASSERT_TRUE(r.ok);
                    EXPECT_EQ(r.assignment, expect);
                    EXPECT_EQ(r.search_steps, embed.steps);
                } else {
                    // Phase 3 may still find an incongruent embedding.
                    ++misses;
                    if (r.ok)
                        expect_exact_placement(mesh, pattern, free,
                                               r.assignment);
                }
            }
        }
    }
    EXPECT_GT(hits, 30);
    EXPECT_GT(misses, 5);
}

/**
 * One exactness rule in every phase: a placement is exact iff every
 * node substitution is free (labels equal by default, `node_cost == 0`
 * under custom costs). A cost that restates the default must decide
 * exactly like it; a cost that frees no substitution refutes every
 * request before any search; a cost that frees any pattern label on an
 * unlabeled host admits a labelled grid wherever its shape fits.
 */
TEST(ExactScaleTest, CustomNodeCostsFollowOneExactnessRule)
{
    struct Dims {
        int w, h;
    };
    std::vector<graph::Graph> requests;
    for (int w = 1; w <= 4; ++w)
        for (int h = 1; h <= 4; ++h)
            requests.push_back(graph::Graph::mesh(w, h));
    requests.push_back(TopologyMapper::snake_topology(5));
    requests.push_back(TopologyMapper::snake_topology(9));
    graph::Graph labelled = graph::Graph::mesh(3, 2);
    labelled.set_label(4, 3);
    requests.push_back(labelled);

    const auto same_label = [](int a, int b) { return a == b ? 0.0 : 1.0; };
    const auto never_free = [](int, int) { return 1.0; };
    const auto host_unlabeled = [](int, int b) { return b == 0 ? 0.0 : 1.0; };

    int admitted = 0, refused = 0, labelled_admitted = 0;
    for (Dims mesh_dims : {Dims{8, 8}, Dims{16, 8}}) {
        noc::MeshTopology topo(mesh_dims.w, mesh_dims.h);
        TopologyMapper mapper(topo);
        graph::Graph mesh = topo.to_graph();
        const int n = topo.num_nodes();
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            Rng rng(0xc057 + seed * 131 + static_cast<std::uint64_t>(n));
            CoreSet free = CoreSet::first_n(n);
            for (int i = 0; i < n; ++i)
                if (rng.next_below(100) < (seed % 2 ? 35u : 12u))
                    free.reset(i);
            for (const graph::Graph& g : requests) {
                SCOPED_TRACE(testing::Message()
                             << mesh_dims.w << "x" << mesh_dims.h << " seed "
                             << seed << " request n=" << g.num_nodes()
                             << " e=" << g.num_edges());
                const MappingResult def = mapper.map(exact_request(g), free);
                (def.ok ? admitted : refused) += 1;

                MappingRequest eq = exact_request(g);
                eq.ged.node_cost = same_label;
                const MappingResult r = mapper.map(eq, free);
                EXPECT_EQ(r.ok, def.ok);
                EXPECT_EQ(r.assignment, def.assignment);
                EXPECT_EQ(r.search_steps, def.search_steps);
                EXPECT_EQ(r.candidates_considered, def.candidates_considered);
                EXPECT_EQ(r.budget_exhausted, def.budget_exhausted);

                MappingRequest none = exact_request(g);
                none.ged.node_cost = never_free;
                const MappingResult rn = mapper.map(none, free);
                EXPECT_FALSE(rn.ok);
                EXPECT_EQ(rn.search_steps, 0u);
                EXPECT_FALSE(rn.budget_exhausted);
            }
            // The labelled grid is refused under default costs (its
            // label-3 vertex has no host) and admitted under
            // `host_unlabeled` wherever the unlabeled grid fits.
            EXPECT_FALSE(mapper.map(exact_request(labelled), free).ok);
            MappingRequest lab = exact_request(labelled);
            lab.ged.node_cost = host_unlabeled;
            const MappingResult rl = mapper.map(lab, free);
            EXPECT_EQ(rl.ok,
                      mapper.map(exact_request(graph::Graph::mesh(3, 2)), free)
                          .ok);
            if (rl.ok) {
                ++labelled_admitted;
                expect_exact_placement(mesh, labelled, free, rl.assignment);
            }
        }
    }
    EXPECT_GT(admitted, 50);
    EXPECT_GT(refused, 5);
    EXPECT_GT(labelled_admitted, 4);
}

TEST(ExactScaleTest, DisconnectedRequestHonorsConnectivityFlag)
{
    noc::MeshTopology topo(8, 8);
    TopologyMapper mapper(topo);
    graph::Graph mesh = topo.to_graph();
    // Two disjoint 2x2 blocks.
    graph::Graph two_blocks(8);
    auto block = [&](int base) {
        two_blocks.add_edge(base + 0, base + 1);
        two_blocks.add_edge(base + 0, base + 2);
        two_blocks.add_edge(base + 1, base + 3);
        two_blocks.add_edge(base + 2, base + 3);
    };
    block(0);
    block(4);

    MappingRequest req = exact_request(two_blocks);
    EXPECT_FALSE(mapper.map(req, CoreSet::first_n(64)).ok); // R-3

    req.require_connected = false;
    // Free cores: two islands far apart, each exactly 2x2.
    CoreSet free;
    for (int id : {0, 1, 8, 9})
        free.set(id);
    for (int id : {54, 55, 62, 63})
        free.set(id);
    MappingResult r = mapper.map(req, free);
    ASSERT_TRUE(r.ok) << r.error;
    expect_exact_placement(mesh, two_blocks, free, r.assignment);
}

// ---- Fragmentation-churn fuzz (satellite) ----------------------------

/**
 * Independent placement oracle for polyomino requests: try every
 * translate of every grid symmetry of the cell set directly against
 * the free set, one coordinate at a time. Complete for congruent
 * placements, shares no code with the mapper.
 */
bool
polyomino_fits(const noc::MeshTopology& topo,
               const std::vector<std::pair<int, int>>& cells,
               const CoreSet& free)
{
    for (int t = 0; t < 8; ++t) {
        std::vector<std::pair<int, int>> c = cells;
        for (auto& [x, y] : c) {
            if (t & 4)
                std::swap(x, y);
            if (t & 1)
                x = -x;
            if (t & 2)
                y = -y;
        }
        int min_x = INT32_MAX, min_y = INT32_MAX, max_x = INT32_MIN,
            max_y = INT32_MIN;
        for (auto [x, y] : c) {
            min_x = std::min(min_x, x);
            min_y = std::min(min_y, y);
            max_x = std::max(max_x, x);
            max_y = std::max(max_y, y);
        }
        int w = max_x - min_x + 1, h = max_y - min_y + 1;
        for (int ay = 0; ay + h <= topo.height(); ++ay)
            for (int ax = 0; ax + w <= topo.width(); ++ax) {
                bool fits = true;
                for (auto [x, y] : c)
                    fits = fits && free.test(topo.id_of(
                                       ax + x - min_x, ay + y - min_y));
                if (fits)
                    return true;
            }
    }
    return false;
}

TEST(ExactFuzzTest, ChurnOn32x32AgreesWithPlacementOracle)
{
    noc::MeshTopology topo(32, 32);
    TopologyMapper mapper(topo);
    graph::Graph mesh = topo.to_graph();
    Rng rng(0xf022);

    std::vector<std::vector<std::pair<int, int>>> probe_shapes{
        l_shape(4, 4, 1),  // 7-node L
        l_shape(5, 4, 2),  // 16-node thick L
        t_shape(5, 4, 1),  // 8-node T
        t_shape(6, 5, 2),  // 18-node thick T
        cross_shape(4, 2), // 12-node plus
        l_shape(6, 5, 2),  // 20-node L
    };

    CoreSet free = CoreSet::first_n(1024);
    std::vector<std::vector<CoreId>> live;
    int oracle_hits = 0, oracle_misses = 0;
    for (int step = 0; step < 60; ++step) {
        // Churn toward high occupancy: allocate snake tenants; when an
        // allocation bounces (or occasionally at random), retire one —
        // utilization hovers near the fragmentation-bound maximum, so
        // the exact probes below see genuinely hard free sets.
        MappingRequest fill;
        fill.vtopo = TopologyMapper::snake_topology(
            16 + static_cast<int>(rng.next_below(48)));
        fill.strategy = MappingStrategy::kSimilarTopology;
        fill.max_candidates = 24;
        MappingResult filled = mapper.map(fill, free);
        if (filled.ok) {
            for (CoreId c : filled.assignment)
                free.reset(c);
            live.push_back(filled.assignment);
        }
        if (!live.empty() &&
            (!filled.ok || rng.next_below(6) == 0)) {
            std::size_t at = rng.next_below(live.size());
            for (CoreId c : live[at])
                free.set(c);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        }

        // Probe: an exact L/T/cross request against the current holes.
        const auto& cells =
            probe_shapes[step % probe_shapes.size()];
        graph::Graph pattern = shape_graph(cells);
        MappingResult r = mapper.map(exact_request(pattern), free);
        ASSERT_FALSE(r.budget_exhausted) << "step " << step;
        bool congruent_exists = polyomino_fits(topo, cells, free);
        if (congruent_exists) {
            ++oracle_hits;
            ASSERT_TRUE(r.ok)
                << "step " << step << ": oracle placed a "
                << cells.size() << "-cell shape the mapper missed";
        } else {
            ++oracle_misses;
        }
        if (r.ok)
            expect_exact_placement(mesh, pattern, free, r.assignment);
        else
            EXPECT_FALSE(congruent_exists);
    }
    // The churn must produce both outcomes for the fuzz to bite.
    EXPECT_GT(oracle_hits, 10);
    EXPECT_GT(oracle_misses, 0);
}

/** Small-free-set churn where full brute force is affordable: the
 *  mapper verdict must equal exhaustive enumeration, both ways. */
TEST(ExactFuzzTest, SmallFreeSetsMatchFullBruteForce)
{
    noc::MeshTopology topo(32, 32);
    TopologyMapper mapper(topo);
    graph::Graph mesh = topo.to_graph();
    Rng rng(0xbead);

    std::vector<std::vector<std::pair<int, int>>> probe_shapes{
        l_shape(3, 3, 1), // 5-node L
        t_shape(3, 3, 1), // 5-node T
        l_shape(4, 3, 2), // 12-node thick L
    };
    for (int trial = 0; trial < 12; ++trial) {
        // A random small window of free cores with random holes, placed
        // anywhere on the 32x32 mesh (exercises word-boundary ids).
        int wx = static_cast<int>(rng.next_below(26));
        int wy = static_cast<int>(rng.next_below(26));
        CoreSet free;
        for (int y = 0; y < 5; ++y)
            for (int x = 0; x < 6; ++x)
                if (rng.next_below(4) != 0)
                    free.set(topo.id_of(wx + x, wy + y));
        for (const auto& cells : probe_shapes) {
            graph::Graph pattern = shape_graph(cells);
            if (free.count() < pattern.num_nodes())
                continue;
            MappingResult r = mapper.map(exact_request(pattern), free);
            ASSERT_FALSE(r.budget_exhausted);
            bool exists = oracle_exists(mesh, pattern, free);
            EXPECT_EQ(r.ok, exists)
                << "trial " << trial << " shape n="
                << pattern.num_nodes() << " free=" << free.to_string();
            if (r.ok)
                expect_exact_placement(mesh, pattern, free,
                                       r.assignment);
        }
    }
}

// ---- find_induced_isomorphism unit coverage --------------------------

TEST(InducedIsoTest, InducedNonEdgesAreEnforced)
{
    // chain(4) must never land on a 2x2 block (extra edge) even though
    // the block contains a spanning path.
    graph::Graph host = graph::Graph::mesh(2, 2);
    graph::IsoResult r = graph::find_induced_isomorphism(
        graph::Graph::chain(4), host, graph::NodeMask::first_n(4));
    EXPECT_FALSE(r.found);
    EXPECT_FALSE(r.budget_exhausted);

    // On a 1x4 strip it fits.
    graph::Graph strip = graph::Graph::mesh(4, 1);
    r = graph::find_induced_isomorphism(graph::Graph::chain(4), strip,
                                        graph::NodeMask::first_n(4));
    ASSERT_TRUE(r.found);
}

TEST(InducedIsoTest, LabelsGateCandidates)
{
    graph::Graph pattern = graph::Graph::chain(2);
    pattern.set_label(1, 7);
    graph::Graph host = graph::Graph::chain(3);
    graph::NodeMask all = graph::NodeMask::first_n(3);
    EXPECT_FALSE(
        graph::find_induced_isomorphism(pattern, host, all).found);
    host.set_label(2, 7);
    graph::IsoResult r =
        graph::find_induced_isomorphism(pattern, host, all);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.mapping[1], 2);

    // Custom compatibility overrides label equality.
    graph::IsoOptions opt;
    opt.node_compat = [](int, int) { return true; };
    host.set_label(2, 0);
    EXPECT_TRUE(
        graph::find_induced_isomorphism(pattern, host, all, opt).found);
}

TEST(InducedIsoTest, WideHostMatchesNarrowHost)
{
    // The same pattern and window must resolve identically through the
    // u64 fast path (8x8 host) and the wide-mask path (9x9+ host).
    graph::Graph pattern = shape_graph(t_shape(4, 3, 1));
    noc::MeshTopology small(8, 8), big(12, 12);
    graph::NodeMask win_small, win_big;
    for (int y = 2; y < 7; ++y)
        for (int x = 3; x < 8; ++x) {
            if ((x + y) % 7 == 0)
                continue;
            win_small.set(small.id_of(x, y));
            win_big.set(big.id_of(x, y));
        }
    graph::IsoResult a = graph::find_induced_isomorphism(
        pattern, small.to_graph(), win_small);
    graph::IsoResult b = graph::find_induced_isomorphism(
        pattern, big.to_graph(), win_big);
    EXPECT_EQ(a.found, b.found);
    ASSERT_TRUE(a.found);
    // Same placement modulo the coordinate re-indexing.
    for (std::size_t i = 0; i < a.mapping.size(); ++i) {
        EXPECT_EQ(small.x_of(a.mapping[i]), big.x_of(b.mapping[i]));
        EXPECT_EQ(small.y_of(a.mapping[i]), big.y_of(b.mapping[i]));
    }
}

TEST(InducedIsoTest, DegreeSequencePrefilterRejectsCheaply)
{
    // A 5-leaf star cannot embed in a mesh (max degree 4): the search
    // must refute without any backtracking steps.
    graph::Graph star(6);
    for (int leaf = 1; leaf < 6; ++leaf)
        star.add_edge(0, leaf);
    graph::IsoResult r = graph::find_induced_isomorphism(
        star, graph::Graph::mesh(16, 16), graph::NodeMask::first_n(256));
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.steps, 0u);
}

} // namespace
} // namespace vnpu::hyp
