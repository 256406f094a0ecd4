/**
 * @file
 * Topology (graph) edit distance between equal-size topologies, as used
 * by the hypervisor's similar-topology mapping (paper §4.3, Algorithm 1).
 *
 * Given a requested virtual topology T_req and a candidate physical
 * subgraph, we search for the node bijection minimizing
 *
 *     sum node-substitution costs (NodeMatch)
 *   + sum edge-deletion costs for T_req edges with no image (EdgeMatch)
 *   + sum edge-insertion costs for candidate edges with no preimage.
 *
 * Exact search (branch and bound) is exponential and used for small
 * graphs; larger instances use a seeded greedy assignment refined by
 * 2-opt swaps, mirroring the paper's observation that minimum TED is
 * NP-hard and must be approximated/pruned.
 */

#ifndef VNPU_GRAPH_GED_H
#define VNPU_GRAPH_GED_H

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "graph/graph.h"

namespace vnpu::graph {

/** Customizable edit costs (Algorithm 1's NodeMatch / EdgeMatch). */
struct GedOptions {
    /**
     * Cost of mapping a T_req node with label `a` onto a candidate node
     * with label `b` (node substitution). Default: 0 if equal, 1 if not.
     */
    std::function<double(int a, int b)> node_cost;

    /**
     * Cost of a T_req edge (u, v) that has no image in the candidate
     * (edge deletion). Critical dataflow edges can return a larger
     * penalty here. Default: 1.
     */
    std::function<double(int u, int v)> edge_del_cost;

    /** Cost of a candidate edge with no preimage (edge insertion). */
    double edge_ins_cost = 1.0;

    /** Largest graph solved exactly; bigger graphs use approximation. */
    int exact_limit = 9;

    /** Number of restart seeds for the approximate search. */
    int approx_seeds = 4;

    /**
     * Prune-only upper bound for the exact search: branches whose
     * accumulated cost reaches `cost_bound` are cut. `exact_ged` then
     * returns a bit-identical (cost, mapping) whenever the true minimum
     * is < cost_bound, and {infinity, {}} otherwise — the caller's
     * "does this beat my running best?" test is unchanged either way
     * (the mapper funnel threads its running best through here).
     * Ignored by `approx_ged`: aborting its 2-opt descent mid-way would
     * change results. Default: unbounded.
     */
    double cost_bound = std::numeric_limits<double>::infinity();
};

/** Result: the minimal cost found and the realizing node bijection. */
struct GedResult {
    double cost = 0.0;
    /** mapping[i] = candidate node that plays T_req node i. */
    std::vector<int> mapping;
};

/** Cost of a specific bijection (utility, also used by tests). */
double ged_mapping_cost(const Graph& req, const Graph& cand,
                        const std::vector<int>& mapping,
                        const GedOptions& opt = {});

/**
 * Exact minimum TED by branch and bound. @pre req.n == cand.n <= ~10
 *
 * Under default costs (no callbacks, `edge_ins_cost` 1) and n <= 64
 * the search runs on integer costs over one-word adjacency rows; every
 * partial cost is then a small integer, so it returns the generic
 * search's cost and mapping bit for bit, under any `cost_bound`.
 */
GedResult exact_ged(const Graph& req, const Graph& cand,
                    const GedOptions& opt = {});

/**
 * Approximate minimum TED: greedy BFS-seeded assignment + 2-opt.
 *
 * Under default costs and n <= 64 the 2-opt runs on integer deltas and
 * skips only pairs whose swap cannot lower the cost (delta >= 0), so
 * it applies the generic search's swaps in the same order and returns
 * the same cost and mapping.
 */
GedResult approx_ged(const Graph& req, const Graph& cand,
                     const GedOptions& opt = {});

/** Dispatch: exact for small graphs, approximate otherwise. */
GedResult ged(const Graph& req, const Graph& cand,
              const GedOptions& opt = {});

/**
 * Batch scorer for one request against many candidates. Precomputes
 * everything `ged()` would re-derive per call from the request side
 * (dense adjacency, degree-sorted anchors, per-seed BFS orders) and
 * builds each candidate's dense form straight from a host-graph node
 * mask, skipping the `induced()` materialization.
 *
 * `score_subset(host, mask, bound)` returns a result bit-identical to
 * `ged(req, host.induced(Graph::mask_to_nodes(mask)), o)`, where `o`
 * is `opt` with `cost_bound` lowered to `min(opt.cost_bound, bound)`:
 * the subset keeps ascending node order, so the candidate seen by the
 * search is the same graph, and the search itself is shared code. The
 * exact search (n <= `exact_limit`) therefore returns {infinity, {}}
 * when no bijection costs less than the bound; `bound` =
 * `numeric_limits<double>::min()` asks only for a zero-cost bijection.
 * The approximate search ignores the bound, as `approx_ged` ignores
 * `cost_bound`. Thread-safe for concurrent calls on one scorer
 * (scratch is thread-local; the shared request side is read-only).
 */
class GedScorer {
  public:
    GedScorer(const Graph& req, const GedOptions& opt);
    ~GedScorer();
    GedScorer(const GedScorer&) = delete;
    GedScorer& operator=(const GedScorer&) = delete;

    GedResult score_subset(
        const Graph& host, const NodeMask& mask,
        double bound = std::numeric_limits<double>::infinity()) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

// ---- Admissible lower bounds ------------------------------------------

/**
 * Per-graph summary for repeated lower-bound queries: the mapper
 * precomputes the request side once and derives the candidate side from
 * the masked mesh adjacency without building an induced Graph.
 */
struct GedProfile {
    std::vector<int> degrees_desc; ///< Degrees, sorted descending.
    std::vector<int> labels_sorted; ///< Labels, sorted ascending.
    int num_edges = 0;
};

GedProfile ged_profile(const Graph& g);

/**
 * Admissible lower bound on `ged(req, cand, opt)` for equal-size graphs:
 * any valid bound must never exceed the true minimum, so a candidate
 * with `ged_lower_bound(...) > best` can be discarded without running
 * the search.
 *
 *  - Node term: the minimum number of label mismatches any bijection
 *    incurs is the label-multiset difference; each costs 1 under the
 *    default node cost. Custom `node_cost` => term is 0 (no bound on an
 *    arbitrary cost function).
 *  - Edge term: any bijection needs at least
 *    max(ceil(sum_i |d_req[i] - d_cand[i]| / 2), |E_req - E_cand|)
 *    edge edits (degree sequences compared sorted; rearrangement
 *    inequality), each costing at least min(1, edge_ins_cost) under the
 *    default deletion cost. Custom `edge_del_cost` => only the
 *    guaranteed-insertion count max(0, E_cand - E_req) * edge_ins_cost
 *    remains.
 */
double ged_lower_bound(const GedProfile& req, const GedProfile& cand,
                       const GedOptions& opt = {});
double ged_lower_bound(const Graph& req, const Graph& cand,
                       const GedOptions& opt = {});

} // namespace vnpu::graph

#endif // VNPU_GRAPH_GED_H
