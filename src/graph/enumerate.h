/**
 * @file
 * Enumeration of connected induced subgraphs (candidate vNPU regions).
 *
 * The hypervisor's topology mapper needs "all candidate NPU topologies
 * with the required number of cores" (Algorithm 1). Exhaustive
 * enumeration is exponential, so we provide both an exact enumerator
 * (each connected vertex set reported exactly once) and a deterministic
 * seeded-growth sampler for large instances.
 */

#ifndef VNPU_GRAPH_ENUMERATE_H
#define VNPU_GRAPH_ENUMERATE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "sim/rng.h"

namespace vnpu::graph {

/**
 * Enumerate every connected vertex subset of size `k` contained in
 * `allowed`, invoking `cb` for each. Each subset is reported exactly
 * once (Wernicke-style exclusive-neighborhood expansion). Bits of
 * `allowed` at or beyond `g.num_nodes()` are ignored.
 *
 * Emission order: roots (a subset's lowest node) ascend; under each
 * root the expansion is a depth-first walk that always adds the lowest
 * pending extension node first. The order is deterministic and callers
 * (the topology mapper's candidate list and its pinned decisions)
 * depend on it.
 *
 * Enumeration stops at the first of:
 *  - `cb` returning false;
 *  - `max_results` subsets produced;
 *  - the step budget: when `max_results` is finite, the walk visits at
 *    most max(1'000'000, 256 * max_results) search-tree nodes (one
 *    step = one partial subset, of any size, entered), since for k near
 *    |allowed| a handful of results can hide an exponential tree of
 *    smaller connected subsets. Unbounded `max_results` means no step
 *    budget.
 *
 * @return the number of subsets reported.
 */
std::uint64_t enumerate_connected_subsets(
    const Graph& g, int k, const NodeMask& allowed,
    const std::function<bool(const NodeMask&)>& cb,
    std::uint64_t max_results = UINT64_MAX);

/** Count connected subsets of size k (capped at `cap`). */
std::uint64_t count_connected_subsets(const Graph& g, int k,
                                      const NodeMask& allowed,
                                      std::uint64_t cap = UINT64_MAX);

/**
 * Deterministically sample up to `samples` connected size-`k` subsets of
 * `allowed` by randomized BFS growth from every possible seed node.
 * Duplicates are removed; the result is sorted for reproducibility.
 * Bits of `allowed` at or beyond `g.num_nodes()` are ignored.
 */
std::vector<NodeMask> sample_connected_subsets(const Graph& g, int k,
                                               const NodeMask& allowed,
                                               int samples, Rng& rng);

/** Binomial coefficient with saturation at UINT64_MAX. */
std::uint64_t binomial(std::uint64_t n, std::uint64_t k);

// ---- Exact induced-subgraph isomorphism -------------------------------

/**
 * Default backtracking-step budget, shared by every layer that exposes
 * one (`IsoOptions`, `hyp::MappingRequest`, `hyp::VnpuSpec`) so the
 * defaults cannot drift apart.
 */
inline constexpr std::uint64_t kDefaultIsoSearchBudget = 4'000'000;

/** Tuning knobs for `find_induced_isomorphism`. */
struct IsoOptions {
    /**
     * Backtracking-step budget (one step = one attempted vertex
     * placement). A miss on a 1024-node host terminates within this
     * bound; `IsoResult::budget_exhausted` distinguishes "gave up" from
     * "proved absent".
     */
    std::uint64_t max_steps = kDefaultIsoSearchBudget;

    /**
     * Node compatibility: may pattern label `a` be hosted by host label
     * `b`? Default (null): labels must be equal.
     */
    std::function<bool(int a, int b)> node_compat;
};

/** Outcome of an induced-isomorphism search. */
struct IsoResult {
    bool found = false;
    /** True when the search hit `max_steps` before covering the space;
     *  `found == false` is then inconclusive. */
    bool budget_exhausted = false;
    /** Vertex placements attempted (search effort, for stats/benches). */
    std::uint64_t steps = 0;
    /** mapping[p] = host node playing pattern node p (when found). */
    std::vector<int> mapping;
};

/**
 * Find an injective mapping of `pattern` onto an *induced* subgraph of
 * `host` restricted to the `allowed` node set: pattern edges map to
 * host edges and pattern non-edges to host non-edges, so the image
 * region realizes exactly the requested topology (TED 0).
 *
 * VF2-style anchored backtracking with frontier propagation: after the
 * anchor, candidates for each pattern vertex are the common host
 * neighborhood of its already-placed pattern neighbors, filtered by an
 * exact adjacency-mask check (which also enforces non-adjacency) and by
 * degree/label prefilters computed up front. Disconnected patterns are
 * handled by re-anchoring per component. Deterministic: hosts are tried
 * in ascending id order, so the lowest-anchored embedding wins.
 *
 * Graphs of <= 64 host nodes run on plain u64 masks; larger hosts use
 * wide `NodeMask`s.
 */
IsoResult find_induced_isomorphism(const Graph& pattern, const Graph& host,
                                   const NodeMask& allowed,
                                   const IsoOptions& opt = {});

} // namespace vnpu::graph

#endif // VNPU_GRAPH_ENUMERATE_H
