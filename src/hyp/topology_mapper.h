/**
 * @file
 * Topology mapping strategies for virtual-NPU core allocation
 * (paper §4.3, Algorithm 1).
 *
 * Strategies:
 *  - kExact: allocate only a region isomorphic to the request (TED 0);
 *    fail otherwise — this is the "topology lock-in" behaviour. This is
 *    the one exact-feasibility path: callers (the fleet scheduler
 *    included) ask `map()` and read `ok`. Every phase admits a node
 *    substitution under one rule: equal labels, or `node_cost(a, b)
 *    == 0` when `ged.node_cost` is set. A row-major W x H grid
 *    request (recognised once, `MappingRequest::grid_width`) slides
 *    over the free set in both orientations, each slide one
 *    bit-parallel erosion of the free set; for W, H >= 2 grid rigidity
 *    makes a miss there a proof, returned without spending search
 *    budget. Other requests go on to a
 *    rectangle-decomposed polyomino slide of one grid embedding (8
 *    symmetries; a grid in any vertex order is again refuted by
 *    rigidity), then an anchored VF2-style induced-isomorphism search,
 *    budgeted by `exact_search_budget` (see docs/sim_kernel.md, "Exact
 *    mapping").
 *  - kStraightforward: take the lowest-id free cores (zig-zag); cheap
 *    but ignores adjacency.
 *  - kSimilarTopology: enumerate connected candidate regions (pruned,
 *    deduplicated by topology, early-exit on an exact match), score by
 *    minimum topology edit distance, return the best. A free set whose
 *    largest connected component is smaller than the request fails
 *    before any enumeration.
 *  - kFragmented: like similar-topology, but when no connected region
 *    of the required size exists, fall back to the closest-packed
 *    disconnected core set (trades isolation for utilization).
 */

#ifndef VNPU_HYP_TOPOLOGY_MAPPER_H
#define VNPU_HYP_TOPOLOGY_MAPPER_H

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/enumerate.h"
#include "graph/ged.h"
#include "graph/graph.h"
#include "noc/topology.h"
#include "sim/types.h"

namespace vnpu::hyp {

/** Core-allocation strategy. */
enum class MappingStrategy : std::uint8_t {
    kExact,
    kStraightforward,
    kSimilarTopology,
    kFragmented,
};

const char* to_string(MappingStrategy s);

/** One allocation request. */
struct MappingRequest {
    /** Requested virtual topology (labels optional). */
    graph::Graph vtopo;
    MappingStrategy strategy = MappingStrategy::kSimilarTopology;
    /** R-3: reject disconnected regions (ignored by kFragmented). */
    bool require_connected = true;
    /** Candidate-set budget before sampling kicks in (similar/frag);
     *  must be in [1, INT_MAX / 4] (SimFatal otherwise). */
    std::uint64_t max_candidates = 400;
    /**
     * Backtracking-step budget for the exact-isomorphism search (kExact
     * only). A miss on a 1024-core mesh terminates within this bound;
     * `MappingResult::budget_exhausted` reports an inconclusive miss.
     */
    std::uint64_t exact_search_budget = graph::kDefaultIsoSearchBudget;
    /** Edit-cost customization (heterogeneous nodes/edges). */
    graph::GedOptions ged;
    /**
     * Derived from `vtopo`, not an option: W when `vtopo` is exactly
     * the row-major grid `Graph::mesh(W, k / W)`, 0 when it is not,
     * -1 when not yet recognised. `request_for` records it for exact
     * requests; `map` recognises a request still at -1 on entry. A
     * request whose `vtopo` changes must be rebuilt, not patched.
     */
    int grid_width = -1;
};

/** Similar/fragmented scoring-funnel stage counters (docs/sim_kernel.md,
 *  "Admission funnel"); one record shared by mapper results, hypervisor
 *  stats and the admission trace span. */
struct FunnelCounters {
    std::uint64_t candidates = 0;  ///< Candidates entering scoring.
    std::uint64_t lb_pruned = 0;   ///< Discarded by the GED lower bound.
    std::uint64_t memo_hits = 0;   ///< Scores reused from the memo.
    std::uint64_t memo_misses = 0; ///< Memo probes that missed.
    std::uint64_t ted0_hits = 0;   ///< Hash-equal exact scores of cost 0.
    std::uint64_t full_ged = 0;    ///< Full exact/approx GED runs.
};

/** (name, field) of every FunnelCounters field, in reporting order; the
 *  names are the `funnel.*` stat suffixes, trace args and JSON keys. */
inline constexpr std::array<
    std::pair<const char*, std::uint64_t FunnelCounters::*>, 6>
    kFunnelFields{{{"candidates", &FunnelCounters::candidates},
                   {"lb_pruned", &FunnelCounters::lb_pruned},
                   {"memo_hits", &FunnelCounters::memo_hits},
                   {"memo_misses", &FunnelCounters::memo_misses},
                   {"ted0_hits", &FunnelCounters::ted0_hits},
                   {"full_ged", &FunnelCounters::full_ged}}};

inline FunnelCounters&
operator+=(FunnelCounters& a, const FunnelCounters& b)
{
    for (const auto& [name, field] : kFunnelFields)
        a.*field += b.*field;
    return a;
}

/** Allocation outcome. */
struct MappingResult {
    bool ok = false;
    /** assignment[v] = physical core hosting virtual core v. */
    std::vector<CoreId> assignment;
    /** Topology edit distance between request and realized region. */
    double ted = 0.0;
    std::uint64_t candidates_considered = 0;
    /** Exact-search effort: vertex placements attempted (kExact only). */
    std::uint64_t search_steps = 0;
    /** True when the exact search gave up on its step budget, so a
     *  failure does not prove that no isomorphic region exists. */
    bool budget_exhausted = false;
    std::string error;
    FunnelCounters funnel; ///< Similar/fragmented strategies only.
};

/**
 * W when `g` is exactly the row-major grid `Graph::mesh(W, k / W)`
 * (unlabelled; a path is the 1 x k column, a single core 1 x 1), else
 * 0. O(k) over the adjacency lists; builds no graph.
 */
int row_major_grid_width(const graph::Graph& g);

/** Maps requested virtual topologies onto free physical cores. */
class TopologyMapper {
  public:
    explicit TopologyMapper(const noc::MeshTopology& topo);

    /** Run the requested strategy against the free-core set.
     *  @throws SimFatal when a similar/fragmented request's
     *  `max_candidates` is outside [1, INT_MAX / 4]. */
    MappingResult map(const MappingRequest& req,
                      const CoreSet& free_cores) const;

    /**
     * Build a near-square mesh-ish request topology for `n` cores with
     * a boustrophedon (snake) dataflow order: node i connects to i+1,
     * plus mesh column links. This is the default virtual topology for
     * pipeline workloads.
     */
    static graph::Graph snake_topology(int n);

    /**
     * Total NoC hop distance realized by a virtual-to-physical
     * assignment, summed over the requested topology's edges. The
     * similar-topology strategy minimizes TED first and this second:
     * an unmatched virtual edge costs whatever hop distance its
     * endpoints land at, so the refinement keeps them close.
     */
    std::uint64_t wirelength(const graph::Graph& vtopo,
                             const std::vector<CoreId>& assignment) const;

  private:
    MappingResult map_exact(const MappingRequest& req,
                            const CoreSet& free) const;
    MappingResult map_straightforward(const MappingRequest& req,
                                      const CoreSet& free) const;
    MappingResult map_similar(const MappingRequest& req, const CoreSet& free,
                              bool allow_fragmented) const;

    /** TED of `assignment` (virtual core v on physical core
     *  assignment[v]) against the mesh links among its cores; equals
     *  `ged_mapping_cost` on the induced region, bit for bit. */
    double assignment_ted(const MappingRequest& req,
                          const std::vector<CoreId>& assignment) const;

    /** 2-opt swaps of the assignment minimizing wirelength. */
    void refine_wirelength(const graph::Graph& vtopo,
                           std::vector<CoreId>& assignment) const;

    // ---- Candidate-score memo (funnel stage 3) -----------------------
    // Keyed by (order-dependent request structure hash, candidate
    // region); fragmentation churn re-offers the same regions, so prior
    // GED results are reused verbatim. See docs/sim_kernel.md.
    struct MemoKey {
        std::uint64_t req_hash;
        CoreSet region;
        bool
        operator==(const MemoKey& o) const
        {
            return req_hash == o.req_hash && region == o.region;
        }
    };
    struct MemoKeyHash {
        std::size_t
        operator()(const MemoKey& k) const
        {
            return k.region.hash() ^
                   (k.req_hash * 0x9e3779b97f4a7c15ULL);
        }
    };
    struct MemoEntry {
        double cost; ///< infinity when no bijection beat `run_bound`.
        std::vector<int> mapping;
        /** Exact-search prune bound in force when `cost` was computed:
         *  infinity marks a bound-independent (exact) result; a finite
         *  value only proves "true minimum >= run_bound". */
        double run_bound;
    };
    /** Size-bounded (flushed when full); mutable: map() is logically
     *  const and the memo is a pure cache. */
    mutable std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> memo_;

    /** Mesh cores with an east neighbour (x < W - 1): the exact
     *  slide's anchor mask (docs/sim_kernel.md, "Exact mapping"). */
    CoreSet has_east_;
    const noc::MeshTopology& topo_;
};

} // namespace vnpu::hyp

#endif // VNPU_HYP_TOPOLOGY_MAPPER_H
