#include "graph/ged.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "sim/log.h"

namespace vnpu::graph {

namespace {

double
node_cost_of(const GedOptions& opt, int a, int b)
{
    if (opt.node_cost)
        return opt.node_cost(a, b);
    return a == b ? 0.0 : 1.0;
}

double
edge_del_cost_of(const GedOptions& opt, int u, int v)
{
    if (opt.edge_del_cost)
        return opt.edge_del_cost(u, v);
    return 1.0;
}

/**
 * Compact adjacency mirror of a Graph for the GED inner loops: a dense
 * bitmatrix (ceil(n/64) words per row, vs the 16-word `NodeMask` rows)
 * plus flat ascending neighbor lists, so `has()` is one shift and a
 * neighbor walk touches only real neighbors. Iteration order is
 * ascending node id throughout — identical to `NodeMask` traversal — so
 * every floating-point accumulation below happens in the same order as
 * before this mirror existed and results stay bit-identical.
 */
struct DenseGraph {
    int n = 0;
    int wpr = 0; ///< bitmatrix words per row
    std::vector<std::uint64_t> bits;
    std::vector<int> nbr;     ///< concatenated ascending neighbor lists
    std::vector<int> nbr_off; ///< nbr_off[v]..nbr_off[v+1] spans node v
    std::vector<int> label;
    int num_edges = 0;

    explicit DenseGraph(const Graph& g)
        : n(g.num_nodes()), wpr((n + 63) >> 6)
    {
        bits.assign(static_cast<std::size_t>(n) * wpr, 0);
        nbr_off.assign(n + 1, 0);
        label.resize(n);
        int total = 0;
        for (int v = 0; v < n; ++v) {
            label[v] = g.label(v);
            total += g.degree(v);
        }
        nbr.reserve(total);
        for (int v = 0; v < n; ++v) {
            nbr_off[v] = static_cast<int>(nbr.size());
            for (int u : g.neighbors(v)) {
                nbr.push_back(u);
                bits[static_cast<std::size_t>(v) * wpr + (u >> 6)] |=
                    std::uint64_t{1} << (u & 63);
            }
        }
        nbr_off[n] = static_cast<int>(nbr.size());
        num_edges = total / 2;
    }

    /**
     * The subgraph of `host` induced by `mask`, nodes renumbered in
     * ascending id order — the same graph (labels, adjacency, order)
     * `DenseGraph(host.induced(Graph::mask_to_nodes(mask)))` builds,
     * without materializing the intermediate `Graph`.
     */
    DenseGraph(const Graph& host, const NodeMask& mask)
    {
        static thread_local std::vector<int> rank;
        static thread_local std::vector<int> ids;
        rank.resize(host.num_nodes());
        ids.clear();
        for (int v : mask) {
            rank[v] = static_cast<int>(ids.size());
            ids.push_back(v);
        }
        n = static_cast<int>(ids.size());
        wpr = (n + 63) >> 6;
        bits.assign(static_cast<std::size_t>(n) * wpr, 0);
        nbr_off.assign(n + 1, 0);
        label.resize(n);
        int total = 0;
        for (int i = 0; i < n; ++i) {
            label[i] = host.label(ids[i]);
            nbr_off[i] = static_cast<int>(nbr.size());
            NodeMask nb = host.neighbors(ids[i]) & mask;
            for (int u : nb) {
                int r = rank[u]; // ascending ids => ascending ranks
                nbr.push_back(r);
                bits[static_cast<std::size_t>(i) * wpr + (r >> 6)] |=
                    std::uint64_t{1} << (r & 63);
                ++total;
            }
        }
        nbr_off[n] = static_cast<int>(nbr.size());
        num_edges = total / 2;
    }

    bool
    has(int a, int b) const
    {
        return (bits[static_cast<std::size_t>(a) * wpr + (b >> 6)] >>
                (b & 63)) &
               1;
    }

    int degree(int v) const { return nbr_off[v + 1] - nbr_off[v]; }
};

double
mapping_cost(const DenseGraph& req, const DenseGraph& cand,
             const std::vector<int>& mapping, const GedOptions& opt)
{
    double cost = 0.0;
    for (int v = 0; v < req.n; ++v)
        cost += node_cost_of(opt, req.label[v], cand.label[mapping[v]]);

    // req edges in (a ascending, b ascending) order — the order
    // Graph::edges() reports them in.
    int matched_edges = 0;
    for (int a = 0; a < req.n; ++a) {
        for (int i = req.nbr_off[a]; i < req.nbr_off[a + 1]; ++i) {
            int b = req.nbr[i];
            if (b <= a)
                continue;
            if (cand.has(mapping[a], mapping[b]))
                ++matched_edges;
            else
                cost += edge_del_cost_of(opt, a, b);
        }
    }
    int extra = cand.num_edges - matched_edges;
    cost += opt.edge_ins_cost * extra;
    return cost;
}

/** Branch-and-bound exact search over bijections. */
struct ExactSearch {
    const DenseGraph& req;
    const DenseGraph& cand;
    const GedOptions& opt;
    int n;
    std::vector<int> mapping;      // req node -> cand node, -1 unset
    std::vector<bool> used;        // cand node used
    std::vector<int> best_mapping;
    double best = std::numeric_limits<double>::infinity();

    /** Cost contributions of assigning req node v -> cand node c. */
    double
    incremental(int v, int c) const
    {
        double cost = node_cost_of(opt, req.label[v], cand.label[c]);
        // Edges between v and already-mapped req nodes.
        for (int u = 0; u < v; ++u) {
            bool e_req = req.has(u, v);
            bool e_cand = cand.has(mapping[u], c);
            if (e_req && !e_cand)
                cost += edge_del_cost_of(opt, u, v);
            else if (!e_req && e_cand)
                cost += opt.edge_ins_cost;
        }
        return cost;
    }

    void
    dfs(int v, double acc)
    {
        if (acc >= best)
            return;
        if (v == n) {
            // Account for candidate edges that involve at least one of
            // the, by now fully assigned, nodes and were not matched --
            // already handled incrementally, so acc is complete.
            best = acc;
            best_mapping = mapping;
            return;
        }
        for (int c = 0; c < n; ++c) {
            if (used[c])
                continue;
            double inc = incremental(v, c);
            if (acc + inc >= best)
                continue;
            mapping[v] = c;
            used[c] = true;
            dfs(v + 1, acc + inc);
            used[c] = false;
            mapping[v] = -1;
        }
    }
};

/** Default edit costs (unit node/edge terms), where every partial cost
 *  is a small integer and the integer kernels below apply. */
bool
default_costs(const GedOptions& opt)
{
    return !opt.node_cost && !opt.edge_del_cost && opt.edge_ins_cost == 1.0;
}

/** OR of bit `inv[c]` over the set bits c of `s` (n <= 64). */
std::uint64_t
preimages(std::uint64_t s, const int* inv)
{
    std::uint64_t r = 0;
    for (; s; s &= s - 1)
        r |= std::uint64_t{1} << inv[__builtin_ctzll(s)];
    return r;
}

/**
 * Integer twin of ExactSearch for default costs and n <= 64 (one
 * adjacency word per row). Assigning req node v -> cand node c costs
 * the label mismatch plus one edit per earlier req node u < v whose
 * edge to v disagrees with the edge between their images:
 *
 *   inc(v, c) = [label_v != label_c]
 *             + popcount((req_row[v] & below(v))
 *                        ^ preimages(cand_row[c] & used))
 *
 * where `inv[]` holds each used candidate's preimage. The DFS order,
 * the `>= best` prunes and the bound start are ExactSearch's;
 * every partial cost is a small integer, exactly representable, so each
 * comparison against the double bound decides as ExactSearch's does and
 * the result (cost and mapping) is bit-identical.
 */
struct ExactSearchInt {
    const std::uint64_t* rrow;
    const std::uint64_t* crow;
    const int* rlabel;
    const int* clabel;
    int n;
    double best; ///< the prune bound, then the best complete cost
    bool found = false;
    std::uint64_t used = 0;
    int map[64] = {};
    int inv[64] = {};
    int best_map[64] = {};

    void
    dfs(int v, int acc)
    {
        if (acc >= best)
            return;
        if (v == n) {
            best = acc;
            std::copy(map, map + n, best_map);
            found = true;
            return;
        }
        const std::uint64_t earlier =
            rrow[v] & ((std::uint64_t{1} << v) - 1); // v <= 63
        for (int c = 0; c < n; ++c) {
            if ((used >> c) & 1)
                continue;
            const int inc =
                (rlabel[v] != clabel[c]) +
                __builtin_popcountll(earlier ^ preimages(crow[c] & used, inv));
            if (acc + inc >= best)
                continue;
            map[v] = c;
            inv[c] = v;
            used |= std::uint64_t{1} << c;
            dfs(v + 1, acc + inc);
            used &= ~(std::uint64_t{1} << c);
        }
    }
};

/**
 * Cost change of swapping the images of req nodes `a` and `b`.
 * Only node terms of a/b and req edges incident to a or b change; the
 * edge (a, b) itself is invariant under the swap.
 */
double
swap_delta(const DenseGraph& req, const DenseGraph& cand,
           const std::vector<int>& map, const GedOptions& opt, int a, int b)
{
    double d = 0.0;
    d -= node_cost_of(opt, req.label[a], cand.label[map[a]]);
    d -= node_cost_of(opt, req.label[b], cand.label[map[b]]);
    d += node_cost_of(opt, req.label[a], cand.label[map[b]]);
    d += node_cost_of(opt, req.label[b], cand.label[map[a]]);

    auto edge_terms = [&](int x, int other, int new_img) {
        for (int i = req.nbr_off[x]; i < req.nbr_off[x + 1]; ++i) {
            int u = req.nbr[i];
            if (u == other)
                continue; // edge (a, b): unchanged by the swap
            bool old_matched = cand.has(map[x], map[u]);
            // After the swap, u != a and u != b keeps its image.
            bool new_matched = cand.has(new_img, map[u]);
            if (old_matched == new_matched)
                continue;
            // A req edge losing its image costs one deletion and turns
            // the orphaned candidate edge into one insertion.
            double toggle = edge_del_cost_of(opt, std::min(x, u),
                                             std::max(x, u)) +
                            opt.edge_ins_cost;
            d += old_matched ? toggle : -toggle;
        }
    };
    edge_terms(a, b, map[b]);
    edge_terms(b, a, map[a]);
    return d;
}

/**
 * BFS ordering starting from the highest-degree node, written into
 * `order` (scratch reused by hot callers; the queue doubles as the
 * output since BFS pops in push order).
 */
void
bfs_order_into(const DenseGraph& g, int start, std::vector<int>& order)
{
    static thread_local std::vector<char> seen;
    seen.assign(g.n, 0);
    order.clear();
    order.push_back(start);
    seen[start] = 1;
    for (std::size_t head = 0; head < order.size(); ++head) {
        int v = order[head];
        for (int i = g.nbr_off[v]; i < g.nbr_off[v + 1]; ++i) {
            int u = g.nbr[i];
            if (!seen[u]) {
                seen[u] = 1;
                order.push_back(u);
            }
        }
    }
    // Isolated / unreached nodes go last, in id order.
    if (static_cast<int>(order.size()) < g.n)
        for (int v = 0; v < g.n; ++v)
            if (!seen[v])
                order.push_back(v);
}

std::vector<int>
bfs_order(const DenseGraph& g, int start)
{
    std::vector<int> order;
    bfs_order_into(g, start, order);
    return order;
}

constexpr int kMaxTwoOptPasses = 24;

/**
 * 2-opt refinement of `map` toward a local cost minimum; returns the
 * refined mapping's cost. Two interchangeable implementations:
 *
 * Generic: evaluate `swap_delta` for every pair (a, b) in lexicographic
 * order, apply improving swaps immediately, repeat until a clean pass.
 *
 * Fast path (default costs, n <= 64): every quantity the generic path
 * accumulates is then a small integer — node terms are 0/1, an edge
 * toggle is exactly del(1) + ins(1) = 2.0 — so each IEEE addition is
 * exact and an integer recurrence reproduces the identical swap
 * sequence and the bit-identical final cost. The state lives in request
 * space: the candidate adjacency pulled back through the mapping,
 *
 *   pb[x] = {w : cand_row[map[x]] holds map[w]}   (symmetric in x, w)
 *   mc[x] = matched request edges at x = popcount(req_row[x] & pb[x])
 *
 * so a per-pair delta is two popcounts of request rows:
 *
 *   delta(a, b) = node terms
 *     + 2 * (mc[a] + mc[b] - 2*[b in req_row[a] & pb[a]]
 *            - popcount(pb[b] & req_row[a])
 *            - popcount(pb[a] & req_row[b]))
 *
 * (a's old matches excluding the swap-invariant (a, b) edge are mc[a]
 * minus that edge's match bit; its new matches are its neighbours
 * adjacent to b's old image, where the self-bit cannot occur;
 * symmetrically for b.) A swap is the transposition s = (a b) of
 * request nodes, after which pb'[x] = s(pb[s(x)]): rows a and b trade
 * places with their bits a and b exchanged, and any other row changes
 * only if it holds exactly one of those bits — i.e. x in pb[a] ^ pb[b]
 * — and then flips both. Only {a, b} and their request neighbours see
 * a changed mc. `inv[]` (each candidate's preimage) only seeds pb.
 *
 * When labels are uniform on each side, node terms vanish and two skips
 * apply, each to pairs with delta >= 0 only, so neither can change the
 * applied-swap sequence:
 *
 *  - both endpoints fully matched (mc == degree): old >= new termwise;
 *  - b outside a's gain set, i.e. both popcount terms are zero. Then
 *    delta = 2 * (mc[a] + mc[b] - 2*[a~b][map[a]~map[b]]) >= 0, since a
 *    matched (a, b) edge is counted in both mc[a] and mc[b]. A popcount
 *    term is nonzero iff b is in pb[u] for a request neighbour u of a,
 *    or b is a request neighbour of some w in pb[a], so
 *
 *      gain(a) = OR of pb[u] over u in req_row[a]
 *              | OR of req_row[w] over w in pb[a]
 *
 *    (two walks of at most a node's degree) is built once per a and
 *    rebuilt after each applied swap.
 */
double
approx_refine(const DenseGraph& req, const DenseGraph& cand,
              const GedOptions& opt, std::vector<int>& map)
{
    const int n = req.n;
    if (n > 64 || !default_costs(opt)) {
        double cost = mapping_cost(req, cand, map, opt);
        for (int pass = 0; pass < kMaxTwoOptPasses; ++pass) {
            bool improved = false;
            for (int a = 0; a < n; ++a) {
                for (int b = a + 1; b < n; ++b) {
                    double d = swap_delta(req, cand, map, opt, a, b);
                    if (d < -1e-12) {
                        std::swap(map[a], map[b]);
                        cost += d;
                        improved = true;
                    }
                }
            }
            if (!improved)
                break;
        }
        return cost;
    }

    const std::uint64_t* rrow = req.bits.data();  // wpr == 1
    const std::uint64_t* crow = cand.bits.data(); // wpr == 1
    bool req_uni = true, cand_uni = true;
    for (int v = 1; v < n; ++v) {
        req_uni = req_uni && req.label[v] == req.label[0];
        cand_uni = cand_uni && cand.label[v] == cand.label[0];
    }
    // Uniform per side is enough for zero node DELTAS (constant terms
    // cancel); the initial label-mismatch count stays general.
    const bool uniform = req_uni && cand_uni;

    std::uint64_t pb[64] = {};
    int mc[64] = {}, deg[64] = {}, inv[64] = {};
    for (int v = 0; v < n; ++v)
        inv[map[v]] = v;
    long long matched2 = 0; // 2x matched request edges
    long long label_mis = 0;
    std::uint64_t umask = 0; // nodes with an unmatched request edge
    for (int v = 0; v < n; ++v) {
        deg[v] = req.degree(v);
        pb[v] = preimages(crow[map[v]], inv);
        mc[v] = __builtin_popcountll(rrow[v] & pb[v]);
        matched2 += mc[v];
        if (mc[v] < deg[v])
            umask |= std::uint64_t{1} << v;
        if (req.label[v] != cand.label[map[v]])
            ++label_mis;
    }
    long long cost = label_mis + req.num_edges + cand.num_edges - matched2;

    auto update_node = [&](int x) {
        mc[x] = __builtin_popcountll(rrow[x] & pb[x]);
        if (mc[x] < deg[x])
            umask |= std::uint64_t{1} << x;
        else
            umask &= ~(std::uint64_t{1} << x);
    };

    // Pairs (a, b) that may improve; all of them unless labels are
    // uniform (see the gain-set skip above).
    auto gain_set = [&](int a) {
        if (!uniform)
            return ~std::uint64_t{0};
        std::uint64_t g = 0;
        for (std::uint64_t s = rrow[a]; s; s &= s - 1)
            g |= pb[__builtin_ctzll(s)];
        for (std::uint64_t s = pb[a]; s; s &= s - 1)
            g |= rrow[__builtin_ctzll(s)];
        if (!((umask >> a) & 1))
            g &= umask; // a fully matched: b must not be
        return g;
    };

    for (int pass = 0; pass < kMaxTwoOptPasses; ++pass) {
        bool improved = false;
        for (int a = 0; a < n; ++a) {
            std::uint64_t gain = gain_set(a);
            int b = a + 1;
            while (b < n) {
                // b <= 63 here (b < n <= 64), so the shift is safe.
                std::uint64_t rest = (gain >> b) << b;
                if (!rest)
                    break;
                b = __builtin_ctzll(rest);
                long long d =
                    2ll * (mc[a] + mc[b] -
                           2 * static_cast<int>((rrow[a] & pb[a]) >> b & 1) -
                           __builtin_popcountll(pb[b] & rrow[a]) -
                           __builtin_popcountll(pb[a] & rrow[b]));
                if (!uniform) {
                    const int la = req.label[a], lb = req.label[b];
                    const int ca = cand.label[map[a]];
                    const int cb = cand.label[map[b]];
                    d += (la != cb) + (lb != ca) - (la != ca) -
                         (lb != cb);
                }
                if (d < 0) {
                    std::swap(map[a], map[b]);
                    // pb'[x] = s(pb[s(x)]) for s = (a b).
                    const std::uint64_t ab =
                        (std::uint64_t{1} << a) | (std::uint64_t{1} << b);
                    for (std::uint64_t s = (pb[a] ^ pb[b]) & ~ab; s;
                         s &= s - 1)
                        pb[__builtin_ctzll(s)] ^= ab;
                    std::swap(pb[a], pb[b]);
                    for (std::uint64_t* r : {&pb[a], &pb[b]})
                        if (((*r >> a) ^ (*r >> b)) & 1)
                            *r ^= ab;
                    update_node(a);
                    update_node(b);
                    for (int i = req.nbr_off[a]; i < req.nbr_off[a + 1];
                         ++i)
                        update_node(req.nbr[i]);
                    for (int i = req.nbr_off[b]; i < req.nbr_off[b + 1];
                         ++i)
                        update_node(req.nbr[i]);
                    cost += d;
                    improved = true;
                    gain = gain_set(a);
                }
                ++b;
            }
        }
        if (!improved)
            break;
    }
    return static_cast<double>(cost);
}

/**
 * Seeded approximate search over one (request, candidate) pair with
 * the request-side state (degree-sorted anchors, per-seed BFS orders)
 * precomputed by the caller — `approx_ged` derives it per call, a
 * `GedScorer` hoists it across candidates.
 */
GedResult
approx_core(const DenseGraph& dreq, const DenseGraph& dcand,
            const GedOptions& opt,
            const std::vector<std::vector<int>>& req_orders)
{
    const int n = dreq.n;
    GedResult best;
    best.cost = std::numeric_limits<double>::infinity();

    static thread_local std::vector<int> cand_anchors, mapping, co;
    cand_anchors.resize(n);
    std::iota(cand_anchors.begin(), cand_anchors.end(), 0);
    std::stable_sort(cand_anchors.begin(), cand_anchors.end(),
                     [&](int a, int b) {
                         return dcand.degree(a) > dcand.degree(b);
                     });

    mapping.resize(n);
    for (int s = 0; s < kGedApproxSeeds; ++s) {
        const std::vector<int>& ro = req_orders[s];
        bfs_order_into(dcand, cand_anchors[s % n], co);
        for (int i = 0; i < n; ++i)
            mapping[ro[i]] = co[i];

        double cost = approx_refine(dreq, dcand, opt, mapping);
        if (cost < best.cost) {
            best.cost = cost;
            best.mapping = mapping;
        }
        if (best.cost == 0.0)
            break; // exact topology match, cannot improve
    }
    return best;
}

/** Branch-and-bound minimum over bijections (shared by entry points),
 *  pruned at `bound` (`exact_ged`'s bound semantics). */
GedResult
exact_core(const DenseGraph& dreq, const DenseGraph& dcand,
           const GedOptions& opt, double bound)
{
    const int n = dreq.n;
    if (n <= 64 && default_costs(opt)) {
        ExactSearchInt search{dreq.bits.data(), dcand.bits.data(),
                              dreq.label.data(), dcand.label.data(), n,
                              bound};
        search.dfs(0, 0);
        if (!search.found)
            return {std::numeric_limits<double>::infinity(), {}};
        return {search.best,
                std::vector<int>(search.best_map, search.best_map + n)};
    }
    ExactSearch search{dreq,
                       dcand,
                       opt,
                       n,
                       std::vector<int>(n, -1),
                       std::vector<bool>(n, false),
                       {},
                       bound};
    search.dfs(0, 0.0);
    if (search.best_mapping.empty())
        return {std::numeric_limits<double>::infinity(), {}};
    return {search.best, search.best_mapping};
}

/** Request anchors (degree-sorted) and per-seed BFS orders. */
void
req_side_state(const DenseGraph& dreq, std::vector<int>& anchors,
               std::vector<std::vector<int>>& orders)
{
    const int n = dreq.n;
    anchors.resize(n);
    std::iota(anchors.begin(), anchors.end(), 0);
    std::stable_sort(anchors.begin(), anchors.end(), [&](int a, int b) {
        return dreq.degree(a) > dreq.degree(b);
    });
    orders.resize(kGedApproxSeeds);
    for (int s = 0; s < kGedApproxSeeds; ++s)
        orders[s] = bfs_order(dreq, anchors[s % n]);
}

} // namespace

double
ged_mapping_cost(const Graph& req, const Graph& cand,
                 const std::vector<int>& mapping, const GedOptions& opt)
{
    VNPU_ASSERT(static_cast<int>(mapping.size()) == req.num_nodes());
    VNPU_ASSERT(req.num_nodes() == cand.num_nodes());
    DenseGraph dreq(req), dcand(cand);
    return mapping_cost(dreq, dcand, mapping, opt);
}

GedResult
exact_ged(const Graph& req, const Graph& cand, const GedOptions& opt,
          double bound)
{
    VNPU_ASSERT(req.num_nodes() == cand.num_nodes());
    if (req.num_nodes() == 0)
        return {0.0, {}};
    DenseGraph dreq(req), dcand(cand);
    return exact_core(dreq, dcand, opt, bound);
}

GedResult
approx_ged(const Graph& req, const Graph& cand, const GedOptions& opt)
{
    VNPU_ASSERT(req.num_nodes() == cand.num_nodes());
    if (req.num_nodes() == 0)
        return {0.0, {}};
    DenseGraph dreq(req), dcand(cand);
    std::vector<int> anchors;
    std::vector<std::vector<int>> orders;
    req_side_state(dreq, anchors, orders);
    return approx_core(dreq, dcand, opt, orders);
}

GedResult
ged(const Graph& req, const Graph& cand, const GedOptions& opt)
{
    if (req.num_nodes() <= kGedExactLimit)
        return exact_ged(req, cand, opt);
    return approx_ged(req, cand, opt);
}

struct GedScorer::Impl {
    GedOptions opt;
    DenseGraph dreq;
    std::vector<int> req_anchors;
    std::vector<std::vector<int>> req_orders;

    Impl(const Graph& req, const GedOptions& o) : opt(o), dreq(req)
    {
        if (dreq.n > 0)
            req_side_state(dreq, req_anchors, req_orders);
    }
};

GedScorer::GedScorer(const Graph& req, const GedOptions& opt)
    : impl_(std::make_unique<Impl>(req, opt))
{
}

GedScorer::~GedScorer() = default;

GedResult
GedScorer::score_subset(const Graph& host, const NodeMask& mask,
                        double bound) const
{
    const Impl& im = *impl_;
    if (im.dreq.n == 0)
        return {0.0, {}};
    DenseGraph dcand(host, mask);
    VNPU_ASSERT(dcand.n == im.dreq.n);
    if (im.dreq.n <= kGedExactLimit)
        return exact_core(im.dreq, dcand, im.opt, bound);
    return approx_core(im.dreq, dcand, im.opt, im.req_orders);
}

GedProfile
ged_profile(const Graph& g)
{
    GedProfile p;
    p.degrees_desc = g.degree_sequence();
    p.labels_sorted.reserve(g.num_nodes());
    for (int v = 0; v < g.num_nodes(); ++v)
        p.labels_sorted.push_back(g.label(v));
    std::sort(p.labels_sorted.begin(), p.labels_sorted.end());
    p.num_edges = g.num_edges();
    return p;
}

double
ged_lower_bound(const GedProfile& req, const GedProfile& cand,
                const GedOptions& opt)
{
    VNPU_ASSERT(req.degrees_desc.size() == cand.degrees_desc.size());
    const int n = static_cast<int>(req.degrees_desc.size());
    double lb = 0.0;

    // Node term: minimum label mismatches over all bijections = the
    // label-multiset difference (count elements of req's multiset not
    // present in cand's). Each mismatch costs 1 by default; an arbitrary
    // node_cost admits no bound.
    if (!opt.node_cost) {
        int i = 0, j = 0, common = 0;
        while (i < n && j < n) {
            if (req.labels_sorted[i] == cand.labels_sorted[j]) {
                ++common, ++i, ++j;
            } else if (req.labels_sorted[i] < cand.labels_sorted[j]) {
                ++i;
            } else {
                ++j;
            }
        }
        lb += static_cast<double>(n - common);
    }

    // Edge term. A bijection pairing sorted degree sequences minimizes
    // the total degree discrepancy (rearrangement inequality), and each
    // edge edit fixes at most two endpoint-degree units, so edits >=
    // ceil(sum |delta d| / 2). Independently, edits >= |E_req - E_cand|.
    const double ins = std::max(0.0, opt.edge_ins_cost);
    const int e_gap = cand.num_edges - req.num_edges;
    if (!opt.edge_del_cost) {
        int dd = 0;
        for (int v = 0; v < n; ++v)
            dd += std::abs(req.degrees_desc[v] - cand.degrees_desc[v]);
        const int edits = std::max((dd + 1) / 2, std::abs(e_gap));
        const double unit = std::min(1.0, ins);
        // Split bound: guaranteed deletions cost 1, guaranteed
        // insertions cost edge_ins; take the better of the two forms.
        const double split = std::max(0, -e_gap) * 1.0 +
                             std::max(0, e_gap) * ins;
        lb += std::max(edits * unit, split);
    } else {
        // Custom deletion cost: only the guaranteed insertions remain
        // bounded from below.
        lb += std::max(0, e_gap) * ins;
    }
    return lb;
}

double
ged_lower_bound(const Graph& req, const Graph& cand, const GedOptions& opt)
{
    return ged_lower_bound(ged_profile(req), ged_profile(cand), opt);
}

} // namespace vnpu::graph
