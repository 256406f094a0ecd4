#include "graph/enumerate.h"

#include <algorithm>

#include "sim/log.h"

namespace vnpu::graph {

namespace {

/**
 * Mask-representation shim shared by the subset enumerator and the
 * induced-isomorphism search: plain `uint64_t` words for sets of at
 * most 64 nodes, wide `NodeMask`s otherwise. Both representations
 * traverse bits in ascending order.
 */
template <typename M>
struct Ops;

template <>
struct Ops<std::uint64_t> {
    static bool any(std::uint64_t m) { return m != 0; }
    static int
    pop_lowest(std::uint64_t& m)
    {
        const int b = __builtin_ctzll(m);
        m &= m - 1;
        return b;
    }
    static std::uint64_t of(int b) { return std::uint64_t{1} << b; }
    static std::uint64_t
    first_n(int n)
    {
        return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    }
    static std::uint64_t
    andnot(std::uint64_t a, std::uint64_t b)
    {
        return a & ~b;
    }
    static int count(std::uint64_t m) { return __builtin_popcountll(m); }
    static std::uint64_t narrow(const NodeMask& m) { return m.word(0); }
};

template <>
struct Ops<NodeMask> {
    static bool any(const NodeMask& m) { return m.any(); }
    static int pop_lowest(NodeMask& m) { return m.pop_lowest(); }
    static NodeMask of(int b) { return NodeMask::of(b); }
    static NodeMask first_n(int n) { return NodeMask::first_n(n); }
    static NodeMask
    andnot(const NodeMask& a, const NodeMask& b)
    {
        return a.andnot(b);
    }
    static int count(const NodeMask& m) { return m.count(); }
    static const NodeMask& narrow(const NodeMask& m) { return m; }
};

/**
 * One root's expansion domain: adjacency and allowed set on masks of
 * type M. On one-word masks, bit i stands for node `ids[i]`, or with no
 * `ids` for node i.
 */
template <typename M>
struct Domain {
    const M* adj;
    M allowed;
    const int* ids = nullptr;
};

/**
 * Recursive exclusive-neighborhood expansion. `sub` is the current
 * connected set; `ext` are nodes that may still be added (all > root
 * in id order or discovered through the subgraph), guaranteeing each
 * vertex set is generated exactly once. One Enumerator carries the
 * progress and stop state across every root of a call, whichever mask
 * width each root runs on.
 */
struct Enumerator {
    int k;
    const std::function<bool(const NodeMask&)>& cb;
    std::uint64_t max_results;
    std::uint64_t step_budget;
    std::uint64_t produced = 0;
    std::uint64_t steps = 0;
    bool stopped = false;

    bool
    report(const Domain<NodeMask>&, const NodeMask& sub)
    {
        return cb(sub);
    }

    // Out of line: a small extend() lets the compiler inline a few
    // levels of its recursion, which the short walks of small k (and
    // small graphs) depend on.
    [[gnu::noinline]] bool
    report(const Domain<std::uint64_t>& d, std::uint64_t sub)
    {
        if (d.ids == nullptr)
            return cb(NodeMask::from_word(sub));
        NodeMask out;
        for (; sub != 0; sub &= sub - 1)
            out.set(d.ids[__builtin_ctzll(sub)]);
        return cb(out);
    }

    template <typename M>
    void
    extend(const Domain<M>& d, const M& sub, M ext, M forbidden, int depth)
    {
        if (stopped)
            return;
        // When results are capped, also bound the search-tree walk:
        // for k close to |allowed| the output set is tiny but the DFS
        // tree of smaller connected subsets is exponential.
        if (++steps > step_budget) {
            stopped = true;
            return;
        }
        if (depth == k) {
            ++produced;
            if (!report(d, sub) || produced >= max_results)
                stopped = true;
            return;
        }
        while (Ops<M>::any(ext) && !stopped) {
            const int w = Ops<M>::pop_lowest(ext);
            const M wbit = Ops<M>::of(w);
            // Nodes considered at this level may not be re-added deeper:
            // they become forbidden, which removes duplicates. `w` is
            // already out of `ext` and lands in the forbidden set, so
            // the extension set needs no explicit `~wbit`.
            M new_forbidden = forbidden | wbit | ext;
            M new_ext =
                ext | Ops<M>::andnot(d.adj[w] & d.allowed, new_forbidden);
            extend(d, sub | wbit, new_ext, new_forbidden, depth + 1);
            forbidden |= wbit;
        }
    }

    /** Every subset whose lowest node is `root`; lower nodes are
     *  excluded so each subset is found from its min node. */
    template <typename M>
    void
    run_root(const Domain<M>& d, int root)
    {
        const M forbidden = Ops<M>::first_n(root + 1);
        extend(d, Ops<M>::of(root),
               Ops<M>::andnot(d.adj[root] & d.allowed, forbidden), forbidden,
               1);
    }
};

/**
 * VF2-style backtracking state. Pattern vertices are placed in a fixed
 * most-constrained-first `order`; the candidate set for a vertex is the
 * common host neighborhood of its already-placed pattern neighbors
 * intersected with its precomputed degree/label-compatible hosts. The
 * induced property is enforced by one mask equality per attempt:
 * `hadj[h] & used == req` says h touches exactly the images of the
 * vertex's placed pattern neighbors, no other placed node.
 */
template <typename M>
struct IsoSearcher {
    const std::vector<M>& hadj;
    int k;
    const std::vector<int>& order;
    /** earlier[v]: pattern neighbors of v placed before v in `order`. */
    const std::vector<std::vector<int>>& earlier;
    /** compat[v]: allowed hosts passing the degree/label prefilter. */
    const std::vector<M>& compat;
    std::uint64_t max_steps;

    std::vector<int> img;
    M used{};
    std::uint64_t steps = 0;
    bool exhausted = false;

    bool
    dfs(int pos)
    {
        if (pos == k)
            return true;
        const int v = order[pos];
        M req{};
        M cand;
        if (earlier[v].empty()) {
            // Anchor (or a new component): any unused compatible host.
            cand = Ops<M>::andnot(compat[v], used);
        } else {
            cand = hadj[img[earlier[v].front()]];
            req = Ops<M>::of(img[earlier[v].front()]);
            for (std::size_t i = 1; i < earlier[v].size(); ++i) {
                const int h = img[earlier[v][i]];
                cand = cand & hadj[h];
                req = req | Ops<M>::of(h);
            }
            cand = Ops<M>::andnot(cand & compat[v], used);
        }
        while (Ops<M>::any(cand)) {
            if (++steps > max_steps) {
                exhausted = true;
                return false;
            }
            const int h = Ops<M>::pop_lowest(cand);
            if (!(M(hadj[h] & used) == req))
                continue; // would break the induced property
            img[v] = h;
            used = used | Ops<M>::of(h);
            if (dfs(pos + 1))
                return true;
            if (exhausted)
                return false;
            used = Ops<M>::andnot(used, Ops<M>::of(h));
        }
        return false;
    }
};

template <typename M>
IsoResult
iso_search(const Graph& pattern, const Graph& host, const NodeMask& allowed,
           const IsoOptions& opt)
{
    IsoResult res;
    const int k = pattern.num_nodes();
    const int n = host.num_nodes();

    std::vector<M> hadj(n);
    for (int v = 0; v < n; ++v)
        hadj[v] = Ops<M>::narrow(host.neighbors(v));
    const M wide_allowed = Ops<M>::narrow(allowed);

    // Host degrees restricted to the allowed region: every image of a
    // pattern neighbor also lands in `allowed`.
    std::vector<int> hdeg(n, 0);
    std::vector<int> hseq;
    hseq.reserve(allowed.count());
    for (int h : allowed) {
        hdeg[h] = Ops<M>::count(hadj[h] & wide_allowed);
        hseq.push_back(hdeg[h]);
    }

    // Degree-sequence prefilter: the i-th largest pattern degree must
    // fit under the i-th largest allowed host degree.
    std::vector<int> pseq = pattern.degree_sequence();
    std::sort(hseq.begin(), hseq.end(), std::greater<int>());
    if (pseq.size() > hseq.size())
        return res;
    for (std::size_t i = 0; i < pseq.size(); ++i)
        if (pseq[i] > hseq[i])
            return res;

    // Per-vertex candidate hosts under degree and label compatibility.
    std::vector<M> compat(k);
    for (int p = 0; p < k; ++p) {
        const int pd = pattern.degree(p);
        M m{};
        for (int h : allowed) {
            if (hdeg[h] < pd)
                continue;
            if (opt.node_compat
                    ? !opt.node_compat(pattern.label(p), host.label(h))
                    : pattern.label(p) != host.label(h))
                continue;
            m = m | Ops<M>::of(h);
        }
        if (!Ops<M>::any(m))
            return res; // some pattern vertex has no possible host
        compat[p] = m;
    }

    // Most-constrained-first order: maximize placed neighbors (frontier
    // growth), then degree; ties break on the lowest id (deterministic).
    std::vector<int> order;
    order.reserve(k);
    std::vector<std::vector<int>> earlier(k);
    std::vector<char> placed(k, 0);
    std::vector<int> placed_nbrs(k, 0);
    for (int pos = 0; pos < k; ++pos) {
        int best = -1;
        for (int v = 0; v < k; ++v) {
            if (placed[v])
                continue;
            if (best < 0 || placed_nbrs[v] > placed_nbrs[best] ||
                (placed_nbrs[v] == placed_nbrs[best] &&
                 pattern.degree(v) > pattern.degree(best)))
                best = v;
        }
        for (int u : pattern.neighbors(best))
            if (placed[u])
                earlier[best].push_back(u);
        placed[best] = 1;
        order.push_back(best);
        for (int u : pattern.neighbors(best))
            if (!placed[u])
                ++placed_nbrs[u];
    }

    IsoSearcher<M> s{hadj,  k,        order, earlier,
                     compat, opt.max_steps, std::vector<int>(k, -1)};
    const bool found = s.dfs(0);
    res.steps = s.steps;
    res.budget_exhausted = s.exhausted;
    if (found) {
        res.found = true;
        res.mapping = std::move(s.img);
    }
    return res;
}

} // namespace

IsoResult
find_induced_isomorphism(const Graph& pattern, const Graph& host,
                         const NodeMask& allowed, const IsoOptions& opt)
{
    IsoResult res;
    const int k = pattern.num_nodes();
    if (k == 0) {
        res.found = true;
        return res;
    }
    NodeMask in_host = allowed & NodeMask::first_n(host.num_nodes());
    if (in_host.count() < k)
        return res;
    if (host.num_nodes() <= 64)
        return iso_search<std::uint64_t>(pattern, host, in_host, opt);
    return iso_search<NodeMask>(pattern, host, in_host, opt);
}

std::uint64_t
enumerate_connected_subsets(const Graph& g, int k, const NodeMask& allowed,
                            const std::function<bool(const NodeMask&)>& cb,
                            std::uint64_t max_results)
{
    const int n = g.num_nodes();
    if (k <= 0 || k > n)
        return 0;
    Enumerator e{k, cb, max_results,
                 max_results == UINT64_MAX
                     ? UINT64_MAX
                     : std::max<std::uint64_t>(1'000'000, max_results * 256)};
    NodeMask todo = allowed & NodeMask::first_n(n);
    const Domain<NodeMask> wide{g.adjacency().data(), todo};

    // Every subset rooted at `root` lies within k-1 hops of it inside
    // todo ∪ {root}, and every ext set the expansion reads below depth
    // k holds only such nodes. A root whose reach fits in 64 nodes is
    // renumbered in ascending id order and expanded on one-word masks:
    // pop-lowest order, emitted sequence and step count are unchanged.
    int local[NodeMask::kCapacity] = {};
    int ids[64] = {};
    std::uint64_t ladj[64] = {};
    while (todo.any() && !e.stopped) {
        const int root = todo.pop_lowest();
        if (root < 64 && todo.next(64) == NodeMask::kCapacity) {
            // Every remaining allowed node has an id below 64 (in graphs
            // of at most 64 nodes, such as the default 6x6 chip, from the
            // first root on): bit i is node i already, so those roots
            // skip the per-root reach, which would cost more than their
            // short walks at small k.
            for (int v = 0; v < std::min(n, 64); ++v)
                ladj[v] = g.neighbors(v).word(0);
            const Domain<std::uint64_t> low{
                ladj, todo.word(0) | Ops<std::uint64_t>::of(root)};
            for (std::uint64_t r = low.allowed; r != 0 && !e.stopped;)
                e.run_root(low, Ops<std::uint64_t>::pop_lowest(r));
            break;
        }
        NodeMask reach = NodeMask::of(root);
        NodeMask frontier = reach;
        int size = 1;
        for (int hop = 1; hop < k && size <= 64 && frontier.any(); ++hop) {
            NodeMask next;
            for (int v : frontier)
                next |= g.neighbors(v);
            frontier = (next & todo).andnot(reach);
            reach |= frontier;
            size = reach.count();
        }
        if (size > 64) {
            e.run_root(wide, root);
            continue;
        }
        int m = 0;
        for (int v : reach) {
            local[v] = m;
            ids[m++] = v;
        }
        for (int i = 0; i < m; ++i) {
            std::uint64_t a = 0;
            for (int u : g.neighbors(ids[i]) & reach)
                a |= std::uint64_t{1} << local[u];
            ladj[i] = a;
        }
        e.run_root(Domain<std::uint64_t>{ladj, Ops<std::uint64_t>::first_n(m),
                                         ids},
                   0);
    }
    return e.produced;
}

std::uint64_t
count_connected_subsets(const Graph& g, int k, const NodeMask& allowed,
                        std::uint64_t cap)
{
    return enumerate_connected_subsets(
        g, k, allowed, [](const NodeMask&) { return true; }, cap);
}

std::vector<NodeMask>
sample_connected_subsets(const Graph& g, int k, const NodeMask& allowed,
                         int samples, Rng& rng)
{
    std::vector<NodeMask> out;
    const NodeMask in_graph = allowed & NodeMask::first_n(g.num_nodes());
    if (k <= 0 || in_graph.count() < k)
        return out;

    std::vector<int> seeds = Graph::mask_to_nodes(in_graph);
    // Word-windowed growth state. The legacy loop filtered the frontier
    // each step (`frontier = (frontier & allowed).andnot(sub)`) before
    // carrying it forward; carrying the unfiltered union F and masking
    // per step is equivalent — `allowed` is constant and `sub` only
    // grows, so an element removed by an early filter is removed by the
    // late one too. That makes every step a few words of work inside
    // the region's window instead of five full-width mask operations.
    std::uint64_t fr[NodeMask::kWords], sb[NodeMask::kWords];
    std::uint64_t aw[NodeMask::kWords];
    for (int wi = 0; wi < NodeMask::kWords; ++wi)
        aw[wi] = in_graph.word(wi);
    for (int s = 0; s < samples; ++s) {
        int seed = seeds[s % seeds.size()];
        std::fill(fr, fr + NodeMask::kWords, 0);
        std::fill(sb, sb + NodeMask::kWords, 0);
        sb[seed >> 6] = std::uint64_t{1} << (seed & 63);
        int wlo = NodeMask::kWords, whi = -1;
        {
            const NodeMask& nb = g.neighbors(seed);
            for (int wi = 0; wi < NodeMask::kWords; ++wi) {
                if (std::uint64_t w = nb.word(wi)) {
                    fr[wi] = w;
                    wlo = std::min(wlo, wi);
                    whi = std::max(whi, wi);
                }
            }
        }
        // Randomized growth: repeatedly add a random frontier node.
        // One rng draw per step, uniform over the live frontier in
        // ascending id order: the exact draw sequence (and output) of
        // the full-width CoreSet count()/nth() implementation.
        bool dead = false;
        int size = 1;
        for (; size < k; ++size) {
            std::uint64_t live[NodeMask::kWords];
            int count = 0;
            for (int wi = wlo; wi <= whi; ++wi) {
                live[wi] = fr[wi] & aw[wi] & ~sb[wi];
                count += __builtin_popcountll(live[wi]);
            }
            if (count == 0) {
                dead = true;
                break; // dead end; try next seed
            }
            int r = static_cast<int>(rng.next_below(count));
            int pw = wlo;
            while (true) {
                int pc = __builtin_popcountll(live[pw]);
                if (r < pc)
                    break;
                r -= pc;
                ++pw;
            }
            std::uint64_t w = live[pw];
            while (r--)
                w &= w - 1;
            int pick = (pw << 6) + __builtin_ctzll(w);
            sb[pick >> 6] |= std::uint64_t{1} << (pick & 63);
            const NodeMask& nb = g.neighbors(pick);
            for (int wi = 0; wi < NodeMask::kWords; ++wi) {
                if (std::uint64_t nw = nb.word(wi)) {
                    fr[wi] |= nw;
                    wlo = std::min(wlo, wi);
                    whi = std::max(whi, wi);
                }
            }
        }
        if (!dead && size == k) {
            NodeMask sub;
            for (int wi = 0; wi < NodeMask::kWords; ++wi) {
                std::uint64_t w = sb[wi];
                while (w) {
                    sub.set((wi << 6) + __builtin_ctzll(w));
                    w &= w - 1;
                }
            }
            out.push_back(sub);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::uint64_t
binomial(std::uint64_t n, std::uint64_t k)
{
    if (k > n)
        return 0;
    k = std::min(k, n - k);
    // 128-bit intermediates: C(n, i) * num can exceed 64 bits even when
    // the final value fits.
    unsigned __int128 result = 1;
    for (std::uint64_t i = 1; i <= k; ++i) {
        std::uint64_t num = n - k + i;
        result = result * num / i;
        if (result > static_cast<unsigned __int128>(UINT64_MAX))
            return UINT64_MAX;
    }
    return static_cast<std::uint64_t>(result);
}

} // namespace vnpu::graph
