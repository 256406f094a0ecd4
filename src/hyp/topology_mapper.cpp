#include "hyp/topology_mapper.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "obs/prof.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/task_pool.h"

namespace vnpu::hyp {

const char*
to_string(MappingStrategy s)
{
    switch (s) {
      case MappingStrategy::kExact:           return "exact";
      case MappingStrategy::kStraightforward: return "straightforward";
      case MappingStrategy::kSimilarTopology: return "similar-topology";
      case MappingStrategy::kFragmented:      return "fragmented";
    }
    return "?";
}

TopologyMapper::TopologyMapper(const noc::MeshTopology& topo)
    : has_east_(CoreSet::first_n(topo.num_nodes())), topo_(topo)
{
    for (int y = 0; y < topo.height(); ++y)
        has_east_.reset(topo.id_of(topo.width() - 1, y));
}

graph::Graph
TopologyMapper::snake_topology(int n)
{
    VNPU_ASSERT(n > 0 && n <= kMaxCores);
    const int w =
        static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));

    // Snake node at grid cell (c, r): boustrophedon rows.
    auto node_at = [w](int c, int r) {
        return r * w + (r % 2 == 1 ? w - 1 - c : c);
    };

    // Link each node to its east and south cells when they hold nodes.
    graph::Graph g(n);
    for (int i = 0; i < n; ++i) {
        const int r = i / w;
        const int c = r % 2 == 1 ? w - 1 - i % w : i % w;
        if (c + 1 < w && node_at(c + 1, r) < n)
            g.add_edge(i, node_at(c + 1, r));
        if (node_at(c, r + 1) < n)
            g.add_edge(i, node_at(c, r + 1));
    }
    return g;
}

MappingResult
TopologyMapper::map(const MappingRequest& req, const CoreSet& free_cores) const
{
    const int k = req.vtopo.num_nodes();
    if (k <= 0) {
        MappingResult r;
        r.error = "empty request";
        return r;
    }
    if (free_cores.count() < k) {
        MappingResult r;
        r.error = "not enough free cores";
        return r;
    }

    switch (req.strategy) {
      case MappingStrategy::kExact:
        return map_exact(req, free_cores);
      case MappingStrategy::kStraightforward:
        return map_straightforward(req, free_cores);
      case MappingStrategy::kSimilarTopology:
        return map_similar(req, free_cores, /*allow_fragmented=*/false);
      case MappingStrategy::kFragmented:
        return map_similar(req, free_cores, /*allow_fragmented=*/true);
    }
    panic("unknown mapping strategy");
}

namespace {

/**
 * Flat open-addressing set of 64-bit topology hashes (linear probing,
 * power-of-two capacity, 0 reserved as the empty slot). Replaces the
 * `std::set<std::uint64_t>` that allocated a red-black node per insert
 * on the per-candidate dedup hot path.
 */
class HashSet64 {
  public:
    explicit HashSet64(std::size_t expect)
    {
        std::size_t cap = 16;
        while (cap < expect * 2)
            cap <<= 1;
        slots_.assign(cap, 0);
    }

    /** True when `h` was newly inserted. */
    bool
    insert(std::uint64_t h)
    {
        if (h == 0) { // hash 0 cannot live in a 0-means-empty table
            bool fresh = !has_zero_;
            has_zero_ = true;
            return fresh;
        }
        if ((size_ + 1) * 10 >= slots_.size() * 7)
            grow();
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = (h * 0x9e3779b97f4a7c15ULL) >> 7 & mask;
        while (slots_[i] != 0) {
            if (slots_[i] == h)
                return false;
            i = (i + 1) & mask;
        }
        slots_[i] = h;
        ++size_;
        return true;
    }

  private:
    void
    grow()
    {
        std::vector<std::uint64_t> old = std::move(slots_);
        slots_.assign(old.size() * 2, 0);
        const std::size_t mask = slots_.size() - 1;
        for (std::uint64_t h : old) {
            if (h == 0)
                continue;
            std::size_t i = (h * 0x9e3779b97f4a7c15ULL) >> 7 & mask;
            while (slots_[i] != 0)
                i = (i + 1) & mask;
            slots_[i] = h;
        }
    }

    std::vector<std::uint64_t> slots_;
    std::size_t size_ = 0;
    bool has_zero_ = false;
};

/**
 * Streaming candidate collector. The legacy collector ran bounded exact
 * enumeration and then the deterministic sampler in one shot; splitting
 * the phases lets the scorer consume the enumerated candidates first
 * and skip the sampler entirely when they already contain a TED-0
 * winner (the sampled tail could never have been reached: the scorer
 * early-exits at the first zero-cost hash-equal candidate).
 *
 * Masks are WL-hashed on the pool in batches of `kHashBatch`, then
 * deduplicated in emission order; the dedup stops at the candidate cap
 * exactly where a mask-at-a-time walk would, and masks past the cut
 * are dropped uncounted (docs/sim_kernel.md, "Parallel determinism
 * invariant").
 */
struct CandidateCollector {
    static constexpr std::size_t kHashBatch = 64;

    const MappingRequest& req;
    const CoreSet& free;
    const graph::Graph& mesh;
    HashSet64 dedup; // "one instance per topology"
    std::vector<graph::NodeMask> masks;
    std::vector<std::uint64_t> hashes; ///< wl_hash_subset per mask
    std::uint64_t seen = 0; ///< masks the dedup consumed
    bool sampling_pending = false;

    CandidateCollector(const MappingRequest& r, const CoreSet& f,
                       const graph::Graph& m)
        : req(r), free(f), mesh(m),
          dedup(static_cast<std::size_t>(
              std::min<std::uint64_t>(r.max_candidates * 2, 4096)))
    {
    }

    /** Dedup `n` hashed masks in order until `masks` holds `cap`;
     *  false once the cap is reached (the rest are dropped). */
    bool
    absorb(const graph::NodeMask* m, const std::uint64_t* h, std::size_t n,
           std::size_t cap)
    {
        VNPU_PROF("funnel.wl_dedup");
        for (std::size_t i = 0; i < n; ++i) {
            ++seen;
            if (!dedup.insert(h[i]))
                continue; // duplicate shape, prune
            masks.push_back(m[i]);
            hashes.push_back(h[i]);
            if (masks.size() >= cap)
                return false;
        }
        return true;
    }

    /** Hash `batch` on the pool kHashBatch masks at a time and absorb
     *  each slice; false once the cap is reached. */
    bool
    consume(const std::vector<graph::NodeMask>& batch, std::size_t cap)
    {
        std::vector<std::uint64_t> h(std::min(batch.size(), kHashBatch));
        for (std::size_t lo = 0; lo < batch.size(); lo += kHashBatch) {
            const std::size_t n = std::min(batch.size() - lo, kHashBatch);
            TaskPool::instance().parallel_for(
                0, static_cast<int>(n), [&](int i) {
                    VNPU_PROF("funnel.wl_hash");
                    h[i] = mesh.wl_hash_subset(batch[lo + i]);
                });
            if (!absorb(&batch[lo], h.data(), n, cap))
                return false;
        }
        return true;
    }

    void
    enumerate_phase()
    {
        VNPU_PROF("funnel.enumerate");
        const int k = req.vtopo.num_nodes();
        // Whole-free-set request: exactly one candidate exists.
        if (k == free.count()) {
            if (mesh.is_connected_subset(free)) {
                masks.push_back(free);
                hashes.push_back(mesh.wl_hash_subset(free));
            }
            seen = 1;
            return;
        }
        const std::size_t cap = req.max_candidates;
        std::vector<graph::NodeMask> pending;
        auto cb = [&](const graph::NodeMask& m) {
            pending.push_back(m);
            if (pending.size() < kHashBatch)
                return true;
            const bool more = consume(pending, cap);
            pending.clear();
            return more;
        };
        // Exact enumeration while cheap; otherwise deterministic
        // sampling (deferred to draw_samples).
        std::uint64_t space = graph::binomial(free.count(), k);
        if (space <= 200000) {
            graph::enumerate_connected_subsets(mesh, k, free, cb,
                                               req.max_candidates * 512);
        } else {
            graph::enumerate_connected_subsets(mesh, k, free, cb,
                                               req.max_candidates * 4);
            sampling_pending = true;
        }
        consume(pending, cap);
    }

    /** The sampler's draws and their WL hashes, hashed on the pool (or
     *  inline inside a pool job); a pure function of (k, free). */
    void
    draw_samples(std::vector<graph::NodeMask>& draws,
                 std::vector<std::uint64_t>& draw_hashes) const
    {
        {
            VNPU_PROF("funnel.sample");
            const int k = req.vtopo.num_nodes();
            Rng rng(0x5eed + static_cast<std::uint64_t>(k));
            draws = graph::sample_connected_subsets(
                mesh, k, free, static_cast<int>(req.max_candidates) * 4,
                rng);
        }
        draw_hashes.resize(draws.size());
        TaskPool::instance().parallel_for(
            0, static_cast<int>(draws.size()), [&](int d) {
                VNPU_PROF("funnel.wl_hash");
                draw_hashes[d] = mesh.wl_hash_subset(draws[d]);
            });
    }

    /** Sampled candidates join after the enumerated ones (at most
     *  `max_candidates`), up to twice the enumeration cap. */
    void
    absorb_samples(const std::vector<graph::NodeMask>& draws,
                   const std::vector<std::uint64_t>& draw_hashes)
    {
        sampling_pending = false;
        absorb(draws.data(), draw_hashes.data(), draws.size(),
               req.max_candidates * 2);
    }
};

/** True when some connected component of `free` in `mesh` has >= k
 *  cores. */
bool
has_connected_region(const graph::Graph& mesh, CoreSet free, int k)
{
    while (free.count() >= k) {
        const CoreSet comp = mesh.component_of(free.lowest(), free);
        if (comp.count() >= k)
            return true;
        free = free.andnot(comp);
    }
    return false;
}

/**
 * Order-dependent request fingerprint for the memo key: node order,
 * labels, adjacency, and the edge insertion cost (the funnel, and so
 * the memo, runs only without cost callbacks).
 * (The iso-invariant wl_hash would be wrong here: GED mappings are
 * index-order dependent, so two differently-numbered isomorphic
 * requests must not share memo entries.)
 */
std::uint64_t
request_struct_hash(const MappingRequest& req)
{
    const graph::Graph& g = req.vtopo;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
        h ^= h >> 29;
    };
    fold(static_cast<std::uint64_t>(g.num_nodes()));
    for (int v = 0; v < g.num_nodes(); ++v) {
        fold(static_cast<std::uint64_t>(g.label(v)));
        const graph::NodeMask& nb = g.neighbors(v);
        for (int w = 0; w < graph::NodeMask::kWords; ++w)
            fold(nb.word(w));
    }
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t bits;
    std::memcpy(&bits, &req.ged.edge_ins_cost, sizeof(bits));
    fold(bits);
    return h;
}

/** Candidate-side GedProfile straight from the masked mesh adjacency. */
graph::GedProfile
subset_profile(const graph::Graph& mesh, const graph::NodeMask& m)
{
    graph::GedProfile p;
    int degree_sum = 0;
    for (int v : m) {
        int d = (mesh.neighbors(v) & m).count();
        p.degrees_desc.push_back(d);
        p.labels_sorted.push_back(mesh.label(v));
        degree_sum += d;
    }
    std::sort(p.degrees_desc.begin(), p.degrees_desc.end(),
              std::greater<int>());
    std::sort(p.labels_sorted.begin(), p.labels_sorted.end());
    p.num_edges = degree_sum / 2;
    return p;
}

/** One candidate of a scoring run: the run job writes `lb`, `ted0` and
 *  `g`; the replay sets `pruned`, or `from_memo` with the memo's `g`. */
struct Slot {
    double lb = 0.0;
    bool ted0 = false; ///< a request-hash-equal exact score of cost 0
    bool pruned = false;
    bool from_memo = false;
    graph::GedResult g;
};

constexpr std::size_t kMemoCapacity = 4096; ///< entries; flushed when full
constexpr std::size_t kScoreChunk = 16;     ///< candidates per pool batch
constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

std::uint64_t
TopologyMapper::wirelength(const graph::Graph& vtopo,
                           const std::vector<CoreId>& assignment) const
{
    std::uint64_t total = 0;
    for (auto [u, v] : vtopo.edges())
        total += static_cast<std::uint64_t>(
            topo_.hop_distance(assignment[u], assignment[v]));
    return total;
}

void
TopologyMapper::refine_wirelength(const graph::Graph& vtopo,
                                  std::vector<CoreId>& assignment) const
{
    VNPU_PROF("funnel.2opt");
    const int n = vtopo.num_nodes();

    // Greedy chain-following seeds: pipeline traffic flows along the
    // virtual id order, so walk the region placing consecutive stages
    // on the nearest unused cores. Keep the best of the GED-derived
    // correspondence and the greedy embeddings as the 2-opt start.
    std::vector<CoreId> region = assignment; // the candidate node set
    std::sort(region.begin(), region.end());
    std::vector<CoreId> starts{region.front(), region.back()};
    std::vector<CoreId> best = assignment;
    std::uint64_t best_wl = wirelength(vtopo, best);
    for (CoreId start : starts) {
        std::vector<CoreId> greedy(n, kInvalidCore);
        CoreSet used;
        CoreId cur = start;
        greedy[0] = cur;
        used.set(cur);
        for (int v = 1; v < n; ++v) {
            CoreId next = kInvalidCore;
            int next_d = INT32_MAX;
            for (CoreId c : region) {
                if (used.test(c))
                    continue;
                int d = topo_.hop_distance(cur, c);
                if (d < next_d || (d == next_d && c < next)) {
                    next_d = d;
                    next = c;
                }
            }
            greedy[v] = next;
            used.set(next);
            cur = next;
        }
        std::uint64_t wl = wirelength(vtopo, greedy);
        if (wl < best_wl) {
            best_wl = wl;
            best = greedy;
        }
    }
    assignment = best;

    auto delta = [&](int a, int b) {
        // Change in wirelength if virtual nodes a and b swap cores.
        std::int64_t d = 0;
        auto edge_terms = [&](int x, int other, CoreId new_core) {
            for (int u : vtopo.neighbors(x)) {
                if (u == other)
                    continue; // the a-b edge is swap-invariant
                d -= topo_.hop_distance(assignment[x], assignment[u]);
                d += topo_.hop_distance(new_core, assignment[u]);
            }
        };
        edge_terms(a, b, assignment[b]);
        edge_terms(b, a, assignment[a]);
        return d;
    };
    for (int pass = 0; pass < 24; ++pass) {
        bool improved = false;
        for (int a = 0; a < n; ++a) {
            for (int b = a + 1; b < n; ++b) {
                if (delta(a, b) < 0) {
                    std::swap(assignment[a], assignment[b]);
                    improved = true;
                }
            }
        }
        if (!improved)
            break;
    }
}

namespace {

/** One axis-aligned rectangle of a polyomino decomposition. */
struct ShapeRect {
    int x, y, w, h;
};

/**
 * One congruence class of the request's grid embedding: per-vertex cell
 * coordinates (normalized to a (0,0)-anchored bounding box) plus the
 * maximal-rectangle decomposition used for the free-set test. Adjacency
 * across rectangle seams needs no extra checks — mesh adjacency is
 * purely coordinate-based, so any translated placement of the cells
 * induces exactly the embedded topology.
 */
struct ShapeVariant {
    int w = 0, h = 0;
    std::vector<std::pair<int, int>> cells; // cells[v] = (x, y) of vertex v
    std::vector<ShapeRect> rects;
};

/** Row runs merged vertically into maximal-height rectangles. */
std::vector<ShapeRect>
decompose_rects(const std::vector<std::pair<int, int>>& cells, int w, int h)
{
    // Occupancy grid of the bounding box.
    std::vector<char> occ(static_cast<std::size_t>(w) * h, 0);
    for (auto [x, y] : cells)
        occ[static_cast<std::size_t>(y) * w + x] = 1;

    std::vector<ShapeRect> rects;
    std::vector<char> taken(occ.size(), 0);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            if (!occ[static_cast<std::size_t>(y) * w + x] ||
                taken[static_cast<std::size_t>(y) * w + x])
                continue;
            int rw = 0;
            while (x + rw < w &&
                   occ[static_cast<std::size_t>(y) * w + x + rw] &&
                   !taken[static_cast<std::size_t>(y) * w + x + rw])
                ++rw;
            int rh = 1;
            auto row_full = [&](int yy) {
                for (int i = 0; i < rw; ++i) {
                    std::size_t at =
                        static_cast<std::size_t>(yy) * w + x + i;
                    if (!occ[at] || taken[at])
                        return false;
                }
                return true;
            };
            while (y + rh < h && row_full(y + rh))
                ++rh;
            for (int yy = y; yy < y + rh; ++yy)
                for (int i = 0; i < rw; ++i)
                    taken[static_cast<std::size_t>(yy) * w + x + i] = 1;
            rects.push_back({x, y, rw, rh});
        }
    }
    return rects;
}

/**
 * The 8 grid symmetries (4 rotations x optional reflection) of one
 * cell shape (cells[v] = (x, y) of vertex v), identity first, then the
 * transpose; normalized and deduplicated by cell set: congruent
 * transforms would slide over identical placements.
 */
std::vector<ShapeVariant>
shape_variants(const std::vector<std::pair<int, int>>& cells)
{
    const int k = static_cast<int>(cells.size());
    std::vector<ShapeVariant> out;
    std::vector<std::vector<std::pair<int, int>>> seen_cell_sets;
    for (int t = 0; t < 8; ++t) {
        ShapeVariant v;
        v.cells.resize(k);
        int min_x = INT32_MAX, min_y = INT32_MAX;
        for (int p = 0; p < k; ++p) {
            auto [x, y] = cells[p];
            if (t & 4)
                std::swap(x, y); // transpose
            if (t & 1)
                x = -x; // horizontal flip
            if (t & 2)
                y = -y; // vertical flip
            v.cells[p] = {x, y};
            min_x = std::min(min_x, x);
            min_y = std::min(min_y, y);
        }
        int max_x = 0, max_y = 0;
        for (auto& [x, y] : v.cells) {
            x -= min_x;
            y -= min_y;
            max_x = std::max(max_x, x);
            max_y = std::max(max_y, y);
        }
        v.w = max_x + 1;
        v.h = max_y + 1;
        std::vector<std::pair<int, int>> key = v.cells;
        std::sort(key.begin(), key.end());
        bool dup = false;
        for (const auto& k2 : seen_cell_sets)
            dup = dup || k2 == key;
        if (dup)
            continue;
        seen_cell_sets.push_back(std::move(key));
        v.rects = decompose_rects(v.cells, v.w, v.h);
        out.push_back(std::move(v));
    }
    return out;
}

/**
 * The cores c of `s` whose w x h box (c its top-left corner) lies in
 * `s`, on a row-major mesh `mesh_w` cores wide. Rows wrap, so a core
 * whose box crosses the east edge may read as set: callers mask those.
 * A run of `have` cells and a run starting `step <= have` further on
 * make a run of have + step, so each side costs O(log) shifts.
 */
CoreSet
erode(CoreSet s, int w, int h, int mesh_w)
{
    for (int have = 1; have < w;) {
        const int step = std::min(have, w - have);
        s &= s >> step;
        have += step;
    }
    for (int have = 1; have < h;) {
        const int step = std::min(have, h - have);
        s &= s >> (step * mesh_w);
        have += step;
    }
    return s;
}

/**
 * The first row-major anchor (the core id of the top-left corner) at
 * which a shape with a bw x bh bounding box, covered by `rects`, lies
 * in `free`, or -1 on a miss. Anchors whose box stays west of the
 * mesh's east edge, ANDed with the free set eroded by each rectangle
 * and shifted back by its offset, leave the fitting anchors (a box
 * past the south edge erodes to nothing); the lowest is the first.
 * `anchors` gains what a row-major anchor-by-anchor scan would have
 * tried: ay * (W - bw + 1) + ax + 1 on a hit, every anchor on a miss.
 */
int
slide(const noc::MeshTopology& topo, const CoreSet& has_east,
      const CoreSet& free, int bw, int bh, const ShapeRect* rects,
      std::size_t num_rects, std::uint64_t* anchors)
{
    const int mesh_w = topo.width();
    const int nx = mesh_w - bw + 1;
    const int ny = topo.height() - bh + 1;
    if (nx <= 0 || ny <= 0)
        return -1;
    // x + bw - 1 < W: a run of bw - 1 cores that each have an east
    // neighbour.
    const CoreSet cores = CoreSet::first_n(topo.num_nodes());
    CoreSet fits = bw > 1 ? erode(has_east, bw - 1, 1, mesh_w) : cores;
    const CoreSet on_mesh = free & cores;
    for (std::size_t i = 0; i < num_rects; ++i) {
        const ShapeRect& r = rects[i];
        fits &= erode(on_mesh, r.w, r.h, mesh_w) >> topo.id_of(r.x, r.y);
    }
    const int a = fits.lowest();
    if (a == CoreSet::kCapacity) {
        *anchors += static_cast<std::uint64_t>(nx) * ny;
        return -1;
    }
    *anchors += static_cast<std::uint64_t>(topo.y_of(a)) * nx +
                topo.x_of(a) + 1;
    return a;
}

constexpr const char* kLockIn =
    "no exact topology match available (topology lock-in)";

} // namespace

int
row_major_grid_width(const graph::Graph& g)
{
    VNPU_PROF("mapper.exact.recognize");
    const int k = g.num_nodes();
    if (k <= 0)
        return 0;
    // Vertex 0's neighbours name the only candidate: {1, W} for
    // W >= 2, {1} for a path and none for a single core.
    const graph::NodeMask& nb = g.neighbors(0);
    const int w = nb.count() == 2 && nb.test(1) ? nb.next(2) : 1;
    if (nb.count() > 2 || k % w != 0)
        return 0;
    for (int v = 0; v < k; ++v) {
        graph::NodeMask want;
        if (v % w > 0)
            want.set(v - 1);
        if (v % w + 1 < w)
            want.set(v + 1);
        if (v >= w)
            want.set(v - w);
        if (v + w < k)
            want.set(v + w);
        if (g.label(v) != 0 || g.neighbors(v) != want)
            return 0;
    }
    return w;
}

MappingResult
TopologyMapper::map_exact(const MappingRequest& req, const CoreSet& free) const
{
    MappingResult res;
    std::uint64_t seen = 0;
    const int k = req.vtopo.num_nodes();
    const int gw = req.grid_width >= 0 ? req.grid_width
                                       : row_major_grid_width(req.vtopo);

    // An exact image of a disconnected request is itself disconnected;
    // honor R-3 up front instead of tripping isolation checks later.
    // A grid is connected.
    if (req.require_connected && !gw && !req.vtopo.is_connected()) {
        res.error = "disconnected request topology with "
                    "require_connected set";
        return res;
    }

    // The one exactness rule of every phase: labels must be equal, or
    // under custom node costs every node substitution must be free.
    graph::IsoOptions iso;
    iso.max_steps = req.exact_search_budget;
    if (req.ged.node_cost) {
        const auto& cost = req.ged.node_cost;
        iso.node_compat = [&cost](int a, int b) {
            return cost(a, b) == 0.0;
        };
    }

    // Phase 1 — sliding rectangle. A row-major mesh(W, H) request (the
    // dominant case) slides as a W x H block with the identity
    // assignment, then as an H x W block with the transpose; only a
    // hit builds its assignment. Its labels are all 0, like the
    // unlabeled host's. Grids with W, H >= 2 are rigid: every 4-cycle
    // must land on a lattice unit square, so an induced embedding is
    // an axis-aligned rectangle in one of these two orientations and a
    // miss is a proof that spends no search budget. Paths (W == 1) can
    // bend around obstacles and fall through to phases 2 and 3.
    if (gw && (!iso.node_compat || iso.node_compat(0, 0))) {
        VNPU_PROF("mapper.exact.rect");
        const int gh = k / gw;
        for (int o = 0; o < (gw == gh ? 1 : 2); ++o) {
            const ShapeRect box{0, 0, o ? gh : gw, o ? gw : gh};
            const int a =
                slide(topo_, has_east_, free, box.w, box.h, &box, 1, &seen);
            if (a < 0)
                continue;
            // Grid cell (gx, gy) lands gx east and gy south of the
            // anchor, or, transposed, gy east and gx south.
            const int step_x = o ? topo_.width() : 1;
            const int step_y = o ? 1 : topo_.width();
            res.ok = true;
            res.assignment.resize(k);
            for (int gy = 0, v = 0; gy < gh; ++gy)
                for (int gx = 0; gx < gw; ++gx, ++v)
                    res.assignment[v] = a + gx * step_x + gy * step_y;
            break;
        }
        res.candidates_considered = seen;
        if (res.ok)
            return res;
        if (gw >= 2 && gh >= 2) {
            res.error = kLockIn;
            return res;
        }
    }

    // Phase 2 — polyomino slide. Embed the request once into the
    // unconstrained mesh; a hit yields a cell shape whose 8 symmetries
    // slide over the free set, one erosion per rectangle of its
    // decomposition (translation preserves host labels: `to_graph()`
    // meshes are unlabeled). The search's degree-sequence prefilter
    // refutes a request of degree > 4 in 0 steps.
    graph::Graph mesh = topo_.to_graph();
    {
        VNPU_PROF("mapper.exact.slide");
        graph::IsoResult shape = graph::find_induced_isomorphism(
            req.vtopo, mesh, CoreSet::first_n(topo_.num_nodes()), iso);
        res.search_steps += shape.steps;
        if (!shape.found) {
            // Not embeddable in the full mesh => not in any free subset.
            res.candidates_considered = seen;
            res.budget_exhausted = shape.budget_exhausted;
            res.error = shape.budget_exhausted
                            ? "exact search budget exhausted "
                              "(result inconclusive)"
                            : "request topology is not embeddable in "
                              "the physical mesh";
            return res;
        }
        std::vector<std::pair<int, int>> cells(k);
        for (int v = 0; v < k; ++v)
            cells[v] = {topo_.x_of(shape.mapping[v]),
                        topo_.y_of(shape.mapping[v])};
        const std::vector<ShapeVariant> variants = shape_variants(cells);
        for (const ShapeVariant& sv : variants) {
            const int a = slide(topo_, has_east_, free, sv.w, sv.h,
                                sv.rects.data(), sv.rects.size(), &seen);
            if (a < 0)
                continue;
            res.ok = true;
            res.assignment.resize(k);
            for (int v = 0; v < k; ++v)
                res.assignment[v] =
                    a + topo_.id_of(sv.cells[v].first, sv.cells[v].second);
            break;
        }
        res.candidates_considered = seen;
        if (res.ok)
            return res;
        // A grid in any vertex order embeds as a full rectangle, so
        // rigidity refutes it here too, without a phase-3 search.
        const ShapeVariant& sv = variants.front();
        if (sv.w >= 2 && sv.h >= 2 && sv.w * sv.h == k) {
            res.error = kLockIn;
            return res;
        }
    }

    // Phase 3 — anchored VF2 over the free-core induced subgraph. The
    // slide only covers translates of one congruence class; fragmented
    // free sets can still host an incongruent embedding (e.g. a chain
    // bent around an obstacle), which this search finds or refutes
    // within the remaining budget.
    iso.max_steps = req.exact_search_budget > res.search_steps
                        ? req.exact_search_budget - res.search_steps
                        : 1;
    VNPU_PROF("mapper.exact.vf2");
    graph::IsoResult deep =
        graph::find_induced_isomorphism(req.vtopo, mesh, free, iso);
    res.search_steps += deep.steps;
    res.candidates_considered = seen;
    if (deep.found) {
        res.ok = true;
        res.ted = 0.0;
        res.assignment.assign(deep.mapping.begin(), deep.mapping.end());
        return res;
    }
    res.budget_exhausted = deep.budget_exhausted;
    res.error = deep.budget_exhausted
                    ? "exact search budget exhausted (result inconclusive)"
                    : kLockIn;
    return res;
}

MappingResult
TopologyMapper::map_straightforward(const MappingRequest& req,
                                    const CoreSet& free) const
{
    const int k = req.vtopo.num_nodes();
    // The k lowest free ids (zig-zag over the mesh rows); map() checked
    // that k cores are free. Virtual core v sits on the v-th of them.
    MappingResult res;
    res.ok = true;
    res.candidates_considered = 1;
    res.assignment.reserve(k);
    for (int c : free) {
        res.assignment.push_back(c);
        if (static_cast<int>(res.assignment.size()) == k)
            break;
    }
    res.ted = assignment_ted(req, res.assignment);
    return res;
}

double
TopologyMapper::assignment_ted(const MappingRequest& req,
                               const std::vector<CoreId>& assignment) const
{
    // Price the mapping on the mesh links among the assigned cores (mesh
    // cores are labelled 0), in ged_mapping_cost's summation order: node
    // costs, then each unmatched request edge (a < b ascending), then
    // edge_ins_cost per unmatched link.
    const graph::GedOptions& ged = req.ged;
    const int k = req.vtopo.num_nodes();
    const CoreSet chosen = CoreSet::from_range(assignment);
    const int links = (chosen & has_east_ & (chosen >> 1)).count() +
                      (chosen & (chosen >> topo_.width())).count();
    double cost = 0.0;
    for (int v = 0; v < k; ++v) {
        const int label = req.vtopo.label(v);
        cost += ged.node_cost ? ged.node_cost(label, 0)
                              : (label != 0 ? 1.0 : 0.0);
    }
    int matched = 0;
    for (int a = 0; a < k; ++a) {
        for (int b : req.vtopo.neighbors(a)) {
            if (b <= a)
                continue;
            if (topo_.adjacent(assignment[a], assignment[b]))
                ++matched;
            else
                cost += ged.edge_del_cost ? ged.edge_del_cost(a, b) : 1.0;
        }
    }
    return cost + ged.edge_ins_cost * (links - matched);
}

MappingResult
TopologyMapper::map_similar(const MappingRequest& req, const CoreSet& free,
                            bool allow_fragmented) const
{
    const int k = req.vtopo.num_nodes();
    if (req.max_candidates == 0 ||
        req.max_candidates >
            static_cast<std::uint64_t>(std::numeric_limits<int>::max() / 4))
        fatal("max_candidates (", req.max_candidates, ") must be in [1, ",
              std::numeric_limits<int>::max() / 4, "]");
    const graph::Graph mesh = topo_.to_graph();
    std::uint64_t req_hash = req.vtopo.wl_hash();

    // Custom cost callbacks disable the funnel stages: an arbitrary
    // std::function can be neither admissibly lower-bounded, hashed
    // into a memo key, nor assumed non-negative (the exact-search
    // prune bound relies on non-negative increments).
    const bool funnel = !req.ged.node_cost && !req.ged.edge_del_cost &&
                        req.ged.edge_ins_cost >= 0.0;
    const bool exact = k <= graph::kGedExactLimit;

    CandidateCollector col(req, free, mesh);
    // Component bound: a free set whose largest connected component is
    // smaller than the request holds no candidate, and the enumerator
    // would exhaust an exponential partial-subset tree to find that out.
    if (has_connected_region(mesh, free, k))
        col.enumerate_phase();

    MappingResult res;
    double best = kInf;
    const graph::GedProfile req_profile = graph::ged_profile(req.vtopo);
    const std::uint64_t memo_req_hash =
        funnel ? request_struct_hash(req) : 0;
    // Request-side search state (dense form, anchor orders) hoisted out
    // of the per-candidate loop; scoring through it is bit-identical to
    // graph::ged against the induced candidate subgraph.
    const graph::GedScorer scorer(req.vtopo, req.ged);

    // The memo entry that serves candidate i under `bound`: a completed
    // search (`cost < run_bound`) or one at least as strict.
    auto memo_entry = [&](std::size_t i, double bound) -> const MemoEntry* {
        VNPU_PROF("funnel.memo_probe");
        auto it = memo_.find(MemoKey{memo_req_hash, col.masks[i]});
        return it != memo_.end() && (it->second.cost < it->second.run_bound ||
                                     bound <= it->second.run_bound)
                   ? &it->second
                   : nullptr;
    };

    // One job scores a run of candidates [run_lo, run_hi) under
    // `run_bound`, the best cost when the run starts, ahead of the
    // chunked replay below. Every chunk bound of the run is at most
    // `run_bound`, so a slot whose lower bound exceeds it is pruned by
    // the replay too and is not scored. A slot the memo serves is not
    // scored on the exact path; elsewhere the replay discards its
    // score (a memo flush mid-run could turn the hit into a miss). An
    // approximate run ends with the chunk holding the next
    // request-hash-equal candidate, the only place the TED-0 exit can
    // fire (the approximate search ignores the bound); an exact run is
    // one chunk, so its bound is that chunk's. A run that reaches the
    // end of the enumerated phase with no hash-equal candidate left
    // also draws the sampler's candidates (one more slot), which the
    // scan then cannot skip.
    std::vector<Slot> slots;
    std::size_t run_lo = 0, run_hi = 0;
    double run_bound = kInf;
    std::vector<graph::NodeMask> draws;
    std::vector<std::uint64_t> draw_hashes;
    bool sampled = false;
    auto run_from = [&](std::size_t phase_lo, std::size_t lo) {
        // vnpu-lint: hot-path (funnel scoring; the per-run slot vectors
        // are the only allowed growth, suppressed per line)
        std::size_t hi = col.masks.size();
        bool equal_ahead = false;
        for (std::size_t i = lo; i < hi && !equal_ahead; ++i) {
            if (col.hashes[i] == req_hash) {
                equal_ahead = true;
                const std::size_t chunk = (i - phase_lo) / kScoreChunk;
                hi = std::min(hi, phase_lo + (chunk + 1) * kScoreChunk);
            }
        }
        if (exact)
            hi = std::min(hi, lo + kScoreChunk);
        const bool sampler_slot = col.sampling_pending && !sampled &&
                                  !equal_ahead && hi == col.masks.size();
        const int extra = sampler_slot ? 1 : 0;
        run_lo = lo;
        run_hi = hi;
        run_bound = funnel ? best : kInf;
        slots.clear();
        // vnpu-lint: allow-next-line(hot-path-alloc) per-run slots
        slots.resize(hi - lo);
        auto job = [&](int j) {
            if (j < extra) { // the sampler slot starts first
                col.draw_samples(draws, draw_hashes);
                return;
            }
            const std::size_t i = lo + static_cast<std::size_t>(j - extra);
            Slot& out = slots[i - lo];
            if (funnel) {
                // An exact run is one chunk: the memo cannot change
                // before the replay probes it under the same bound.
                if (exact && memo_entry(i, run_bound))
                    return;
                {
                    VNPU_PROF("funnel.lb_prune");
                    out.lb = graph::ged_lower_bound(
                        req_profile, subset_profile(mesh, col.masks[i]),
                        req.ged);
                }
                if (out.lb > run_bound)
                    return;
            }
            VNPU_PROF("funnel.full_ged");
            out.g = scorer.score_subset(mesh, col.masks[i], run_bound);
            // TED-0 stage: under any positive bound the branch and bound
            // returns the DFS-first minimum mapping, which is the
            // canonical zero-cost one whenever one exists. The bound is
            // positive here: under a positive edge insertion cost a
            // zero-cost candidate is isomorphic to the request, so its
            // hash-equal slot ends the scan before the best reaches 0.
            out.ted0 = exact && funnel && col.hashes[i] == req_hash &&
                       out.g.cost == 0.0;
        };
        const int n = static_cast<int>(hi - lo) + extra;
        if (funnel) {
            TaskPool::instance().parallel_for(0, n, job);
        } else {
            // Custom cost callbacks may not be thread-safe.
            for (int j = 0; j < n; ++j)
                job(j);
        }
        sampled = sampled || sampler_slot;
    };

    // Chunked replay over col.masks[phase_lo..): the prune bound is
    // frozen per chunk of kScoreChunk, and the reduction runs in
    // candidate index order, so the decision is bit-identical to the
    // legacy one-candidate-at-a-time loop (and to any worker count).
    // Returns true on the TED-0 early exit.
    auto score_range = [&](std::size_t phase_lo) -> bool {
        for (std::size_t lo = phase_lo; lo < col.masks.size();
             lo += kScoreChunk) {
            const std::size_t hi =
                std::min(col.masks.size(), lo + kScoreChunk);
            const double bound = best; // frozen for this chunk
            if (lo >= run_hi)
                run_from(phase_lo, lo);

            // Stages 2+3, over the whole chunk before the reduction:
            // memo probe, then the admissible lower bound.
            for (std::size_t i = lo; i < hi; ++i) {
                Slot& sc = slots[i - run_lo];
                ++res.funnel.candidates;
                if (!funnel)
                    continue;
                if (const MemoEntry* e = memo_entry(i, bound)) {
                    ++res.funnel.memo_hits;
                    sc.from_memo = true;
                    sc.g.cost = e->cost;
                    sc.g.mapping = e->mapping;
                    continue;
                }
                ++res.funnel.memo_misses;
                sc.pruned = sc.lb > bound; // cost >= lb > any later best
                if (sc.pruned)
                    ++res.funnel.lb_pruned;
            }

            // Memo insert + reduction, in candidate index order.
            for (std::size_t i = lo; i < hi; ++i) {
                const Slot& sc = slots[i - run_lo];
                if (sc.pruned)
                    continue;
                if (!sc.from_memo) {
                    if (sc.ted0)
                        ++res.funnel.ted0_hits;
                    else
                        ++res.funnel.full_ged;
                    if (funnel) {
                        if (memo_.size() >= kMemoCapacity)
                            memo_.clear();
                        // An empty mapping is a bounded miss; a found
                        // mapping holds under any bound.
                        memo_[MemoKey{memo_req_hash, col.masks[i]}] =
                            MemoEntry{sc.g.cost, sc.g.mapping,
                                      sc.g.mapping.empty() ? run_bound
                                                           : kInf};
                    }
                }
                if (sc.g.cost < best) {
                    best = sc.g.cost;
                    std::vector<int> nodes =
                        graph::Graph::mask_to_nodes(col.masks[i]);
                    res.assignment.assign(k, kInvalidCore);
                    for (int v = 0; v < k; ++v)
                        res.assignment[v] = nodes[sc.g.mapping[v]];
                    res.ted = sc.g.cost;
                    res.ok = true;
                    // Early exit: candidate topology equals the
                    // request (Line 22) — already adjacency-perfect.
                    if (col.hashes[i] == req_hash && sc.g.cost == 0.0)
                        return true;
                }
            }
        }
        return false;
    };

    bool adjacency_perfect = score_range(0);
    if (!adjacency_perfect && col.sampling_pending) {
        const std::size_t lo = col.masks.size();
        if (!sampled)
            col.draw_samples(draws, draw_hashes);
        col.absorb_samples(draws, draw_hashes);
        adjacency_perfect = score_range(lo);
    }
    res.candidates_considered = col.seen;
    if (adjacency_perfect)
        return res;

    if (res.ok) {
        // TED ranks candidates; within the winner, keep the endpoints
        // of unmatched virtual edges physically close (an unmatched
        // edge otherwise lands on an arbitrary multi-hop path).
        refine_wirelength(req.vtopo, res.assignment);
        // Re-derive the TED of the refined correspondence for reports.
        res.ted = assignment_ted(req, res.assignment);
        return res;
    }

    if (!allow_fragmented) {
        res.error = "no connected region of the required size";
        return res;
    }

    // Fragmented fallback: greedily pack the closest free cores.
    std::vector<int> free_nodes = graph::Graph::mask_to_nodes(free);
    // Seed: free core with the most free neighbors.
    int seed = free_nodes.front();
    int best_deg = -1;
    for (int v : free_nodes) {
        int deg = (mesh.neighbors(v) & free).count();
        if (deg > best_deg) {
            best_deg = deg;
            seed = v;
        }
    }
    std::vector<int> chosen{seed};
    CoreSet chosen_mask = core_bit(seed);
    while (static_cast<int>(chosen.size()) < k) {
        int next = kInvalidCore;
        int next_dist = INT32_MAX;
        for (int v : free_nodes) {
            if (chosen_mask.test(v))
                continue;
            int d = INT32_MAX;
            for (int c : chosen)
                d = std::min(d, topo_.hop_distance(c, v));
            if (d < next_dist || (d == next_dist && v < next)) {
                next_dist = d;
                next = v;
            }
        }
        VNPU_ASSERT(next != kInvalidCore);
        chosen.push_back(next);
        chosen_mask.set(next);
    }
    std::sort(chosen.begin(), chosen.end());
    graph::Graph sub = mesh.induced(chosen);
    graph::GedResult g = graph::approx_ged(req.vtopo, sub, req.ged);
    res.ok = true;
    res.assignment.assign(k, kInvalidCore);
    for (int v = 0; v < k; ++v)
        res.assignment[v] = chosen[g.mapping[v]];
    refine_wirelength(req.vtopo, res.assignment);
    res.ted = assignment_ted(req, res.assignment);
    return res;
}

} // namespace vnpu::hyp
