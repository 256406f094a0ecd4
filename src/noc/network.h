/**
 * @file
 * Packet-level NoC model with per-link contention.
 *
 * Messages are segmented into fixed-size routing packets (2048 B in the
 * paper's micro-tests). Each packet traverses its path store-and-forward
 * with a busy-until reservation per directed link, so consecutive
 * packets pipeline across hops and concurrent flows contend naturally.
 *
 * Routing is XY dimension-order by default; a `RouteOverride` (built by
 * the hypervisor from the per-core routing-table directions) confines a
 * virtual NPU's packets to its own region, eliminating NoC interference
 * between virtual NPUs (paper §4.1.2).
 *
 * The send path is allocation-free: hops are walked directly via the
 * next-hop functions (no materialized path vector), the wormhole
 * per-packet inner loop is collapsed into a closed-form per-link
 * occupancy update (docs/sim_kernel.md derives it), and `RouteOverride`
 * answers in closed form for rectangular regions and from a
 * region-local next-hop matrix otherwise.
 */

#ifndef VNPU_NOC_NETWORK_H
#define VNPU_NOC_NETWORK_H

#include <cstdint>
#include <functional>
#include <vector>

#include "noc/topology.h"
#include "obs/metrics.h"
#include "sim/config.h"
#include "sim/event_queue.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace vnpu::noc {

/**
 * Predefined next hops confining traffic to a core region. Built from
 * the routing-table "direction" fields: for every (current node,
 * destination) pair inside the region it names the next node on a
 * shortest path that never leaves the region, preferring the
 * smallest-id neighbour among equal-length choices.
 *
 * Two representations, chosen by `build_confined` from the region:
 *
 * - **Full rectangle** (the region fills its bounding box, as every
 *   exact placement does): only the box bounds and the mesh width are
 *   stored. Every Manhattan-shortest step stays inside the box, and
 *   with ids y*W + x the smallest-id closer neighbour is north, else
 *   west, else east, else south (docs/sim_kernel.md derives it), so a
 *   lookup is O(1) arithmetic and host memory is O(1).
 * - **Any other region** (similar placements, holed regions): the k
 *   region cores are ranked in ascending id order, and the table is an
 *   N-entry mesh-id -> rank map plus a k x k `int16_t` next-hop matrix
 *   of mesh ids indexed `rank(cur) * k + rank(dst)` (N = mesh nodes),
 *   filled by BFS. Host memory is k^2 + N entries.
 *
 * Both answer every query identically to the seed's BFS hash map, and
 * `size()` is k(k-1) either way: it models the hardware's meta-zone
 * entries, not host memory.
 */
class RouteOverride {
  public:
    /** Next hop from `cur` toward `dst`, or kInvalidCore if unknown. */
    int
    next_hop(int cur, int dst) const
    {
        if (rect_)
            return rect_next_hop(cur, dst);
        const auto n = static_cast<unsigned>(rank_.size());
        if (static_cast<unsigned>(cur) >= n ||
            static_cast<unsigned>(dst) >= n)
            return kInvalidCore;
        const int rc = rank_[cur];
        const int rd = rank_[dst];
        if (rc < 0 || rd < 0)
            return kInvalidCore;
        return next_[static_cast<std::size_t>(rc) * k_ + rd];
    }

    /** Number of stored direction entries (for meta-table sizing):
     *  k(k-1), one per ordered pair of distinct region cores. */
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(k_) * (k_ > 0 ? k_ - 1 : 0);
    }

    /**
     * Build confined shortest-path routing inside `region`: the closed
     * form when the region is a full rectangle, else BFS from every
     * destination over the region's k cores.
     * @throws SimFatal when `region` does not induce a connected
     *         subgraph of the mesh.
     */
    static RouteOverride build_confined(const MeshTopology& topo,
                                        const CoreSet& region);

  private:
    /**
     * Closed-form next hop inside the box [x0_, x1_] x [y0_, y1_]. An id
     * off the mesh (negative or >= W*H) decodes to a point outside the
     * box, so the box test alone rejects it.
     */
    int
    rect_next_hop(int cur, int dst) const
    {
        if (cur == dst)
            return kInvalidCore;
        const int cy = cur / w_;
        const int cx = cur - cy * w_;
        const int dy = dst / w_;
        const int dx = dst - dy * w_;
        if (!in_box(cx, cy) || !in_box(dx, dy))
            return kInvalidCore;
        if (dy < cy)
            return cur - w_;
        if (dx < cx)
            return cur - 1;
        if (dx > cx)
            return cur + 1;
        return cur + w_;
    }

    bool
    in_box(int x, int y) const
    {
        // Unsigned differences: one compare per axis, no overflow.
        return static_cast<unsigned>(x) - static_cast<unsigned>(x0_) <=
                   static_cast<unsigned>(x1_ - x0_) &&
               static_cast<unsigned>(y) - static_cast<unsigned>(y0_) <=
                   static_cast<unsigned>(y1_ - y0_);
    }

    int k_ = 0;
    bool rect_ = false; ///< full rectangle: route in closed form
    // Full-rectangle representation: inclusive box bounds, mesh width.
    int x0_ = 0, y0_ = 0, x1_ = 0, y1_ = 0, w_ = 0;
    // Table representation.
    std::vector<std::int16_t> rank_; ///< mesh id -> rank, -1 outside
    std::vector<std::int16_t> next_; ///< k x k next hops (mesh ids)
};

/** Outcome of a message send. */
struct SendResult {
    Tick sender_free;  ///< Source core may continue past this tick.
    Tick delivered;    ///< Last byte arrives at the destination.
    int hops;          ///< Path length in links.
};

/** NoC statistics of interest to the harnesses. */
struct NetworkStats {
    Counter messages;
    Counter packets;
    Counter bytes;
    Counter local_deliveries;   ///< src == dst messages
    Counter confined_messages;  ///< routed with an override
    /** Per-message end-to-end latency (start to last byte), in ticks. */
    Histogram msg_latency;
};

/**
 * Always-on per-directed-link telemetry — the substrate of the
 * link-utilization heatmap. Indexed like the busy-until table
 * (`node * 4 + direction`).
 */
struct LinkCounters {
    std::uint64_t flits = 0;      ///< Routing packets traversed.
    std::uint64_t busy_ticks = 0; ///< Ticks the link was reserved.
};

/** The on-chip network shared by all NPU cores. */
class Network {
  public:
    /**
     * Callback invoked (via the event queue) when a message fully
     * arrives: (dst, src, bytes, tag, vm, credit). `credit` marks a
     * flow-control credit return rather than a data message.
     */
    using DeliverFn =
        std::function<void(int dst, int src, std::uint64_t bytes, int tag,
                           VmId vm, bool credit)>;

    Network(const SocConfig& cfg, const MeshTopology& topo, EventQueue& eq);

    void set_deliver_callback(DeliverFn fn) { deliver_ = std::move(fn); }

    /**
     * Send `bytes` from physical core `src` to `dst` starting no earlier
     * than `start`. Packets reserve links in order; the delivery
     * callback fires at the computed arrival tick.
     *
     * @param route  confined routing for this VM, or nullptr for XY DOR.
     * @param credit mark the message as a flow-control credit return.
     */
    SendResult send(Tick start, int src, int dst, std::uint64_t bytes,
                    VmId vm, int tag, const RouteOverride* route = nullptr,
                    bool credit = false);

    /** Node sequence a packet follows (exposed for tests/benches). */
    std::vector<int> route_path(int src, int dst,
                                const RouteOverride* route = nullptr) const;

    /** Per-directed-link list of VMs that sent traffic over it. */
    const std::vector<std::uint64_t>& link_vm_masks() const
    {
        return link_vms_;
    }

    /** Per-directed-link flit/busy counters, indexed node*4 + dir. */
    const std::vector<LinkCounters>& link_counters() const
    {
        return link_ctr_;
    }

    /** Telemetry sweep: message/packet totals, latency, link gauges. */
    void collect_stats(StatSet& out,
                       const std::string& prefix = "noc.") const;

    /**
     * Link-utilization heatmap as JSON: one record per directed link
     * with traffic, keyed by (from, to) node ids, with flit/busy
     * counts and utilization relative to `elapsed` ticks (pass the
     * final simulated time; 0 omits the utilization field).
     */
    void write_link_heatmap(std::ostream& os, Tick elapsed = 0) const;

    /**
     * Append one record per directed link (traffic or not), in
     * (node, direction) order. The list's length and order depend only
     * on the topology, so the metrics sampler can diff consecutive
     * snapshots index by index.
     */
    void append_link_records(std::vector<obs::LinkRecord>& out) const;

    /**
     * Emit one counter-track trace event per node with traffic,
     * summing its outgoing links, stamped at `ts`. No-op when the
     * trace sink is disabled.
     */
    void trace_link_counters(Tick ts) const;

    /**
     * Number of directed links whose traffic came from more than one
     * VM — the NoC-interference indicator from §4.1.2.
     */
    int interference_links() const;

    /** Busy-until tick of the directed link from `a` to adjacent `b`. */
    Tick link_busy_until(int a, int b) const;

    const NetworkStats& stats() const { return stats_; }

    /** Clear link reservations and statistics between experiments. */
    void reset();

    const MeshTopology& topology() const { return topo_; }

  private:
    int link_index(int from, int to) const;

    /** Next hop toward `dst`: override direction if present, else XY. */
    int
    next_hop(int cur, int dst, const RouteOverride* route) const
    {
        if (route != nullptr) {
            int next = route->next_hop(cur, dst);
            if (next != kInvalidCore)
                return next;
        }
        return topo_.xy_next_hop(cur, dst);
    }

    /**
     * Walk the route from `src` to `dst`, invoking
     * `per_link(from, to, hop_index)` for every traversed link.
     * @return the hop count. Panics on a routing loop.
     */
    template <typename Fn>
    int
    walk_route(int src, int dst, const RouteOverride* route,
               Fn&& per_link) const
    {
        int cur = src;
        int hops = 0;
        while (cur != dst) {
            const int next = next_hop(cur, dst, route);
            per_link(cur, next, hops);
            cur = next;
            if (++hops > topo_.num_nodes() * 2)
                panic("routing loop from ", src, " to ", dst);
        }
        return hops;
    }

    /** Record that `vm` used directed link `li`. */
    void
    mark_link(int li, VmId vm)
    {
        if (vm >= 0 && vm < 64)
            link_vms_[li] |= std::uint64_t{1} << vm;
    }

    /** Cycles to serialize `bytes` at link bandwidth. */
    Cycles ser_cycles(std::uint64_t bytes) const;

    const SocConfig& cfg_;
    const MeshTopology& topo_;
    EventQueue& eq_;
    DeliverFn deliver_;

    /** busy-until per directed link, indexed node*4 + direction. */
    std::vector<Tick> link_busy_;
    std::vector<std::uint64_t> link_vms_;
    std::vector<LinkCounters> link_ctr_;
    NetworkStats stats_;
};

} // namespace vnpu::noc

#endif // VNPU_NOC_NETWORK_H
