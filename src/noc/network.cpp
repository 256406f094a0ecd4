#include "noc/network.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <ostream>

#include "check/checks.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "sim/log.h"

namespace vnpu::noc {

RouteOverride
RouteOverride::build_confined(const MeshTopology& topo, const CoreSet& region)
{
    const int n = topo.num_nodes();
    RouteOverride ov;
    const int k = region.count();
    ov.k_ = k;

    // A region that fills its bounding box routes in closed form.
    ov.w_ = topo.width();
    ov.x0_ = ov.w_;
    ov.y0_ = topo.height();
    ov.x1_ = ov.y1_ = -1;
    for (int id : region) {
        VNPU_ASSERT(id < n);
        ov.x0_ = std::min(ov.x0_, topo.x_of(id));
        ov.x1_ = std::max(ov.x1_, topo.x_of(id));
        ov.y0_ = std::min(ov.y0_, topo.y_of(id));
        ov.y1_ = std::max(ov.y1_, topo.y_of(id));
    }
    ov.rect_ = k > 0 && k == (ov.x1_ - ov.x0_ + 1) * (ov.y1_ - ov.y0_ + 1);
    if (ov.rect_)
        return ov;

    // Rank the region's cores in ascending id order, so the lowest-rank
    // neighbor is also the lowest-id one and the tie-break is unchanged.
    ov.rank_.assign(static_cast<std::size_t>(n), -1);
    std::vector<int> nodes;
    nodes.reserve(static_cast<std::size_t>(k));
    for (int id : region) {
        ov.rank_[id] = static_cast<std::int16_t>(nodes.size());
        nodes.push_back(id);
    }
    ov.next_.assign(static_cast<std::size_t>(k) * k,
                    static_cast<std::int16_t>(kInvalidCore));

    // Region-internal neighbors of each rank, ascending, -1 padded.
    std::vector<std::array<int, 4>> adj(nodes.size());
    for (int r = 0; r < k; ++r) {
        adj[r].fill(-1);
        int deg = 0;
        for (Direction d : {Direction::kEast, Direction::kWest,
                            Direction::kNorth, Direction::kSouth}) {
            const int u = topo.neighbor(nodes[r], d);
            if (u != kInvalidCore && ov.rank_[u] >= 0)
                adj[r][deg++] = ov.rank_[u];
        }
        std::sort(adj[r].begin(), adj[r].begin() + deg);
    }

    // BFS from each destination over the k region cores; the scratch
    // arrays are reused across destinations.
    std::vector<int> dist(nodes.size());
    std::vector<int> queue;
    queue.reserve(nodes.size());
    for (int dst = 0; dst < k; ++dst) {
        std::fill(dist.begin(), dist.end(), -1);
        queue.assign(1, dst);
        dist[dst] = 0;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const int v = queue[head];
            for (int u : adj[v]) {
                if (u >= 0 && dist[u] == -1) {
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        for (int cur = 0; cur < k; ++cur) {
            if (cur == dst)
                continue;
            if (dist[cur] == -1)
                fatal("route override: region is disconnected between ",
                      nodes[cur], " and ", nodes[dst]);
            // Smallest-id neighbor one step closer to dst.
            int best = -1;
            for (int u : adj[cur]) {
                if (u >= 0 && dist[u] == dist[cur] - 1) {
                    best = u;
                    break;
                }
            }
            VNPU_ASSERT(best >= 0);
            ov.next_[static_cast<std::size_t>(cur) * k + dst] =
                static_cast<std::int16_t>(nodes[best]);
        }
    }
    return ov;
}

Network::Network(const SocConfig& cfg, const MeshTopology& topo,
                 EventQueue& eq)
    : cfg_(cfg), topo_(topo), eq_(eq),
      link_busy_(static_cast<std::size_t>(topo.num_nodes()) * 4, 0),
      link_vms_(static_cast<std::size_t>(topo.num_nodes()) * 4),
      link_ctr_(static_cast<std::size_t>(topo.num_nodes()) * 4)
{
}

int
Network::link_index(int from, int to) const
{
    return from * 4 + static_cast<int>(topo_.dir_to(from, to));
}

Cycles
Network::ser_cycles(std::uint64_t bytes) const
{
    return static_cast<Cycles>(
        std::ceil(static_cast<double>(bytes) / cfg_.link_bytes_per_cycle));
}

std::vector<int>
Network::route_path(int src, int dst, const RouteOverride* route) const
{
    std::vector<int> path{src};
    walk_route(src, dst, route,
               [&path](int, int to, int) { path.push_back(to); });
    return path;
}

SendResult
Network::send(Tick start, int src, int dst, std::uint64_t bytes, VmId vm,
              int tag, const RouteOverride* route, bool credit)
{
    // vnpu-lint: hot-path (allocation-free send contract, sim_kernel.md)
    VNPU_PROF("noc.send");
    VNPU_ASSERT(topo_.valid(src) && topo_.valid(dst));
    ++stats_.messages;
    stats_.bytes += bytes;
    if (route != nullptr)
        ++stats_.confined_messages;

    const std::uint64_t pkt_bytes = cfg_.packet_bytes;
    const std::uint64_t npkts = (bytes + pkt_bytes - 1) / pkt_bytes;
    stats_.packets += npkts;

    if (src == dst) {
        // Local loopback through the core's own send/receive engine: no
        // links are reserved, but the payload still serializes through
        // the engine at link bandwidth (it is the same datapath).
        ++stats_.local_deliveries;
        Tick done = start + cfg_.noc_handshake_cycles + ser_cycles(bytes);
        stats_.msg_latency.record(static_cast<double>(done - start));
        VNPU_TRACE(emit_complete(
            credit ? "credit" : "msg", "noc", start, done - start,
            static_cast<std::uint32_t>(src),
            {obs::arg("src", src), obs::arg("dst", dst), obs::arg("vm", vm),
             obs::arg("bytes", bytes), obs::arg("tag", tag),
             obs::arg("hops", 0)}));
        if (deliver_) {
            eq_.schedule(done, [this, dst, src, bytes, tag, vm, credit] {
                deliver_(dst, src, bytes, tag, vm, credit);
            });
        }
        return {done, done, 0};
    }

    const Tick inject_ready = start + cfg_.noc_handshake_cycles;
    Tick sender_free = start;
    Tick delivered = start;
    int hops = 0;

    // Sanitize builds record the path and its prior occupancy before
    // the real walk mutates it, then replay the send through the seed's
    // iterative per-packet recurrence and demand exact agreement. These
    // buffers exist only under VNPU_SANITIZE (off the perf gates), so
    // their growth is exempt from the hot-path allocation contract.
    VNPU_SANITIZE_BLOCK(std::vector<int> san_links;
                        std::vector<Tick> san_prior;
                        if (npkts > 0) {
                            walk_route(src, dst, route,
                                       [&](int from, int to, int) {
                                           const int li =
                                               link_index(from, to);
                                           san_links.push_back(li);   // vnpu-lint: allow(hot-path-alloc)
                                           san_prior.push_back(       // vnpu-lint: allow(hot-path-alloc)
                                               link_busy_[li]);
                                       });
                        })

    if (cfg_.noc_relay_store_forward) {
        // Each relay node fully receives the message before re-sending
        // it (Figure 5's chained send semantics): every hop costs the
        // whole message serialization and occupies the link for it.
        const Cycles ser = ser_cycles(bytes);
        // Each link is reserved from max(arrival, prior busy) to depart,
        // a constant R + S per hop — hoisted out of the walk.
        const std::uint64_t busy_add = cfg_.router_delay + ser;
        Tick t = inject_ready;
        hops = walk_route(src, dst, route, [&](int from, int to, int hop) {
            const int li = link_index(from, to);
            const Tick depart =
                std::max(t, link_busy_[li]) + cfg_.router_delay + ser;
            link_busy_[li] = depart;
            mark_link(li, vm);
            link_ctr_[li].flits += npkts;
            link_ctr_[li].busy_ticks += busy_add;
            t = depart;
            if (hop == 0)
                sender_free = depart;
        });
        delivered = t;
    } else if (npkts > 0) {
        // Idealized wormhole: routing packets pipeline across hops. All
        // packets are `packet_bytes` except the tail, so the per-packet
        // recurrence has a closed form (docs/sim_kernel.md): walk the
        // path once computing the *first* packet's per-link departure
        // t0, then shift every link's final occupancy by the constant
        //   delta = (n-2)*(R+S) + R + S_tail        (n >= 2 packets)
        // where R is the router delay, S the full-packet serialization
        // and S_tail the tail packet's. This replaces the seed's
        // O(npkts * hops) inner loop with O(hops) work.
        const std::uint64_t tail_bytes = bytes - (npkts - 1) * pkt_bytes;
        const Cycles ser_tail = ser_cycles(tail_bytes);
        const Cycles ser_full =
            npkts == 1 ? ser_tail : ser_cycles(pkt_bytes);
        const Cycles delta =
            npkts == 1 ? 0
                       : (npkts - 2) * (cfg_.router_delay + ser_full) +
                             cfg_.router_delay + ser_tail;

        // Final occupancy per link is (depart + delta) - max(arrival,
        // prior busy) = R + S_full + delta: constant per hop, hoisted.
        const std::uint64_t busy_add =
            cfg_.router_delay + ser_full + delta;
        Tick t = inject_ready;
        hops = walk_route(src, dst, route, [&](int from, int to, int hop) {
            const int li = link_index(from, to);
            const Tick depart =
                std::max(t, link_busy_[li]) + cfg_.router_delay + ser_full;
            link_busy_[li] = depart + delta;
            mark_link(li, vm);
            link_ctr_[li].flits += npkts;
            link_ctr_[li].busy_ticks += busy_add;
            t = depart;
            if (hop == 0)
                sender_free = depart + delta;
        });
        delivered = t + delta;
    } else {
        // Zero-byte wormhole message: no packets, no link occupancy,
        // instant delivery — but the hop count still follows the
        // (possibly confined) route.
        hops = walk_route(src, dst, route, [](int, int, int) {});
    }

    // Replay against the independent reference model: store-and-forward
    // is the recurrence with a single whole-message packet, wormhole the
    // full per-packet recurrence the closed form was derived from.
    VNPU_SANITIZE_BLOCK(if (npkts > 0 && !san_links.empty()) {
        const bool relay = cfg_.noc_relay_store_forward;
        const std::uint64_t ref_npkts = relay ? 1 : npkts;
        const Cycles ref_tail =
            relay ? ser_cycles(bytes)
                  : ser_cycles(bytes - (npkts - 1) * pkt_bytes);
        const Cycles ref_full = (relay || npkts == 1)
                                    ? ref_tail
                                    : ser_cycles(pkt_bytes);
        const check::WormholeRef ref = check::wormhole_reference(
            cfg_.router_delay, ref_full, ref_tail, ref_npkts,
            inject_ready, san_prior);
        VNPU_INVARIANT(ref.sender_free == sender_free,
                       "sender_free diverges from reference model ",
                       "got=", sender_free, " want=", ref.sender_free);
        VNPU_INVARIANT(ref.delivered == delivered,
                       "delivery time diverges from reference model ",
                       "got=", delivered, " want=", ref.delivered);
        for (std::size_t i = 0; i < san_links.size(); ++i)
            VNPU_INVARIANT(
                link_busy_[san_links[i]] == ref.link_busy[i],
                "per-link occupancy diverges from reference model ",
                "hop=", i, " got=", link_busy_[san_links[i]],
                " want=", ref.link_busy[i]);
        ++check::counters().noc_sends;
    })

    stats_.msg_latency.record(static_cast<double>(delivered - start));
    VNPU_TRACE(emit_complete(
        credit ? "credit" : "msg", "noc", start, delivered - start,
        static_cast<std::uint32_t>(src),
        {obs::arg("src", src), obs::arg("dst", dst), obs::arg("vm", vm),
         obs::arg("bytes", bytes), obs::arg("tag", tag),
         obs::arg("hops", hops)}));

    if (deliver_) {
        eq_.schedule(delivered, [this, dst, src, bytes, tag, vm, credit] {
            deliver_(dst, src, bytes, tag, vm, credit);
        });
    }
    return {sender_free, delivered, hops};
}

int
Network::interference_links() const
{
    int shared = 0;
    for (const LinkVms& l : link_vms_)
        if (l.shared)
            ++shared;
    return shared;
}

Tick
Network::link_busy_until(int a, int b) const
{
    return link_busy_[link_index(a, b)];
}

void
Network::reset()
{
    std::fill(link_busy_.begin(), link_busy_.end(), 0);
    std::fill(link_vms_.begin(), link_vms_.end(), LinkVms{});
    std::fill(link_ctr_.begin(), link_ctr_.end(), LinkCounters{});
    stats_ = NetworkStats{};
}

void
Network::collect_stats(StatSet& out, const std::string& prefix) const
{
    out.add(prefix + "messages", static_cast<double>(stats_.messages.value()));
    out.add(prefix + "packets", static_cast<double>(stats_.packets.value()));
    out.add(prefix + "bytes", static_cast<double>(stats_.bytes.value()));
    out.add(prefix + "local_deliveries",
            static_cast<double>(stats_.local_deliveries.value()));
    out.add(prefix + "confined_messages",
            static_cast<double>(stats_.confined_messages.value()));
    int used = 0;
    for (const LinkCounters& c : link_ctr_)
        if (c.flits != 0)
            ++used;
    out.set(prefix + "links_used", used);
    out.set(prefix + "interference_links", interference_links());
    stats_.msg_latency.collect(out, prefix + "msg_latency.");
}

void
Network::write_link_heatmap(std::ostream& os, Tick elapsed) const
{
    os << "[";
    bool first = true;
    for (int node = 0; node < topo_.num_nodes(); ++node) {
        for (int d = 0; d < 4; ++d) {
            const int to =
                topo_.neighbor(node, static_cast<Direction>(d));
            if (to == kInvalidCore)
                continue;
            const LinkCounters& c =
                link_ctr_[static_cast<std::size_t>(node) * 4 + d];
            if (c.flits == 0)
                continue;
            os << (first ? "\n" : ",\n") << "  {\"from\": " << node
               << ", \"to\": " << to << ", \"flits\": " << c.flits
               << ", \"busy_ticks\": " << c.busy_ticks;
            if (elapsed > 0) {
                os << ", \"utilization\": "
                   << static_cast<double>(c.busy_ticks) /
                          static_cast<double>(elapsed);
            }
            os << "}";
            first = false;
        }
    }
    os << "\n]\n";
}

void
Network::append_link_records(std::vector<obs::LinkRecord>& out) const
{
    for (int node = 0; node < topo_.num_nodes(); ++node) {
        for (int d = 0; d < 4; ++d) {
            const int to =
                topo_.neighbor(node, static_cast<Direction>(d));
            if (to == kInvalidCore)
                continue;
            const LinkCounters& c =
                link_ctr_[static_cast<std::size_t>(node) * 4 + d];
            out.push_back(
                obs::LinkRecord{node, to, c.flits, c.busy_ticks});
        }
    }
}

void
Network::trace_link_counters(Tick ts) const
{
    if (!obs::enabled())
        return;
    for (int node = 0; node < topo_.num_nodes(); ++node) {
        std::uint64_t flits = 0;
        std::uint64_t busy = 0;
        for (int d = 0; d < 4; ++d) {
            const LinkCounters& c =
                link_ctr_[static_cast<std::size_t>(node) * 4 + d];
            flits += c.flits;
            busy += c.busy_ticks;
        }
        if (flits == 0)
            continue;
        obs::emit_counter("link", "noc", ts,
                          static_cast<std::uint32_t>(node),
                          {obs::arg("flits", flits),
                           obs::arg("busy_ticks", busy)});
    }
}

} // namespace vnpu::noc
