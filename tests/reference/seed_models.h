/**
 * @file
 * Reference (seed) implementations of the simulation kernel, kept as a
 * golden model after the fast-path rewrite.
 *
 * `SeedEventQueue` is the original binary-heap event queue with
 * `std::function` callbacks; `SeedNoc` is the original `Network::send`
 * algorithm with the materialized path vector, the O(npkts * hops)
 * wormhole inner loop, and the `unordered_map` route override. The
 * golden-trace tests assert the production kernel is tick-identical to
 * these models, and bench/micro_kernels.cpp measures the speedup
 * against them (BENCH_noc.json).
 *
 * Deliberate deviation: the seed's local-loopback path neither counted
 * packets nor serialized the payload; that was a modeling bug fixed in
 * this rewrite, so `SeedNoc` carries the *fixed* loopback while keeping
 * the original multi-hop algorithms verbatim.
 */

#ifndef VNPU_TESTS_REFERENCE_SEED_MODELS_H
#define VNPU_TESTS_REFERENCE_SEED_MODELS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "noc/network.h"
#include "noc/topology.h"
#include "sim/config.h"
#include "sim/log.h"
#include "sim/types.h"

namespace vnpu::seed {

/** The seed's deterministic min-heap event queue (verbatim). */
class SeedEventQueue {
  public:
    using Callback = std::function<void()>;

    SeedEventQueue() = default;

    Tick now() const { return now_; }
    std::size_t pending() const { return heap_.size(); }

    void
    schedule(Tick when, Callback cb)
    {
        if (when < now_)
            panic("scheduling event in the past: ", when, " < ", now_);
        heap_.push(Entry{when, next_seq_++, std::move(cb)});
    }

    void schedule_in(Cycles delay, Callback cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    Tick
    run(Tick limit = kTickMax)
    {
        while (!heap_.empty()) {
            const Entry& top = heap_.top();
            if (top.when > limit) {
                now_ = limit;
                return now_;
            }
            now_ = top.when;
            Callback cb = std::move(const_cast<Entry&>(top).cb);
            heap_.pop();
            cb();
        }
        return now_;
    }

    bool
    step()
    {
        if (heap_.empty())
            return false;
        const Entry& top = heap_.top();
        now_ = top.when;
        Callback cb = std::move(const_cast<Entry&>(top).cb);
        heap_.pop();
        cb();
        return true;
    }

    void
    clear()
    {
        while (!heap_.empty())
            heap_.pop();
    }

  private:
    struct Entry {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
};

/** The seed's hash-map route override (verbatim). */
class SeedRouteOverride {
  public:
    int
    next_hop(int cur, int dst) const
    {
        auto it = next_.find(key(cur, dst));
        return it == next_.end() ? kInvalidCore : it->second;
    }

    std::size_t size() const { return next_.size(); }

    static SeedRouteOverride
    build_confined(const noc::MeshTopology& topo, const CoreSet& region)
    {
        using noc::Direction;
        SeedRouteOverride ov;
        std::vector<int> nodes;
        for (int id = 0; id < topo.num_nodes(); ++id)
            if (region & core_bit(id))
                nodes.push_back(id);

        for (int dst : nodes) {
            std::vector<int> dist(topo.num_nodes(), -1);
            std::vector<int> queue{dst};
            dist[dst] = 0;
            for (std::size_t head = 0; head < queue.size(); ++head) {
                int v = queue[head];
                for (Direction d : {Direction::kEast, Direction::kWest,
                                    Direction::kNorth, Direction::kSouth}) {
                    int u = topo.neighbor(v, d);
                    if (u == kInvalidCore || !(region & core_bit(u)))
                        continue;
                    if (dist[u] == -1) {
                        dist[u] = dist[v] + 1;
                        queue.push_back(u);
                    }
                }
            }
            for (int cur : nodes) {
                if (cur == dst)
                    continue;
                if (dist[cur] == -1)
                    fatal("route override: region is disconnected between ",
                          cur, " and ", dst);
                int best = kInvalidCore;
                for (Direction d : {Direction::kEast, Direction::kWest,
                                    Direction::kNorth, Direction::kSouth}) {
                    int u = topo.neighbor(cur, d);
                    if (u == kInvalidCore || !(region & core_bit(u)))
                        continue;
                    if (dist[u] == dist[cur] - 1 &&
                        (best == kInvalidCore || u < best)) {
                        best = u;
                    }
                }
                VNPU_ASSERT(best != kInvalidCore);
                ov.next_[key(cur, dst)] = static_cast<std::int16_t>(best);
            }
        }
        return ov;
    }

  private:
    // The seed packed `cur << 8 | dst`, which only holds for meshes of
    // up to 256 nodes; 16 bits per id keeps the same map collision-free
    // up to CoreSet::kCapacity.
    static std::uint32_t key(int cur, int dst)
    {
        return static_cast<std::uint32_t>(cur) << 16 |
               static_cast<std::uint32_t>(dst);
    }

    std::unordered_map<std::uint32_t, std::int16_t> next_;
};

/**
 * The seed's `Network` timing model (verbatim algorithms), templated on
 * the event-queue and route-override types so the same code serves the
 * golden-trace tests and the seed-vs-fast benchmarks.
 */
template <typename QueueT = SeedEventQueue,
          typename RouteT = SeedRouteOverride>
class SeedNoc {
  public:
    using DeliverFn =
        std::function<void(int dst, int src, std::uint64_t bytes, int tag,
                           VmId vm, bool credit)>;

    SeedNoc(const SocConfig& cfg, const noc::MeshTopology& topo, QueueT& eq)
        : cfg_(cfg), topo_(topo), eq_(eq),
          link_busy_(static_cast<std::size_t>(topo.num_nodes()) * 4, 0),
          link_vms_(static_cast<std::size_t>(topo.num_nodes()) * 4, 0)
    {
    }

    void set_deliver_callback(DeliverFn fn) { deliver_ = std::move(fn); }

    std::vector<int>
    route_path(int src, int dst, const RouteT* route = nullptr) const
    {
        std::vector<int> path{src};
        int cur = src;
        int guard = 0;
        while (cur != dst) {
            int next = kInvalidCore;
            if (route != nullptr)
                next = route->next_hop(cur, dst);
            if (next == kInvalidCore)
                next = topo_.xy_next_hop(cur, dst);
            path.push_back(next);
            cur = next;
            if (++guard > topo_.num_nodes() * 2)
                panic("routing loop from ", src, " to ", dst);
        }
        return path;
    }

    noc::SendResult
    send(Tick start, int src, int dst, std::uint64_t bytes, VmId vm,
         int tag, const RouteT* route = nullptr, bool credit = false)
    {
        VNPU_ASSERT(topo_.valid(src) && topo_.valid(dst));
        ++messages_;
        bytes_ += bytes;

        const std::uint64_t pkt_bytes = cfg_.packet_bytes;
        const std::uint64_t npkts = (bytes + pkt_bytes - 1) / pkt_bytes;
        packets_ += npkts;

        if (src == dst) {
            // Fixed loopback semantics (see file comment).
            Cycles ser = static_cast<Cycles>(std::ceil(
                static_cast<double>(bytes) / cfg_.link_bytes_per_cycle));
            Tick done = start + cfg_.noc_handshake_cycles + ser;
            if (deliver_) {
                eq_.schedule(done,
                             [this, dst, src, bytes, tag, vm, credit] {
                                 deliver_(dst, src, bytes, tag, vm, credit);
                             });
            }
            return {done, done, 0};
        }

        std::vector<int> path = route_path(src, dst, route);
        const int hops = static_cast<int>(path.size()) - 1;

        Tick sender_free = start;
        Tick delivered = start;
        Tick inject_ready = start + cfg_.noc_handshake_cycles;

        if (cfg_.noc_relay_store_forward) {
            Cycles ser = static_cast<Cycles>(
                std::ceil(bytes / cfg_.link_bytes_per_cycle));
            Tick t = inject_ready;
            for (int i = 0; i < hops; ++i) {
                int li = link_index(path[i], path[i + 1]);
                Tick depart = std::max(t, link_busy_[li]) +
                              cfg_.router_delay + ser;
                link_busy_[li] = depart;
                if (vm >= 0 && vm < 64)
                    link_vms_[li] |= std::uint64_t{1} << vm;
                t = depart;
                if (i == 0)
                    sender_free = depart;
            }
            delivered = t;
        } else {
            // The O(npkts * hops) per-packet inner loop.
            for (std::uint64_t p = 0; p < npkts; ++p) {
                std::uint64_t payload =
                    std::min(pkt_bytes, bytes - p * pkt_bytes);
                Cycles ser = static_cast<Cycles>(
                    std::ceil(payload / cfg_.link_bytes_per_cycle));
                Tick t = inject_ready;
                for (int i = 0; i < hops; ++i) {
                    int li = link_index(path[i], path[i + 1]);
                    Tick depart = std::max(t, link_busy_[li]) +
                                  cfg_.router_delay + ser;
                    link_busy_[li] = depart;
                    if (vm >= 0 && vm < 64)
                        link_vms_[li] |= std::uint64_t{1} << vm;
                    t = depart;
                    if (i == 0)
                        sender_free = depart;
                }
                delivered = std::max(delivered, t);
            }
        }

        if (deliver_) {
            eq_.schedule(delivered, [this, dst, src, bytes, tag, vm, credit] {
                deliver_(dst, src, bytes, tag, vm, credit);
            });
        }
        return {sender_free, delivered, hops};
    }

    Tick
    link_busy_until(int a, int b) const
    {
        return link_busy_[link_index(a, b)];
    }

    const std::vector<Tick>& link_busy() const { return link_busy_; }
    const std::vector<std::uint64_t>& link_vm_masks() const
    {
        return link_vms_;
    }
    std::uint64_t messages() const { return messages_; }
    std::uint64_t packets() const { return packets_; }
    std::uint64_t bytes() const { return bytes_; }

    void
    reset()
    {
        std::fill(link_busy_.begin(), link_busy_.end(), 0);
        std::fill(link_vms_.begin(), link_vms_.end(), 0);
        messages_ = packets_ = bytes_ = 0;
    }

  private:
    int
    link_index(int from, int to) const
    {
        return from * 4 + static_cast<int>(topo_.dir_to(from, to));
    }

    const SocConfig& cfg_;
    const noc::MeshTopology& topo_;
    QueueT& eq_;
    DeliverFn deliver_;
    std::vector<Tick> link_busy_;
    std::vector<std::uint64_t> link_vms_;
    std::uint64_t messages_ = 0;
    std::uint64_t packets_ = 0;
    std::uint64_t bytes_ = 0;
};

/** Deterministic 64-bit LCG for reproducible message schedules. */
class SeedLcg {
  public:
    explicit SeedLcg(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
        return state_ >> 16;
    }

    /** Uniform in [0, bound). @pre bound > 0 */
    std::uint64_t next_below(std::uint64_t bound)
    {
        return next() % bound;
    }

  private:
    std::uint64_t state_;
};

} // namespace vnpu::seed

#endif // VNPU_TESTS_REFERENCE_SEED_MODELS_H
