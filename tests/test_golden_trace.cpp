/**
 * @file
 * Golden-trace equivalence tests for the fast-path simulation kernel.
 *
 * The calendar event queue, the allocation-free `Network::send` walk and
 * the closed-form wormhole occupancy update must be *tick-identical* to
 * the seed implementations (tests/reference/seed_models.h) — the
 * rewrite is a pure host-speed optimization with no observable timing
 * change. These tests replay deterministic pseudo-random message
 * schedules on meshes from 4x4 to 16x16 and compare every SendResult,
 * every final link reservation, and the full delivery schedule.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <tuple>
#include <vector>

#include "noc/network.h"
#include "reference/seed_models.h"
#include "sim/config.h"
#include "sim/event_queue.h"

namespace vnpu {
namespace {

using noc::MeshTopology;
using noc::Network;
using noc::RouteOverride;
using noc::SendResult;

struct Msg {
    Tick start;
    int src;
    int dst;
    std::uint64_t bytes;
    VmId vm;
    int tag;
};

/** Deterministic message schedule: mixed sizes from 1 B to ~8 MiB. */
std::vector<Msg>
make_schedule(int nodes, int count, std::uint64_t rng_seed)
{
    static const std::uint64_t kSizes[] = {
        1,       64,      2048,    2049,          5000,
        64_KiB,  300000,  1_MiB,   8_MiB + 1234,
    };
    seed::SeedLcg lcg(rng_seed);
    std::vector<Msg> msgs;
    Tick t = 0;
    for (int i = 0; i < count; ++i) {
        t += lcg.next_below(5000);
        Msg m;
        m.start = t;
        m.src = static_cast<int>(lcg.next_below(nodes));
        m.dst = static_cast<int>(lcg.next_below(nodes));
        m.bytes = kSizes[lcg.next_below(std::size(kSizes))];
        m.vm = static_cast<VmId>(lcg.next_below(8));
        m.tag = static_cast<int>(lcg.next_below(64));
        msgs.push_back(m);
    }
    return msgs;
}

/** One delivery observed through the event queue. */
using Delivery = std::tuple<Tick, int, int, std::uint64_t, int>;

struct RunTrace {
    std::vector<SendResult> results;
    std::vector<Tick> final_link_busy;
    std::vector<Delivery> deliveries;
    std::uint64_t packets = 0;
};

RunTrace
run_fast(const SocConfig& cfg, const std::vector<Msg>& msgs)
{
    EventQueue eq;
    MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    Network net(cfg, topo, eq);
    RunTrace tr;
    net.set_deliver_callback([&](int dst, int src, std::uint64_t bytes,
                                 int tag, VmId, bool) {
        tr.deliveries.emplace_back(eq.now(), dst, src, bytes, tag);
    });
    for (const Msg& m : msgs)
        tr.results.push_back(
            net.send(m.start, m.src, m.dst, m.bytes, m.vm, m.tag));
    eq.run();
    for (int a = 0; a < topo.num_nodes(); ++a)
        for (noc::Direction d : {noc::Direction::kEast, noc::Direction::kWest,
                                 noc::Direction::kNorth,
                                 noc::Direction::kSouth}) {
            int b = topo.neighbor(a, d);
            if (b != kInvalidCore)
                tr.final_link_busy.push_back(net.link_busy_until(a, b));
        }
    tr.packets = net.stats().packets.value();
    return tr;
}

RunTrace
run_seed(const SocConfig& cfg, const std::vector<Msg>& msgs)
{
    seed::SeedEventQueue eq;
    MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    seed::SeedNoc<> net(cfg, topo, eq);
    RunTrace tr;
    net.set_deliver_callback([&](int dst, int src, std::uint64_t bytes,
                                 int tag, VmId, bool) {
        tr.deliveries.emplace_back(eq.now(), dst, src, bytes, tag);
    });
    for (const Msg& m : msgs)
        tr.results.push_back(
            net.send(m.start, m.src, m.dst, m.bytes, m.vm, m.tag));
    eq.run();
    for (int a = 0; a < topo.num_nodes(); ++a)
        for (noc::Direction d : {noc::Direction::kEast, noc::Direction::kWest,
                                 noc::Direction::kNorth,
                                 noc::Direction::kSouth}) {
            int b = topo.neighbor(a, d);
            if (b != kInvalidCore)
                tr.final_link_busy.push_back(net.link_busy_until(a, b));
        }
    tr.packets = net.packets();
    return tr;
}

void
expect_identical(const RunTrace& fast, const RunTrace& seed_tr)
{
    ASSERT_EQ(fast.results.size(), seed_tr.results.size());
    for (std::size_t i = 0; i < fast.results.size(); ++i) {
        EXPECT_EQ(fast.results[i].sender_free, seed_tr.results[i].sender_free)
            << "message " << i;
        EXPECT_EQ(fast.results[i].delivered, seed_tr.results[i].delivered)
            << "message " << i;
        EXPECT_EQ(fast.results[i].hops, seed_tr.results[i].hops)
            << "message " << i;
    }
    EXPECT_EQ(fast.final_link_busy, seed_tr.final_link_busy);
    EXPECT_EQ(fast.deliveries, seed_tr.deliveries);
    EXPECT_EQ(fast.packets, seed_tr.packets);
}

class GoldenTraceTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(GoldenTraceTest, TickIdenticalToSeed)
{
    const int dim = std::get<0>(GetParam());
    const bool relay = std::get<1>(GetParam());
    SocConfig cfg = SocConfig::Fpga();
    cfg.mesh_x = dim;
    cfg.mesh_y = dim;
    cfg.noc_relay_store_forward = relay;
    std::vector<Msg> msgs =
        make_schedule(dim * dim, 400, 0x9E3779B97F4A7C15ull + dim);
    expect_identical(run_fast(cfg, msgs), run_seed(cfg, msgs));
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, GoldenTraceTest,
    ::testing::Combine(::testing::Values(4, 8, 12, 16),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& p) {
        return std::to_string(std::get<0>(p.param)) + "x" +
               std::to_string(std::get<0>(p.param)) +
               (std::get<1>(p.param) ? "Relay" : "Wormhole");
    });

/** Every (cur, dst) in the mesh routes as in the seed's hash map. */
void
expect_routes_match_seed(const MeshTopology& topo, const CoreSet& region)
{
    const RouteOverride fast = RouteOverride::build_confined(topo, region);
    const seed::SeedRouteOverride ref =
        seed::SeedRouteOverride::build_confined(topo, region);
    ASSERT_EQ(fast.size(), ref.size()) << "region size " << region.count();
    for (int cur = 0; cur < topo.num_nodes(); ++cur)
        for (int dst = 0; dst < topo.num_nodes(); ++dst)
            ASSERT_EQ(fast.next_hop(cur, dst), ref.next_hop(cur, dst))
                << "cur=" << cur << " dst=" << dst << " region size "
                << region.count();
}

/** All cores of the `w` x `h` block anchored at (`x0`, `y0`). */
CoreSet
block(const MeshTopology& topo, int x0, int y0, int w, int h)
{
    CoreSet s;
    for (int y = y0; y < y0 + h; ++y)
        for (int x = x0; x < x0 + w; ++x)
            s |= core_bit(topo.id_of(x, y));
    return s;
}

/** A connected region of `size` cores grown at random from one core. */
CoreSet
random_connected_region(const MeshTopology& topo, int size,
                        seed::SeedLcg& lcg)
{
    const int start = static_cast<int>(lcg.next_below(topo.num_nodes()));
    CoreSet region = core_bit(start);
    std::vector<int> frontier{start};
    while (region.count() < size) {
        const int v = frontier[lcg.next_below(frontier.size())];
        const int u = topo.neighbor(
            v, static_cast<noc::Direction>(lcg.next_below(4)));
        if (u == kInvalidCore || region.test(u))
            continue;
        region |= core_bit(u);
        frontier.push_back(u);
    }
    return region;
}

TEST(GoldenRouteOverrideTest, DenseTableMatchesSeedMap)
{
    MeshTopology topo(8, 8);
    // L-shaped, rectangular, single-row and near-full regions.
    std::vector<CoreSet> regions;
    {
        CoreSet l;
        for (int y = 0; y < 6; ++y)
            l |= core_bit(topo.id_of(0, y));
        for (int x = 0; x < 5; ++x)
            l |= core_bit(topo.id_of(x, 5));
        regions.push_back(l);
    }
    regions.push_back(block(topo, 3, 2, 5, 4));
    regions.push_back(block(topo, 0, 1, 8, 1));
    regions.push_back(CoreSet::first_n(64)); // all 64 cores
    for (const CoreSet& region : regions)
        expect_routes_match_seed(topo, region);

    // 1024 nodes: fixed shapes, then seeded random connected regions.
    MeshTopology big(32, 32);
    std::vector<CoreSet> big_regions;
    big_regions.push_back(core_bit(big.id_of(17, 9))); // single core
    // 10x10 block with a 4x4 hole: routes must go around it.
    big_regions.push_back(block(big, 3, 5, 10, 10).andnot(
        block(big, 6, 8, 4, 4)));
    // 374 cores, all ids and ranks above 255.
    big_regions.push_back(block(big, 4, 10, 17, 22));
    big_regions.push_back(CoreSet::first_n(1024)); // all 1024 cores
    seed::SeedLcg lcg(0x5EEDull);
    for (int size : {2, 7, 33, 150, 400})
        big_regions.push_back(random_connected_region(big, size, lcg));
    for (const CoreSet& region : big_regions)
        expect_routes_match_seed(big, region);
}

TEST(GoldenRouteOverrideTest, ClosedFormRectanglesMatchSeed)
{
    // Full rectangles take the closed-form representation. Check all
    // 1296 rectangles of an 8x8 mesh, then on 32x32 the corner 1x1s, a
    // column, a row, the whole mesh and 200 seeded rectangles.
    MeshTopology topo(8, 8);
    for (int h = 1; h <= 8; ++h)
        for (int w = 1; w <= 8; ++w)
            for (int y0 = 0; y0 + h <= 8; ++y0)
                for (int x0 = 0; x0 + w <= 8; ++x0)
                    expect_routes_match_seed(topo,
                                             block(topo, x0, y0, w, h));

    MeshTopology big(32, 32);
    std::vector<CoreSet> rects = {
        block(big, 31, 31, 1, 1),  block(big, 0, 0, 1, 1),
        block(big, 5, 12, 1, 20),  block(big, 0, 7, 32, 1),
        block(big, 0, 0, 32, 32),
    };
    seed::SeedLcg lcg(0x2EC7ull);
    while (rects.size() < 205) {
        const int x0 = static_cast<int>(lcg.next_below(32));
        const int y0 = static_cast<int>(lcg.next_below(32));
        const int w = 1 + static_cast<int>(lcg.next_below(32 - x0));
        const int h = 1 + static_cast<int>(lcg.next_below(32 - y0));
        rects.push_back(block(big, x0, y0, w, h));
    }
    for (const CoreSet& region : rects)
        expect_routes_match_seed(big, region);
}

TEST(GoldenRouteOverrideTest, ConfinedSendsMatchSeed)
{
    SocConfig cfg = SocConfig::Fpga();
    cfg.mesh_x = 8;
    cfg.mesh_y = 8;
    MeshTopology topo(8, 8);
    // A bumped (table) region, then a full 3x4 rectangle (closed form).
    const CoreSet rect = block(topo, 0, 0, 3, 4);
    const CoreSet bumped = rect | core_bit(topo.id_of(3, 3));

    for (const CoreSet& region : {bumped, rect}) {
        RouteOverride fast_ov = RouteOverride::build_confined(topo, region);
        seed::SeedRouteOverride seed_ov =
            seed::SeedRouteOverride::build_confined(topo, region);

        EventQueue eq;
        Network fast_net(cfg, topo, eq);
        seed::SeedEventQueue seq;
        seed::SeedNoc<> seed_net(cfg, topo, seq);

        Tick t = 0;
        for (int src : region)
            for (int dst : region) {
                SendResult f =
                    fast_net.send(t, src, dst, 10000, 1, 0, &fast_ov);
                SendResult s =
                    seed_net.send(t, src, dst, 10000, 1, 0, &seed_ov);
                EXPECT_EQ(f.sender_free, s.sender_free);
                EXPECT_EQ(f.delivered, s.delivered);
                EXPECT_EQ(f.hops, s.hops);
                t += 1000;
            }
    }
}

TEST(GoldenDeterminismTest, TwoRunsProduceIdenticalTraces)
{
    SocConfig cfg = SocConfig::Fpga();
    cfg.mesh_x = 8;
    cfg.mesh_y = 8;
    cfg.noc_relay_store_forward = false;
    std::vector<Msg> msgs = make_schedule(64, 600, 42);
    RunTrace a = run_fast(cfg, msgs);
    RunTrace b = run_fast(cfg, msgs);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].sender_free, b.results[i].sender_free);
        EXPECT_EQ(a.results[i].delivered, b.results[i].delivered);
    }
    EXPECT_EQ(a.final_link_busy, b.final_link_busy);
    EXPECT_EQ(a.deliveries, b.deliveries);
    EXPECT_EQ(a.packets, b.packets);
}

TEST(GoldenEventQueueTest, ExecutionTraceMatchesSeedHeap)
{
    // Random schedule mixing same-tick bursts, near-future events and
    // far-future events that cross the calendar window boundary, plus
    // callbacks that schedule follow-ups.
    auto drive = [](auto& eq) {
        std::vector<std::pair<Tick, int>> trace;
        seed::SeedLcg lcg(7);
        for (int i = 0; i < 500; ++i) {
            Tick when = lcg.next_below(200000); // well beyond one window
            eq.schedule(when, [&trace, &eq, i] {
                trace.emplace_back(eq.now(), i);
                if (i % 3 == 0) {
                    eq.schedule_in(17, [&trace, &eq, i] {
                        trace.emplace_back(eq.now(), 100000 + i);
                    });
                }
                if (i % 7 == 0) {
                    eq.schedule(eq.now(), [&trace, &eq, i] {
                        trace.emplace_back(eq.now(), 200000 + i);
                    });
                }
            });
        }
        eq.run();
        return trace;
    };
    EventQueue fast;
    seed::SeedEventQueue ref;
    EXPECT_EQ(drive(fast), drive(ref));
}

} // namespace
} // namespace vnpu
