/**
 * @file
 * Google-benchmark micro-benchmarks of the performance-critical
 * simulator kernels: graph edit distance, connected-subset
 * enumeration (small meshes and fragmented 1024-core free sets), exact
 * grid probes, range-TLB translation, page-TLB translation, buddy
 * allocation, confined-route builds, NoC sends and the event queue.
 * These bound the wall-clock cost of the figure harnesses (the
 * hypervisor's mapper evaluates hundreds of candidates per allocation).
 *
 * Besides the google-benchmark cases, main() self-times the fast-path
 * kernels against the seed implementations (tests/reference/
 * seed_models.h) and writes the comparison to BENCH_noc.json so the
 * perf trajectory is tracked across PRs.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "graph/enumerate.h"
#include "graph/ged.h"
#include "graph/graph.h"
#include "hyp/topology_mapper.h"
#include "mem/buddy_allocator.h"
#include "mem/page_tlb.h"
#include "mem/range_table.h"
#include "noc/network.h"
#include "reference/seed_models.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

using namespace vnpu;

static void
BM_ExactGed(benchmark::State& state)
{
    int n = static_cast<int>(state.range(0));
    graph::Graph a = graph::Graph::chain(n);
    graph::Graph b = graph::Graph::ring(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(graph::exact_ged(a, b).cost);
}
BENCHMARK(BM_ExactGed)->Arg(5)->Arg(7)->Arg(9);

static void
BM_ApproxGed(benchmark::State& state)
{
    int n = static_cast<int>(state.range(0));
    graph::Graph a = hyp::TopologyMapper::snake_topology(n);
    graph::Graph b = graph::Graph::mesh(n / 4, 4);
    if (b.num_nodes() != n)
        b = graph::Graph::chain(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(graph::approx_ged(a, b).cost);
}
BENCHMARK(BM_ApproxGed)->Arg(12)->Arg(24)->Arg(36);

static void
BM_EnumerateConnected(benchmark::State& state)
{
    graph::Graph mesh = graph::Graph::mesh(6, 6);
    graph::NodeMask all = graph::NodeMask::first_n(36);
    int k = static_cast<int>(state.range(0));
    for (auto _ : state) {
        std::uint64_t n = graph::count_connected_subsets(mesh, k, all,
                                                         100000);
        benchmark::DoNotOptimize(n);
    }
}
BENCHMARK(BM_EnumerateConnected)->Arg(4)->Arg(6)->Arg(8);

/**
 * The admission funnel's enumeration layer on a seeded, fragmented
 * 32x32 free set: row-major runs of 8-47 cores (the shape of
 * straightforward-mapped tenants), three in four of them taken. Mapper
 * caps: at most 256 subsets, and the callback stops at 64 distinct WL
 * hashes. range(0) = k. At k = 16 the walk stops after a few hundred
 * steps. At k = 40 it takes about 636k steps for 168 subsets, like the
 * few large requests that account for most of similar admission's
 * enumeration time.
 */
static void
BM_EnumerateFragmented1024(benchmark::State& state)
{
    const graph::Graph mesh = graph::Graph::mesh(32, 32);
    const int k = static_cast<int>(state.range(0));
    Rng rng(0xF4A6);
    graph::NodeMask free;
    for (int id = 0; id < 1024;) {
        const int run = 8 + static_cast<int>(rng.next_below(40));
        const bool take = rng.next_below(4) != 0;
        for (int end = std::min(1024, id + run); id < end; ++id)
            if (!take)
                free.set(id);
    }
    std::vector<std::uint64_t> hashes;
    auto cb = [&](const graph::NodeMask& m) {
        const std::uint64_t h = mesh.wl_hash_subset(m);
        if (std::find(hashes.begin(), hashes.end(), h) == hashes.end())
            hashes.push_back(h);
        return hashes.size() < 64;
    };
    for (auto _ : state) {
        hashes.clear();
        benchmark::DoNotOptimize(
            graph::enumerate_connected_subsets(mesh, k, free, cb, 256));
    }
}
BENCHMARK(BM_EnumerateFragmented1024)->Arg(16)->Arg(40);

/**
 * The admission funnel's scoring layer: `GedScorer::score_subset` of a
 * snake request against sampled connected regions of a fragmented
 * 32x32 free set (row-major runs of 8-47 cores, half of them taken, so
 * 40-core regions exist). range(0) = k: 9 runs the exact branch and
 * bound, 40 the approximate 2-opt search. One iteration scores the
 * first 16 of 256 sampler draws.
 */
static void
BM_ScoreSubsetFragmented1024(benchmark::State& state)
{
    const graph::Graph mesh = graph::Graph::mesh(32, 32);
    const int k = static_cast<int>(state.range(0));
    Rng rng(0xF4A6);
    graph::NodeMask free;
    for (int id = 0; id < 1024;) {
        const int run = 8 + static_cast<int>(rng.next_below(40));
        const bool take = rng.next_below(2) != 0;
        for (int end = std::min(1024, id + run); id < end; ++id)
            if (!take)
                free.set(id);
    }
    std::vector<graph::NodeMask> cands =
        graph::sample_connected_subsets(mesh, k, free, 256, rng);
    cands.resize(std::min<std::size_t>(cands.size(), 16));
    const graph::GedScorer scorer(hyp::TopologyMapper::snake_topology(k),
                                  graph::GedOptions{});
    for (auto _ : state)
        for (const graph::NodeMask& m : cands)
            benchmark::DoNotOptimize(scorer.score_subset(mesh, m).cost);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cands.size()));
}
BENCHMARK(BM_ScoreSubsetFragmented1024)->Arg(9)->Arg(40);

static void
BM_RangeTlbHit(benchmark::State& state)
{
    SocConfig cfg = SocConfig::Fpga();
    mem::RangeTable rtt;
    for (int i = 0; i < 16; ++i)
        rtt.add(0x10000 + i * 0x100000, i * 0x100000, 0x100000,
                mem::kPermRead);
    rtt.finalize();
    mem::RangeTlbTranslator tlb(cfg, rtt, 4);
    tlb.translate(0x10000, 64, mem::kPermRead);
    Addr a = 0x10000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tlb.translate(a, 64, mem::kPermRead).pa);
        a = 0x10000 + ((a + 64) & 0xFFFF);
    }
}
BENCHMARK(BM_RangeTlbHit);

static void
BM_PageTlbStream(benchmark::State& state)
{
    SocConfig cfg = SocConfig::Fpga();
    mem::PageTable pt(cfg.page_bytes);
    pt.map_range(0x10000, 0, 64ull << 20, mem::kPermRead);
    mem::PageTlbTranslator tlb(cfg, pt, static_cast<int>(state.range(0)));
    Addr a = 0x10000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tlb.translate(a, 4096, mem::kPermRead).stall);
        a = 0x10000 + ((a + 4096) % (64ull << 20));
    }
}
BENCHMARK(BM_PageTlbStream)->Arg(4)->Arg(32);

static void
BM_BuddyAllocFree(benchmark::State& state)
{
    mem::BuddyAllocator buddy(0, 1ull << 30, 64 << 10);
    for (auto _ : state) {
        auto a = buddy.alloc(1 << 20);
        benchmark::DoNotOptimize(a);
        buddy.free(*a);
    }
}
BENCHMARK(BM_BuddyAllocFree);

static void
BM_NocSend(benchmark::State& state)
{
    SocConfig cfg = SocConfig::Sim();
    EventQueue eq;
    noc::MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    noc::Network net(cfg, topo, eq);
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            net.send(t, 0, 35, 64 << 10, 1, 0).delivered);
        t += 10000;
    }
}
BENCHMARK(BM_NocSend);

/**
 * The same 10-hop send through a confined route over the whole mesh:
 * range(0) == 0 is the full rectangle (closed-form lookup), 1 drops the
 * far corner core from the region so the lookup goes through the table.
 */
static void
BM_NocSendConfined(benchmark::State& state)
{
    SocConfig cfg = SocConfig::Sim();
    EventQueue eq;
    noc::MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    noc::Network net(cfg, topo, eq);
    CoreSet region = CoreSet::first_n(topo.num_nodes());
    if (state.range(0) == 1)
        region.reset(topo.id_of(cfg.mesh_x - 1, 0));
    const noc::RouteOverride route =
        noc::RouteOverride::build_confined(topo, region);
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            net.send(t, 0, 35, 64 << 10, 1, 0, &route).delivered);
        t += 10000;
    }
}
BENCHMARK(BM_NocSendConfined)->ArgNames({"table"})->Arg(0)->Arg(1);

/** Wormhole send at 1 / 64 / 4096 routing packets per message. */
static void
BM_NocSendPackets(benchmark::State& state)
{
    SocConfig cfg = SocConfig::Sim();
    cfg.noc_relay_store_forward = false;
    EventQueue eq;
    noc::MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    noc::Network net(cfg, topo, eq);
    const std::uint64_t bytes =
        cfg.packet_bytes * static_cast<std::uint64_t>(state.range(0));
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            net.send(t, 0, 35, bytes, 1, 0).delivered);
        t += 10000;
    }
}
BENCHMARK(BM_NocSendPackets)->Arg(1)->Arg(64)->Arg(4096);

/**
 * Sim-like event churn: thousands of in-flight events (a large mesh's
 * cores and messages), each carrying a NoC-delivery-sized capture and
 * scheduling a successor at a mixed near/far delay. This is the profile
 * of every figure harness's inner loop.
 */
template <typename Queue>
std::uint64_t
event_queue_workload(Queue& eq, std::uint64_t target)
{
    struct Chainer {
        Queue& eq;
        std::uint64_t target;
        std::uint64_t executed = 0;

        void
        fire(int lane, std::uint64_t a, std::uint64_t b, std::uint32_t tag)
        {
            if (++executed >= target)
                return;
            // Mix of same-tick, near and window-crossing delays.
            static constexpr Cycles kDelays[] = {0, 1, 3, 17, 120, 900,
                                                 5000};
            Cycles d = kDelays[(executed + lane) % std::size(kDelays)];
            // The capture mirrors a NoC delivery callback: a component
            // pointer plus message fields (~40 bytes).
            eq.schedule_in(d, [this, lane, a, b, tag] {
                fire(lane, a + 1, b ^ a, tag + 1);
            });
        }
    };
    Chainer c{eq, target};
    for (int i = 0; i < 4096; ++i)
        eq.schedule(static_cast<Tick>(i * 37 % 1024),
                    [&c, i] { c.fire(i, i, 2 * i, 0); });
    eq.run();
    return c.executed;
}

static void
BM_EventQueueChurn(benchmark::State& state)
{
    for (auto _ : state) {
        EventQueue eq;
        benchmark::DoNotOptimize(event_queue_workload(eq, 262144));
    }
}
BENCHMARK(BM_EventQueueChurn);

static void
BM_MapperSimilar(benchmark::State& state)
{
    noc::MeshTopology topo(6, 6);
    hyp::TopologyMapper mapper(topo);
    hyp::MappingRequest req;
    req.vtopo = hyp::TopologyMapper::snake_topology(
        static_cast<int>(state.range(0)));
    req.max_candidates = 64;
    CoreSet free = CoreSet::first_n(36).andnot(CoreSet::from_word(0x3));
    for (auto _ : state)
        benchmark::DoNotOptimize(mapper.map(req, free).ted);
}
BENCHMARK(BM_MapperSimilar)->Arg(9)->Arg(16);

/** Similar-topology mapping on a full 32x32 (1024-core) chip. */
static void
BM_MapperSimilar1024(benchmark::State& state)
{
    noc::MeshTopology topo(32, 32);
    hyp::TopologyMapper mapper(topo);
    hyp::MappingRequest req;
    req.vtopo = hyp::TopologyMapper::snake_topology(
        static_cast<int>(state.range(0)));
    req.max_candidates = 64;
    CoreSet free = CoreSet::first_n(1024).andnot(CoreSet::from_word(0x3));
    for (auto _ : state)
        benchmark::DoNotOptimize(mapper.map(req, free).ted);
}
BENCHMARK(BM_MapperSimilar1024)->Arg(16)->Arg(32);

/**
 * One exact probe of a range(0) x range(0) grid request on a seeded,
 * fragmented 32x32 free set: the fleet's per-device feasibility
 * question. A core on every range(0)-th row and column of the lattice
 * is taken, so every s x s box holds a taken core; range(1) == 1 frees
 * the south-east s x s block again, so the slide hits near its end.
 */
static void
BM_ExactGridProbe(benchmark::State& state)
{
    noc::MeshTopology topo(32, 32);
    hyp::TopologyMapper mapper(topo);
    const int s = static_cast<int>(state.range(0));
    Rng rng(0x9e1d + static_cast<std::uint64_t>(s));
    CoreSet free = CoreSet::first_n(topo.num_nodes());
    for (int id = 0; id < topo.num_nodes(); ++id)
        if (rng.next_below(100) < 15 ||
            (topo.x_of(id) % s == s - 1 && topo.y_of(id) % s == s - 1))
            free.reset(id);
    if (state.range(1) == 1)
        for (int y = 32 - s; y < 32; ++y)
            for (int x = 32 - s; x < 32; ++x)
                free.set(topo.id_of(x, y));
    hyp::MappingRequest req;
    req.vtopo = graph::Graph::mesh(s, s);
    req.strategy = hyp::MappingStrategy::kExact;
    req.grid_width = hyp::row_major_grid_width(req.vtopo);
    if (mapper.map(req, free).ok != (state.range(1) == 1))
        state.SkipWithError("fixture gave the wrong verdict");
    for (auto _ : state)
        benchmark::DoNotOptimize(mapper.map(req, free).ok);
}
BENCHMARK(BM_ExactGridProbe)
    ->ArgNames({"side", "hit"})
    ->ArgsProduct({{4, 16}, {0, 1}});

/** Raw CoreSet kernels at full 1024-bit width. */
static void
BM_CoreSetOps(benchmark::State& state)
{
    Rng rng(0xC0DE);
    CoreSet a, b;
    for (int i = 0; i < 256; ++i) {
        a.set(static_cast<int>(rng.next_below(CoreSet::kCapacity)));
        b.set(static_cast<int>(rng.next_below(CoreSet::kCapacity)));
    }
    for (auto _ : state) {
        CoreSet c = (a & b) | a.andnot(b);
        int sum = c.count();
        for (int v : c)
            sum += v;
        benchmark::DoNotOptimize(sum);
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_CoreSetOps);

/**
 * Confined-route build on a 32x32 mesh for a region of range(0) = s^2
 * cores. range(1) == 0 is the s x s square (closed form); 1 is an L of
 * the same size whose arms are s/2 cores thick and 5s/4 long (table).
 */
static void
BM_RouteBuild(benchmark::State& state)
{
    noc::MeshTopology topo(32, 32);
    const int cores = static_cast<int>(state.range(0));
    int side = 1;
    while (side * side < cores)
        ++side;
    const int thick = side / 2;
    const int arm = 5 * side / 4;
    CoreSet region;
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x) {
            const bool in = state.range(1) == 0
                                ? x < side && y < side
                                : x < arm && y < arm &&
                                      (x < thick || y >= arm - thick);
            if (in)
                region.set(topo.id_of(x, y));
        }
    if (region.count() != cores)
        state.SkipWithError("region size mismatch");
    for (auto _ : state)
        benchmark::DoNotOptimize(
            noc::RouteOverride::build_confined(topo, region));
}
BENCHMARK(BM_RouteBuild)
    ->ArgNames({"cores", "table"})
    ->ArgsProduct({{16, 64, 256}, {0, 1}});

// ---- Seed-vs-fast comparison, emitted as BENCH_noc.json --------------
//
// The acceptance bar for the fast-path rewrite: event-queue throughput
// and the 4096-packet send must each be >= 3x over the seed kernels.
// Timed here with plain steady_clock loops (best of kReps) so the JSON
// is self-contained and does not depend on google-benchmark's output
// format.

namespace {

using Clock = std::chrono::steady_clock;

double
best_seconds_of(int reps, const std::function<void()>& body)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        body();
        auto t1 = Clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

constexpr std::uint64_t kQueueEvents = 1 << 18;

struct CompareCase {
    std::string name;
    std::string metric;
    double seed;
    double fast;
};

std::vector<CompareCase>
run_comparisons()
{
    std::vector<CompareCase> cases;
    const int reps = 5;

    // Event-queue throughput (events/sec, higher is better).
    {
        double seed_s = best_seconds_of(reps, [] {
            seed::SeedEventQueue eq;
            event_queue_workload(eq, kQueueEvents);
        });
        double fast_s = best_seconds_of(reps, [] {
            EventQueue eq;
            event_queue_workload(eq, kQueueEvents);
        });
        cases.push_back({"event_queue_throughput", "events_per_sec",
                         kQueueEvents / seed_s, kQueueEvents / fast_s});
    }

    // CoreSet algebra + popcount + iteration vs the same logical work
    // on a raw u64 mask (the pre-widening representation): the cost of
    // carrying 1024-bit sets on the 64-core-scale paths. Both sides
    // run the identical loop shape — derive the next operand from the
    // accumulator so nothing folds to a constant.
    {
        constexpr int kOps = 200000;
        constexpr std::uint64_t kLcg = 6364136223846793005ull;
        const std::uint64_t b0 = Rng(0xC0DE).next();
        double seed_s = best_seconds_of(reps, [&] {
            std::uint64_t acc = 0, w = 0x9e3779b97f4a7c15ull;
            for (int i = 0; i < kOps; ++i) {
                std::uint64_t a = w, b = b0;
                std::uint64_t both = a & b;
                std::uint64_t either = a | b;
                acc += static_cast<std::uint64_t>(
                    __builtin_popcountll(both));
                std::uint64_t m = either;
                while (m) {
                    acc += static_cast<std::uint64_t>(
                        __builtin_ctzll(m));
                    m &= m - 1;
                }
                w = w * kLcg + acc;
            }
            benchmark::DoNotOptimize(acc);
        });
        const CoreSet cb2 = CoreSet::from_word(b0);
        double fast_s = best_seconds_of(reps, [&] {
            std::uint64_t acc = 0, w = 0x9e3779b97f4a7c15ull;
            for (int i = 0; i < kOps; ++i) {
                CoreSet a = CoreSet::from_word(w);
                CoreSet both = a & cb2;
                CoreSet either = a | cb2;
                acc += static_cast<std::uint64_t>(both.count());
                for (int v : either)
                    acc += static_cast<std::uint64_t>(v);
                w = w * kLcg + acc;
            }
            benchmark::DoNotOptimize(acc);
        });
        cases.push_back({"coreset_ops_64bit_sets", "ops_per_sec",
                         kOps / seed_s, kOps / fast_s});
    }

    // Mapper throughput: the old 64-core ceiling (8x8) vs the newly
    // reachable 1024-core chip (32x32), similar-topology strategy.
    {
        hyp::MappingRequest req;
        req.vtopo = hyp::TopologyMapper::snake_topology(16);
        req.max_candidates = 64;
        const int maps = 3;
        noc::MeshTopology topo64(8, 8);
        hyp::TopologyMapper mapper64(topo64);
        CoreSet free64 = CoreSet::first_n(64);
        double seed_s = best_seconds_of(reps, [&] {
            for (int i = 0; i < maps; ++i)
                benchmark::DoNotOptimize(mapper64.map(req, free64).ted);
        });
        noc::MeshTopology topo1k(32, 32);
        hyp::TopologyMapper mapper1k(topo1k);
        CoreSet free1k = CoreSet::first_n(1024);
        double fast_s = best_seconds_of(reps, [&] {
            for (int i = 0; i < maps; ++i)
                benchmark::DoNotOptimize(mapper1k.map(req, free1k).ted);
        });
        cases.push_back({"mapper_similar16_64c_vs_1024c", "maps_per_sec",
                         maps / seed_s, maps / fast_s});
    }

    // Wormhole sends at 1 / 64 / 4096 packets (sends/sec).
    SocConfig cfg = SocConfig::Sim();
    cfg.noc_relay_store_forward = false;
    noc::MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    for (std::uint64_t npkts : {1ull, 64ull, 4096ull}) {
        const std::uint64_t bytes = cfg.packet_bytes * npkts;
        const int iters = npkts >= 4096 ? 2000 : 20000;

        double seed_s = best_seconds_of(reps, [&] {
            seed::SeedEventQueue eq;
            seed::SeedNoc<> net(cfg, topo, eq);
            Tick t = 0;
            for (int i = 0; i < iters; ++i) {
                net.send(t, 0, 35, bytes, 1, 0);
                t += 10000;
            }
        });
        double fast_s = best_seconds_of(reps, [&] {
            EventQueue eq;
            noc::Network net(cfg, topo, eq);
            Tick t = 0;
            for (int i = 0; i < iters; ++i) {
                net.send(t, 0, 35, bytes, 1, 0);
                t += 10000;
            }
        });
        cases.push_back({"noc_send_" + std::to_string(npkts) + "pkt",
                         "sends_per_sec", iters / seed_s, iters / fast_s});
    }
    return cases;
}

void
write_json(const std::vector<CompareCase>& cases)
{
    bench::JsonReport report("noc", "noc_kernels");
    for (const CompareCase& c : cases)
        report.add(c.name,
                   {{"seed", c.seed},
                    {"fast", c.fast},
                    {"speedup", c.fast / c.seed}},
                   {{"metric", c.metric}});
    report.write();
}

} // namespace

int
main(int argc, char** argv)
{
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();

    std::vector<CompareCase> cases = run_comparisons();
    std::printf("\nseed-vs-fast comparison (written to BENCH_noc.json):\n");
    for (const CompareCase& c : cases)
        std::printf("  %-28s %12.0f -> %12.0f %s  (%.1fx)\n",
                    c.name.c_str(), c.seed, c.fast, c.metric.c_str(),
                    c.fast / c.seed);
    write_json(cases);
    return 0;
}
