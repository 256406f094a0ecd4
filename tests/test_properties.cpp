/**
 * @file
 * Parameterized property tests: invariants that must hold across
 * sweeps of mesh sizes, region shapes, models and pipeline widths.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <tuple>

#include "graph/enumerate.h"
#include "hyp/topology_mapper.h"
#include "mem/buddy_allocator.h"
#include "noc/network.h"
#include "runtime/compiler.h"
#include "sim/rng.h"
#include "virt/routing_table.h"
#include "workload/model_zoo.h"
#include "workload/partitioner.h"

namespace vnpu {
namespace {

// ---- Confined routing stays shortest and inside, for random regions ---

class ConfinedRoutingProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConfinedRoutingProperty, RoutesAreInRegionShortestPaths)
{
    const int seed = GetParam();
    Rng rng(seed);
    int w = 3 + static_cast<int>(rng.next_below(4));
    int h = 3 + static_cast<int>(rng.next_below(3));
    noc::MeshTopology topo(w, h);
    graph::Graph mesh = topo.to_graph();

    int k = 3 + static_cast<int>(rng.next_below(6));
    graph::NodeMask all = graph::NodeMask::first_n(mesh.num_nodes());
    auto regions = graph::sample_connected_subsets(mesh, k, all, 4, rng);
    ASSERT_FALSE(regions.empty());

    for (const graph::NodeMask& region : regions) {
        noc::RouteOverride ov =
            noc::RouteOverride::build_confined(topo, region);
        std::vector<int> nodes = graph::Graph::mask_to_nodes(region);
        for (int a : nodes) {
            for (int b : nodes) {
                if (a == b)
                    continue;
                // Follow the override; count hops.
                int cur = a, hops = 0;
                while (cur != b) {
                    cur = ov.next_hop(cur, b);
                    ASSERT_NE(cur, kInvalidCore);
                    ASSERT_TRUE(region.test(cur));
                    ASSERT_LE(++hops, topo.num_nodes());
                }
                // Path length equals BFS distance within the region.
                graph::Graph sub = topo.to_graph();
                // BFS distance inside region:
                std::map<int, int> dist{{a, 0}};
                std::vector<int> queue{a};
                for (std::size_t head = 0; head < queue.size(); ++head) {
                    int v = queue[head];
                    for (int u : sub.neighbors(v) & region) {
                        if (!dist.count(u)) {
                            dist[u] = dist[v] + 1;
                            queue.push_back(u);
                        }
                    }
                }
                EXPECT_EQ(hops, dist.at(b));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfinedRoutingProperty,
                         ::testing::Range(1, 9));

// ---- Compact mesh routing table == standard table ------------------------

struct RtShape {
    int vw, vh, anchor, stride;
};

class RoutingTableEquivalence
    : public ::testing::TestWithParam<RtShape> {};

TEST_P(RoutingTableEquivalence, CompactMatchesExplicit)
{
    RtShape s = GetParam();
    virt::RoutingTable compact =
        virt::RoutingTable::mesh2d(1, s.vw, s.vh, s.anchor, s.stride);
    virt::RoutingTable standard =
        virt::RoutingTable::standard(1, compact.phys_cores());
    ASSERT_EQ(compact.num_cores(), standard.num_cores());
    for (int v = -1; v <= compact.num_cores(); ++v)
        EXPECT_EQ(compact.lookup(v), standard.lookup(v)) << "v=" << v;
    // The descriptor form saves SRAM once there is more than one core
    // (for a single core the shape field is pure overhead).
    if (compact.num_cores() > 1) {
        EXPECT_LE(compact.storage_bits(), standard.storage_bits());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoutingTableEquivalence,
    ::testing::Values(RtShape{1, 1, 0, 6}, RtShape{2, 2, 1, 3},
                      RtShape{3, 2, 7, 6}, RtShape{2, 3, 0, 8},
                      RtShape{4, 4, 9, 6}, RtShape{6, 1, 12, 6}));

// ---- Buddy allocator invariants under random workloads --------------------

class BuddyProperty : public ::testing::TestWithParam<int> {};

TEST_P(BuddyProperty, NoOverlapAndFullRecovery)
{
    Rng rng(GetParam());
    mem::BuddyAllocator buddy(0x1000000, 4u << 20, 4096);
    std::map<Addr, std::uint64_t> live; // addr -> size
    for (int op = 0; op < 400; ++op) {
        if (live.empty() || rng.next_double() < 0.6) {
            std::uint64_t want = 1ull << (12 + rng.next_below(6));
            auto a = buddy.alloc(want);
            if (!a)
                continue;
            std::uint64_t got = buddy.block_size(*a);
            EXPECT_GE(got, want);
            // No overlap with any live block.
            for (auto [addr, size] : live) {
                bool disjoint = *a + got <= addr || addr + size <= *a;
                ASSERT_TRUE(disjoint)
                    << "overlap: " << *a << "+" << got << " vs " << addr;
            }
            live[*a] = got;
        } else {
            auto it = live.begin();
            std::advance(it, rng.next_below(live.size()));
            buddy.free(it->first);
            live.erase(it);
        }
    }
    for (auto [addr, size] : live)
        buddy.free(addr);
    EXPECT_EQ(buddy.free_bytes(), 4u << 20);
    EXPECT_EQ(buddy.live_blocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyProperty, ::testing::Range(10, 18));

// ---- Pipeline plans: conservation + well-formed edges, model sweep ---------

struct PlanCase {
    const char* model;
    int stages;
};

// Value printers keep the parameterized test names stable: gtest's default
// byte dump would embed the model-name pointer (an ASLR-dependent address)
// and uninitialised struct padding into every discovered test name.
void PrintTo(const PlanCase& pc, std::ostream* os)
{
    *os << "(" << pc.model << ", " << pc.stages << ")";
}

class PipelinePlanProperty : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PipelinePlanProperty, ConservationAndEdgeSanity)
{
    PlanCase pc = GetParam();
    workload::Model m = workload::by_name(pc.model);
    workload::PipelinePlan plan =
        workload::make_pipeline_plan(m, pc.stages);
    ASSERT_EQ(plan.num_stages, pc.stages);

    std::uint64_t flops = 0, weights = 0;
    for (int s = 0; s < plan.num_stages; ++s) {
        EXPECT_FALSE(plan.stages[s].slices.empty());
        flops += plan.stage_flops(m, s);
        weights += plan.stage_weight_bytes(m, s);
    }
    EXPECT_NEAR(static_cast<double>(flops),
                static_cast<double>(m.total_flops()),
                0.03 * m.total_flops());
    EXPECT_NEAR(static_cast<double>(weights),
                static_cast<double>(m.total_weight_bytes()),
                0.03 * m.total_weight_bytes() + 64);

    std::set<int> tags;
    for (const workload::CommEdge& e : plan.edges) {
        EXPECT_GE(e.src_stage, 0);
        EXPECT_LT(e.src_stage, pc.stages);
        EXPECT_GE(e.dst_stage, 0);
        EXPECT_LT(e.dst_stage, pc.stages);
        EXPECT_NE(e.src_stage, e.dst_stage);
        EXPECT_GT(e.bytes, 0u);
        EXPECT_TRUE(tags.insert(e.tag).second);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelinePlanProperty,
    ::testing::Values(PlanCase{"resnet18", 3}, PlanCase{"resnet18", 13},
                      PlanCase{"resnet34", 28}, PlanCase{"gpt2-s", 12},
                      PlanCase{"gpt2-s", 36}, PlanCase{"alexnet", 8},
                      PlanCase{"mobilenet", 16}, PlanCase{"googlenet", 9},
                      PlanCase{"bert", 24}, PlanCase{"dlrm", 4},
                      PlanCase{"yololite", 6}, PlanCase{"efficientnet", 10}));

// ---- Compiled programs: structural well-formedness across modes ------------

struct CompileCase {
    const char* model;
    int stages;
    runtime::CommMode comm;
    bool stream;
    bool single_stream;
};

void PrintTo(const CompileCase& cc, std::ostream* os)
{
    *os << "(" << cc.model << ", " << cc.stages << ", "
        << (cc.comm == runtime::CommMode::kDataflow ? "dataflow" : "uvm-sync")
        << ", stream=" << cc.stream << ", single_stream=" << cc.single_stream
        << ")";
}

class CompiledProgramProperty
    : public ::testing::TestWithParam<CompileCase> {};

TEST_P(CompiledProgramProperty, TagsBalanceAndBoundsHold)
{
    CompileCase cc = GetParam();
    workload::Model m = workload::by_name(cc.model);
    workload::PipelinePlan plan =
        workload::make_pipeline_plan(m, cc.stages);
    runtime::CompileOptions opt;
    opt.iterations = 3;
    opt.comm = cc.comm;
    opt.stream_weights = cc.stream;
    opt.single_stream = cc.single_stream;
    runtime::CompiledWorkload cw =
        runtime::compile_pipeline(m, plan, opt, 0x10000, 8ull << 30);
    ASSERT_EQ(cw.programs.size(), static_cast<std::size_t>(cc.stages));

    std::map<int, int> sends, recvs;
    for (const core::Program& p : cw.programs) {
        ASSERT_FALSE(p.empty());
        EXPECT_EQ(p.back().op, core::Opcode::kHalt);
        int iter_markers = 0;
        for (const core::Instr& in : p) {
            switch (in.op) {
              case core::Opcode::kSend:
                ++sends[in.tag];
                EXPECT_GE(in.peer, 0);
                EXPECT_LT(in.peer, cc.stages);
                break;
              case core::Opcode::kRecv:
                ++recvs[in.tag];
                break;
              case core::Opcode::kIterBegin:
                ++iter_markers;
                break;
              case core::Opcode::kLoadWeight:
              case core::Opcode::kLoadGlobal:
              case core::Opcode::kStoreGlobal:
                EXPECT_GE(in.va, 0x10000u);
                EXPECT_LE(in.va + in.bytes, 0x10000u + cw.va_used);
                break;
              default:
                break;
            }
        }
        EXPECT_EQ(iter_markers, 3);
    }
    // Every send has a matching recv (deadlock-freedom precondition).
    EXPECT_EQ(sends, recvs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompiledProgramProperty,
    ::testing::Values(
        CompileCase{"resnet18", 6, runtime::CommMode::kDataflow, false,
                    false},
        CompileCase{"resnet18", 6, runtime::CommMode::kUvmSync, false,
                    false},
        CompileCase{"resnet34", 24, runtime::CommMode::kDataflow, true,
                    false},
        CompileCase{"gpt2-s", 12, runtime::CommMode::kDataflow, false,
                    true},
        CompileCase{"gpt2-s", 12, runtime::CommMode::kUvmSync, true,
                    true},
        CompileCase{"transformer", 8, runtime::CommMode::kDataflow, false,
                    true},
        CompileCase{"mobilenet", 8, runtime::CommMode::kUvmSync, true,
                    false}));

// ---- Mapper: assignments are valid for every strategy and scale -----------

class MapperStrategyProperty
    : public ::testing::TestWithParam<
          std::tuple<int, hyp::MappingStrategy>> {};

TEST_P(MapperStrategyProperty, AssignmentsAreDistinctFreeCores)
{
    const auto [side, strat] = GetParam();
    noc::MeshTopology topo(side, side);
    hyp::TopologyMapper mapper(topo);
    graph::Graph mesh = topo.to_graph();
    const int n = side * side;
    Rng rng(99 + side);
    int mapped = 0;
    for (int trial = 0; trial < 6; ++trial) {
        // Random occupancy, scaled with the mesh.
        CoreSet free = CoreSet::first_n(n);
        for (int i = 0; i < n / 4; ++i)
            free.reset(static_cast<CoreId>(rng.next_below(n)));
        int k = 4 + static_cast<int>(rng.next_below(8 + side));
        hyp::MappingRequest req;
        req.vtopo = hyp::TopologyMapper::snake_topology(k);
        req.strategy = strat;
        req.max_candidates = 48;
        hyp::MappingResult r = mapper.map(req, free);
        if (!r.ok)
            continue; // exact may legitimately fail
        ++mapped;
        std::set<CoreId> used;
        for (CoreId c : r.assignment) {
            EXPECT_TRUE(free.test(c));
            EXPECT_TRUE(used.insert(c).second);
        }
        EXPECT_EQ(static_cast<int>(used.size()), k);
        EXPECT_GE(r.ted, 0.0);
        if (strat == hyp::MappingStrategy::kExact) {
            // An exact hit is a cost-0 isomorphic placement: the mesh
            // adjacency of the assigned cores mirrors the request
            // edge-for-edge.
            EXPECT_EQ(r.ted, 0.0);
            for (int u = 0; u < k; ++u)
                for (int v = u + 1; v < k; ++v)
                    EXPECT_EQ(req.vtopo.has_edge(u, v),
                              mesh.has_edge(r.assignment[u],
                                            r.assignment[v]))
                        << side << "x" << side << " pair (" << u << ","
                        << v << ")";
        }
    }
    EXPECT_GT(mapped, 0) << "sweep never exercised a successful map";
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesByMesh, MapperStrategyProperty,
    ::testing::Combine(
        ::testing::Values(6, 16, 32),
        ::testing::Values(hyp::MappingStrategy::kExact,
                          hyp::MappingStrategy::kStraightforward,
                          hyp::MappingStrategy::kSimilarTopology,
                          hyp::MappingStrategy::kFragmented)));

} // namespace
} // namespace vnpu
