/**
 * @file
 * Tests for the runtime: compiler output well-formedness and
 * end-to-end launches (bare metal, virtualized, UVM mode, TDM).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>

#include "hyp/hypervisor.h"
#include "hyp/mig.h"
#include "runtime/launcher.h"
#include "runtime/machine.h"
#include "sim/log.h"
#include "workload/model_zoo.h"

namespace vnpu::runtime {
namespace {

using hyp::Hypervisor;
using hyp::VnpuSpec;
using workload::Model;

SocConfig
fpga()
{
    return SocConfig::Fpga();
}

// ---- Compiler ---------------------------------------------------------------

TEST(CompilerTest, SendRecvTagsPairUp)
{
    Model m = workload::resnet_block(16, 64);
    workload::PipelinePlan plan = workload::make_pipeline_plan(m, 4);
    CompileOptions opt;
    opt.iterations = 3;
    CompiledWorkload cw =
        compile_pipeline(m, plan, opt, 0x10000, 1ull << 30);
    ASSERT_EQ(cw.programs.size(), 4u);

    std::map<int, int> send_count, recv_count;
    for (const core::Program& p : cw.programs) {
        for (const core::Instr& in : p) {
            if (in.op == core::Opcode::kSend)
                ++send_count[in.tag];
            if (in.op == core::Opcode::kRecv)
                ++recv_count[in.tag];
        }
    }
    EXPECT_EQ(send_count, recv_count);
    for (auto [tag, cnt] : send_count)
        EXPECT_EQ(cnt, opt.iterations) << "tag " << tag;
}

TEST(CompilerTest, IterationMarkersPresent)
{
    Model m = workload::transformer_block(64, 16);
    workload::PipelinePlan plan = workload::make_pipeline_plan(m, 2);
    CompileOptions opt;
    opt.iterations = 5;
    CompiledWorkload cw =
        compile_pipeline(m, plan, opt, 0x10000, 1ull << 30);
    for (const core::Program& p : cw.programs) {
        int markers = 0;
        for (const core::Instr& in : p)
            if (in.op == core::Opcode::kIterBegin)
                ++markers;
        EXPECT_EQ(markers, 5);
        EXPECT_EQ(p.back().op, core::Opcode::kHalt);
    }
}

TEST(CompilerTest, StreamingReloadsWeightsEachIteration)
{
    Model m = workload::resnet_block(16, 64);
    workload::PipelinePlan plan = workload::make_pipeline_plan(m, 2);
    CompileOptions resident;
    resident.iterations = 3;
    CompileOptions streaming = resident;
    streaming.stream_weights = true;

    CompiledWorkload r =
        compile_pipeline(m, plan, resident, 0x10000, 1ull << 30);
    CompiledWorkload s =
        compile_pipeline(m, plan, streaming, 0x10000, 1ull << 30);
    auto weight_loads = [](const core::Program& p) {
        std::uint64_t bytes = 0;
        for (const core::Instr& in : p)
            if (in.op == core::Opcode::kLoadWeight)
                bytes += in.bytes;
        return bytes;
    };
    for (std::size_t v = 0; v < r.programs.size(); ++v) {
        if (weight_loads(r.programs[v]) == 0)
            continue;
        EXPECT_EQ(weight_loads(s.programs[v]),
                  3 * weight_loads(r.programs[v]));
    }
}

TEST(CompilerTest, UvmModeRoutesEdgesThroughMemory)
{
    Model m = workload::transformer_block(64, 16);
    workload::PipelinePlan plan = workload::make_pipeline_plan(m, 4);
    CompileOptions df;
    df.iterations = 1;
    CompileOptions uvm = df;
    uvm.comm = CommMode::kUvmSync;

    CompiledWorkload a = compile_pipeline(m, plan, df, 0x10000, 1ull << 30);
    CompiledWorkload b =
        compile_pipeline(m, plan, uvm, 0x10000, 1ull << 30);

    auto count = [](const CompiledWorkload& cw, core::Opcode op) {
        std::uint64_t bytes = 0;
        for (const core::Program& p : cw.programs)
            for (const core::Instr& in : p)
                if (in.op == op)
                    bytes += in.bytes;
        return bytes;
    };
    // Dataflow: activations over the NoC; UVM: stores + loads + flags.
    EXPECT_GT(count(a, core::Opcode::kSend), 0u);
    EXPECT_GT(count(b, core::Opcode::kStoreGlobal),
              count(a, core::Opcode::kStoreGlobal));
    EXPECT_GT(count(b, core::Opcode::kLoadGlobal),
              count(a, core::Opcode::kLoadGlobal));
    // UVM flags are tiny compared to dataflow payloads.
    EXPECT_LT(count(b, core::Opcode::kSend),
              count(a, core::Opcode::kSend));
}

TEST(CompilerTest, VaBudgetEnforced)
{
    Model m = workload::resnet18();
    workload::PipelinePlan plan = workload::make_pipeline_plan(m, 4);
    CompileOptions opt;
    EXPECT_THROW(compile_pipeline(m, plan, opt, 0x10000, 1 << 20),
                 SimFatal);
}

TEST(CompilerTest, ChunkedLoadIsOneInstruction)
{
    Model m = workload::resnet_block(16, 64);
    workload::PipelinePlan plan = workload::make_pipeline_plan(m, 2);
    CompileOptions opt;
    opt.iterations = 2;
    opt.stream_weights = true;
    CompiledWorkload cw = compile_pipeline(m, plan, opt, 0x10000, 1ull << 30);
    std::uint64_t largest = 0;
    for (std::size_t v = 0; v < cw.programs.size(); ++v) {
        int weight_loads = 0;
        for (const core::Instr& in : cw.programs[v]) {
            if (in.op != core::Opcode::kLoadWeight &&
                in.op != core::Opcode::kLoadGlobal)
                continue;
            weight_loads += in.op == core::Opcode::kLoadWeight;
            largest = std::max(largest, in.bytes);
            EXPECT_EQ(in.chunk,
                      std::min<std::uint64_t>(kDmaChunkBytes, in.bytes));
        }
        // One streamed weight load per iteration, whatever its size.
        EXPECT_EQ(weight_loads, cw.weight_bytes[v] > 0 ? 2 : 0);
    }
    EXPECT_GT(largest, kDmaChunkBytes); // some load spans several chunks
}

// ---- End-to-end launches ----------------------------------------------------------

TEST(LauncherTest, BareMetalRunCompletes)
{
    Machine m(fpga());
    WorkloadLauncher launcher(m);
    Model model = workload::resnet_block(16, 64);
    LaunchOptions opt;
    opt.iterations = 3;
    opt.xlat = XlatMode::kPhysical;
    LoadedRun run = launcher.load_bare({0, 1, 2, 3}, model, opt);
    m.run();
    LaunchResult res = launcher.collect(run);
    EXPECT_GT(res.makespan, 0u);
    EXPECT_GT(res.fps, 0.0);
    EXPECT_GT(res.flops, 0u);
    EXPECT_EQ(res.iterations, 3u);
    EXPECT_EQ(res.translation_stall, 0u);
}

TEST(LauncherTest, VirtualizedRunMatchesBareMetalClosely)
{
    // Paper §6.3.3: vNPU virtualization costs < 1% end to end. The
    // bare-metal reference runs on exactly the same physical cores so
    // only the virtualization machinery differs; the bandwidth cap is
    // disabled because bare metal has no cap either.
    Model model = workload::transformer_block(128, 16);
    LaunchOptions opt;
    opt.iterations = 4;
    opt.apply_bw_cap = false;

    Machine virt_m(fpga());
    Hypervisor hv(virt_m.config(), virt_m.topology(), virt_m.controller());
    VnpuSpec spec;
    spec.num_cores = 4;
    spec.memory_bytes = 256ull << 20;
    virt::VirtualNpu& v = hv.create(spec);
    WorkloadLauncher virt_l(virt_m);
    LaunchResult res = virt_l.run_single(v, model, opt);

    Machine bare_m(fpga());
    WorkloadLauncher bare_l(bare_m);
    LaunchOptions bare_opt = opt;
    bare_opt.xlat = XlatMode::kPhysical;
    LoadedRun bare = bare_l.load_bare(v.cores(), model, bare_opt);
    bare_m.run();
    Tick bare_t = bare_l.collect(bare).makespan;

    double overhead = static_cast<double>(res.makespan) /
                          static_cast<double>(bare_t) -
                      1.0;
    EXPECT_GE(overhead, 0.0);
    EXPECT_LT(overhead, 0.02) << "virtualization overhead too high";
}

TEST(LauncherTest, UvmSlowerThanDataflow)
{
    Model model = workload::transformer_block(128, 16);

    auto run_mode = [&](CommMode mode) {
        Machine m(fpga());
        Hypervisor hv(m.config(), m.topology(), m.controller());
        VnpuSpec spec;
        spec.num_cores = 4;
        spec.memory_bytes = 256ull << 20;
        virt::VirtualNpu& v = hv.create(spec);
        WorkloadLauncher l(m);
        LaunchOptions opt;
        opt.iterations = 4;
        opt.comm = mode;
        return l.run_single(v, model, opt);
    };
    LaunchResult df = run_mode(CommMode::kDataflow);
    LaunchResult uvm = run_mode(CommMode::kUvmSync);
    EXPECT_GT(uvm.iter_period, df.iter_period);
}

TEST(LauncherTest, TdmRunsSlowerThanSpatial)
{
    // MIG TDM (24 vcores on 18 pcores) vs full allocation, on a
    // compute-heavy workload where serialization dominates placement.
    // TDM contention only materializes under sustained serving: the
    // two stages sharing a core sit 18 pipeline steps apart, so the
    // iteration count must exceed the pipeline depth.
    Model model = workload::gpt2(workload::Gpt2Size::kSmall, 128);

    Machine m1(SocConfig::Sim());
    Hypervisor hv(m1.config(), m1.topology(), m1.controller());
    VnpuSpec spec;
    spec.num_cores = 24;
    spec.memory_bytes = 1ull << 30;
    virt::VirtualNpu& v = hv.create(spec);
    WorkloadLauncher l1(m1);
    LaunchOptions opt;
    opt.iterations = 48; // > 2x pipeline depth
    LaunchResult full = l1.run_single(v, model, opt);

    Machine m2(SocConfig::Sim());
    hyp::MigPartitioner mig(m2.config(), m2.topology(), m2.controller());
    virt::VirtualNpu& mv = mig.create(24, 1ull << 30);
    ASSERT_EQ(mv.tdm_factor(), 2);
    WorkloadLauncher l2(m2);
    LaunchResult tdm = l2.run_single(mv, model, opt);

    EXPECT_GT(tdm.iter_period, 1.3 * full.iter_period);
}

TEST(LauncherTest, MemoryAccessPatternsHold)
{
    // Figure 6: DMA traces are monotonic within an iteration and
    // repeat across iterations.
    Machine m(fpga());
    m.enable_trace();
    Hypervisor hv(m.config(), m.topology(), m.controller());
    VnpuSpec spec;
    spec.num_cores = 4;
    spec.memory_bytes = 256ull << 20;
    virt::VirtualNpu& v = hv.create(spec);
    WorkloadLauncher l(m);
    LaunchOptions opt;
    opt.iterations = 3;
    opt.force_stream_weights = true;
    l.run_single(v, workload::resnet_block(16, 64), opt);
    EXPECT_FALSE(m.trace().records().empty());
    EXPECT_TRUE(m.trace().monotonic_within_iterations());
    EXPECT_TRUE(m.trace().repeating_across_iterations());
}

TEST(LauncherTest, TranslationSchemesRankCorrectly)
{
    // physical <= vchunk << page-tlb on a streaming workload (Fig 14).
    Model model = workload::resnet_block(16, 64);
    auto run_x = [&](XlatMode x, int entries) {
        Machine m(fpga());
        Hypervisor hv(m.config(), m.topology(), m.controller());
        VnpuSpec spec;
        spec.num_cores = 4;
        spec.memory_bytes = 256ull << 20;
        virt::VirtualNpu& v = hv.create(spec);
        WorkloadLauncher l(m);
        LaunchOptions opt;
        opt.iterations = 3;
        opt.force_stream_weights = true;
        opt.xlat = x;
        opt.tlb_entries = entries;
        return l.run_single(v, model, opt);
    };
    LaunchResult phys = run_x(XlatMode::kPhysical, 4);
    LaunchResult vchunk = run_x(XlatMode::kVChunk, 4);
    LaunchResult page4 = run_x(XlatMode::kPageTlb, 4);
    LaunchResult page32 = run_x(XlatMode::kPageTlb, 32);

    EXPECT_LE(phys.iter_period, vchunk.iter_period);
    EXPECT_LT(vchunk.iter_period, page4.iter_period);
    EXPECT_LT(page32.iter_period, page4.iter_period);
    EXPECT_GT(page4.translation_stall, vchunk.translation_stall);
}

TEST(LauncherTest, BandwidthCapLimitsWarmup)
{
    // Halving the bandwidth cap roughly doubles weight warm-up time.
    Model model = workload::transformer_block(128, 64);
    auto run_cap = [&](double cap) {
        Machine m(fpga());
        Hypervisor hv(m.config(), m.topology(), m.controller());
        VnpuSpec spec;
        spec.num_cores = 4;
        spec.memory_bytes = 256ull << 20;
        spec.bw_cap = cap;
        virt::VirtualNpu& v = hv.create(spec);
        WorkloadLauncher l(m);
        LaunchOptions opt;
        opt.iterations = 2;
        return l.run_single(v, model, opt).warmup;
    };
    Cycles fast = run_cap(8.0);
    Cycles slow = run_cap(2.0);
    EXPECT_GT(slow, 2 * fast);
}

} // namespace
} // namespace vnpu::runtime
