/**
 * @file
 * Tests for the NPU core engine: compute timing, program execution,
 * send/recv rendezvous, TDM contexts, and the controller.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/compute.h"
#include "core/controller.h"
#include "core/isa.h"
#include "mem/range_table.h"
#include "runtime/machine.h"
#include "sim/log.h"
#include "virt/vchunk.h"

namespace vnpu::core {
namespace {

using runtime::Machine;

SocConfig
small_cfg()
{
    SocConfig c = SocConfig::Fpga();
    c.mesh_x = 4;
    c.mesh_y = 2;
    return c;
}

// ---- Compute model ---------------------------------------------------------

TEST(ComputeModelTest, MatmulCycles)
{
    SocConfig cfg = small_cfg(); // 16x16 systolic array
    ComputeModel cm(cfg);
    // 128^3 matmul: 64 tiles * (128 + 16) + 16 = 9232 cycles.
    KernelCost c = cm.matmul(128, 128, 128);
    EXPECT_EQ(c.cycles, 9232u);
    EXPECT_EQ(c.flops, 2ull * 128 * 128 * 128);
}

TEST(ComputeModelTest, SmallMatmulStillCostsFullTile)
{
    ComputeModel cm(small_cfg());
    KernelCost tiny = cm.matmul(1, 1, 1);
    EXPECT_GT(tiny.cycles, 16u); // fill/drain dominate
}

TEST(ComputeModelTest, ConvAddsIm2colOverhead)
{
    ComputeModel cm(small_cfg());
    KernelCost conv = cm.conv(32, 32, 16, 16, 3);
    KernelCost mm = cm.matmul(32 * 32, 16 * 9, 16);
    EXPECT_EQ(conv.cycles, mm.cycles + mm.cycles / 10);
    EXPECT_EQ(conv.flops, mm.flops);
}

TEST(ComputeModelTest, VectorOpUsesLanes)
{
    ComputeModel cm(small_cfg()); // 16 lanes
    EXPECT_EQ(cm.vector_op(160).cycles, 10u);
    EXPECT_EQ(cm.vector_op(1).cycles, 1u);
}

TEST(ComputeModelTest, KernelExecutionDwarfsDispatch)
{
    // Paper Fig. 12: compute kernels are 2-3 orders of magnitude above
    // instruction-dispatch latency.
    SocConfig cfg = small_cfg();
    ComputeModel cm(cfg);
    noc::MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    NpuController ctrl(cfg, topo);
    Cycles dispatch = ctrl.dispatch_cost(7, DispatchVia::kInoc);
    EXPECT_GT(cm.matmul(128, 128, 128).cycles, 100 * dispatch);
    EXPECT_GT(cm.conv(32, 32, 16, 16, 3).cycles, 100 * dispatch);
}

// ---- ISA helpers -------------------------------------------------------------

TEST(IsaTest, FactoriesAndRendering)
{
    Instr s = Instr::send(3, 2048, 7);
    EXPECT_EQ(s.op, Opcode::kSend);
    EXPECT_NE(s.to_string().find("dst=3"), std::string::npos);
    Instr m = Instr::matmul(8, 16, 32);
    EXPECT_NE(m.to_string().find("matmul"), std::string::npos);

    Program p{Instr::load_weight(0, 1000), Instr::load_global(0, 500),
              Instr::send(0, 64, 0), Instr::halt()};
    EXPECT_EQ(program_load_bytes(p), 1500u);
    EXPECT_EQ(program_send_bytes(p), 64u);
}

// ---- Core execution -----------------------------------------------------------

TEST(NpuCoreTest, RunsComputeAndDmaSequence)
{
    Machine m(small_cfg());
    Program p{
        Instr::iter_begin(),
        Instr::load_weight(0x1000, 8192), // 1024 cycles at 8 B/cyc
        Instr::matmul(16, 16, 16),        // 1*(16+16)+16 = 48 cycles
        Instr::halt(),
    };
    m.core(0).add_context(p, ContextConfig{});
    Tick end = m.run();
    EXPECT_EQ(end, 1024u + 48u);
    const ContextStats& st = m.core(0).context_stats(0);
    EXPECT_TRUE(st.done);
    EXPECT_EQ(st.busy_dma, 1024u);
    EXPECT_EQ(st.busy_compute, 48u);
    EXPECT_EQ(st.iterations, 1u);
}

TEST(NpuCoreTest, SendRecvRendezvous)
{
    Machine m(small_cfg());
    Program sender{Instr::send(1, 2048, 5), Instr::halt()};
    Program receiver{Instr::recv(0, 2048, 5), Instr::halt()};
    m.core(0).add_context(sender, ContextConfig{});
    m.core(1).add_context(receiver, ContextConfig{});
    m.run();
    // Delivery after handshake + 1 hop + serialization (the event
    // queue itself drains later: the credit message flies back).
    EXPECT_EQ(m.core(1).context_stats(0).done_tick, 150u);
    EXPECT_GT(m.core(1).context_stats(0).wait_recv, 0u);
}

TEST(NpuCoreTest, CreditWindowBoundsProducerRunahead)
{
    // A producer sending 8 messages to a slow consumer must stall once
    // the 2-credit window fills.
    SocConfig cfg = small_cfg();
    Machine m(cfg);
    Program producer, consumer;
    for (int i = 0; i < 8; ++i) {
        producer.push_back(Instr::send(1, 2048, 5));
        consumer.push_back(Instr::matmul(128, 128, 128)); // 9232 cycles
        consumer.push_back(Instr::recv(0, 2048, 5));
    }
    producer.push_back(Instr::halt());
    consumer.push_back(Instr::halt());
    m.core(0).add_context(producer, ContextConfig{});
    m.core(1).add_context(consumer, ContextConfig{});
    m.run();
    const ContextStats& prod = m.core(0).context_stats(0);
    const ContextStats& cons = m.core(1).context_stats(0);
    // The producer spent most of its life credit-blocked...
    EXPECT_GT(prod.wait_recv, 6u * 9000u);
    // ...and the consumer never waited (messages always buffered).
    EXPECT_EQ(cons.wait_recv, 0u);
}

TEST(NpuCoreTest, RecvAfterDeliveryDoesNotBlock)
{
    Machine m(small_cfg());
    // Receiver is busy computing while the message arrives.
    Program sender{Instr::send(1, 2048, 5), Instr::halt()};
    Program receiver{Instr::matmul(128, 128, 128), // 9232 cycles
                     Instr::recv(0, 2048, 5), Instr::halt()};
    m.core(0).add_context(sender, ContextConfig{});
    m.core(1).add_context(receiver, ContextConfig{});
    m.run();
    EXPECT_EQ(m.core(1).context_stats(0).wait_recv, 0u);
}

TEST(NpuCoreTest, PipelinedIterationsOverlap)
{
    // Two-stage pipeline: stage 0 computes and sends; stage 1 receives
    // and computes. Iteration markers measure the steady-state period.
    const int iters = 6;
    Machine m(small_cfg());
    Program p0, p1;
    for (int i = 0; i < iters; ++i) {
        p0.push_back(Instr::iter_begin());
        p0.push_back(Instr::matmul(64, 64, 64)); // 16*(64+16)+16 = 1296
        p0.push_back(Instr::send(1, 4096, i));
        p1.push_back(Instr::iter_begin());
        p1.push_back(Instr::recv(0, 4096, i));
        p1.push_back(Instr::matmul(64, 64, 64));
    }
    p0.push_back(Instr::halt());
    p1.push_back(Instr::halt());
    m.core(0).add_context(p0, ContextConfig{});
    m.core(1).add_context(p1, ContextConfig{});
    Tick end = m.run();
    // With overlap, total << 2 * iters * stage_time.
    EXPECT_LT(end, 2u * iters * 1600u);
    const ContextStats& st1 = m.core(1).context_stats(0);
    EXPECT_EQ(st1.iterations, static_cast<std::uint32_t>(iters));
    EXPECT_GT(st1.iter_latency.count(), 0u);
}

TEST(NpuCoreTest, LongProgramDeliveryFindsConsumingContext)
{
    // Two VMs' contexts share the receiving core, each with a long
    // program of distinct tags. All messages land while the receivers
    // are still computing, so every delivery must locate its consuming
    // context through the per-context tag index (the old code rescanned
    // the program text per delivery - quadratic in program length).
    const int n = 400;
    Machine m(small_cfg());
    Program send_a, send_b, recv_a, recv_b;
    recv_a.push_back(Instr::matmul(128, 128, 128)); // 9232 cycles busy
    recv_b.push_back(Instr::matmul(128, 128, 128));
    for (int i = 0; i < n; ++i) {
        send_a.push_back(Instr::send(2, 64, 1000 + i));
        recv_a.push_back(Instr::recv(0, 64, 1000 + i));
        // VM b reuses the same numeric tags: the vm filter must keep
        // the streams apart.
        send_b.push_back(Instr::send(2, 64, 1000 + i));
        recv_b.push_back(Instr::recv(1, 64, 1000 + i));
    }
    send_a.push_back(Instr::halt());
    send_b.push_back(Instr::halt());
    recv_a.push_back(Instr::halt());
    recv_b.push_back(Instr::halt());

    ContextConfig va, vb;
    va.vm = 1;
    vb.vm = 2;
    m.core(0).add_context(send_a, va);
    m.core(1).add_context(send_b, vb);
    m.core(2).add_context(recv_a, va);
    m.core(2).add_context(recv_b, vb);
    m.run();
    const ContextStats& sa = m.core(2).context_stats(0);
    const ContextStats& sb = m.core(2).context_stats(1);
    EXPECT_TRUE(sa.done);
    EXPECT_TRUE(sb.done);
    EXPECT_EQ(sa.instructions, static_cast<std::uint64_t>(n + 2));
    EXPECT_EQ(sb.instructions, static_cast<std::uint64_t>(n + 2));
}

TEST(NpuCoreTest, TdmContextsSerialize)
{
    // The same compute twice: once as two contexts on one core (TDM),
    // once on two separate cores.
    SocConfig cfg = small_cfg();
    Program p{Instr::matmul(128, 128, 128), Instr::halt()}; // 9232 cyc

    Machine tdm(cfg);
    tdm.core(0).add_context(p, ContextConfig{.vm = 1});
    tdm.core(0).add_context(p, ContextConfig{.vm = 2});
    Tick tdm_end = tdm.run();

    Machine spatial(cfg);
    spatial.core(0).add_context(p, ContextConfig{.vm = 1});
    spatial.core(1).add_context(p, ContextConfig{.vm = 2});
    Tick spatial_end = spatial.run();

    EXPECT_EQ(spatial_end, 9232u);
    // TDM serializes both kernels plus a context switch.
    EXPECT_GE(tdm_end, 2u * 9232u);
    EXPECT_LE(tdm_end, 2u * 9232u + 4u * cfg.context_switch_cycles);
}

TEST(NpuCoreTest, TdmInterleavesAtBlockingPoints)
{
    // Context A waits on a message; context B must run meanwhile.
    SocConfig cfg = small_cfg();
    Machine m(cfg);
    Program waiter{Instr::recv(1, 2048, 9), Instr::halt()};
    Program worker{Instr::matmul(64, 64, 64), Instr::halt()};
    Program remote{Instr::matmul(128, 128, 128), // keeps the peer busy
                   Instr::send(0, 2048, 9), Instr::halt()};
    m.core(0).add_context(waiter, ContextConfig{.vm = 1});
    m.core(0).add_context(worker, ContextConfig{.vm = 2});
    m.core(1).add_context(remote, ContextConfig{.vm = 1});
    m.run();
    const ContextStats& worker_st = m.core(0).context_stats(1);
    const ContextStats& waiter_st = m.core(0).context_stats(0);
    // The worker finished while the waiter was blocked.
    EXPECT_LT(worker_st.done_tick, waiter_st.done_tick);
}

TEST(NpuCoreTest, DeadlockIsDetected)
{
    Machine m(small_cfg());
    Program p{Instr::recv(1, 64, 0), Instr::halt()}; // nobody sends
    m.core(0).add_context(p, ContextConfig{});
    EXPECT_THROW(m.run(), SimPanic);
}

/** What a chunked-load scenario run leaves behind, per context. */
struct DmaScenario {
    std::vector<Tick> done;
    std::vector<Cycles> busy_dma;
    std::vector<std::uint64_t> instructions;
    std::uint64_t transfers = 0;
    std::uint64_t dma_stall = 0;
    std::uint64_t tlb_stall = 0;
};

/**
 * Two TDM contexts on core 0 (vm 1 and vm 2) and one on core 1 (vm 1),
 * each behind its own vChunk with a one-entry range TLB over four
 * 16 KiB ranges. Context A blocks on a message from core 1 between its
 * loads, so B runs meanwhile. Each load is emitted as one chunked
 * instruction, or hand-split into one load per chunk.
 */
DmaScenario
run_dma_scenario(bool chunked)
{
    SocConfig cfg = small_cfg();
    Machine m(cfg);
    mem::RangeTable rtt;
    for (Addr r = 0; r < 4; ++r)
        rtt.add(0x10000 + r * 0x4000, 0x100000 * (r + 1), 0x4000,
                mem::kPermRead | mem::kPermWrite);
    rtt.finalize();
    virt::VChunk va(cfg, rtt, 1), vb(cfg, rtt, 1), vc(cfg, rtt, 1);

    auto load = [chunked](Program& p, Opcode op, Addr addr,
                          std::uint64_t bytes, std::uint32_t chunk) {
        auto make = [op](Addr a, std::uint64_t n, std::uint32_t c) {
            return op == Opcode::kLoadWeight ? Instr::load_weight(a, n, c)
                                             : Instr::load_global(a, n, c);
        };
        if (chunked) {
            p.push_back(make(addr, bytes, chunk));
            return;
        }
        for (std::uint64_t off = 0; off < bytes; off += chunk)
            p.push_back(make(addr + off, std::min<std::uint64_t>(
                                             chunk, bytes - off), 0));
    };

    Program a{Instr::iter_begin()};
    load(a, Opcode::kLoadWeight, 0x10000, 10000, 4096); // remainder 1808
    a.push_back(Instr::matmul(16, 16, 16));
    load(a, Opcode::kLoadGlobal, 0x17000, 3000, 8192);  // chunk >= bytes
    a.push_back(Instr::recv(1, 2048, 3));
    load(a, Opcode::kLoadWeight, 0x1a000, 8192, 1024);
    a.push_back(Instr::halt());

    Program b{Instr::iter_begin()};
    load(b, Opcode::kLoadGlobal, 0x12000, 12288, 5000); // 5000 5000 2288
    b.push_back(Instr::store_global(0x10000, 256));
    load(b, Opcode::kLoadWeight, 0x1c000, 16384, 4096);
    b.push_back(Instr::halt());

    Program c{Instr::iter_begin()};
    load(c, Opcode::kLoadWeight, 0x10000, 20000, 4096);
    c.push_back(Instr::send(0, 2048, 3));
    c.push_back(Instr::halt());

    ContextConfig ca{.vm = 1, .translator = va.translator()};
    ContextConfig cb{.vm = 2, .translator = vb.translator()};
    ContextConfig cc{.vm = 1, .translator = vc.translator()};
    m.core(0).add_context(std::move(a), ca);
    m.core(0).add_context(std::move(b), cb);
    m.core(1).add_context(std::move(c), cc);
    m.run();

    DmaScenario out;
    const std::pair<CoreId, int> contexts[] = {{0, 0}, {0, 1}, {1, 0}};
    for (auto [core, ctx] : contexts) {
        const ContextStats& st = m.core(core).context_stats(ctx);
        EXPECT_TRUE(st.done);
        out.done.push_back(st.done_tick);
        out.busy_dma.push_back(st.busy_dma);
        out.instructions.push_back(st.instructions);
    }
    for (CoreId core : {0, 1}) {
        out.transfers += m.dma(core).stats().transfers.value();
        out.dma_stall += m.dma(core).stats().translation_stall.value();
    }
    out.tlb_stall = va.tlb().stall_cycles() + vb.tlb().stall_cycles() +
                    vc.tlb().stall_cycles();
    return out;
}

TEST(NpuCoreTest, ChunkedLoadRunsAsHandSplitLoads)
{
    const DmaScenario split = run_dma_scenario(false);
    const DmaScenario chunked = run_dma_scenario(true);
    EXPECT_EQ(chunked.done, split.done);
    EXPECT_EQ(chunked.busy_dma, split.busy_dma);
    EXPECT_EQ(chunked.instructions, split.instructions);
    EXPECT_EQ(chunked.transfers, split.transfers);
    EXPECT_EQ(chunked.dma_stall, split.dma_stall);
    EXPECT_EQ(chunked.tlb_stall, split.tlb_stall);
    // One transfer per chunk: A 3+1+8, B 3+1+4, C 5.
    EXPECT_EQ(chunked.transfers, 25u);
    EXPECT_GT(chunked.tlb_stall, 0u);
    // A: marker, 3 chunks, compute, 1, recv, 8 chunks, halt.
    EXPECT_EQ(chunked.instructions[0], 16u);
}

// ---- Controller ---------------------------------------------------------------

TEST(ControllerTest, HyperModeGatesConfiguration)
{
    SocConfig cfg = small_cfg();
    noc::MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    NpuController ctrl(cfg, topo);
    EXPECT_THROW(ctrl.configure_routing_table(1, 4), SimPanic);
    EXPECT_THROW(ctrl.deploy_meta_bytes(1, 64), SimPanic);
    ctrl.set_hyper_mode(true);
    EXPECT_GT(ctrl.configure_routing_table(1, 4), 0u);
    ctrl.deploy_meta_bytes(1, 64);
    EXPECT_EQ(ctrl.meta_bytes(1), 64u);
}

TEST(ControllerTest, ConfigCostScalesLinearlyInCores)
{
    SocConfig cfg = small_cfg();
    noc::MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    NpuController ctrl(cfg, topo);
    ctrl.set_hyper_mode(true);
    Cycles c1 = ctrl.configure_routing_table(1, 1);
    Cycles c8 = ctrl.configure_routing_table(1, 8);
    EXPECT_EQ(c8, 8 * c1);
    // "a few hundred cycles" for an 8-core table (Figure 11).
    EXPECT_LT(c8, 500u);
}

TEST(ControllerTest, DispatchLatencies)
{
    SocConfig cfg = small_cfg();
    noc::MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    NpuController ctrl(cfg, topo);
    // IBUS is fixed; the instruction NoC grows with distance.
    Cycles ibus0 = ctrl.dispatch_cost(0, DispatchVia::kIbus);
    Cycles ibus7 = ctrl.dispatch_cost(7, DispatchVia::kIbus);
    EXPECT_EQ(ibus0, ibus7);
    Cycles near = ctrl.dispatch_cost(0, DispatchVia::kInoc);
    Cycles far = ctrl.dispatch_cost(7, DispatchVia::kInoc);
    EXPECT_LT(near, far);
}

TEST(ControllerTest, CachedTranslationForConsecutiveDispatch)
{
    SocConfig cfg = small_cfg();
    noc::MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    NpuController ctrl(cfg, topo);
    Cycles first = ctrl.dispatch_cost_virtual(1, 0, 3, DispatchVia::kIbus);
    Cycles second = ctrl.dispatch_cost_virtual(1, 0, 3, DispatchVia::kIbus);
    EXPECT_GT(first, second);
    EXPECT_EQ(ctrl.rt_lookup_hits().value(), 1u);
    // A different virtual core misses the cache again.
    Cycles third = ctrl.dispatch_cost_virtual(1, 1, 4, DispatchVia::kIbus);
    EXPECT_EQ(third, first);
}

} // namespace
} // namespace vnpu::core
