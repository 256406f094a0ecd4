#include "runtime/launcher.h"

#include <algorithm>
#include <set>
#include <utility>

#include "sim/log.h"
#include "workload/partitioner.h"

namespace vnpu::runtime {

LoadedRun
WorkloadLauncher::load(const virt::VirtualNpu& vnpu,
                       const workload::Model& model,
                       const LaunchOptions& opt)
{
    return load_impl(&vnpu, vnpu.cores(), model, opt);
}

LoadedRun
WorkloadLauncher::load_bare(const std::vector<CoreId>& cores,
                            const workload::Model& model,
                            const LaunchOptions& opt)
{
    return load_impl(nullptr, cores, model, opt);
}

LoadedRun
WorkloadLauncher::load_impl(const virt::VirtualNpu* vnpu,
                            const std::vector<CoreId>& cores,
                            const workload::Model& model,
                            const LaunchOptions& opt)
{
    VNPU_ASSERT(!cores.empty());
    const SocConfig& cfg = machine_.config();

    LoadedRun run;
    run.vnpu = vnpu;
    run.cores = cores;
    run.options = opt;

    workload::PipelinePlan plan =
        workload::make_pipeline_plan(model, static_cast<int>(cores.size()));

    // Weights stay resident only when every stage fits its share of the
    // scratchpad weight-zone (halved per TDM context).
    int tdm = vnpu ? vnpu->tdm_factor() : 1;
    std::uint64_t zone =
        machine_.scratchpad(cores[0]).weight_zone_capacity() /
        static_cast<std::uint64_t>(tdm);
    bool stream = opt.force_stream_weights;
    for (int s = 0; s < plan.num_stages && !stream; ++s) {
        if (plan.stage_weight_bytes(model, s) > zone * 9 / 10)
            stream = true;
    }

    CompileOptions copt;
    copt.iterations = opt.iterations;
    copt.comm = opt.comm;
    copt.stream_weights = stream;
    copt.single_stream = opt.single_stream;

    Addr va_base = 0x10000;
    std::uint64_t va_limit = UINT64_MAX;
    if (vnpu && vnpu->has_memory()) {
        va_base = vnpu->range_table().entry(0).va;
        va_limit = vnpu->memory_bytes();
    }
    CompiledWorkload compiled =
        compile_pipeline(model, plan, copt, va_base, va_limit);

    // Bare metal (or vRouter disabled): peers are resolved statically.
    bool runtime_xlat = vnpu != nullptr && opt.use_vrouter;
    if (!runtime_xlat) {
        for (core::Program& prog : compiled.programs) {
            for (core::Instr& in : prog) {
                if (in.op == core::Opcode::kSend ||
                    in.op == core::Opcode::kRecv) {
                    in.peer = cores[in.peer];
                }
            }
        }
    }

    // Page-table baseline: one table per VM built from the RTT ranges.
    if (opt.xlat == XlatMode::kPageTlb) {
        if (!vnpu || !vnpu->has_memory())
            fatal("page-TLB translation requires a vNPU with memory");
        run.page_table = std::make_unique<mem::PageTable>(cfg.page_bytes);
        const mem::RangeTable& rtt = vnpu->range_table();
        for (std::size_t i = 0; i < rtt.size(); ++i) {
            const mem::RttEntry& e = rtt.entry(i);
            run.page_table->map_range(e.va, e.pa, e.size, e.perm);
        }
    }
    if (opt.xlat == XlatMode::kVChunk && (!vnpu || !vnpu->has_memory()))
        fatal("vChunk translation requires a vNPU with mapped memory");

    // The access counters enforce the hypervisor-assigned bandwidth as
    // a VM-aggregate rate (one shared token bucket).
    if (vnpu && opt.apply_bw_cap && vnpu->bandwidth_cap() > 0) {
        run.bw_limiter = std::make_unique<mem::SharedBandwidthLimiter>(
            vnpu->bandwidth_cap());
    }

    for (std::size_t v = 0; v < cores.size(); ++v) {
        CoreId pcore = cores[v];
        core::ContextConfig ccfg;
        ccfg.vm = vnpu ? vnpu->vm() : kNoVm;
        ccfg.shared_cap = run.bw_limiter.get();

        if (runtime_xlat) {
            run.vrouters.push_back(std::make_unique<virt::NocVRouter>(
                cfg, vnpu->routing_table(), vnpu->confined_routes()));
            ccfg.vrouter = run.vrouters.back().get();
        }
        switch (opt.xlat) {
          case XlatMode::kPhysical:
            break;
          case XlatMode::kVChunk:
            run.vchunks.push_back(std::make_unique<virt::VChunk>(
                cfg, vnpu->range_table(), opt.tlb_entries));
            ccfg.translator = run.vchunks.back()->translator();
            break;
          case XlatMode::kPageTlb:
            run.page_tlbs.push_back(
                std::make_unique<mem::PageTlbTranslator>(
                    cfg, *run.page_table, opt.tlb_entries));
            ccfg.translator = run.page_tlbs.back().get();
            break;
        }

        // Scratchpad accounting for resident weights.
        if (!stream && compiled.weight_bytes[v] > 0) {
            machine_.scratchpad(pcore).alloc_weight(
                model.name + ".stage" + std::to_string(v),
                compiled.weight_bytes[v]);
        }

        run.ctx_ids.push_back(machine_.core(pcore).add_context(
            std::move(compiled.programs[v]), ccfg));
    }
    return run;
}

LaunchResult
WorkloadLauncher::collect(const LoadedRun& run) const
{
    const SocConfig& cfg = machine_.config();
    LaunchResult res;
    res.mapping_ted = run.vnpu ? run.vnpu->mapping_ted() : 0.0;

    Tick first_start = kTickMax;
    for (std::size_t v = 0; v < run.cores.size(); ++v) {
        const core::ContextStats& st =
            machine_.core(run.cores[v]).context_stats(run.ctx_ids[v]);
        if (!st.done) {
            panic("collect() before the workload finished (vcore ", v,
                  ")");
        }
        res.makespan = std::max(res.makespan, st.done_tick);
        first_start = std::min(first_start, st.start_tick);
        res.warmup = std::max(res.warmup, st.warmup);
        res.flops += st.flops;
        res.vrouter_cycles += st.vrouter_cycles;
        res.wait_recv += st.wait_recv;
        res.dma_cycles += st.busy_dma;
        res.compute_cycles += st.busy_compute;
        res.iterations = std::max<std::uint64_t>(res.iterations,
                                                 st.iterations);
    }

    // Steady-state period: the final stage's inter-iteration gap. The
    // first gap is dominated by pipeline fill (and staggered weight
    // warm-up), so it is excluded when enough samples exist.
    const core::ContextStats& last = machine_.core(run.cores.back())
                                         .context_stats(run.ctx_ids.back());
    const std::vector<Tick>& starts = last.iter_starts;
    if (starts.size() >= 3) {
        res.iter_period = static_cast<double>(starts.back() - starts[1]) /
                          static_cast<double>(starts.size() - 2);
    } else if (last.iter_latency.count() > 0) {
        res.iter_period = last.iter_latency.mean();
    } else {
        res.iter_period = static_cast<double>(res.makespan - first_start);
    }
    res.fps = res.iter_period > 0
                  ? 1.0 / cfg.seconds(static_cast<Tick>(res.iter_period))
                  : 0.0;

    // Translation stalls.
    for (const auto& vc : run.vchunks)
        res.translation_stall += vc->tlb().stall_cycles();
    for (const auto& pt : run.page_tlbs)
        res.translation_stall += pt->stall_cycles();

    // FLOPS utilization over the post-warm-up window.
    std::set<CoreId> distinct(run.cores.begin(), run.cores.end());
    double window =
        static_cast<double>(res.makespan - first_start) -
        static_cast<double>(res.warmup);
    if (window > 0) {
        double peak = static_cast<double>(distinct.size()) * 2.0 *
                      cfg.peak_macs_per_cycle() * window;
        res.flops_utilization = static_cast<double>(res.flops) / peak;
    }
    return res;
}

LaunchResult
WorkloadLauncher::run_single(const virt::VirtualNpu& vnpu,
                             const workload::Model& model,
                             const LaunchOptions& opt)
{
    LoadedRun run = load(vnpu, model, opt);
    machine_.run();
    return collect(run);
}

} // namespace vnpu::runtime
