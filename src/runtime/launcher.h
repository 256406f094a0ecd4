/**
 * @file
 * Workload launcher: places a compiled model onto a virtual NPU (or
 * bare-metal core set), installs the per-core virtualization hooks
 * (NoC vRouter, vChunk or page-TLB translation, bandwidth caps), runs
 * the machine, and collects results.
 */

#ifndef VNPU_RUNTIME_LAUNCHER_H
#define VNPU_RUNTIME_LAUNCHER_H

#include <memory>
#include <vector>

#include "mem/page_tlb.h"
#include "runtime/compiler.h"
#include "runtime/machine.h"
#include "virt/virtual_npu.h"
#include "workload/model_zoo.h"

namespace vnpu::runtime {

/** DMA translation scheme for a launch. */
enum class XlatMode {
    kPhysical, ///< no translation (bare metal / ideal)
    kVChunk,   ///< range TLB over the VM's RTT (the paper's design)
    kPageTlb,  ///< page IOTLB baseline
};

/** Launch configuration. */
struct LaunchOptions {
    int iterations = 4;
    CommMode comm = CommMode::kDataflow;
    /** Force weight re-streaming each iteration (else automatic: only
     *  when the stage exceeds the scratchpad weight-zone). */
    bool force_stream_weights = false;
    XlatMode xlat = XlatMode::kVChunk;
    /** TLB entries (range TLB or page TLB, depending on xlat). */
    int tlb_entries = 4;
    /** One inference in flight at a time (latency-critical serving). */
    bool single_stream = false;
    /** Enforce the vNPU's bandwidth cap. */
    bool apply_bw_cap = true;
};

/** Aggregated outcome of one workload run. */
struct LaunchResult {
    Tick makespan = 0;            ///< Last halt tick.
    Cycles warmup = 0;            ///< Max weight warm-up across cores.
    double iter_period = 0;       ///< Steady-state cycles per iteration.
    double fps = 0;               ///< 1 / seconds(iter_period).
    std::uint64_t flops = 0;
    double flops_utilization = 0; ///< vs peak of the allocated cores.
    Cycles translation_stall = 0;
    Cycles vrouter_cycles = 0;
    Cycles wait_recv = 0;
    Cycles dma_cycles = 0;
    Cycles compute_cycles = 0;
    std::uint64_t iterations = 0;
    double mapping_ted = 0;
};

/** Everything a loaded workload owns until results are collected. */
struct LoadedRun {
    const virt::VirtualNpu* vnpu = nullptr; ///< null for bare metal
    std::vector<CoreId> cores;      ///< physical core per virtual core
    std::vector<int> ctx_ids;       ///< context index per virtual core
    LaunchOptions options;
    // Owned virtualization hooks (one per virtual core).
    std::vector<std::unique_ptr<virt::NocVRouter>> vrouters;
    std::vector<std::unique_ptr<virt::VChunk>> vchunks;
    std::unique_ptr<mem::PageTable> page_table;
    std::vector<std::unique_ptr<mem::PageTlbTranslator>> page_tlbs;
    std::unique_ptr<mem::SharedBandwidthLimiter> bw_limiter;
};

/** Orchestrates workload placement and measurement. */
class WorkloadLauncher {
  public:
    explicit WorkloadLauncher(Machine& machine) : machine_(machine) {}

    /**
     * Compile `model` for `vnpu` and install one context per virtual
     * core; each context takes its program (the run keeps no copy).
     * Call Machine::run() afterwards (possibly after loading
     * more workloads for other VMs), then collect().
     */
    LoadedRun load(const virt::VirtualNpu& vnpu,
                   const workload::Model& model, const LaunchOptions& opt);

    /** Bare-metal variant: physical cores, no virtualization hooks. */
    LoadedRun load_bare(const std::vector<CoreId>& cores,
                        const workload::Model& model,
                        const LaunchOptions& opt);

    /** Gather per-context statistics after Machine::run(). */
    LaunchResult collect(const LoadedRun& run) const;

    /** Convenience: load one workload alone, run, and collect. */
    LaunchResult run_single(const virt::VirtualNpu& vnpu,
                            const workload::Model& model,
                            const LaunchOptions& opt);

  private:
    LoadedRun load_impl(const virt::VirtualNpu* vnpu,
                        const std::vector<CoreId>& cores,
                        const workload::Model& model,
                        const LaunchOptions& opt);

    Machine& machine_;
};

} // namespace vnpu::runtime

#endif // VNPU_RUNTIME_LAUNCHER_H
